"""Executable construction for Theorem 3.2 (randomized lower bound).

Theorem 3.2: for ``beta >= 1/2``, any randomized asynchronous Download
protocol has executions in which some peer queries more than a constant
fraction of ``ell`` bits — randomization does not rescue the Byzantine
majority regime (unlike in the synchronous model).

The proof's adversary cannot see the victim's coins, so it attacks the
victim's *query distribution*:

1. estimate ``q_i`` — the probability that the victim queries bit
   ``i`` — by running the reference execution over many victim-coin
   samples (the corrupted majority's coins ``rho`` are fixed by the
   adversary, exactly as in the proof);
2. pick the target ``i*`` with minimal ``q_i`` (the proof picks
   proportionally to ``1 - q_i`` and Cauchy–Schwarz-bounds the hit
   probability by ``Q / ell``; the argmin choice only strengthens the
   witness);
3. run the attack execution (input flipped at ``i*``, majority
   simulating all-zeros) over fresh victim coins and measure how often
   the victim terminates with the wrong bit.

For a protocol whose victim queries ``Q`` bits on average, the measured
fooling rate should be at least about ``1 - Q / ell`` — the driver
returns both numbers so tests and benches can compare.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.adversary.lower_bound import MajoritySimulationAdversary
from repro.core.bounds import randomized_fooling_floor
from repro.lowerbounds.deterministic import majority_split
from repro.sim.runner import Simulation
from repro.util.bitarrays import BitArray
from repro.util.rng import derive_seed


@dataclass
class RandomizedLowerBoundReport:
    """Measured outcome of the Theorem 3.2 construction."""

    n: int
    ell: int
    target_bit: int
    estimated_hit_probability: float
    mean_victim_queries: float
    attack_trials: int
    fooled_trials: int
    abandoned_trials: int

    @property
    def fooling_rate(self) -> float:
        """Fraction of attack executions in which the victim output the
        wrong bit."""
        return self.fooled_trials / self.attack_trials

    @property
    def theoretical_floor(self) -> float:
        """The proof's lower bound on the fooling rate:
        ``1 - mean_Q / ell`` (up to quiescence abandonments)."""
        return randomized_fooling_floor(self.mean_victim_queries, self.ell)


def run_randomized_construction(
        *, peer_factory, n: int, ell: int, claimed_t: int,
        estimation_trials: int = 20, attack_trials: int = 20,
        base_seed: int = 0,
        rho_seed: int = 1_234_567) -> RandomizedLowerBoundReport:
    """Run the Theorem 3.2 attack and measure the fooling rate."""
    victim, corrupted, silenced = majority_split(n)
    zeros = BitArray.zeros(ell)

    # ---- step 1: estimate the victim's query distribution ----
    hit_counts: Counter = Counter()
    total_queries = 0
    for trial in range(estimation_trials):
        adversary = MajoritySimulationAdversary(
            corrupted=corrupted, silenced=silenced,
            fake_input=zeros.copy(), rho_seed=rho_seed)
        run = Simulation(
            n=n, data=zeros.copy(), peer_factory=peer_factory, t=claimed_t,
            adversary=adversary,
            seed=derive_seed(base_seed, f"estimate-{trial}"),
            allow_fault_overrun=True).run()
        queried = run.queried_indices.get(victim, set())
        total_queries += len(queried)
        hit_counts.update(queried)

    # ---- step 2: choose the least-likely-queried bit ----
    target = min(range(ell), key=lambda bit: (hit_counts[bit], bit))
    estimated_hit = hit_counts[target] / estimation_trials

    # ---- step 3: attack with fresh victim coins ----
    flipped = zeros.copy()
    flipped[target] = 1
    fooled = 0
    abandoned = 0
    for trial in range(attack_trials):
        adversary = MajoritySimulationAdversary(
            corrupted=corrupted, silenced=silenced,
            fake_input=zeros.copy(), rho_seed=rho_seed)
        run = Simulation(
            n=n, data=flipped.copy(), peer_factory=peer_factory,
            t=claimed_t, adversary=adversary,
            seed=derive_seed(base_seed, f"attack-{trial}"),
            allow_fault_overrun=True).run()
        status = run.statuses[victim]
        output = run.outputs.get(victim)
        if not status.terminated or output is None:
            abandoned += 1  # quiescence reached first; adversary gives up
        elif output[target] != 1:
            fooled += 1
    return RandomizedLowerBoundReport(
        n=n, ell=ell, target_bit=target,
        estimated_hit_probability=estimated_hit,
        mean_victim_queries=total_queries / estimation_trials,
        attack_trials=attack_trials, fooled_trials=fooled,
        abandoned_trials=abandoned)
