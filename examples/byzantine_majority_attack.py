#!/usr/bin/env python3
"""The Byzantine-majority lower bound, live (Theorems 3.1 and 3.2).

This example runs the paper's witness adversary against a protocol
that queries less than the full input while a *majority* of peers are
corrupted:

1. the adversary lets the corrupted majority simulate an execution on
   the all-zeros input, starves the victim of every other honest voice,
   and flips one bit the victim never queries;
2. the victim — seeing a view indistinguishable from the all-zeros
   world — terminates with the wrong array.

Theorem 3.2's witness is the same adversary drawing the flipped bit at
random, an ordinary entry of the spec's adversary table
(``fault_model="byzantine"``, ``strategy="majority-simulation"``).

Then it shows the two ways out the theorems allow: pay ``ell`` queries
(the naive protocol survives), and drop below a Byzantine majority
(beta < 1/2 — the same committee protocol becomes unbreakable).

Run:  python examples/byzantine_majority_attack.py
"""

from repro.adversary import (
    ByzantineAdversary,
    ComposedAdversary,
    UniformRandomDelay,
    WrongBitsStrategy,
)
from repro.core.bounds import randomized_fooling_floor
from repro.experiments import ExperimentSpec, run_experiment
from repro.experiments.backends.lowerbound import (
    run_deterministic_construction,
)
from repro.protocols import ByzCommitteeDownloadPeer, NaiveDownloadPeer
from repro.sim import run_download


def main() -> None:
    n, ell = 10, 300

    print("=== Theorem 3.1: deterministic protocols, beta >= 1/2 ===")
    outcome = run_deterministic_construction(
        peer_factory=ByzCommitteeDownloadPeer.factory(block_size=10),
        n=n, ell=ell, claimed_t=2, seed=1)
    print(f"victim queried {outcome.victim_queries}/{ell} bits; the "
          f"adversary flipped unqueried bit {outcome.target_bit}")
    print(f"victim fooled: {outcome.fooled} (output wrong at bit "
          f"{outcome.target_bit})")
    assert outcome.fooled

    print("\nThe only deterministic escape is querying everything:")
    naive_outcome = run_deterministic_construction(
        peer_factory=NaiveDownloadPeer.factory(),
        n=n, ell=ell, claimed_t=5, seed=1)
    print(f"naive victim queried {naive_outcome.victim_queries}/{ell}; "
          f"fooled: {naive_outcome.fooled}")
    assert not naive_outcome.fooled

    print("\n=== Theorem 3.2: randomization does not help either ===")
    outcome = run_experiment(ExperimentSpec(
        "byz-two-cycle", 12, 256, fault_model="byzantine", beta=0.5,
        strategy="majority-simulation",
        protocol_params={"num_segments": 4, "tau": 1},
        repeats=20, base_seed=3))
    floor = randomized_fooling_floor(outcome.mean_query_complexity, 256)
    wrong = outcome.runs - outcome.correct_runs
    print(f"worst peer's mean queries: "
          f"{outcome.mean_query_complexity:.0f}/256")
    print(f"runs not correct: {wrong}/{outcome.runs} = "
          f"{wrong / outcome.runs:.2f} (theory floor 1 - Q/ell = "
          f"{floor:.2f})")
    assert wrong > 0

    print("\n=== And below the majority threshold, the attack dies ===")
    adversary = ComposedAdversary(
        faults=ByzantineAdversary(
            fraction=0.4, strategy_factory=lambda pid: WrongBitsStrategy()),
        latency=UniformRandomDelay())
    result = run_download(
        n=n, ell=ell, peer_factory=ByzCommitteeDownloadPeer.factory(
            block_size=10),
        adversary=adversary, seed=4)
    print(f"committee protocol at beta=0.4 < 1/2: "
          f"correct={result.download_correct}, "
          f"Q={result.report.query_complexity} < ell={ell}")
    assert result.download_correct


if __name__ == "__main__":
    main()
