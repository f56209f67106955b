"""Theorem 3.1's witness as a backend (``backend="lowerbound"``).

Theorem 3.1: for ``beta >= 1/2``, every deterministic asynchronous
Download protocol resilient to Byzantine faults has query complexity
``ell`` — the naive protocol is the only one.  The proof is a
two-execution indistinguishability argument, which
:func:`run_deterministic_construction` runs against any registry
protocol, the spec's ``protocol`` (the *victim*):

1. **Discovery execution** — input all zeros; the majority ``F`` runs
   honestly, the other honest peers are withheld; the victim terminates
   (if it cannot, the adversary abandons).  Record the set of bits the
   victim queried and pick a target ``b*`` outside it (if the victim
   queried everything, the protocol respects the bound and there is
   nothing to attack).
2. **Attack execution** — input all zeros except ``X'[b*] = 1``; the
   corrupted majority *simulates* the discovery execution (honest code
   over a fake all-zeros source); the victim, seeing an identical
   view, terminates with the all-zeros output — wrong at ``b*``.

The adversary chooses the input here, which no ``ADVERSARIES`` entry
can, so this construction keeps its own backend; Theorem 3.2's witness
is the ``("byzantine", "majority-simulation")`` entry on ``sim``.  Each
repeat's ``correct`` records whether the victim was fooled (so
``success_rate`` across repeats is the fooled-rate) and ``queries`` the
victim's query bits.  ``protocol_params["claimed_t"]`` is the fault
budget the victim is told; the remaining params go to its peer factory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.adversary.lower_bound import MajoritySimulationAdversary
from repro.protocols import get
from repro.sim.runner import RunResult, Simulation
from repro.util.bitarrays import BitArray
from repro.util.validation import check_fraction, check_positive

from repro.experiments.backends import check_protocol_params, telemetry_scope
from repro.experiments.outcome import RepeatRecord
from repro.experiments.spec import ExperimentSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.telemetry import Telemetry


@dataclass
class DeterministicLowerBoundOutcome:
    """What the Theorem 3.1 construction produced for one protocol."""

    ell: int
    victim: int
    victim_queries: int
    target_bit: Optional[int]
    fooled: bool
    discovery: RunResult
    attack: Optional[RunResult]

    @property
    def respects_bound(self) -> bool:
        """True when the protocol escaped only by querying everything."""
        return self.target_bit is None and self.victim_queries >= self.ell


def majority_split(n: int) -> tuple[int, set[int], set[int]]:
    """The construction's cast: victim 0, corrupted majority, silenced rest.

    The corrupted set must be large enough that the victim's
    "wait for n - t peers" steps are satisfiable by ``F + {victim}``:
    ``|F| = ceil(n / 2)`` does it for ``t = |F|``.
    """
    corrupted = set(range(n - math.ceil(n / 2), n))
    victim = 0
    return victim, corrupted, set(range(n)) - corrupted - {victim}


def run_deterministic_construction(
        *, peer_factory, n: int, ell: int, seed: int = 0,
        claimed_t: Optional[int] = None) -> DeterministicLowerBoundOutcome:
    """Run the Theorem 3.1 attack against ``peer_factory``.

    ``claimed_t`` is the fault budget the protocol is *told* (its wait
    thresholds use it); the adversary corrupts ``ceil(n/2)`` peers
    regardless — the theorem's regime is exactly the one where such a
    majority fits the declared ``beta >= 1/2``.
    """
    victim, corrupted, silenced = majority_split(n)
    if claimed_t is None:
        claimed_t = len(corrupted)

    def execute(data: BitArray) -> RunResult:
        adversary = MajoritySimulationAdversary(
            corrupted=corrupted, silenced=silenced,
            fake_input=BitArray.zeros(ell))
        return Simulation(
            n=n, data=data, peer_factory=peer_factory, t=claimed_t,
            adversary=adversary, seed=seed, allow_fault_overrun=True).run()

    discovery = execute(BitArray.zeros(ell))
    victim_queried = discovery.queried_indices.get(victim, set())
    target = next((bit for bit in range(ell) if bit not in victim_queried),
                  None)
    outcome = DeterministicLowerBoundOutcome(
        ell=ell, victim=victim, victim_queries=len(victim_queried),
        target_bit=None, fooled=False, discovery=discovery, attack=None)
    if target is None or not discovery.statuses[victim].terminated:
        return outcome

    flipped = BitArray.zeros(ell)
    flipped[target] = 1
    outcome.target_bit = target
    outcome.attack = attack = execute(flipped)
    victim_output = attack.outputs.get(victim)
    outcome.fooled = (victim_output is not None
                      and victim_output[target] != flipped[target])
    return outcome


def _split_params(spec: "ExperimentSpec") -> tuple[Optional[int], dict]:
    """(``claimed_t`` or ``None``, victim peer-factory kwargs)."""
    peer_params = dict(spec.protocol_params)
    return peer_params.pop("claimed_t", None), peer_params


class LowerBoundBackend:
    """Runs specs through :func:`run_deterministic_construction`."""

    def validate(self, spec: "ExperimentSpec") -> None:
        entry = get(spec.protocol)  # the victim comes from the async registry
        check_positive("n", spec.n)
        check_positive("ell", spec.ell)
        check_fraction("beta", spec.beta, inclusive_high=False)
        check_positive("repeats", spec.repeats)
        if spec.network != "asynchronous":
            raise ValueError(
                f"backend='lowerbound' requires network='asynchronous' "
                f"(the Theorem 3.1 witness schedules messages "
                f"adversarially), got {spec.network!r}")
        if spec.fault_model not in ("none", "byzantine"):
            raise ValueError(
                f"fault_model must be 'none' or 'byzantine' for "
                f"backend='lowerbound' (the construction corrupts its "
                f"own majority), got {spec.fault_model!r}")
        if spec.strategy != ExperimentSpec.strategy:
            raise ValueError(
                f"backend='lowerbound' runs its own adversary and takes "
                f"no strategy, got {spec.strategy!r}")
        if spec.proxy_faults:
            raise ValueError(
                "proxy_faults apply only to backend='net' — the "
                "lower-bound construction has no transport to shake")
        claimed_t, peer_params = _split_params(spec)
        check_protocol_params(spec, entry.peer_class, params=peer_params)
        if claimed_t is not None:
            check_positive("claimed_t", claimed_t)

    def run_one(self, spec: "ExperimentSpec", repeat: int, seed: int,
                telemetry: Optional["Telemetry"]) -> RepeatRecord:
        claimed_t, peer_params = _split_params(spec)
        with telemetry_scope(telemetry):
            outcome = run_deterministic_construction(
                peer_factory=get(spec.protocol).factory(**peer_params),
                n=spec.n, ell=spec.ell, seed=seed, claimed_t=claimed_t)
        return RepeatRecord(queries=outcome.victim_queries, messages=0,
                            time=0.0, correct=outcome.fooled)
