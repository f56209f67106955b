"""Name-indexed protocol registry used by benches and examples.

Each entry couples a peer class with the regime it is valid in, so
harness code can sweep "every protocol that tolerates this fault setup"
without hard-coding the list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.protocols.balanced import BalancedDownloadPeer
from repro.protocols.base import DownloadPeer
from repro.protocols.byz_committee import ByzCommitteeDownloadPeer
from repro.protocols.byz_multi_cycle import ByzMultiCycleDownloadPeer
from repro.protocols.byz_two_cycle import ByzTwoCycleDownloadPeer
from repro.protocols.crash_multi import (
    CrashMultiDownloadPeer,
    CrashMultiFastDownloadPeer,
)
from repro.protocols.crash_one import CrashOneDownloadPeer
from repro.protocols.multisource import (
    CrossValidateDownloadPeer,
    CrossValidateEscalateDownloadPeer,
)
from repro.protocols.naive import NaiveDownloadPeer
from repro.protocols.one_round import OneRoundDownloadPeer


@dataclass(frozen=True)
class ProtocolEntry:
    """One protocol with its validity envelope."""

    name: str
    peer_class: type
    fault_model: str  # "none", "crash", "byzantine"
    randomized: bool
    max_crash_fraction: float  # largest beta the protocol tolerates
    max_byzantine_fraction: float
    description: str
    #: Execution backends that can host this class's ``body`` — every
    #: protocol runs on the simulator it was written against; the
    #: lockstep (``"sync"``) and socket (``"net"``) hosts drive the
    #: same body through their own ports (docs/EXTENDING.md).
    backends: tuple[str, ...] = ("sim",)

    def supports(self, *, fault_model: str, beta: float) -> bool:
        """True when the protocol is claimed correct for this setup."""
        if fault_model == "none":
            return True
        if fault_model == "crash":
            # Byzantine-tolerant protocols also survive crashes.
            limit = max(self.max_crash_fraction,
                        self.max_byzantine_fraction)
            return beta <= limit
        if fault_model in ("byzantine", "dynamic"):
            # A dynamic adversary's budget is per cycle, and the
            # thresholds absorb exactly that (adversary/dynamic.py).
            return beta <= self.max_byzantine_fraction
        raise ValueError(f"unknown fault model {fault_model!r}")

    def factory(self, **params) -> Callable:
        """Peer factory with protocol parameters bound."""
        return self.peer_class.factory(**params)


_REGISTRY: dict[str, ProtocolEntry] = {}

#: The protocols whose query sets are pure functions of ``(pid, n, ell,
#: source views)`` run unchanged on all three substrates.
_EVERYWHERE = ("sim", "sync", "net")


def _register(entry: ProtocolEntry) -> None:
    _REGISTRY[entry.name] = entry


_register(ProtocolEntry(
    name="naive", peer_class=NaiveDownloadPeer, fault_model="byzantine",
    randomized=False, max_crash_fraction=0.999, max_byzantine_fraction=0.999,
    description="every peer queries all ell bits (correct for any beta < 1)",
    backends=_EVERYWHERE))
_register(ProtocolEntry(
    name="balanced", peer_class=BalancedDownloadPeer, fault_model="none",
    randomized=False, max_crash_fraction=0.0, max_byzantine_fraction=0.0,
    description="fault-free round-robin sharing (Q = ell/n)",
    backends=_EVERYWHERE))
_register(ProtocolEntry(
    name="crash-one", peer_class=CrashOneDownloadPeer, fault_model="crash",
    randomized=False, max_crash_fraction=0.0, max_byzantine_fraction=0.0,
    description="Algorithm 1: two-phase protocol for a single crash"))
_register(ProtocolEntry(
    name="crash-multi", peer_class=CrashMultiDownloadPeer,
    fault_model="crash", randomized=False,
    max_crash_fraction=0.999, max_byzantine_fraction=0.0,
    description="Algorithm 2: phased protocol, any crash fraction"))
_register(ProtocolEntry(
    name="crash-multi-fast", peer_class=CrashMultiFastDownloadPeer,
    fault_model="crash", randomized=False,
    max_crash_fraction=0.999, max_byzantine_fraction=0.0,
    description="Theorem 2.13's time-improved Algorithm 2"))
_register(ProtocolEntry(
    name="one-round", peer_class=OneRoundDownloadPeer, fault_model="crash",
    randomized=True, max_crash_fraction=0.999, max_byzantine_fraction=0.0,
    description="single-exchange download; correct but query-hungry "
                "(the companion paper's single-round regime)"))
_register(ProtocolEntry(
    name="byz-committee", peer_class=ByzCommitteeDownloadPeer,
    fault_model="byzantine", randomized=False,
    max_crash_fraction=0.499, max_byzantine_fraction=0.499,
    description="Theorem 3.4: deterministic committees, beta < 1/2",
    backends=("sim", "sync")))
_register(ProtocolEntry(
    name="byz-two-cycle", peer_class=ByzTwoCycleDownloadPeer,
    fault_model="byzantine", randomized=True,
    max_crash_fraction=0.499, max_byzantine_fraction=0.499,
    description="Protocol 4: 2-cycle randomized sampling + decision trees",
    backends=("sim", "sync")))
_register(ProtocolEntry(
    name="byz-multi-cycle", peer_class=ByzMultiCycleDownloadPeer,
    fault_model="byzantine", randomized=True,
    max_crash_fraction=0.499, max_byzantine_fraction=0.499,
    description="Theorem 3.12: doubling-segment multi-cycle download"))
# The multi-source protocols are per-peer independent (no peer-to-peer
# messages), so like naive they tolerate any peer-fault fraction below
# 1; their interesting adversary is the faulty *source* set.
_register(ProtocolEntry(
    name="cross-validate", peer_class=CrossValidateDownloadPeer,
    fault_model="byzantine", randomized=False,
    max_crash_fraction=0.999, max_byzantine_fraction=0.999,
    description="query q of k sources per digit, majority/threshold "
                "decode (tolerates f = (q-1)/2 faulty sources)",
    backends=_EVERYWHERE))
_register(ProtocolEntry(
    name="cross-validate-escalate",
    peer_class=CrossValidateEscalateDownloadPeer,
    fault_model="byzantine", randomized=False,
    max_crash_fraction=0.999, max_byzantine_fraction=0.999,
    description="query f+1 sources, escalate to 2f+1 with majority "
                "decode on disagreement",
    backends=_EVERYWHERE))


def get(name: str) -> ProtocolEntry:
    """Look up a protocol by name (raises KeyError with suggestions)."""
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown protocol {name!r}; known: {known}")
    return _REGISTRY[name]


def hosted_on(backend: str) -> list[str]:
    """Names of the protocols ``backend`` hosts, sorted."""
    return sorted(name for name, entry in _REGISTRY.items()
                  if backend in entry.backends)


def all_protocols() -> list[ProtocolEntry]:
    """All registered protocols, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def protocols_for(*, fault_model: str, beta: float,
                  include_naive: bool = True) -> list[ProtocolEntry]:
    """Protocols claimed correct under a fault setup."""
    entries = [entry for entry in all_protocols()
               if entry.supports(fault_model=fault_model, beta=beta)]
    if not include_naive:
        entries = [entry for entry in entries if entry.name != "naive"]
    return entries
