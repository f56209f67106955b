"""The round-native lockstep backend (``backend="sync"``).

Maps the spec's fault model onto the synchronous adversaries and its
protocol onto a lockstep peer — the registry's own class on
:class:`repro.sync.LockstepHost`, but for the two protocols of
``_LOCKSTEP_FORMS`` — then runs :class:`repro.sync.SyncEngine`.  The
time measure is the *exact round count* — ``RepeatRecord.time`` is
``float(rounds)`` and ``RepeatRecord.rounds`` carries the integer,
which aggregation surfaces as ``mean_round_complexity``.

``backend="sync"`` is not ``network="synchronous"``: the latter keeps
the asynchronous event kernel and merely pins every latency to one
unit, while this backend executes true lockstep rounds (with the
classic rushing adversary available).  A sync-backend spec must say
``network="synchronous"``; ``"asynchronous"`` is rejected here with an
error explaining the distinction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.protocols.registry import get, hosted_on
from repro.util.rng import SplittableRNG, derive_seed
from repro.util.validation import check_fraction, check_positive

from repro.experiments.outcome import RepeatRecord
from repro.experiments.spec import _STRATEGIES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.spec import ExperimentSpec
    from repro.obs.telemetry import Telemetry

#: Registry protocol name -> ``repro.sync`` class name, for the
#: protocols whose lockstep form says something the async body cannot:
#: a different round algorithm (silence proves a crash), and a hosted
#: body's refinement (escalation is a second communication step).
#: Resolved lazily so importing the backends package stays cheap.
_LOCKSTEP_FORMS: dict[str, str] = {
    "crash-multi": "SyncCrashPeer",
    "cross-validate-escalate": "LockstepEscalatePeer",
}

_SYNC_FAULT_MODELS = ("none", "crash", "byzantine")


def _lockstep_class(protocol: str) -> type:
    """The class that runs ``protocol`` in lockstep: its lockstep
    form where it has one, else the registry's body, hosted."""
    name = _LOCKSTEP_FORMS.get(protocol)
    if name is None:
        return get(protocol).peer_class
    import repro.sync as sync
    return getattr(sync, name)


def sync_peer_factory(protocol: str, params: dict):
    """``peer_factory`` for :class:`repro.sync.SyncEngine` running
    ``protocol`` with ``params`` bound."""
    import repro.sync as sync
    peer_cls = _lockstep_class(protocol)
    if issubclass(peer_cls, sync.SyncPeer):
        return lambda pid, config, rng: peer_cls(pid, config, rng, **params)
    return sync.hosted_factory(peer_cls, **params)


def _build_adversary(spec: "ExperimentSpec", seed: int):
    """Fresh synchronous adversary for one repeat (seed-deterministic)."""
    from repro.sync import (
        RoundCrashAdversary,
        RushingEchoAdversary,
        SilentSyncAdversary,
        fraction_corrupted,
    )
    if spec.fault_model == "none" or spec.beta <= 0:
        return None
    fault_seed = derive_seed(seed, "sync-faults")
    if spec.fault_model == "crash":
        # A seeded crash plan: t victims, each dead from an early round,
        # possibly mid-broadcast (keep < n destinations).
        rng = SplittableRNG(fault_seed).split("sync-crash-plan")
        victims = sorted(rng.sample(range(spec.n), spec.t))
        plan = {pid: (1 + rng.randrange(3),
                      rng.randrange(spec.n) if rng.randrange(2) else None)
                for pid in victims}
        return RoundCrashAdversary(plan)
    corrupted = fraction_corrupted(spec.n, spec.beta, seed=fault_seed)
    if spec.strategy in ("silent", "selective-silence"):
        return SilentSyncAdversary(corrupted=corrupted)
    return RushingEchoAdversary(corrupted=corrupted, seed=fault_seed)


class SyncBackend:
    """Runs specs on :class:`repro.sync.SyncEngine`."""

    def validate(self, spec: "ExperimentSpec") -> None:
        available = {*_LOCKSTEP_FORMS, *hosted_on("sync")}
        if spec.protocol not in available:
            raise KeyError(
                f"protocol {spec.protocol!r} has no sync-backend "
                f"implementation; available: {sorted(available)}")
        check_positive("n", spec.n)
        check_positive("ell", spec.ell)
        check_fraction("beta", spec.beta, inclusive_high=False)
        check_positive("repeats", spec.repeats)
        if spec.fault_model not in _SYNC_FAULT_MODELS:
            raise ValueError(
                f"fault_model must be one of {_SYNC_FAULT_MODELS} for "
                f"backend='sync', got {spec.fault_model!r} (the dynamic "
                f"adversary is a per-cycle notion of the async model)")
        if spec.network != "synchronous":
            raise ValueError(
                f"backend='sync' requires network='synchronous', got "
                f"network={spec.network!r}: the lockstep engine *is* the "
                f"synchronous model (round-native, rushing adversary); "
                f"network='synchronous' on backend='sim' instead emulates "
                f"unit latencies inside the asynchronous kernel")
        if spec.strategy not in _STRATEGIES:
            raise ValueError(f"strategy must be one of "
                             f"{sorted(_STRATEGIES)}, got {spec.strategy!r}")
        if spec.fault_model != "none" and spec.beta <= 0:
            raise ValueError("faulty models need beta > 0")
        from repro.experiments.backends import (
            check_protocol_params,
            check_sources_and_topology,
        )
        check_protocol_params(spec, _lockstep_class(spec.protocol))
        if spec.protocol == "byz-committee" and 2 * spec.t >= spec.n:
            raise ValueError(f"committee protocol needs 2t < n, got "
                             f"t={spec.t}, n={spec.n}")
        check_sources_and_topology(
            spec, no_proxy_because="the lockstep engine has no "
                                   "transport to shake")

    def run_one(self, spec: "ExperimentSpec", repeat: int, seed: int,
                telemetry: Optional["Telemetry"]) -> RepeatRecord:
        from repro.sync import run_sync_download

        from repro.experiments.backends import telemetry_scope
        with telemetry_scope(telemetry):
            result = run_sync_download(
                n=spec.n, ell=spec.ell, t=spec.t,
                peer_factory=sync_peer_factory(
                    spec.protocol, dict(spec.protocol_params)),
                adversary=_build_adversary(spec, seed), seed=seed,
                sources=spec.sources, source_faults=spec.source_faults,
                topology=spec.topology)
        return RepeatRecord(
            queries=result.query_complexity,
            messages=result.message_complexity,
            time=float(result.rounds),
            correct=bool(result.download_correct),
            rounds=result.rounds)
