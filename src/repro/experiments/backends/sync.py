"""The round-native lockstep backend (``backend="sync"``).

Maps registry protocol names onto the ``Sync*Peer`` originals and the
spec's fault model onto the synchronous adversaries, then runs
:class:`repro.sync.SyncEngine`.  The time measure is the *exact round
count* — ``RepeatRecord.time`` is ``float(rounds)`` and
``RepeatRecord.rounds`` carries the integer, which aggregation surfaces
as ``mean_round_complexity``.

``backend="sync"`` is not ``network="synchronous"``: the latter keeps
the asynchronous event kernel and merely pins every latency to one
unit, while this backend executes true lockstep rounds (with the
classic rushing adversary available).  A sync-backend spec must say
``network="synchronous"``; ``"asynchronous"`` is rejected here with an
error explaining the distinction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.util.rng import SplittableRNG, derive_seed
from repro.util.validation import check_fraction, check_positive

from repro.experiments.outcome import RepeatRecord
from repro.experiments.spec import _STRATEGIES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.spec import ExperimentSpec
    from repro.obs.telemetry import Telemetry

#: Registry protocol name -> (sync peer class name, accepted params).
#: Resolved lazily so importing the backends package stays cheap.
_SYNC_PROTOCOLS: dict[str, tuple[str, tuple[str, ...]]] = {
    "naive": ("SyncNaivePeer", ()),
    "balanced": ("SyncBalancedPeer", ()),
    "crash-multi": ("SyncCrashPeer", ()),
    "byz-committee": ("SyncCommitteePeer", ("block_size",)),
    "byz-two-cycle": ("SyncTwoRoundPeer", ("num_segments", "tau")),
    "cross-validate": ("SyncCrossValidatePeer",
                       ("q", "decode", "threshold")),
    "cross-validate-escalate": ("SyncCrossValidateEscalatePeer",
                                ("f", "alert")),
}

_SYNC_FAULT_MODELS = ("none", "crash", "byzantine")


def _peer_class(protocol: str):
    import repro.sync as sync
    return getattr(sync, _SYNC_PROTOCOLS[protocol][0])


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
        if spec.protocol not in _SYNC_PROTOCOLS:
            raise KeyError(
                f"protocol {spec.protocol!r} has no sync-backend "
                f"implementation; available: {sorted(_SYNC_PROTOCOLS)}")
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
        allowed = set(_SYNC_PROTOCOLS[spec.protocol][1])
        unknown = set(spec.protocol_params) - allowed
        if unknown:
            raise ValueError(
                f"protocol {spec.protocol!r} takes no sync params "
                f"{sorted(unknown)}; accepted: {sorted(allowed)}")
        if spec.protocol == "byz-committee" and 2 * spec.t >= spec.n:
            raise ValueError(f"committee protocol needs 2t < n, got "
                             f"t={spec.t}, n={spec.n}")
        from repro.experiments.backends import check_sources_and_topology
        check_sources_and_topology(
            spec, no_proxy_because="the lockstep engine has no "
                                   "transport to shake")

    def run_one(self, spec: "ExperimentSpec", repeat: int, seed: int,
                telemetry: Optional["Telemetry"]) -> RepeatRecord:
        from repro.sync import run_sync_download

        from repro.experiments.backends import telemetry_scope
        peer_cls = _peer_class(spec.protocol)
        params = dict(spec.protocol_params)

        def factory(pid, config, rng):
            return peer_cls(pid, config, rng, **params)

        with telemetry_scope(telemetry):
            result = run_sync_download(
                n=spec.n, ell=spec.ell, t=spec.t, peer_factory=factory,
                adversary=_build_adversary(spec, seed), seed=seed,
                sources=spec.sources, source_faults=spec.source_faults,
                topology=spec.topology)
        return RepeatRecord(
            queries=result.query_complexity,
            messages=result.message_complexity,
            time=float(result.rounds),
            correct=bool(result.download_correct),
            rounds=result.rounds)
