"""The asynchronous discrete-event simulator backend (the default).

Extracted verbatim from the pre-backend ``repro.experiments`` module:
validation order, adversary construction, peer-factory resolution, and
the run itself are unchanged, so every golden trace, cache entry, and
journal line recorded before the refactor still matches bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.protocols import get
from repro.util.validation import check_fraction, check_positive

from repro.experiments.outcome import RepeatRecord
from repro.experiments.spec import _FAULT_MODELS, _NETWORKS, _STRATEGIES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.spec import ExperimentSpec
    from repro.obs.telemetry import Telemetry


class SimBackend:
    """Runs specs on :func:`repro.sim.run_download`."""

    def validate(self, spec: "ExperimentSpec") -> None:
        get(spec.protocol)  # raises KeyError early for unknown names
        check_positive("n", spec.n)
        check_positive("ell", spec.ell)
        check_fraction("beta", spec.beta, inclusive_high=False)
        check_positive("repeats", spec.repeats)
        if spec.fault_model not in _FAULT_MODELS:
            raise ValueError(f"fault_model must be one of {_FAULT_MODELS}, "
                             f"got {spec.fault_model!r}")
        if spec.network not in _NETWORKS:
            raise ValueError(f"network must be one of {_NETWORKS}, "
                             f"got {spec.network!r}")
        if spec.strategy not in _STRATEGIES:
            raise ValueError(f"strategy must be one of "
                             f"{sorted(_STRATEGIES)}, got {spec.strategy!r}")
        if spec.fault_model != "none" and spec.beta <= 0:
            raise ValueError("faulty models need beta > 0")
        from repro.experiments.backends import check_sources_and_topology
        check_sources_and_topology(
            spec, no_proxy_because="the simulator's transport adversary "
                                   "is the network/fault model")

    def run_one(self, spec: "ExperimentSpec", repeat: int, seed: int,
                telemetry: Optional["Telemetry"]) -> RepeatRecord:
        # The sim kernel instruments through the process-global
        # telemetry helpers; the scope installs `telemetry` only when a
        # caller passed a backend that is not already live.
        from repro.sim import run_download

        from repro.experiments.backends import telemetry_scope
        with telemetry_scope(telemetry):
            result = run_download(
                n=spec.n, ell=spec.ell,
                peer_factory=spec.peer_factory(),
                adversary=spec.build_adversary(),
                t=spec.t, seed=seed,
                sources=spec.sources,
                source_faults=spec.source_faults,
                topology=spec.topology)
        return RepeatRecord(
            queries=result.report.query_complexity,
            messages=result.report.message_complexity,
            time=result.report.time_complexity,
            correct=bool(result.download_correct))
