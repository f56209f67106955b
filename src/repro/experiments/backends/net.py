"""The real-transport backend (``backend="net"``).

Runs specs on :func:`repro.net.run_net_download`: peers as asyncio
tasks (or spawned worker processes), the source as a socket server,
and every frame routed through the chaos proxy.  The backend's
validation vocabulary is deliberately narrow:

- only protocols whose query sets are pure functions of
  ``(pid, n, ell, source views)`` — that purity is what lets the
  conformance tests gate the net backend's Q bit-equal to the
  simulator's under a fault-free proxy;
- ``fault_model`` must be ``"none"``: the adversary here is the
  transport (``proxy_faults``) and the source set, not the peers;
- ``network`` must be ``"asynchronous"`` — real sockets *are* the
  asynchronous model; there is no lockstep to emulate;
- source-fault ``@onset`` gating is rejected: a net run has no
  virtual clock for an onset to reference.

Identity: ``seed_for`` omits the backend name for ``"net"`` exactly as
it does for ``"sim"``, so a net run replays the simulator's per-repeat
seeds (same input array, same source views).  ``proxy_faults`` joins
the cache key but never the seed — chaos shakes the wire, not the
experiment.

Environment knobs (read per repeat, so one sweep can mix):

- ``REPRO_NET_MODE`` — ``task`` (default) or ``process``;
- ``REPRO_NET_TIMEOUT`` — per-request timeout seconds (default 0.5);
- ``REPRO_NET_RUN_TIMEOUT`` — whole-run deadline seconds (default 60).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional

from repro.util.validation import check_fraction, check_positive

from repro.experiments.outcome import RepeatRecord
from repro.experiments.spec import BYZANTINE_STRATEGIES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.spec import ExperimentSpec
    from repro.obs.telemetry import Telemetry


class NetBackend:
    """Runs specs over real sockets (:mod:`repro.net`)."""

    def validate(self, spec: "ExperimentSpec") -> None:
        from repro.experiments.backends import (
            check_protocol_params,
            check_sources_and_topology,
        )
        from repro.net.chaos import parse_proxy_faults
        from repro.protocols import registry
        if spec.protocol not in registry.hosted_on("net"):
            raise KeyError(
                f"protocol {spec.protocol!r} has no net-backend "
                f"implementation; available: {registry.hosted_on('net')}")
        check_positive("n", spec.n)
        check_positive("ell", spec.ell)
        check_fraction("beta", spec.beta, inclusive_high=False)
        check_positive("repeats", spec.repeats)
        if spec.strategy not in BYZANTINE_STRATEGIES:
            raise ValueError(
                f"strategy {spec.strategy!r} has no net adversary; "
                f"backend='net' takes only the ignored "
                f"{sorted(BYZANTINE_STRATEGIES)}")
        if spec.fault_model != "none" or spec.beta > 0:
            raise ValueError(
                f"backend='net' requires fault_model='none' (got "
                f"{spec.fault_model!r}, beta={spec.beta!r}): its "
                f"adversary is the transport — use proxy_faults and "
                f"source_faults")
        if spec.network != "asynchronous":
            raise ValueError(
                f"backend='net' requires network='asynchronous', got "
                f"{spec.network!r}: real sockets are the asynchronous "
                f"model; there is no lockstep round to emulate")
        check_protocol_params(spec, registry.get(spec.protocol).peer_class)
        for fault in check_sources_and_topology(spec):
            if fault.onset > 0:
                raise ValueError(
                    f"source fault {fault.describe()!r}: @onset gating "
                    f"needs the simulator's virtual clock; backend="
                    f"'net' has none")
        parse_proxy_faults(spec.proxy_faults)  # grammar check

    def run_one(self, spec: "ExperimentSpec", repeat: int, seed: int,
                telemetry: Optional["Telemetry"]) -> RepeatRecord:
        from repro.net import run_net_download

        from repro.experiments.backends import telemetry_scope
        mode = os.environ.get("REPRO_NET_MODE", "task")
        timeout = float(os.environ.get("REPRO_NET_TIMEOUT", "0.5"))
        run_timeout = float(os.environ.get("REPRO_NET_RUN_TIMEOUT",
                                           "60"))
        with telemetry_scope(telemetry):
            result = run_net_download(
                n=spec.n, ell=spec.ell, protocol=spec.protocol,
                protocol_params=spec.protocol_params,
                sources=spec.sources,
                source_faults=spec.source_faults,
                proxy_faults=spec.proxy_faults,
                topology=spec.topology,
                seed=seed, mode=mode, request_timeout=timeout,
                run_timeout=run_timeout)
        return RepeatRecord(
            queries=result.query_complexity,
            messages=result.message_complexity,
            time=result.elapsed_wall,
            correct=bool(result.download_correct))
