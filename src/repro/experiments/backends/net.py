"""The real-transport backend (``backend="net"``).

Runs specs on :func:`repro.net.run_net_download`: peers as asyncio
tasks, the source as a socket server, and every frame routed through
the chaos proxy.  Every registry
protocol runs here, its one body hosted by :class:`repro.net.NetPeer`;
the rest of the backend's validation vocabulary is deliberately narrow:

- ``fault_model`` must be ``"none"``: the adversary here is the
  transport (``proxy_faults``) and the source set, not the peers, and
  it sets the latencies, so no ``ADVERSARIES`` entry that sets its own
  runs here;
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

- ``REPRO_NET_TIMEOUT`` — per-request timeout seconds (default 0.5);
- ``REPRO_NET_RUN_TIMEOUT`` — whole-run deadline seconds (default 60).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional

from repro.util.validation import check_fraction, check_positive

from repro.experiments.backends import (
    check_protocol_params,
    check_sources_and_topology,
    telemetry_scope,
)
from repro.experiments.outcome import RepeatRecord
from repro.experiments.spec import OWN_LATENCY, check_strategy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.spec import ExperimentSpec
    from repro.obs.telemetry import Telemetry


class NetBackend:
    """Runs specs over real sockets (:mod:`repro.net`)."""

    def validate(self, spec: "ExperimentSpec") -> None:
        from repro.net.chaos import parse_proxy_faults
        from repro.protocols import registry
        check_positive("n", spec.n)
        check_positive("ell", spec.ell)
        check_fraction("beta", spec.beta, inclusive_high=False)
        check_positive("repeats", spec.repeats)
        check_strategy(spec)
        if spec.strategy in OWN_LATENCY:
            raise ValueError(
                f"strategy {spec.strategy!r} sets its own latencies; "
                f"on backend='net' the transport sets them — use "
                f"proxy_faults")
        if spec.fault_model != "none" or spec.beta > 0:
            raise ValueError(
                f"backend='net' requires fault_model='none' (got "
                f"{spec.fault_model!r} with strategy {spec.strategy!r}, "
                f"beta={spec.beta!r}): its adversary is the transport — "
                f"use proxy_faults and source_faults")
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
                seed=seed, request_timeout=timeout,
                run_timeout=run_timeout)
        return RepeatRecord(
            queries=result.query_complexity,
            messages=result.message_complexity,
            time=result.elapsed_wall,
            correct=bool(result.download_correct))
