"""Execution-backend registry: one spec layer over three engines.

A backend interprets an :class:`~repro.experiments.ExperimentSpec`
against one execution substrate.  The contract is two methods:

- ``validate(spec)`` — raise (matching the historical exception types:
  ``KeyError`` for unknown protocols, ``ValueError`` for bad field
  values) if the spec is not runnable on this backend;
- ``run_one(spec, repeat, seed, telemetry)`` — execute repeat number
  ``repeat`` from scratch, pure in ``(spec, repeat)``, and reduce it to
  a :class:`~repro.experiments.RepeatRecord`.  ``telemetry`` is the
  live :class:`~repro.obs.telemetry.Telemetry` backend (or ``None``
  when telemetry is off); implementations emit schema-v1 events
  through it or through the process-global helpers.

Because every backend speaks this one protocol, the parallel runner,
retry/chaos layer, result cache, sweep journal, telemetry counters,
progress line, persistence, and reporting all work identically for
``backend="sim"``, ``"sync"``, ``"lowerbound"``, and ``"net"``
specs — and for anything registered by downstream code (see
docs/EXTENDING.md, "Adding an execution backend").

Registered built-ins:

========== ==========================================================
``sim``    asynchronous discrete-event simulator (:mod:`repro.sim`)
``sync``   round-native lockstep engine (:mod:`repro.sync`); exact
           round counts are the time measure
``lowerbound`` Theorem 3.1's two-execution construction,
           spec-driven and seedable
``net``    real peers over sockets behind a seeded chaos proxy
           (:mod:`repro.net`); time is wall clock, by design
========== ==========================================================
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Protocol, runtime_checkable

from repro.sim.source import parse_faults
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.outcome import RepeatRecord
    from repro.experiments.spec import ExperimentSpec
    from repro.obs.telemetry import Telemetry

__all__ = [
    "ExecutionBackend",
    "all_backends",
    "check_protocol_params",
    "check_sources_and_topology",
    "get_backend",
    "register_backend",
    "telemetry_scope",
]


@runtime_checkable
class ExecutionBackend(Protocol):
    """The protocol every execution backend implements."""

    def validate(self, spec: "ExperimentSpec") -> None:
        """Raise if ``spec`` cannot run on this backend."""

    def run_one(self, spec: "ExperimentSpec", repeat: int, seed: int,
                telemetry: Optional["Telemetry"]) -> "RepeatRecord":
        """Execute one repeat; pure in ``(spec, repeat)``."""


_REGISTRY: dict[str, ExecutionBackend] = {}


def register_backend(name: str, backend: ExecutionBackend) -> None:
    """Register ``backend`` under ``name`` (later wins, like protocols)."""
    _REGISTRY[name] = backend


def get_backend(name: str) -> ExecutionBackend:
    """The backend registered under ``name``.

    Raises ``ValueError`` (not ``KeyError`` — an unknown backend is a
    bad field value, not a bad protocol) naming the registered options.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; registered backends: "
            f"{sorted(_REGISTRY)}") from None


def all_backends() -> dict[str, ExecutionBackend]:
    """Snapshot of the registry (name -> backend)."""
    return dict(_REGISTRY)


@contextmanager
def telemetry_scope(telemetry: Optional["Telemetry"]):
    """Make ``telemetry`` the process-global backend for one repeat.

    Backends instrument through the process-global helpers
    (:func:`repro.obs.telemetry.event` et al.), exactly like the sim
    kernel; this scope is a no-op when ``telemetry`` is ``None`` or
    already installed, so the common in-process path costs nothing.
    """
    from repro.obs.telemetry import get_backend as get_telemetry
    from repro.obs.telemetry import using
    if telemetry is None or telemetry is get_telemetry():
        yield
    else:
        with using(telemetry):
            yield


def check_protocol_params(spec: "ExperimentSpec", peer_class: type, *,
                          params: Optional[dict] = None) -> None:
    """``protocol_params`` (or the part ``params`` of them that goes to
    the peers) may name only what the class the backend runs takes:
    its constructor's defaulted arguments, i.e. those after what the
    engine supplies (``pid, env``; ``pid, config, rng`` for a
    lockstep-native class)."""
    params = spec.protocol_params if params is None else params
    if not params:
        return
    allowed = _defaulted_parameters(peer_class)
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(
            f"protocol {spec.protocol!r} takes no {spec.backend} params "
            f"{sorted(unknown)}; accepted: {sorted(allowed)}")


@lru_cache(maxsize=None)
def _defaulted_parameters(peer_class: type) -> frozenset:
    """The names of ``peer_class``'s defaulted constructor arguments,
    read from its signature once per class."""
    return frozenset(name for name, parameter
                     in inspect.signature(peer_class).parameters.items()
                     if parameter.default is not parameter.empty)


def check_sources_and_topology(spec: "ExperimentSpec", *,
                               no_proxy_because: Optional[str] = None):
    """The spec checks every backend shares: source count and fault
    grammar, ``q``/``f``-vs-``sources`` feasibility and the topology
    grammar fail at spec construction, not mid-sweep.

    ``no_proxy_because`` is given by backends with no sockets for a
    chaos proxy to sit on; it ends their ``proxy_faults`` rejection.
    Returns the parsed source faults.
    """
    check_positive("sources", spec.sources)
    faults = parse_faults(spec.source_faults, spec.sources)
    if no_proxy_because is not None and spec.proxy_faults:
        raise ValueError(
            f"proxy_faults apply only to backend='net' — the chaos "
            f"proxy sits on its sockets; {no_proxy_because}")
    q = spec.protocol_params.get("q")
    if q is not None and not 1 <= q <= spec.sources:
        raise ValueError(f"q={q} must be in [1, sources="
                         f"{spec.sources}]")
    f = spec.protocol_params.get("f")
    if (spec.protocol == "cross-validate-escalate" and f is not None
            and 2 * f + 1 > spec.sources):
        raise ValueError(f"escalation needs 2f + 1 <= sources, got "
                         f"f={f}, sources={spec.sources}")
    if spec.topology != "complete":
        # The build is cheap and discarded; runs rebuild from the
        # per-repeat seed.
        from repro.topology import build_topology
        build_topology(spec.topology, spec.n)
    return faults


# Built-ins register at import time so that ExperimentSpec validation
# (which resolves spec.backend) always finds them.  They import the
# helpers above from this module, so these imports stay last.
from repro.experiments.backends.lowerbound import LowerBoundBackend
from repro.experiments.backends.net import NetBackend
from repro.experiments.backends.sim import SimBackend
from repro.experiments.backends.sync import SyncBackend

register_backend("sim", SimBackend())
register_backend("sync", SyncBackend())
register_backend("lowerbound", LowerBoundBackend())
register_backend("net", NetBackend())
