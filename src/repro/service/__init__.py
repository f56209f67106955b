"""Download-as-a-service: the ``repro serve`` job API.

The service layer turns the experiments engine into a long-lived
multi-tenant system: clients submit experiment/sweep *jobs* over HTTP,
one shared worker pool executes them with priority + fair scheduling,
identical concurrent requests dedup into a single execution, progress
streams out as Server-Sent Events, and a journal-backed store resumes
interrupted jobs bit-identically after a server restart.

Layering (each module only looks down):

- :mod:`repro.service.jobs` — the job model (content-addressed ids,
  the lifecycle state machine, JSON round-trip).
- :mod:`repro.service.store` — the on-disk job store (records,
  events, journals, results).
- :mod:`repro.service.queue` — the asyncio scheduler over one shared
  executor pool (dedup, fairness, cancel, resume, retries, events).
- :mod:`repro.service.api` — transport-agnostic routing and JSON
  shapes.
- :mod:`repro.service.server` — the dependency-free asyncio HTTP/SSE
  server behind ``repro serve``.
- :mod:`repro.service.dashboard` — the single-file browser dashboard
  and its ``repro trace``-style timeline/flame renderers.
- :mod:`repro.service.client` — the blocking stdlib client behind
  ``repro submit/status/result/cancel`` and the load bench.
- :mod:`repro.service.cli` — those subcommands and ``repro serve``.

Operator guide: docs/SERVICE.md.

Names resolve on first use (PEP 562), so the client and the CLI load
neither asyncio nor the queue and server behind them.
"""

import importlib

#: Every exported name -> the module that defines it.
_HOMES = {name: module for module, names in {
    "api": ("ServiceAPI",),
    "client": ("ServiceClient", "ServiceError"),
    "jobs": ("Job", "JobRequest", "PRIORITY_DEFAULT", "STATES", "TERMINAL",
             "job_from_dict", "job_key", "job_to_dict"),
    "queue": ("JobQueue", "ServiceStats"),
    "server": ("ServiceServer", "run_server"),
    "store": ("JobStore",),
}.items() for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"),
                   name)
