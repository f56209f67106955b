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
"""

from repro.service.api import ServiceAPI
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import (Job, JobRequest, PRIORITY_DEFAULT, STATES,
                                TERMINAL, job_from_dict, job_key,
                                job_to_dict)
from repro.service.queue import JobQueue, ServiceStats
from repro.service.server import ServiceServer, run_server
from repro.service.store import JobStore

__all__ = [
    "Job",
    "JobQueue",
    "JobRequest",
    "JobStore",
    "PRIORITY_DEFAULT",
    "STATES",
    "ServiceAPI",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "ServiceStats",
    "TERMINAL",
    "job_from_dict",
    "job_key",
    "job_to_dict",
    "run_server",
]
