"""Observability: structured telemetry, run export, and introspection.

The paper's claims are per-run accounting claims — query counts,
cycles, phase counts, adversary behaviour — so this layer makes every
one of those observable without perturbing the run:

- :mod:`repro.obs.telemetry` — the span/counter/event API with a
  process-global, swap-in-able backend.  The default backend is a
  no-op: instrumentation sites cost one attribute check when telemetry
  is disabled, and the simulator additionally caches "disabled" as
  ``None`` at run construction so its hot loops pay nothing per event.
- :mod:`repro.obs.schema` — the unified JSONL event schema (run
  header, per-peer query timeline, adversary decisions, scheduler
  wake/resume events) shared by runs and sweeps — the one per-run
  record.
- :mod:`repro.obs.export` — assembling and writing per-run / per-sweep
  JSONL files (``repro run --telemetry out.jsonl``).
- :mod:`repro.obs.trace_cli` — the ``repro trace
  summary/timeline/diff/flame`` subcommands that inspect exported runs.
- :mod:`repro.obs.progress` — live sweep progress (done/failed/
  retried, cache hits, ETA) fed by the execution engine through the
  same telemetry API.

Quick tour::

    from repro.obs import RecordingTelemetry, using
    from repro.sim import run_download

    with using(RecordingTelemetry()) as recording:
        result = run_download(n=4, ell=64, seed=1,
                              peer_factory=NaiveDownloadPeer.factory())
    queries = recording.events_of("query")   # per-peer query timeline

Telemetry never draws randomness, never schedules events, and never
reorders anything: a telemetry-enabled run is bit-identical to a
disabled one (pinned by the golden-trace battery).  See
docs/OBSERVABILITY.md for the full schema and a worked debugging
session.
"""

from repro.obs.export import export_run, run_events, sweep_events
from repro.obs.progress import ProgressTracker
from repro.obs.schema import (
    SCHEMA_VERSION,
    read_events,
    run_header,
    run_summary,
    unified_metrics,
    validate_event,
    write_events,
)
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    RecordingTelemetry,
    Telemetry,
    active,
    counter,
    event,
    get_backend,
    set_backend,
    span,
    using,
)

__all__ = [
    "NULL_TELEMETRY",
    "ProgressTracker",
    "RecordingTelemetry",
    "SCHEMA_VERSION",
    "Telemetry",
    "active",
    "counter",
    "event",
    "export_run",
    "get_backend",
    "read_events",
    "run_events",
    "run_header",
    "run_summary",
    "set_backend",
    "span",
    "sweep_events",
    "unified_metrics",
    "using",
    "validate_event",
    "write_events",
]
