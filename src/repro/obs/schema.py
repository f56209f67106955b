"""The unified telemetry event schema and its JSONL serialization.

One schema for every window into a run: live telemetry emission,
sweep progress, and the ``repro trace`` CLI all speak these events.
Every event is a flat JSON object with an ``"event"`` discriminator; the
full field-by-field reference lives in docs/OBSERVABILITY.md and is
mirrored here in :data:`EVENT_FIELDS` (which :func:`validate_event`
enforces, and which the doc tests cross-check against the docs).

Field conventions:

- ``t`` — virtual simulation time (float).  Never wall clock, with
  two documented exceptions: the ``net_*`` kinds, whose runs have no
  virtual clock, use wall-clock seconds since the run started, and the
  ``job_*`` kinds (``repro serve``) use wall-clock seconds since the
  server started.
- ``wall_ms`` / ``wall_s`` — wall-clock durations; present only on
  span and sweep events, and ignored by ``repro trace diff``.
- ``peer`` / ``src`` / ``dst`` — peer IDs; ``proc`` — a process name
  (peers, attackers, and drivers all have one).
- The first line of a run export is always ``run_header`` and the last
  is ``run_summary``; sweep exports use ``sweep_header`` /
  ``sweep_summary``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.runner import RunResult

__all__ = [
    "EVENT_FIELDS",
    "SCHEMA_VERSION",
    "read_events",
    "run_header",
    "run_summary",
    "unified_metrics",
    "validate_event",
    "write_events",
]

#: Bump on incompatible event-shape changes; stamped into headers and
#: checked by :func:`read_events`.
SCHEMA_VERSION = 1

#: kind -> (required fields, optional fields).  ``event`` itself is
#: implicit.  docs/OBSERVABILITY.md documents each field; the doc-test
#: suite asserts the two stay in sync.
EVENT_FIELDS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    # -- envelope ---------------------------------------------------------
    "run_header": (("schema", "n", "ell", "t_budget", "seed"),
                   ("protocol", "adversary", "planned_faulty", "ell_bits")),
    "run_summary": (("correct", "query_complexity", "total_query_bits",
                     "message_complexity", "message_bits",
                     "time_complexity", "events_processed", "honest",
                     "faulty", "per_peer_query_bits", "per_peer_messages"),
                    ()),
    "sweep_header": (("schema", "points", "repeats"),
                     ("axis", "values", "workers", "protocol")),
    "sweep_summary": (("tasks_done", "tasks_failed", "tasks_retried",
                       "cache_hits"), ("wall_s", "journal_replayed")),
    # -- the query timeline ----------------------------------------------
    "query": (("t", "peer", "bits"), ("cycle", "source")),
    "source_disagreement": (("t", "peer", "index"), ("votes",)),
    # -- peer-to-peer traffic (``relay``/``hop`` appear only on routed
    # -- topologies: relay forwards and multi-hop arrivals) ---------------
    "send": (("t", "src", "dst", "type", "bits"), ("honest", "relay",
                                                   "hop")),
    "deliver": (("t", "src", "dst", "type"), ("relay", "hop")),
    # -- adversary decisions ---------------------------------------------
    "withhold": (("t", "src", "dst", "type"), ()),
    "release": (("t", "src", "dst", "type"), ()),
    "corrupt": (("t", "peer", "dst", "type", "action"), ()),
    "transform": (("t", "src", "dst", "type"), ()),
    "crash": (("t", "peer"), ()),
    "crash_send": (("t", "peer", "dst"), ()),
    # -- protocol structure ----------------------------------------------
    "cycle": (("t", "peer", "cycle"), ()),
    "phase": (("t", "peer", "name"), ("cycle",)),
    "terminate": (("t", "peer"), ()),
    # -- lockstep rounds (sync engine; ``t`` is the round number) ---------
    "round_start": (("t", "round"), ()),
    "round_end": (("t", "round"), ("delivered", "finished")),
    # -- scheduler --------------------------------------------------------
    "proc_start": (("t", "proc"), ()),
    "wake": (("t", "proc"), ()),
    # Retired (nothing emits it); kept so older exports validate.
    "scheduler_stats": (("t", "queue", "events", "max_depth"), ()),
    # -- net backend (``t`` is wall-clock seconds since run start — the
    # -- one documented exception to the virtual-time convention) ---------
    "net_connect": (("t", "proc", "addr"), ("attempt",)),
    "net_retry": (("t", "proc", "rid", "attempt"), ("delay", "error")),
    "net_timeout": (("t", "proc", "rid"), ("attempt", "seconds")),
    "net_crash": (("t", "proc"), ("error",)),
    "net_proxy_drop": (("t", "link", "direction"), ("kind",)),
    "net_proxy_delay": (("t", "link", "direction", "seconds"), ("kind",)),
    "net_proxy_dup": (("t", "link", "direction"), ("kind",)),
    "net_proxy_disconnect": (("t", "link", "direction"), ("kind",)),
    # -- service jobs (``repro serve``; ``t`` is wall-clock seconds
    # -- since the server started — same exception as ``net_*``) ----------
    "job_submitted": (("t", "job"), ("priority", "points", "repeats",
                                     "client", "backend")),
    "job_dedup": (("t", "job"), ("state",)),
    "job_started": (("t", "job", "tasks"), ("replayed", "cache_hits")),
    "job_progress": (("t", "job", "done", "total"),
                     ("point", "repeat", "failed", "wall_s")),
    "job_done": (("t", "job"), ("correct", "wall_s")),
    "job_failed": (("t", "job"), ("error",)),
    "job_cancelled": (("t", "job"), ()),
    # -- spans / counters / sweep progress --------------------------------
    "span_start": (("name",), ()),
    "span_end": (("name", "wall_ms"), ()),
    "counter": (("name", "value", "labels"), ()),
    "task_done": (("index",), ("attempts", "wall_s")),
    "task_failed": (("index",), ("error", "attempts")),
    "task_retried": (("index", "attempt"), ()),
    "cache_hit": (("index",), ("key",)),
    "journal_replay": (("replayed", "corrupt"), ()),
}

#: Fields carrying wall-clock values; excluded from determinism diffs.
WALL_CLOCK_FIELDS = ("wall_ms", "wall_s")


def validate_event(entry: dict) -> None:
    """Raise ``ValueError`` unless ``entry`` matches the schema.

    Spans and counters accept arbitrary extra label fields (their
    labels are user-chosen); every other kind must use exactly the
    declared required + optional fields.
    """
    kind = entry.get("event")
    if kind not in EVENT_FIELDS:
        raise ValueError(f"unknown event kind {kind!r}")
    required, optional = EVENT_FIELDS[kind]
    present = set(entry) - {"event"}
    missing = set(required) - present
    if missing:
        raise ValueError(f"{kind} event missing fields {sorted(missing)}")
    if kind in ("span_start", "span_end", "counter"):
        return  # labels are open-ended
    extra = present - set(required) - set(optional)
    if extra:
        raise ValueError(f"{kind} event has undeclared fields "
                         f"{sorted(extra)}")


# -- builders -----------------------------------------------------------------


def run_header(*, n: int, ell: int, t: int, seed: int,
               protocol: Optional[str] = None,
               adversary: Optional[str] = None,
               planned_faulty: Optional[Iterable[int]] = None) -> dict:
    """The first event of every run export."""
    header = {"event": "run_header", "schema": SCHEMA_VERSION,
              "n": n, "ell": ell, "t_budget": t, "seed": seed}
    if protocol is not None:
        header["protocol"] = protocol
    if adversary is not None:
        header["adversary"] = adversary
    if planned_faulty is not None:
        header["planned_faulty"] = sorted(planned_faulty)
    return header


def unified_metrics(result: "RunResult") -> dict:
    """One run's accounting, in schema shape (the read side for
    reporting — prefer this over poking
    :class:`~repro.sim.metrics.MetricsCollector` internals).

    Keys mirror the ``run_summary`` event minus the envelope: the
    complexity measures plus per-peer breakdowns keyed by ``int`` peer
    ID (JSON exports stringify the keys; :func:`read_events` callers
    get them back via :func:`int`-keyed access in the CLI helpers).
    """
    report = result.report
    return {
        "correct": bool(result.download_correct),
        "query_complexity": report.query_complexity,
        "total_query_bits": report.total_query_bits,
        "message_complexity": report.message_complexity,
        "message_bits": report.message_bits,
        "time_complexity": report.time_complexity,
        "events_processed": result.events_processed,
        "honest": sorted(result.honest),
        "faulty": sorted(result.faulty),
        "per_peer_query_bits": dict(report.per_peer_query_bits),
        "per_peer_messages": dict(report.per_peer_messages),
    }


def run_summary(result: "RunResult") -> dict:
    """The closing event of every run export."""
    summary = unified_metrics(result)
    summary["event"] = "run_summary"
    return summary


# -- JSONL I/O ----------------------------------------------------------------


def write_events(path: Union[str, Path], events: Iterable[dict]) -> int:
    """Write events to ``path`` as JSONL; returns the line count.

    Every event is validated before a single byte is written, so a
    partially-written file always means an I/O failure, never a schema
    bug discovered halfway through.
    """
    events = [dict(entry) for entry in events]
    for entry in events:
        validate_event(entry)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for entry in events:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return len(events)


def read_events(path: Union[str, Path]) -> list[dict]:
    """Load a JSONL export, checking the header's schema version.

    Unlike the journal's replay (which tolerates torn lines because it
    can recompute), an export is an artifact the user asked to inspect:
    corruption raises with the offending line number.
    """
    events: list[dict] = []
    with Path(path).open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
            if not isinstance(entry, dict) or "event" not in entry:
                raise ValueError(f"{path}:{lineno}: not a telemetry event")
            events.append(entry)
    for entry in events:
        if entry["event"] in ("run_header", "sweep_header"):
            if entry.get("schema") != SCHEMA_VERSION:
                raise ValueError(
                    f"{path}: schema {entry.get('schema')!r} is not the "
                    f"supported version {SCHEMA_VERSION}")
            break
    return events
