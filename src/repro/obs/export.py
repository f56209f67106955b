"""Assemble and write run/sweep telemetry exports.

Install a :class:`~repro.obs.telemetry.RecordingTelemetry` for the run
(the ``--telemetry`` CLI flag does this); the simulator emits schema
events inline, and :func:`run_events` appends the aggregated counters
and writes the stream.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.obs import schema
from repro.obs.telemetry import RecordingTelemetry

__all__ = [
    "export_run",
    "run_events",
    "sweep_events",
]


def run_events(recording: RecordingTelemetry, result=None) -> list[dict]:
    """The full export stream for one recorded run.

    Takes the backend's event list as-is (the simulator already emitted
    ``run_header`` first and ``run_summary`` last) and splices the
    aggregated counters in just before the summary.  If the recording
    has no summary (the run died mid-way) and ``result`` is given, a
    summary is synthesized from it.
    """
    events = [dict(entry) for entry in recording.events]
    counters = recording.counter_events()
    if events and events[-1].get("event") == "run_summary":
        events[-1:] = counters + events[-1:]
    else:
        events.extend(counters)
        if result is not None:
            events.append(schema.run_summary(result))
    return events


def sweep_events(recording: RecordingTelemetry, *, header: dict,
                 wall_s: Optional[float] = None) -> list[dict]:
    """The full export stream for one recorded sweep.

    ``header`` comes from the caller (it knows the axis and values);
    the body is everything the engine — and, with ``workers=1``, the
    in-process simulator runs — emitted, followed by the counters and a
    ``sweep_summary`` synthesized from the progress counters.
    """
    body = [dict(entry) for entry in recording.events
            if entry.get("event") not in ("sweep_header", "sweep_summary")]
    summary = {
        "event": "sweep_summary",
        "tasks_done": recording.counter_value("tasks_done"),
        "tasks_failed": recording.counter_value("tasks_failed"),
        "tasks_retried": recording.counter_value("tasks_retried"),
        "cache_hits": recording.counter_value("cache_hits"),
    }
    if wall_s is not None:
        summary["wall_s"] = wall_s
    return ([dict(header)] + body + recording.counter_events()
            + [summary])


def export_run(path: Union[str, Path], recording: RecordingTelemetry,
               result=None) -> int:
    """Write one recorded run to ``path``; returns the event count."""
    return schema.write_events(path, run_events(recording, result))
