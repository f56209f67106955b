"""JSON persistence for run summaries and experiment outcomes.

Benchmark campaigns outlive Python processes; this module gives the
measurable artifacts a stable on-disk form:

- :func:`report_to_dict` / :func:`report_from_dict` — complexity
  reports;
- :func:`summarize_run` — a :class:`~repro.sim.runner.RunResult`
  reduced to its JSON-safe measurements (outputs are deliberately
  dropped: persist measurements, not transcripts);
- :func:`save_outcomes` / :func:`load_outcomes` — experiment-outcome
  collections (:mod:`repro.experiments`), round-trippable.

Everything is plain ``json`` — no pickle, so files are diffable,
greppable, and safe to load from untrusted sources.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Iterable, Union

from repro.execution.cache import spec_fields
from repro.execution.retry import TaskFailure
from repro.experiments import ExperimentOutcome, ExperimentSpec
from repro.sim.metrics import ComplexityReport
from repro.sim.runner import RunResult

PathLike = Union[str, Path]

#: Format tag written into every file; bump on incompatible changes.
SCHEMA_VERSION = 1


def report_to_dict(report: ComplexityReport) -> dict:
    """JSON-safe form of a complexity report."""
    return {
        "query_complexity": report.query_complexity,
        "total_query_bits": report.total_query_bits,
        "message_complexity": report.message_complexity,
        "message_bits": report.message_bits,
        "time_complexity": report.time_complexity,
        "per_peer_query_bits": {str(pid): bits for pid, bits
                                in report.per_peer_query_bits.items()},
        "per_peer_messages": {str(pid): count for pid, count
                              in report.per_peer_messages.items()},
    }


def report_from_dict(payload: dict) -> ComplexityReport:
    """Inverse of :func:`report_to_dict`."""
    return ComplexityReport(
        query_complexity=payload["query_complexity"],
        total_query_bits=payload["total_query_bits"],
        message_complexity=payload["message_complexity"],
        message_bits=payload["message_bits"],
        time_complexity=payload["time_complexity"],
        per_peer_query_bits={int(pid): bits for pid, bits
                             in payload["per_peer_query_bits"].items()},
        per_peer_messages={int(pid): count for pid, count
                           in payload["per_peer_messages"].items()},
    )


def summarize_run(result: RunResult) -> dict:
    """The measurements of one run, JSON-safe."""
    return {
        "schema": SCHEMA_VERSION,
        "ell": len(result.data),
        "honest": sorted(result.honest),
        "faulty": sorted(result.faulty),
        "download_correct": result.download_correct,
        "events_processed": result.events_processed,
        "elapsed_virtual_time": result.elapsed_virtual_time,
        "report": report_to_dict(result.report),
    }


_COUNT, _REAL = (int,), (int, float)
#: An outcome's scalar measurements, in stored order, with the exact
#: types each may hold (a bool is not a count).
_MEASUREMENTS = {
    "runs": _COUNT, "correct_runs": _COUNT,
    "mean_query_complexity": _REAL, "max_query_complexity": _COUNT,
    "mean_message_complexity": _REAL, "mean_time_complexity": _REAL,
    "failed_runs": _COUNT, "mean_round_complexity": _REAL + (type(None),)}


def outcome_to_dict(outcome: ExperimentOutcome) -> dict:
    """JSON-safe form of one experiment outcome (spec included)."""
    return {"spec": spec_fields(outcome.spec),
            **{name: getattr(outcome, name) for name in _MEASUREMENTS},
            "failures": list(map(dataclasses.asdict, outcome.failures))}


def outcome_from_dict(payload: dict) -> ExperimentOutcome:
    """Inverse of :func:`outcome_to_dict`.

    Files written before the resilience layer lack the failure fields;
    they load as fully-successful outcomes (which they were).  Raises
    ``ValueError`` naming the field when a measurement is ill-typed.
    """
    return outcome_of(ExperimentSpec(**payload["spec"]), payload)


def outcome_of(spec: ExperimentSpec, payload: dict) -> ExperimentOutcome:
    """The measurements of ``payload`` as an outcome of ``spec`` — for a
    caller that already holds the spec ``payload["spec"]`` describes."""
    values = {}
    for name, kinds in _MEASUREMENTS.items():
        if name in payload:  # an absent optional field keeps its default
            value = values[name] = payload[name]
            if type(value) not in kinds or (kinds is _COUNT and value < 0):
                raise ValueError(f"ill-typed outcome {name!r}: {value!r}")
    outcome = ExperimentOutcome(
        spec=spec, **values,
        failures=tuple(TaskFailure(**failure)
                       for failure in payload.get("failures", ())))
    if outcome.correct_runs + outcome.failed_runs > outcome.runs:
        raise ValueError("outcome field 'runs' < correct_runs + failed_runs")
    return outcome


def save_outcomes(outcomes: Iterable[ExperimentOutcome],
                  path: PathLike) -> None:
    """Write an outcome collection to ``path`` as JSON."""
    payload = {
        "schema": SCHEMA_VERSION,
        "outcomes": [outcome_to_dict(outcome) for outcome in outcomes],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True),
                          encoding="utf-8")


def load_outcomes(path: PathLike) -> list[ExperimentOutcome]:
    """Read an outcome collection written by :func:`save_outcomes`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    schema = payload.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema {schema!r} in {path} "
            f"(this build reads {SCHEMA_VERSION})")
    return [outcome_from_dict(item) for item in payload["outcomes"]]
