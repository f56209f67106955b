"""Unified experiment outcomes: per-repeat records and aggregation.

Every backend reduces one repeat to the same
:class:`RepeatRecord` shape and every spec's repeats fold into the same
:class:`ExperimentOutcome`, so the parallel runner, result cache, sweep
journal, persistence, reporting, and ``outcomes_table`` are backend
agnostic.  Measures that only exist in some models are ``None`` where
meaningless — ``rounds`` (and the aggregated ``mean_round_complexity``)
is reported by the round-native sync backend and absent for the
asynchronous simulator, whose time measure is virtual time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional

from repro.execution.retry import TaskFailure

from repro.experiments.spec import ExperimentSpec


@dataclass(frozen=True)
class ExperimentOutcome:
    """Aggregated result of one spec's repeats.

    ``runs`` counts *attempted* repeats (``spec.repeats``); repeats
    that failed every retry appear in ``failed_runs``/``failures``
    instead of the means, so a partially-degraded sweep still reports
    every number it could compute — with provenance for the rest.
    A failed repeat is not a correct one, so ``success_rate`` drops.

    ``mean_round_complexity`` is ``None`` unless the backend measures
    rounds (the lockstep sync engine does; the async simulator and the
    lower-bound constructions do not).
    """

    spec: ExperimentSpec
    runs: int
    correct_runs: int
    mean_query_complexity: float
    max_query_complexity: int
    mean_message_complexity: float
    mean_time_complexity: float
    #: Repeats that exhausted their retry budget (graceful mode).
    failed_runs: int = 0
    #: One :class:`~repro.execution.retry.TaskFailure` per failed repeat.
    failures: tuple = ()
    #: Mean exact round count — round-native backends only.
    mean_round_complexity: Optional[float] = None

    @property
    def success_rate(self) -> float:
        return self.correct_runs / self.runs

    @property
    def completed_runs(self) -> int:
        """Repeats that produced a measurement."""
        return self.runs - self.failed_runs


@dataclass(frozen=True)
class RepeatRecord:
    """Measurements of one repeat — the unit shipped between processes.

    ``rounds`` is the exact round count for round-native backends and
    ``None`` elsewhere (the journal persists it as an optional field).
    """

    queries: int
    messages: int
    time: float
    correct: bool
    rounds: Optional[int] = None


def aggregate_outcome(spec: ExperimentSpec,
                      records: Iterable) -> ExperimentOutcome:
    """Fold per-repeat records (in repeat order) into one outcome.

    Aggregation always happens here, in the parent process and in
    repeat order, so serial and parallel execution produce bit-equal
    floats.  ``records`` may mix :class:`RepeatRecord` with
    :class:`~repro.execution.retry.TaskFailure` entries (graceful
    degradation): failures are excluded from the means and reported via
    ``failed_runs``/``failures``, each named ``repeat-N`` after its
    position here, whatever label the engine that ran it used (a batch
    position, a point-and-repeat pair); with zero completed repeats
    every mean is 0.0.
    """
    records = list(records)
    failures = tuple(replace(record, task=f"repeat-{repeat}")
                     for repeat, record in enumerate(records)
                     if isinstance(record, TaskFailure))
    measured = [record for record in records
                if not isinstance(record, TaskFailure)]
    queries = [record.queries for record in measured]
    messages = [record.messages for record in measured]
    times = [record.time for record in measured]
    rounds = [record.rounds for record in measured
              if record.rounds is not None]
    count = len(measured)
    return ExperimentOutcome(
        spec=spec,
        runs=spec.repeats,
        correct_runs=sum(record.correct for record in measured),
        mean_query_complexity=sum(queries) / count if count else 0.0,
        max_query_complexity=max(queries) if count else 0,
        mean_message_complexity=sum(messages) / count if count else 0.0,
        mean_time_complexity=sum(times) / count if count else 0.0,
        failed_runs=len(failures),
        failures=failures,
        mean_round_complexity=(sum(rounds) / len(rounds)
                               if rounds else None),
    )


def outcomes_table(outcomes: Iterable[ExperimentOutcome],
                   axis: Optional[str] = None) -> str:
    """Fixed-width table of sweep outcomes (ready to print).

    A ``mean R`` (rounds) column appears only when at least one outcome
    carries a round measure, so sim-backend tables keep their exact
    historical shape.
    """
    outcomes = list(outcomes)
    rows = []
    with_rounds = any(outcome.mean_round_complexity is not None
                      for outcome in outcomes)
    for outcome in outcomes:
        label = (str(getattr(outcome.spec, axis)) if axis
                 else outcome.spec.protocol)
        rounds = ("-" if outcome.mean_round_complexity is None
                  else f"{outcome.mean_round_complexity:.1f}")
        rows.append((label, outcome.mean_query_complexity,
                     outcome.mean_time_complexity, rounds,
                     f"{outcome.correct_runs}/{outcome.runs}"))
    label_width = max(len("value"), max(len(row[0]) for row in rows))
    header = (f"{'value'.ljust(label_width)} | {'mean Q':>10} | "
              f"{'mean T':>8} | ")
    if with_rounds:
        header += f"{'mean R':>6} | "
    header += "ok"
    lines = [header]
    for label, mean_q, mean_t, rounds, ok in rows:
        line = (f"{label.ljust(label_width)} | {mean_q:>10.1f} | "
                f"{mean_t:>8.2f} | ")
        if with_rounds:
            line += f"{rounds:>6} | "
        line += ok
        lines.append(line)
    return "\n".join(lines)
