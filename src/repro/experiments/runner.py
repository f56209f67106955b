"""Backend-agnostic execution entry points.

``execute_repeat`` is the one function the process-pool workers call:
it resolves the spec's backend from the registry and runs one repeat.
``run_experiment``/``sweep_experiment`` wire specs through the parallel
runner (cache, journal, retries) exactly as before the backend layer —
those engines never look at ``spec.backend``; only this dispatch does.
"""

from __future__ import annotations

from typing import Iterable

from repro.experiments.backends import get_backend
from repro.experiments.outcome import ExperimentOutcome, RepeatRecord
from repro.experiments.spec import ExperimentSpec


def execute_repeat(spec: ExperimentSpec, repeat: int) -> RepeatRecord:
    """Run repeat number ``repeat`` of ``spec`` from scratch.

    Pure in ``(spec, repeat)``: the backend rebuilds its peer factory
    and adversary and the seed comes from
    :meth:`ExperimentSpec.seed_for`, so the same call yields the same
    record in any process.  Telemetry flows through the process-global
    backend (installed per worker by the parallel engine), so ``None``
    is passed here — backends emit through the global helpers.
    """
    backend = get_backend(spec.backend)
    return backend.run_one(spec, repeat, spec.seed_for(repeat), None)


def run_experiment(spec: ExperimentSpec, *, workers: int = 1,
                   cache=None, journal=None, policy=None,
                   strict: bool = False) -> ExperimentOutcome:
    """Execute every repeat of ``spec`` and aggregate.

    Args:
        workers: processes to fan repeats over; ``1`` runs in-process.
        cache: ``True`` for the default on-disk cache, a directory
            path, a :class:`~repro.execution.ResultCache`, or ``None``
            to disable (see :func:`repro.execution.resolve_cache`).
        journal: ``True`` for the default checkpoint journal, a file
            path, a :class:`~repro.execution.SweepJournal`, or ``None``
            to disable — completed repeats are checkpointed and
            replayed on restart (see
            :func:`repro.execution.resolve_journal`).
        policy: :class:`~repro.execution.RetryPolicy` wrapped around
            every repeat (default: 3 attempts, no timeout).
        strict: re-raise the first repeat error that survives its retry
            budget instead of degrading it into the outcome's
            ``failed_runs``/``failures`` fields.
    """
    from repro.execution import (ParallelRunner, resolve_cache,
                                 resolve_journal)
    runner = ParallelRunner(workers=workers, cache=resolve_cache(cache),
                            journal=resolve_journal(journal),
                            policy=policy, strict=strict)
    return runner.run(spec)


def sweep_points(spec: ExperimentSpec, *, axis: str,
                 values: Iterable) -> list[ExperimentSpec]:
    """The specs a sweep visits: ``spec`` with ``axis`` set per value.

    ``spec``'s fields are read once; each point is constructed from
    them with ``axis`` set, so it runs the full ``__post_init__``
    validation, and an invalid value raises at its own point.  Equal
    to ``dataclasses.replace(spec, **{axis: value})`` per value.
    """
    fields = {name: getattr(spec, name)
              for name in ExperimentSpec.__dataclass_fields__}
    if axis not in fields:
        raise ValueError(f"unknown sweep axis {axis!r}")
    points = []
    for value in values:
        fields[axis] = value
        points.append(ExperimentSpec(**fields))
    return points


def sweep_experiment(spec: ExperimentSpec, *, axis: str, values: Iterable,
                     workers: int = 1, cache=None, journal=None,
                     policy=None,
                     strict: bool = False) -> list[ExperimentOutcome]:
    """Run ``spec`` once per value of ``axis`` (any spec field).

    With ``workers > 1`` every repeat of every point shares one process
    pool; with a cache only points absent from it are computed; with a
    journal an interrupted sweep resumes from its completed repeats.
    Each point's outcome depends only on its own spec, never on the
    sweep order.  ``journal``/``policy``/``strict`` are as in
    :func:`run_experiment`.
    """
    from repro.execution import (ParallelRunner, resolve_cache,
                                 resolve_journal)
    runner = ParallelRunner(workers=workers, cache=resolve_cache(cache),
                            journal=resolve_journal(journal),
                            policy=policy, strict=strict)
    return runner.sweep(spec, axis=axis, values=values)
