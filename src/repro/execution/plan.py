"""The sweep plan: what a list of specs still owes, and what it folds to.

The bookkeeping every front door shares — ``run_many``, the league, the
job queue — written once.  Over a list of specs, an optional
:class:`~repro.execution.cache.ResultCache` and an optional
:class:`~repro.execution.journal.SweepJournal`, a :class:`SweepPlan`
owns each spec's key (hashed once per salt), the cache hits, the
replayed records (the journal is read only if some point missed), the
ordered ``(index, repeat)`` tasks still owed, the checkpoint of each
settled record, the fold in repeat order and the store of failure-free
outcomes.  It never executes, retries or schedules: a host runs
:attr:`SweepPlan.tasks` however it likes — a process pool, an asyncio
queue interleaving many plans — and hands each record back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.execution.cache import ResultCache, spec_cache_key
from repro.execution.journal import SweepJournal
from repro.execution.retry import TaskFailure
from repro.obs.telemetry import counter as obs_counter
from repro.obs.telemetry import event as obs_event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments import ExperimentOutcome, ExperimentSpec

__all__ = ["SweepPlan"]


class SweepPlan:
    """Cache → journal → owed tasks → fold, for one list of specs.

    ``cache_hits`` counts the points answered from the cache,
    ``replayed`` the other points' repeats found in the journal, and
    ``tasks`` lists the ``(index, repeat)`` pairs still to execute.
    """

    def __init__(self, specs: Sequence["ExperimentSpec"], *,
                 cache: Optional[ResultCache] = None,
                 journal: Optional[SweepJournal] = None) -> None:
        self.specs = specs = list(specs)
        self._cache = cache
        self._journal = journal
        self._keys = {salt: [spec_cache_key(spec, salt=salt)
                             for spec in specs]
                      for salt in {part.salt for part in (cache, journal)
                                   if part is not None}}
        self._outcomes: list = [None] * len(specs)
        self._missed: list[int] = []
        for index, spec in enumerate(specs):
            hit = (cache._get(spec, self._keys[cache.salt][index])
                   if cache is not None else None)
            if hit is not None:
                self._outcomes[index] = hit
                obs_counter("cache_hits")
                obs_event("cache_hit", index=index)
            else:
                self._missed.append(index)
        self.cache_hits = len(specs) - len(self._missed)
        self._records: dict = {}
        if journal is not None and self._missed:
            journaled = journal.replay()
            keys = self._keys[journal.salt]
            for index in self._missed:
                for repeat in range(specs[index].repeats):
                    record = journaled.get((keys[index], repeat))
                    if record is not None:
                        self._records[(index, repeat)] = record
        self.replayed = len(self._records)
        self.tasks = [(index, repeat) for index in self._missed
                      for repeat in range(specs[index].repeats)
                      if (index, repeat) not in self._records]

    def settle(self, task: tuple, record) -> None:
        """Take one owed task's record and checkpoint it; a
        ``TaskFailure`` is kept for the fold but never journalled."""
        self._records[task] = record
        journal = self._journal
        if journal is not None and not isinstance(record, TaskFailure):
            index, repeat = task
            journal._record(self._keys[journal.salt][index], repeat,
                            record)

    def rows(self, index: int) -> list:
        """Point ``index``'s per-repeat records, in repeat order (a
        point that missed the cache, once its tasks are settled)."""
        return [self._records[(index, repeat)]
                for repeat in range(self.specs[index].repeats)]

    def outcomes(self) -> list["ExperimentOutcome"]:
        """One outcome per spec, input order; call once every task is
        settled.  Folded points without a failed run are cached —
        storing a transient fault would serve it forever."""
        from repro.experiments import aggregate_outcome
        for index in self._missed:
            outcome = aggregate_outcome(self.specs[index],
                                        self.rows(index))
            if self._cache is not None and outcome.failed_runs == 0:
                self._cache._put(outcome,
                                 self._keys[self._cache.salt][index])
            self._outcomes[index] = outcome
        return self._outcomes
