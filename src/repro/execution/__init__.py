"""Fault-tolerant parallel experiment execution with a result cache.

Public surface:

- :class:`ParallelRunner` — fans experiment repeats and sweep points
  over a process pool; ``workers=1`` is the in-process serial path and
  produces bit-identical outcomes.  Wraps every task in a
  :class:`RetryPolicy`, rebuilds broken pools, optionally checkpoints
  into a :class:`SweepJournal`, and degrades failed repeats into
  :class:`TaskFailure` records unless ``strict=True``.
- :class:`ResultCache` / :class:`CacheStats` — content-addressed
  on-disk outcome cache keyed by spec identity plus the
  :data:`CODE_VERSION` salt.
- :class:`SweepJournal` / :class:`JournalStats` — append-only JSONL
  checkpoint of completed ``(spec, repeat)`` records; replayed on
  restart so interrupted sweeps resume instead of restarting.
- :class:`RetryPolicy` / :class:`TaskFailure` / :class:`TaskTimeout` —
  the retry/timeout layer (deterministic-jitter backoff, per-attempt
  watchdog, structured failure records).
- :class:`ChaosPlan` — deterministic fault injection for the chaos
  battery (worker kills, transient errors, stalls); test-only.
- :func:`run_tasks` — the generic order-preserving parallel map the
  benchmark harness reuses.

Most callers never touch this package directly: pass ``workers=`` /
``cache=`` / ``journal=`` / ``policy=`` to
:func:`repro.experiments.run_experiment` or
:func:`repro.experiments.sweep_experiment` instead.
"""

from repro.execution.cache import (
    CODE_VERSION,
    CacheStats,
    ResultCache,
    canonical_json,
    default_cache_dir,
    resolve_cache,
    spec_cache_key,
)
from repro.execution.chaos import ChaosPlan, WorkerKilled
from repro.execution.journal import (
    JournalStats,
    SweepJournal,
    resolve_journal,
)
from repro.execution.parallel import ParallelRunner, run_tasks
from repro.execution.retry import (
    NO_RETRY,
    RetryPolicy,
    TaskFailure,
    TaskTimeout,
    watchdog,
)

__all__ = [
    "CODE_VERSION",
    "CacheStats",
    "ChaosPlan",
    "JournalStats",
    "NO_RETRY",
    "ParallelRunner",
    "ResultCache",
    "RetryPolicy",
    "SweepJournal",
    "TaskFailure",
    "TaskTimeout",
    "WorkerKilled",
    "canonical_json",
    "default_cache_dir",
    "resolve_cache",
    "resolve_journal",
    "run_tasks",
    "spec_cache_key",
    "watchdog",
]
