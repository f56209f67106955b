"""Retry, timeout, and failure-record policy for the execution engine.

The engine's tasks are pure functions of their payload (seeds are
derived from spec identity), so re-running one is always safe.  That
makes a retry layer free of semantic risk: a transient worker fault —
an ``OSError`` from a saturated machine, a killed worker process, a
stall past the wall-clock budget — is retried with exponential backoff,
and only a fault that survives every attempt surfaces, either as a
raised exception (strict mode) or as a structured :class:`TaskFailure`
record carried in the results (graceful mode).

Determinism is preserved end to end: the backoff *jitter* is not drawn
from a shared RNG but derived from the task's own seed via
:func:`repro.util.rng.derive_unit`, so two runs of the same sweep retry
on the same schedule, and a retried task produces bit-identical results
to one that succeeded first try (the task function never sees the
attempt number).

The per-task wall-clock timeout is a :func:`watchdog` alarm raised
*inside* the process running the task (a pool worker's main thread, or
the parent on the serial path), so a stalled task is interrupted where
it runs and the pool stays healthy.  On platforms without ``SIGALRM``
or off the main thread the watchdog degrades to a no-op (best effort).
"""

from __future__ import annotations

import pickle
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Union

from repro.obs.telemetry import counter as obs_counter
from repro.obs.telemetry import event as obs_event
from repro.util.rng import derive_unit
from repro.util.validation import check_positive

__all__ = [
    "NO_RETRY",
    "RetryPolicy",
    "TaskAttempts",
    "TaskFailure",
    "TaskTimeout",
    "run_attempt",
    "watchdog",
]


class TaskTimeout(Exception):
    """A task exceeded its :attr:`RetryPolicy.task_timeout` budget."""


@dataclass(frozen=True)
class RetryPolicy:
    """How the engine reacts to a failing or stalled task.

    Args:
        max_attempts: total tries per task (1 = no retries).
        base_delay: backoff before the first retry, in seconds.
        backoff: multiplier applied per further retry.
        max_delay: ceiling on any single backoff sleep.
        task_timeout: per-attempt wall-clock budget in seconds
            (``None`` disables the watchdog).
        jitter: fraction of each backoff sleep that is randomized
            *deterministically* from the task seed (0 disables).
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    backoff: float = 2.0
    max_delay: float = 2.0
    task_timeout: Optional[float] = None
    jitter: float = 0.5

    def __post_init__(self) -> None:
        check_positive("max_attempts", self.max_attempts)
        for name in ("base_delay", "backoff", "max_delay", "jitter"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, "
                                 f"got {getattr(self, name)!r}")
        if self.jitter > 1:
            raise ValueError(f"jitter must be <= 1, got {self.jitter!r}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive or None, "
                             f"got {self.task_timeout!r}")

    def delay_before(self, attempt: int, *, task_seed: int = 0) -> float:
        """Backoff sleep before retry number ``attempt`` (2, 3, ...).

        Exponential in the attempt number, capped at ``max_delay``,
        shortened by up to ``jitter`` of itself using a uniform value
        derived from ``(task_seed, attempt)`` — deterministic, so a
        re-run of the same sweep retries on the same schedule.
        """
        raw = min(self.max_delay,
                  self.base_delay * self.backoff ** max(0, attempt - 2))
        if raw <= 0:
            return 0.0
        if self.jitter > 0:
            raw *= 1.0 - self.jitter * derive_unit(task_seed,
                                                   f"retry#{attempt}")
        # Telemetry: total backoff seconds slept by the engine.  Only
        # the parent process ever computes delays, so the counter is
        # never emitted from (and lost in) a pool worker.
        obs_counter("retry_backoff_s", raw)
        return raw


#: Behaviour-neutral policy: one attempt, no watchdog, no sleeps.
NO_RETRY = RetryPolicy(max_attempts=1, base_delay=0.0, jitter=0.0)


@dataclass(frozen=True)
class TaskFailure:
    """Structured record of one task that failed every attempt.

    JSON-safe and frozen, so it can ride inside an
    :class:`~repro.experiments.ExperimentOutcome`, round-trip through
    the persistence layer, and compare by value in tests.
    """

    #: ``"task-<index>"`` as the executor minted it — seen only by a
    #: direct :func:`~repro.execution.parallel.run_tasks` caller, since
    #: :func:`~repro.experiments.aggregate_outcome` renames every
    #: failure on an outcome ``"repeat-<r>"``.
    task: str
    error_type: str  #: exception class name, e.g. ``"OSError"``
    message: str     #: ``str(exception)`` (truncated)
    attempts: int    #: attempts consumed before giving up

    @classmethod
    def from_exception(cls, task: str, exc: BaseException,
                       attempts: int) -> "TaskFailure":
        return cls(task=task, error_type=type(exc).__name__,
                   message=str(exc)[:500], attempts=attempts)

    def __str__(self) -> str:
        return (f"{self.task}: {self.error_type}({self.message}) "
                f"after {self.attempts} attempt(s)")


class TaskAttempts:
    """One task's attempts under a :class:`RetryPolicy`: the engine's
    one retry-or-give-up rule, for every executor (the serial loop and
    the pool of :func:`~repro.execution.parallel.run_tasks`, and the
    job queue).

    Sans-IO — it never sleeps, submits or rebuilds a pool.  The host
    calls :meth:`start` before each attempt (a :func:`run_attempt`)
    and :meth:`failed` after each failed one, then does what the
    verdict says: wait the returned delay (blocking or ``asyncio``)
    and try again, or settle the returned :class:`TaskFailure`
    (``strict`` re-raises the last error instead).  Both verdicts are
    narrated here, once for every host: ``tasks_retried`` /
    ``task_retried`` and ``tasks_failed`` / ``task_failed``.
    """

    __slots__ = ("policy", "index", "seed", "strict", "count")

    def __init__(self, policy: RetryPolicy, index: int, seed: int, *,
                 strict: bool = False) -> None:
        self.policy = policy
        self.index = index  #: the task's position in its batch or plan
        self.seed = seed    #: keys the deterministic backoff jitter
        self.strict = strict
        self.count = 0      #: attempts charged so far

    def start(self) -> int:
        """Charge one attempt; returns its 1-based number."""
        self.count += 1
        return self.count

    def failed(self, exc: Exception) -> Union[float, TaskFailure]:
        """The verdict on the attempt that raised ``exc``: the backoff
        to wait before the next one, or, with the budget spent, the
        structured failure."""
        if self.count < self.policy.max_attempts:
            obs_counter("tasks_retried")
            obs_event("task_retried", index=self.index,
                      attempt=self.count + 1)
            return self.policy.delay_before(self.count + 1,
                                            task_seed=self.seed)
        obs_counter("tasks_failed")
        obs_event("task_failed", index=self.index,
                  error=type(exc).__name__, attempts=self.count)
        if self.strict:
            raise exc
        return TaskFailure.from_exception(f"task-{self.index}", exc,
                                          self.count)


def run_attempt(call, timeout: Optional[float] = None, chaos=None,
                index: int = 0, attempt: int = 1, in_pool: bool = False):
    """One attempt of one task — what every executor runs.

    ``call`` is ``(fn, args)``, or its pickle (``run_tasks``'s
    per-task isolation copy).  The chaos injection (a
    :class:`~repro.execution.chaos.ChaosPlan`, keyed by ``index`` and
    ``attempt``) and the unpickle both sit *inside* the watchdog
    window, so a stalled injection or a pathological payload is
    interrupted like any stalled task.  Runs where the task runs: a
    pool worker's main thread (``in_pool=True``), or the caller's.
    """
    with watchdog(timeout):
        if chaos is not None:
            chaos.apply(index, attempt, in_pool=in_pool)
        fn, args = pickle.loads(call) if isinstance(call, bytes) else call
        return fn(*args)


@contextmanager
def watchdog(seconds: Optional[float]):
    """Raise :class:`TaskTimeout` if the body runs longer than ``seconds``.

    Implemented with ``SIGALRM``/``setitimer`` so it interrupts the
    running task in place; applies only on POSIX main threads (the
    serial engine path and pool workers' main threads both qualify).
    Elsewhere — or with ``seconds`` falsy — it is a no-op.

    The alarm repeats every ``seconds`` until the body ends: one that
    lands where Python cannot raise (a ``gc`` callback, a ``__del__``)
    is dropped as unraisable, and the next one interrupts the task.
    """
    if not seconds or seconds <= 0:
        yield
        return
    if (not hasattr(signal, "setitimer")
            or threading.current_thread() is not threading.main_thread()):
        yield  # best effort: no alarm available here
        return

    def _alarm(signum, frame):
        raise TaskTimeout(f"task exceeded its {seconds:g}s "
                          f"wall-clock budget")

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds), float(seconds))
    try:
        yield
    finally:
        while True:
            try:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
                break
            except TaskTimeout:
                pass  # an alarm pending as the timer stopped
