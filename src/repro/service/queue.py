"""The asyncio job queue: many jobs, one shared worker pool.

This is the multiplexing layer between the HTTP front door and the
experiments engine.  The schedulable unit is **one task** — a
``(point, repeat)`` pair, exactly the unit
:func:`~repro.experiments.execute_repeat` runs and the engine's
cache/journal layers checkpoint — so many concurrent jobs interleave
at task granularity over one fixed pool of workers instead of each
sweep monopolizing the machine:

- **Priority, then fairness.**  Every job carries a priority (lower
  runs first); among equal priorities the queue serves jobs
  round-robin, one task at a time, ordered by how many tasks each job
  has already been served (ties broken by admission order).  A burst
  of big jobs therefore cannot starve a small one at the same
  priority, and an urgent job overtakes at the next task boundary.
- **Content-addressed dedup.**  Jobs are named by
  :func:`~repro.service.jobs.job_key`; submitting an experiment that
  is pending, running, or done coalesces into the existing job — one
  execution, N readers of the same result object.
- **One plan per admitted job.**  What a job still owes (points not
  in the shared cache, repeats not in its private journal) and how
  records are checkpointed, folded and cached is the engine's
  :class:`~repro.execution.plan.SweepPlan`, as for a CLI sweep; a
  killed server re-admits its non-terminal jobs and each resumes.
- **Cancellation at task boundaries.**  Cancel drops every queued task
  immediately; in-flight tasks (pure functions, at most one per
  worker) finish and are discarded — as is any result whose run is
  no longer the job's current one (cancel, then resubmit).
- **Retries.**  Each attempt is the engine's
  :func:`~repro.execution.retry.run_attempt`, decided by its
  :class:`~repro.execution.retry.TaskAttempts` under the queue's
  :class:`~repro.execution.retry.RetryPolicy` — the same budget,
  deterministic-jitter backoff and (in process mode) watchdog as
  :func:`~repro.execution.run_tasks` — and a task out of budget
  degrades into structured ``failed_runs`` on the outcome: a failing
  repeat never wedges the queue.

Everything the queue does is narrated through schema-v1 ``job_*``
events (docs/OBSERVABILITY.md): buffered in memory for the SSE stream,
appended to the job's ``events.jsonl``, and mirrored to the
process-global telemetry backend.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Optional

from repro.execution.cache import ResultCache, resolve_cache
from repro.execution.plan import SweepPlan
from repro.execution.retry import (RetryPolicy, TaskAttempts, TaskFailure,
                                  run_attempt)
from repro.experiments import execute_repeat
from repro.obs.telemetry import event as obs_event
from repro.service.jobs import Job, JobRequest, job_key
from repro.service.store import JobStore

__all__ = ["JobQueue", "ServiceStats"]

#: Worker-pool flavours: threads (cheap, default) or processes (true
#: CPU parallelism; tasks are picklable pure functions either way).
POOL_MODES = ("thread", "process")


@dataclass
class ServiceStats:
    """Counters for one :class:`JobQueue` instance."""

    submitted: int = 0      #: submit calls received
    accepted: int = 0       #: submissions that created a new job
    dedup_hits: int = 0     #: submissions coalesced into an existing job
    resubmitted: int = 0    #: failed/cancelled jobs revived by a submit
    tasks_executed: int = 0  #: engine executions (execute_repeat calls)
    tasks_failed: int = 0   #: tasks that exhausted their retry budget
    cache_hits: int = 0     #: points answered from the ResultCache
    journal_replayed: int = 0  #: repeats replayed from job journals
    jobs_done: int = 0
    jobs_failed: int = 0
    jobs_cancelled: int = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in (
            "submitted", "accepted", "dedup_hits", "resubmitted",
            "tasks_executed", "tasks_failed", "cache_hits",
            "journal_replayed", "jobs_done", "jobs_failed",
            "jobs_cancelled")}


@dataclass
class _JobRun:
    """Execution state of one admitted job (queue-internal)."""

    job: Job
    plan: SweepPlan
    seq: int
    pending: deque = field(default_factory=deque)
    inflight: set = field(default_factory=set)
    #: tasks handed to workers so far (the fairness measure).
    served: int = 0

    @property
    def settled(self) -> bool:
        return not self.pending and not self.inflight


class JobQueue:
    """Admits, schedules, executes, and persists jobs.

    Args:
        store: the :class:`~repro.service.store.JobStore` holding every
            durable artifact (job records, events, journals, results).
        pool: worker count — the *one shared pool* every job's tasks
            multiplex over.
        pool_mode: ``"thread"`` (default) or ``"process"``.
        cache: engine result cache (``None`` disables; ``True`` uses
            ``<store root>/cache``; a path or
            :class:`~repro.execution.cache.ResultCache` passes through
            as in :func:`~repro.execution.cache.resolve_cache`).
        policy: per-task :class:`~repro.execution.retry.RetryPolicy`
            (default: 3 attempts, no timeout).  A ``task_timeout``
            needs ``pool_mode="process"``: the watchdog alarm cannot
            interrupt a pool thread, so thread mode refuses it.

    All queue state is mutated on the event-loop thread only; the
    executor runs nothing but the pure ``execute_repeat``.
    """

    def __init__(self, store: JobStore, *, pool: int = 2,
                 pool_mode: str = "thread", cache=True,
                 policy: Optional[RetryPolicy] = None) -> None:
        if pool < 1:
            raise ValueError(f"pool must be >= 1, got {pool!r}")
        if pool_mode not in POOL_MODES:
            raise ValueError(f"pool_mode must be one of {POOL_MODES}, "
                             f"got {pool_mode!r}")
        self.store = store
        self.pool = pool
        self.pool_mode = pool_mode
        self.cache: Optional[ResultCache] = resolve_cache(
            store.cache_dir if cache is True else cache)
        self.policy = policy if policy is not None else RetryPolicy()
        if self.policy.task_timeout is not None and pool_mode == "thread":
            raise ValueError(
                'a task_timeout needs pool_mode="process": the watchdog '
                'cannot interrupt a task on a pool thread')
        self.stats = ServiceStats()
        self.started_at = time.time()
        self._epoch = time.monotonic()
        self._jobs: dict[str, Job] = {}
        self._runs: dict[str, _JobRun] = {}
        self._results: dict[str, list] = {}
        self._events: dict[str, list[dict]] = {}
        self._event_waiters: list[asyncio.Future] = []
        self._work_waiters: list[asyncio.Future] = []
        self._workers: list[asyncio.Task] = []
        self._executor = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._running = False
        self._admit_seq = 0

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Recover persisted jobs and spin up the worker pool."""
        self._loop = asyncio.get_running_loop()
        self._executor = self._build_executor()
        self._running = True
        self.recover()
        self._workers = [self._loop.create_task(self._worker())
                         for _ in range(self.pool)]

    async def close(self) -> None:
        """Stop workers and release the pool (jobs stay on disk)."""
        self._running = False
        self._notify(self._work_waiters)
        self._notify(self._event_waiters)
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def _build_executor(self):
        if self.pool_mode == "process":
            return ProcessPoolExecutor(max_workers=self.pool)
        return ThreadPoolExecutor(max_workers=self.pool,
                                  thread_name_prefix="repro-serve")

    def recover(self) -> None:
        """Reload persisted jobs; re-admit every non-terminal one.

        The re-admitted jobs replay their journals, so a server killed
        mid-sweep resumes from its last completed repeat.
        """
        for job in self.store.load_all():
            if job.id in self._jobs:
                continue
            self._jobs[job.id] = job
            self._events.setdefault(job.id, [])
            if not job.terminal:
                self._admit(job, job.request.points())

    # -- the public (API-facing) surface -----------------------------------------

    def submit(self, request: JobRequest) -> tuple[Job, bool]:
        """Admit ``request``; returns ``(job, created)``.

        ``created`` is ``False`` when the submission coalesced into an
        existing job (dedup) or revived a failed/cancelled one.
        """
        self.stats.submitted += 1
        job_id = job_key(request)
        existing = self._jobs.get(job_id)
        if existing is not None:
            existing.submissions += 1
            if existing.state in ("pending", "running", "done"):
                self.stats.dedup_hits += 1
                self._emit(existing, "job_dedup", state=existing.state)
                self.store.save_job(existing)
                return existing, False
            # failed/cancelled: a fresh submission revives the job.
            self.stats.resubmitted += 1
            existing.transition("pending")
            self._results.pop(job_id, None)
            points = existing.request.points()
            self._emit(existing, "job_submitted",
                       priority=existing.request.priority,
                       points=len(points),
                       repeats=existing.request.spec.repeats,
                       client=request.client,
                       backend=existing.request.spec.backend)
            self._admit(existing, points)
            return existing, False
        points = request.points()
        job = Job(id=job_id, request=request,
                  total=sum(point.repeats for point in points))
        self.stats.accepted += 1
        self._jobs[job_id] = job
        self._events.setdefault(job_id, [])
        self.store.save_job(job)
        self._emit(job, "job_submitted", priority=request.priority,
                   points=len(points),
                   repeats=request.spec.repeats, client=request.client,
                   backend=request.spec.backend)
        self._admit(job, points)
        return job, True

    def cancel(self, job_id: str) -> Optional[Job]:
        """Cancel a job; pending tasks are dropped immediately.

        Terminal jobs are returned unchanged (cancel is idempotent);
        unknown ids return ``None``.
        """
        job = self._jobs.get(job_id)
        if job is None or job.terminal:
            return job
        run = self._runs.pop(job_id, None)
        if run is not None:
            run.pending.clear()
        job.transition("cancelled")
        self.stats.jobs_cancelled += 1
        self._emit(job, "job_cancelled")
        self.store.save_job(job)
        return job

    def job(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """Every known job, oldest submission first."""
        return sorted(self._jobs.values(),
                      key=lambda job: (job.submitted_at, job.id))

    def result(self, job_id: str) -> Optional[list]:
        """A done job's outcomes (one per point), else ``None``.

        Coalesced submissions all receive the *same list object* while
        the server lives — dedup really is one execution, one result.
        """
        outcomes = self._results.get(job_id)
        if outcomes is None:
            outcomes = self.store.load_result(job_id)
            if outcomes is not None:
                self._results[job_id] = outcomes
        return self._results.get(job_id)

    def events(self, job_id: str) -> list[dict]:
        """The job's event envelope (this process's emissions)."""
        return list(self._events.get(job_id, ()))

    async def stream(self, job_id: str, after: int = 0):
        """Async-iterate ``(seq, event)`` pairs from position ``after``.

        Replays buffered events first, then live ones; ends when the
        job reaches a terminal state (the terminal event included).
        """
        while True:
            buffered = self._events.get(job_id, ())
            while after < len(buffered):
                yield after, buffered[after]
                after += 1
            job = self._jobs.get(job_id)
            if job is None or job.terminal or not self._running:
                return
            await self._wait(self._event_waiters)

    # -- admission ----------------------------------------------------------------

    def _admit(self, job: Job, points: list) -> None:
        """Turn a pending job, whose ``points`` the caller built once,
        into schedulable tasks (cache/journal consulted first), or
        straight into a result if nothing is left to run."""
        self._admit_seq += 1
        plan = SweepPlan(points, cache=self.cache,
                         journal=self.store.journal_for(job.id))
        run = _JobRun(job=job, plan=plan, seq=self._admit_seq,
                      pending=deque(enumerate(plan.tasks)))
        self.stats.cache_hits += plan.cache_hits
        self.stats.journal_replayed += plan.replayed
        job.done = job.total - len(run.pending)
        job.failed = 0
        if job.state == "pending":
            job.transition("running")
        self._runs[job.id] = run
        self._emit(job, "job_started", tasks=len(run.pending),
                   replayed=plan.replayed, cache_hits=plan.cache_hits)
        self.store.save_job(job)
        if run.settled:
            self._finalize(run)
        else:
            self._notify(self._work_waiters)

    # -- scheduling ----------------------------------------------------------------

    def _next_task(self):
        """The fair-scheduler pick: lowest (priority, served, seq)."""
        best = None
        for run in self._runs.values():
            if not run.pending:
                continue
            rank = (run.job.request.priority, run.served, run.seq)
            if best is None or rank < best[0]:
                best = (rank, run)
        if best is None:
            return None
        run = best[1]
        position, task = run.pending.popleft()
        run.inflight.add(task)
        run.served += 1
        return run, position, task

    async def _worker(self) -> None:
        while self._running:
            picked = self._next_task()
            if picked is None:
                await self._wait(self._work_waiters)
                continue
            run, position, task = picked
            try:
                await self._run_task(run, position, task)
            except Exception as exc:  # infrastructure, not task, failure
                run.inflight.discard(task)
                self._fail_job(run, exc)

    async def _run_task(self, run: _JobRun, position: int, task) -> None:
        index, repeat = task
        point = run.plan.specs[index]
        job = run.job
        attempts = TaskAttempts(self.policy, position,
                                point.seed_for(repeat))
        started = time.monotonic()
        while True:
            attempts.start()
            self.stats.tasks_executed += 1
            executor = self._executor
            try:
                record = await self._loop.run_in_executor(
                    executor, run_attempt, (execute_repeat, (point, repeat)),
                    self.policy.task_timeout)
            except Exception as exc:
                if (isinstance(exc, BrokenProcessPool)
                        and executor is self._executor):
                    # A killed pool worker poisons the whole executor;
                    # the first task to see it rebuilds it (completed
                    # tasks are unaffected) and every casualty is
                    # charged the attempt, as in run_tasks.
                    executor.shutdown(wait=False, cancel_futures=True)
                    self._executor = self._build_executor()
                record = attempts.failed(exc)
                if not isinstance(record, TaskFailure):
                    await asyncio.sleep(record)
                    continue
            break
        run.inflight.discard(task)
        if self._runs.get(job.id) is not run:
            # Cancelled, or cancelled and revived under a new run: the
            # result is pure and discarded; nothing to undo.
            return
        run.plan.settle(task, record)
        if isinstance(record, TaskFailure):
            job.failed += 1
            self.stats.tasks_failed += 1
        job.done += 1
        self._emit(job, "job_progress", done=job.done, total=job.total,
                   point=index, repeat=repeat, failed=job.failed,
                   wall_s=round(time.monotonic() - started, 6))
        self.store.save_job(job)
        if run.settled:
            self._finalize(run)

    # -- completion ----------------------------------------------------------------

    def _finalize(self, run: _JobRun) -> None:
        """Fold the plan into outcomes, persist, and settle the job."""
        job = run.job
        outcomes = run.plan.outcomes()
        self._results[job.id] = outcomes
        self.store.save_result(job.id, outcomes)
        job.correct = all(outcome.failed_runs == 0
                          and outcome.success_rate == 1.0
                          for outcome in outcomes)
        job.transition("done")
        self.stats.jobs_done += 1
        self._runs.pop(job.id, None)
        self._emit(job, "job_done", correct=job.correct,
                   wall_s=round(time.time() - job.submitted_at, 6))
        self.store.save_job(job)

    def _fail_job(self, run: _JobRun, exc: Exception) -> None:
        """Infrastructure failure (store/journal I/O, a queue bug):
        the whole job degrades to ``failed`` with its cause recorded."""
        job = run.job
        if job.terminal:
            return
        job.error = f"{type(exc).__name__}: {exc}"
        job.transition("failed")
        self.stats.jobs_failed += 1
        self._runs.pop(job.id, None)
        self._emit(job, "job_failed", error=type(exc).__name__)
        try:
            self.store.save_job(job)
        except OSError:
            pass  # the disk is the thing that failed

    # -- events ---------------------------------------------------------------------

    def _emit(self, job: Job, kind: str, **fields) -> None:
        """One job event: SSE buffer + events.jsonl + global telemetry."""
        entry = {"event": kind, "job": job.id,
                 "t": round(time.monotonic() - self._epoch, 6), **fields}
        self._events.setdefault(job.id, []).append(entry)
        try:
            self.store.append_event(job.id, dict(entry))
        except OSError:
            pass  # the durable envelope is best-effort; SSE still works
        obs_event(kind, **{key: value for key, value in entry.items()
                           if key != "event"})
        self._notify(self._event_waiters)

    # -- waiter plumbing (sync-notifiable, loop-thread only) -------------------------

    def _notify(self, waiters: list) -> None:
        pending, waiters[:] = waiters[:], []
        for future in pending:
            if not future.done():
                future.set_result(None)

    async def _wait(self, waiters: list) -> None:
        future = self._loop.create_future()
        waiters.append(future)
        try:
            await future
        except asyncio.CancelledError:
            if future in waiters:
                waiters.remove(future)
            raise
