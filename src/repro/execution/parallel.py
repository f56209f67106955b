"""Process-parallel experiment execution with fault tolerance.

Every experiment in this repo is embarrassingly parallel: a spec's
repeats are independent runs seeded by
:meth:`~repro.experiments.ExperimentSpec.seed_for`, and a sweep's
points are independent specs.  :class:`ParallelRunner` fans both out
over a :class:`~concurrent.futures.ProcessPoolExecutor` while keeping
results **bit-for-bit identical** to the serial path:

- each task is a pure function of ``(spec, repeat)`` — workers rebuild
  the adversary and peer factory from the spec, so no live simulator
  state crosses the process boundary;
- per-repeat records are gathered by index, and aggregation always
  happens in repeat order in the parent, so scheduling order is
  irrelevant;
- ``workers=1`` runs in-process through the *same* task function.

Because tasks are pure, re-running one is always safe — which is what
the resilience layer leans on:

- every task runs under a :class:`~repro.execution.retry.RetryPolicy`
  (attempt budget, deterministic-jitter backoff, per-attempt wall-clock
  watchdog), applied by the
  :class:`~repro.execution.retry.TaskAttempts` the job queue uses too;
- a broken process pool (worker killed, OOM, segfault) rebuilds the
  pool and resubmits **only the lost tasks** — completed results are
  never discarded;
- a task that fails every attempt becomes a structured
  :class:`~repro.execution.retry.TaskFailure` in the results
  (``on_error="record"``) or re-raises (``on_error="raise"``);
- what is owed and what is checkpointed, folded and cached around
  those tasks is :class:`~repro.execution.plan.SweepPlan`'s business.

Underneath is the generic :func:`run_tasks`: every payload is pickled
up front, so serial and parallel modes both hand each task a pristine
copy, and ``workers=1`` and ``workers=N`` see identical state.
"""

from __future__ import annotations

import pickle
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import (TYPE_CHECKING, Callable, Iterable, Optional, Sequence)

from repro.execution.cache import ResultCache
from repro.execution.chaos import ChaosPlan
from repro.execution.journal import SweepJournal
from repro.execution.plan import SweepPlan
from repro.execution.retry import (RetryPolicy, TaskAttempts, TaskFailure,
                                  run_attempt)
from repro.obs.telemetry import counter as obs_counter
from repro.obs.telemetry import event as obs_event
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments import ExperimentOutcome, ExperimentSpec

__all__ = ["ParallelRunner", "run_tasks"]


def _spec_repeat_task(payload):
    """Worker body: one repeat of one spec (module-level ⇒ picklable)."""
    spec, repeat = payload
    # Imported lazily: repro.experiments imports this package.
    from repro.experiments import execute_repeat
    return execute_repeat(spec, repeat)


def run_tasks(fn: Callable, payloads: Iterable, *, workers: int = 1,
              policy: Optional[RetryPolicy] = None,
              on_error: str = "raise",
              on_result: Optional[Callable[[int, object], None]] = None,
              task_seeds: Optional[Sequence[int]] = None,
              chaos: Optional[ChaosPlan] = None) -> list:
    """Order-preserving, fault-tolerant map of ``fn`` over ``payloads``.

    ``workers > 1`` distributes over a process pool; ``workers = 1``
    runs in-process.  Serial mode passes each payload through a pickle
    round-trip, mirroring the copy a pool worker would receive — mutable
    payload state (e.g. a shared adversary object) then cannot leak
    between tasks in either mode, which is what makes serial and
    parallel results identical.

    Every task runs under ``policy`` (default: the stock
    :class:`~repro.execution.retry.RetryPolicy` — 3 attempts, no
    timeout), its attempts decided by one
    :class:`~repro.execution.retry.TaskAttempts`: failed attempts are
    retried after a deterministic-jitter backoff, a per-attempt
    wall-clock ``task_timeout`` is enforced by a watchdog, and a broken
    process pool is rebuilt with only the lost tasks resubmitted (each
    casualty is charged one attempt).  A task that exhausts its budget
    re-raises its last error when ``on_error="raise"`` (the default),
    or yields a :class:`~repro.execution.retry.TaskFailure` in its
    result slot when ``on_error="record"``.

    ``on_result(index, result)`` is invoked in the parent as each task
    completes (completion order under a pool) — the journalling hook.
    ``task_seeds`` supplies per-task seeds for the backoff jitter
    (default: the task index).  ``chaos`` injects deterministic faults
    for the chaos battery; leave it ``None`` outside tests.

    ``fn`` must be a module-level callable.  If ``fn`` or any payload
    cannot be pickled, the pickling error is raised before any task
    runs.
    """
    check_positive("workers", workers)
    if on_error not in ("raise", "record"):
        raise ValueError(f"on_error must be 'raise' or 'record', "
                         f"got {on_error!r}")
    policy = RetryPolicy() if policy is None else policy
    payloads = list(payloads)
    if not payloads:
        return []
    # Live-progress feed: a ProgressTracker (or any telemetry backend)
    # learns the batch size up front and each outcome as it lands.  All
    # emissions happen in the parent process, after outcomes are
    # decided, so they cannot perturb results.
    obs_counter("tasks_total", len(payloads))
    seeds = (list(task_seeds) if task_seeds is not None
             else list(range(len(payloads))))
    if len(seeds) != len(payloads):
        raise ValueError(f"task_seeds has {len(seeds)} entries for "
                         f"{len(payloads)} payloads")

    calls = [pickle.dumps((fn, (payload,))) for payload in payloads]
    tasks = [TaskAttempts(policy, index, seed, strict=on_error == "raise")
             for index, seed in enumerate(seeds)]
    results: list = [None] * len(payloads)

    def finish(index: int, result) -> None:
        results[index] = result
        if isinstance(result, TaskFailure):
            return  # narrated by its TaskAttempts
        obs_counter("tasks_done")
        obs_event("task_done", index=index, attempts=tasks[index].count)
        if on_result is not None:
            on_result(index, result)

    if workers == 1 or len(payloads) == 1:
        _run_serial(calls, tasks, policy.task_timeout, chaos, finish)
    else:
        _run_pool(calls, tasks, policy.task_timeout, chaos, finish,
                  workers)
    return results


def _run_serial(calls, tasks, timeout, chaos, finish) -> None:
    """In-process host: each task settles before the next one starts."""
    for index, task in enumerate(tasks):
        while True:
            try:
                result = run_attempt(calls[index], timeout, chaos, index,
                                     task.start())
            except Exception as exc:
                result = task.failed(exc)
                if not isinstance(result, TaskFailure):
                    time.sleep(result)
                    continue
            finish(index, result)
            break


def _run_pool(calls, tasks, timeout, chaos, finish, workers) -> None:
    """Pool host: retries in-pool, rebuild-and-resubmit on breakage.

    A ``BrokenProcessPool`` (worker killed/segfaulted/OOMed) marks the
    whole executor unusable: completed results are kept, every
    unfinished task is charged the attempt it lost (the killer is among
    them and must not loop forever), and a fresh pool is built for the
    tasks still owed.  Termination is inductive — every rebuild
    consumes at least one attempt from a finite total budget.
    """
    owed = deque(range(len(calls)))

    def failed(index: int, exc: Exception) -> None:
        verdict = tasks[index].failed(exc)
        if isinstance(verdict, TaskFailure):
            finish(index, verdict)
        else:
            time.sleep(verdict)
            owed.append(index)

    while owed:
        with ProcessPoolExecutor(
                max_workers=min(workers, len(owed))) as pool:
            inflight = {}
            broken = False
            while not broken and (owed or inflight):
                while owed and not broken:
                    index = owed.popleft()
                    try:
                        inflight[pool.submit(
                            run_attempt, calls[index], timeout, chaos,
                            index, tasks[index].start(), True)] = index
                    except BrokenProcessPool as exc:
                        broken = True
                        failed(index, exc)
                if not inflight:
                    continue
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                for future in done:
                    index = inflight.pop(future)
                    try:
                        result = future.result()
                    except Exception as exc:
                        broken |= isinstance(exc, BrokenProcessPool)
                        failed(index, exc)
                    else:
                        finish(index, result)
            # Drain the casualties: every remaining future fails fast
            # with BrokenProcessPool; keep any stragglers that actually
            # finished before the breakage.
            for future, index in inflight.items():
                try:
                    result = future.result()
                except Exception as exc:
                    failed(index, exc)
                else:
                    finish(index, result)


class ParallelRunner:
    """Executes :class:`~repro.experiments.ExperimentSpec` workloads.

    Args:
        workers: process count; ``1`` means in-process serial.
        cache: optional :class:`ResultCache`: hits skip computation.
        journal: optional :class:`SweepJournal`: checkpointed repeats
            resume (both as :class:`~repro.execution.plan.SweepPlan`
            describes).
        policy: :class:`~repro.execution.retry.RetryPolicy` for every
            task (default: 3 attempts, no timeout).
        strict: ``True`` re-raises the first task error that survives
            its retry budget; ``False`` (the default) degrades
            gracefully — failed repeats become
            :class:`~repro.execution.retry.TaskFailure` records on the
            outcome (``failed_runs``/``failures``).
        chaos: deterministic fault injection plan (tests only).

    The runner is stateless between calls (cache/journal stats live on
    those objects), so one instance can serve many runs/sweeps.
    """

    def __init__(self, *, workers: int = 1,
                 cache: Optional[ResultCache] = None,
                 journal: Optional[SweepJournal] = None,
                 policy: Optional[RetryPolicy] = None,
                 strict: bool = False,
                 chaos: Optional[ChaosPlan] = None) -> None:
        check_positive("workers", workers)
        self.workers = workers
        self.cache = cache
        self.journal = journal
        self.policy = policy
        self.strict = strict
        self.chaos = chaos

    def run(self, spec: "ExperimentSpec") -> "ExperimentOutcome":
        """All repeats of one spec, aggregated."""
        return self.run_many([spec])[0]

    def run_many(self, specs: Sequence["ExperimentSpec"]
                 ) -> list["ExperimentOutcome"]:
        """Many specs at once; repeats of *all* uncached specs share one
        pool, so a sweep saturates the workers even when each point has
        few repeats.  Output order matches input order."""
        return self.settle(specs).outcomes()

    def settle(self, specs: Sequence["ExperimentSpec"]) -> SweepPlan:
        """The :class:`SweepPlan` over ``specs`` with every owed task
        executed and settled — for a caller that wants a point's
        per-repeat ``rows`` as well as its folded outcome."""
        plan = SweepPlan(specs, cache=self.cache, journal=self.journal)
        tasks = plan.tasks
        results = run_tasks(
            _spec_repeat_task,
            [(plan.specs[index], repeat) for index, repeat in tasks],
            workers=self.workers,
            policy=self.policy,
            on_error="raise" if self.strict else "record",
            # Successes settle (and checkpoint) the moment they land.
            on_result=lambda position, record: plan.settle(
                tasks[position], record),
            task_seeds=[plan.specs[index].seed_for(repeat)
                        for index, repeat in tasks],
            chaos=self.chaos)
        for task, result in zip(tasks, results):
            if isinstance(result, TaskFailure):
                plan.settle(task, result)
        return plan

    def sweep(self, spec: "ExperimentSpec", *, axis: str,
              values: Iterable) -> list["ExperimentOutcome"]:
        """One outcome per axis value (see
        :func:`repro.experiments.sweep_points`)."""
        from repro.experiments import sweep_points
        return self.run_many(sweep_points(spec, axis=axis, values=values))
