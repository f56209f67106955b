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
  watchdog);
- a broken process pool (worker killed, OOM, segfault) rebuilds the
  pool and resubmits **only the lost tasks** — completed results are
  never discarded;
- a task that fails every attempt becomes a structured
  :class:`~repro.execution.retry.TaskFailure` in the results
  (``on_error="record"``) or re-raises (``on_error="raise"``);
- what is owed and what is checkpointed, folded and cached around
  those tasks is :class:`~repro.execution.plan.SweepPlan`'s business.

The generic :func:`run_tasks` helper underneath is also used by the
benchmark harness (:mod:`benchmarks.support`), whose payloads carry
live adversary/factory objects rather than specs.  There the pickle
round-trip doubles as per-task isolation: serial and parallel modes
both hand each task a pristine copy, so ``workers=1`` and
``workers=N`` see identical state.  Payloads that cannot be pickled
fall back to direct serial calls (with a warning).
"""

from __future__ import annotations

import pickle
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import (TYPE_CHECKING, Callable, Iterable, Optional, Sequence)

from repro.execution.cache import ResultCache
from repro.execution.chaos import ChaosPlan
from repro.execution.journal import SweepJournal
from repro.execution.plan import SweepPlan
from repro.execution.retry import RetryPolicy, TaskFailure, watchdog
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


def _run_attempt(blob: bytes, index: int, attempt: int,
                 timeout: Optional[float],
                 chaos: Optional[ChaosPlan], *, in_pool: bool):
    """One attempt of one task: chaos, watchdog, unpickle, call.

    Runs in a pool worker's main thread (``in_pool=True``) or in the
    parent on the serial path.  The chaos injection and the unpickle
    both sit *inside* the watchdog window, so a stalled injection or a
    pathological payload is interrupted like any stalled task.
    """
    with watchdog(timeout):
        if chaos is not None:
            chaos.apply(index, attempt, in_pool=in_pool)
        fn, payload = pickle.loads(blob)
        return fn(payload)


class _TaskState:
    """Book-keeping for one task across attempts and pool rebuilds."""

    __slots__ = ("index", "seed", "attempts")

    def __init__(self, index: int, seed: int) -> None:
        self.index = index
        self.seed = seed
        self.attempts = 0


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
    timeout): failed attempts are retried after a deterministic-jitter
    backoff, a per-attempt wall-clock ``task_timeout`` is enforced by a
    watchdog, and a broken process pool is rebuilt with only the lost
    tasks resubmitted (each casualty is charged one attempt).  A task
    that exhausts its budget re-raises its last error when
    ``on_error="raise"`` (the default), or yields a
    :class:`~repro.execution.retry.TaskFailure` in its result slot when
    ``on_error="record"``.

    ``on_result(index, result)`` is invoked in the parent as each task
    completes (completion order under a pool) — the journalling hook.
    ``task_seeds`` supplies per-task seeds for the backoff jitter
    (default: the task index).  ``chaos`` injects deterministic faults
    for the chaos battery; leave it ``None`` outside tests.

    ``fn`` must be a module-level callable.  If ``fn`` or any payload
    cannot be pickled, everything runs serially on the originals (the
    only mode such payloads support) and a ``RuntimeWarning`` is
    emitted.
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

    serial = workers == 1 or len(payloads) == 1
    try:
        blobs = [pickle.dumps((fn, payload)) for payload in payloads]
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        warnings.warn(
            f"run_tasks: payloads are not picklable ({exc}); falling "
            f"back to serial execution without per-task isolation",
            RuntimeWarning, stacklevel=2)
        blobs = None
        serial = True

    if serial:
        return _run_serial(fn, payloads, blobs, seeds, policy,
                           on_error, on_result, chaos)
    return _run_pool(blobs, seeds, policy, workers,
                     on_error, on_result, chaos)


def _fail(state: _TaskState, exc: Exception, on_error: str) -> TaskFailure:
    """Out of attempts: raise (strict) or record (graceful)."""
    if on_error == "raise":
        raise exc
    return TaskFailure.from_exception(f"task-{state.index}", exc,
                                      state.attempts)


def _run_serial(fn, payloads, blobs, seeds, policy, on_error, on_result,
                chaos) -> list:
    """In-process path: same attempt loop, payload order preserved."""
    results: list = [None] * len(payloads)
    for index, payload in enumerate(payloads):
        state = _TaskState(index, seeds[index])
        while True:
            state.attempts += 1
            try:
                if blobs is None:
                    # Unpicklable payloads: no isolation copy possible,
                    # but retries and the watchdog still apply.
                    with watchdog(policy.task_timeout):
                        if chaos is not None:
                            chaos.apply(index, state.attempts,
                                        in_pool=False)
                        value = fn(payload)
                else:
                    value = _run_attempt(blobs[index], index,
                                         state.attempts,
                                         policy.task_timeout, chaos,
                                         in_pool=False)
            except Exception as exc:
                if state.attempts >= policy.max_attempts:
                    results[index] = _fail(state, exc, on_error)
                    obs_counter("tasks_failed")
                    obs_event("task_failed", index=index,
                              error=type(exc).__name__,
                              attempts=state.attempts)
                    break
                obs_counter("tasks_retried")
                obs_event("task_retried", index=index,
                          attempt=state.attempts + 1)
                time.sleep(policy.delay_before(state.attempts + 1,
                                               task_seed=state.seed))
                continue
            results[index] = value
            obs_counter("tasks_done")
            obs_event("task_done", index=index, attempts=state.attempts)
            if on_result is not None:
                on_result(index, value)
            break
    return results


def _run_pool(blobs, seeds, policy, workers, on_error, on_result,
              chaos) -> list:
    """Pool path: retries in-pool, rebuild-and-resubmit on breakage.

    A ``BrokenProcessPool`` (worker killed/segfaulted/OOMed) marks the
    whole executor unusable: completed results are kept, every
    unfinished task is charged one attempt (the killer is among them
    and must not loop forever), and a fresh pool is built for just the
    survivors.  Termination is inductive — every rebuild consumes at
    least one attempt from a finite total budget.
    """
    total = len(blobs)
    results: list = [None] * total
    finished = [False] * total
    states = {index: _TaskState(index, seeds[index])
              for index in range(total)}
    todo = list(range(total))

    def record_success(index: int, value) -> None:
        results[index] = value
        finished[index] = True
        obs_counter("tasks_done")
        obs_event("task_done", index=index,
                  attempts=states[index].attempts)
        if on_result is not None:
            on_result(index, value)

    def record_exhausted(index: int, exc: Exception) -> None:
        results[index] = _fail(states[index], exc, on_error)
        finished[index] = True
        obs_counter("tasks_failed")
        obs_event("task_failed", index=index, error=type(exc).__name__,
                  attempts=states[index].attempts)

    while todo:
        resubmit: list[int] = []
        with ProcessPoolExecutor(
                max_workers=min(workers, len(todo))) as pool:
            inflight = {}
            broken = False

            def submit(index: int) -> bool:
                """Charge an attempt and submit; False once the pool
                is broken (the caller routes the task to resubmit)."""
                state = states[index]
                state.attempts += 1
                try:
                    future = pool.submit(_run_attempt, blobs[index],
                                         index, state.attempts,
                                         policy.task_timeout, chaos,
                                         in_pool=True)
                except BrokenProcessPool:
                    return False
                inflight[future] = index
                return True

            for position, index in enumerate(todo):
                if not submit(index):
                    broken = True
                    resubmit.extend(todo[position:])
                    break
            todo = []
            while inflight and not broken:
                done, _ = wait(set(inflight),
                               return_when=FIRST_COMPLETED)
                for future in done:
                    index = inflight.pop(future)
                    state = states[index]
                    try:
                        value = future.result()
                    except BrokenProcessPool:
                        broken = True
                        resubmit.append(index)
                    except Exception as exc:
                        if state.attempts >= policy.max_attempts:
                            record_exhausted(index, exc)
                        elif broken:
                            resubmit.append(index)
                        else:
                            obs_counter("tasks_retried")
                            obs_event("task_retried", index=index,
                                      attempt=state.attempts + 1)
                            time.sleep(policy.delay_before(
                                state.attempts + 1,
                                task_seed=state.seed))
                            if not submit(index):
                                broken = True
                                resubmit.append(index)
                    else:
                        record_success(index, value)
            if broken:
                # Drain the casualties: every remaining future fails
                # fast with BrokenProcessPool; keep any stragglers that
                # actually finished before the breakage.
                for future, index in inflight.items():
                    try:
                        record_success(index, future.result())
                    except Exception:
                        resubmit.append(index)
                inflight.clear()
        for index in resubmit:
            # A lost task was charged its submission's attempt; out of
            # budget means the breakage wins as its failure cause.
            if states[index].attempts >= policy.max_attempts:
                record_exhausted(index, BrokenProcessPool(
                    f"task {index} lost to a broken process pool "
                    f"{states[index].attempts} time(s)"))
            else:
                todo.append(index)
        todo.sort()
    assert all(finished), "engine lost track of a task"
    return results


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
