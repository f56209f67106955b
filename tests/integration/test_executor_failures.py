"""One failure-path battery across every executor.

The paper's crash model bounds what a stopped participant may cost the
others; this battery holds the harness's executors to that standard.
Five executors — ``run_many`` serial, ``run_many`` on a pool, a
one-cell ``run_tournament`` and the ``JobQueue`` in thread and in
process mode — meet seven failures whose details Hypothesis draws: a
transient error that recovers, an exhausted budget, a configuration
error no retry can mend, a watchdog timeout, a killed worker, a torn
journal line and a corrupt cache entry.  Every case must end within :data:`BOUND_S` seconds, and every
executor must yield the same :class:`~repro.experiments.ExperimentOutcome`,
field for field, ``failures`` included.

Attempt faults are injected by substituting ``execute_repeat`` where
``run_many`` and the league resolve it and where the queue does.  The
substitute tallies its calls in a ledger directory, so an attempt in a
forked pool worker counts like one in the test process.  Cells a fault
cannot reach without a new executor parameter, or would reach only by
ending the test run, are skipped and named in :data:`SKIPPED`.
"""

import asyncio
import dataclasses
import gc
import multiprocessing
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.execution import (ParallelRunner, ResultCache, RetryPolicy,
                             SweepJournal, TaskFailure, TaskTimeout,
                             watchdog)
from repro.execution.chaos import corrupt_file, drop_journal_lines
from repro.experiments import ExperimentOutcome, execute_repeat
from repro.service.jobs import JobRequest, job_key
from repro.service.queue import JobQueue
from repro.service.store import JobStore
from repro.sim.errors import ConfigurationError, DeadlockError
from repro.tournament import (TournamentConfig, cell_spec, get_adversary,
                              run_tournament)

#: The league's one cell; every other executor runs its spec.
CONFIG = TournamentConfig(protocols=("crash-multi",), adversaries=("crash",),
                          topologies=("complete",), n=8, ell=256,
                          repeats=3, workers=2)
SPEC = cell_spec(CONFIG, get_adversary("crash"), "crash-multi", "complete")
JOB_ID = job_key(JobRequest(spec=SPEC))

POLICY = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.002)
TIMED = dataclasses.replace(POLICY, task_timeout=0.25)

#: Wall-clock bound on any one executor's run, faults included.
BOUND_S = 30.0

EXECUTORS = ("serial", "pool", "league", "queue-thread", "queue-process")

#: (failure, executor) cells left out, and why.
SKIPPED = {
    ("timeout", "queue-thread"):
        "thread mode refuses a task_timeout at construction "
        "(test_thread_mode_refuses_a_timeout)",
    ("kill", "serial"):
        "no pool worker to kill: os._exit would end the test run",
    ("kill", "queue-thread"):
        "no pool worker to kill: os._exit would end the test run",
    ("cache", "league"):
        "run_tournament takes no result cache",
}

COMMON = dict(max_examples=2, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])

repeats = st.integers(min_value=0, max_value=SPEC.repeats - 1)


@dataclasses.dataclass(frozen=True)
class Fault:
    """``execute_repeat`` with ``kind`` struck on the first ``until``
    attempts of ``repeat``; every call is tallied in ``ledger``."""

    ledger: str
    kind: str = "none"
    repeat: int = -1
    until: int = 0

    def __call__(self, spec, repeat):
        tally = Path(self.ledger) / f"repeat-{repeat}"
        with open(tally, "ab") as handle:
            handle.write(b".")
        if repeat == self.repeat and tally.stat().st_size <= self.until:
            self.strike(repeat)
        return execute_repeat(spec, repeat)

    def strike(self, repeat):
        if self.kind == "transient":
            raise OSError(f"injected fault on repeat {repeat}")
        if self.kind == "configuration":
            raise ConfigurationError(f"injected misconfiguration on "
                                     f"repeat {repeat}")
        if self.kind == "deadlock":
            raise DeadlockError([(f"peer-{repeat}", "an injected share")])
        if self.kind == "stall":
            time.sleep(60)  # the watchdog ends it
        elif self.kind == "kill":
            assert multiprocessing.parent_process() is not None, \
                "a kill outside a pool worker would end the test run"
            os._exit(86)

    def calls(self) -> dict:
        return {path.name: path.stat().st_size
                for path in Path(self.ledger).iterdir()}


def serve(mode, policy, cache_dir, state_dir):
    async def main():
        queue = JobQueue(JobStore(state_dir), pool=2, pool_mode=mode,
                         cache=cache_dir, policy=policy)
        await queue.start()
        try:
            job, _ = queue.submit(JobRequest(spec=SPEC))
            async for _seq, _entry in queue.stream(job.id):
                pass
            assert queue.job(job.id).state == "done"
            (outcome,) = queue.result(job.id)
            return outcome
        finally:
            await queue.close()
    return asyncio.run(asyncio.wait_for(main(), BOUND_S))


def runner(workers, policy, cache_dir, state_dir):
    return ParallelRunner(
        workers=workers, policy=policy, cache=ResultCache(cache_dir),
        journal=SweepJournal(state_dir / "journal.jsonl")).run(SPEC)


def league(policy, state_dir):
    config = dataclasses.replace(
        CONFIG, policy=policy, journal_path=str(state_dir / "journal.jsonl"))
    (cell,) = run_tournament(config).cells
    return cell.outcome


def journal_path(executor: str, state_dir: Path) -> Path:
    if executor.startswith("queue"):
        return JobStore(state_dir).journal_for(JOB_ID).path
    return state_dir / "journal.jsonl"


def run_on(executor, cache_dir, state_dir, fault, policy=POLICY
           ) -> ExperimentOutcome:
    """SPEC on ``executor`` with ``fault`` substituted, in bounded time.

    ``cache_dir`` holds the result cache; ``state_dir`` the journal
    (the job store's, for the queue)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.experiments.execute_repeat", fault)
        patch.setattr("repro.service.queue.execute_repeat", fault)
        started = time.monotonic()
        if executor in ("serial", "pool"):
            outcome = runner(1 if executor == "serial" else 2, policy,
                             cache_dir, state_dir)
        elif executor == "league":
            outcome = league(policy, state_dir)
        else:
            outcome = serve(executor[len("queue-"):], policy, cache_dir,
                            state_dir)
    elapsed = time.monotonic() - started
    assert elapsed < BOUND_S, f"{executor} took {elapsed:.1f}s"
    return outcome


def assert_same(expected, outcome, executor):
    for field in dataclasses.fields(ExperimentOutcome):
        assert getattr(outcome, field.name) == \
            getattr(expected, field.name), \
            f"{executor}: outcome field {field.name!r} differs"


def executors(failure):
    return [executor for executor in EXECUTORS
            if (failure, executor) not in SKIPPED]


@pytest.fixture(scope="module")
def baseline():
    """The fault-free outcome every recovering case must reproduce."""
    return ParallelRunner(workers=1, strict=True).run(SPEC)


def struck(failure, kind, repeat, until, baseline, policy=POLICY,
           attempts=None):
    """Run ``failure`` on every executor it reaches; the outcomes must
    agree with each other and, when the fault recovers, with
    ``baseline``.  The struck repeat must be tried ``attempts`` times
    (by default until it recovers or the budget is spent)."""
    if attempts is None:
        attempts = min(until + 1, policy.max_attempts)
    outcomes = {}
    with tempfile.TemporaryDirectory() as scratch:
        for executor in executors(failure):
            root = Path(scratch) / executor
            fault = Fault(str(root / "ledger"), kind, repeat, until)
            os.makedirs(fault.ledger)
            outcomes[executor] = run_on(executor, root / "cache",
                                        root / "state", fault, policy)
            assert fault.calls()[f"repeat-{repeat}"] >= attempts, executor
    first = outcomes["pool"]
    for executor, outcome in outcomes.items():
        assert_same(first, outcome, executor)
    if until < policy.max_attempts:
        assert_same(baseline, first, "recovered")
    return first


class TestAttemptFaults:
    @settings(**COMMON)
    @given(repeat=repeats, until=st.integers(min_value=1, max_value=2))
    def test_transient_error_recovers(self, baseline, repeat, until):
        struck("transient", "transient", repeat, until, baseline)

    @settings(**COMMON)
    @given(repeat=repeats)
    def test_exhausted_budget_is_one_record(self, baseline, repeat):
        outcome = struck("exhausted", "transient", repeat, 99, baseline)
        assert outcome.failures == (TaskFailure(
            task=f"repeat-{repeat}", error_type="OSError",
            message=f"injected fault on repeat {repeat}",
            attempts=POLICY.max_attempts),)
        assert outcome.failed_runs == 1

    @settings(**COMMON)
    @given(repeat=repeats)
    def test_a_configuration_error_is_not_retried(self, baseline, repeat):
        outcome = struck("configuration", "configuration", repeat, 99,
                         baseline, attempts=1)
        assert outcome.failures == (TaskFailure(
            task=f"repeat-{repeat}", error_type="ConfigurationError",
            message=f"injected misconfiguration on repeat {repeat}",
            attempts=1),)
        assert outcome.failed_runs == 1

    @settings(**COMMON)
    @given(repeat=repeats)
    def test_a_deadlock_is_not_retried(self, baseline, repeat):
        # A simulator run deadlocks the same way at the same seed.
        outcome = struck("deadlock", "deadlock", repeat, 99, baseline,
                         attempts=1)
        (failure,) = outcome.failures
        assert failure.error_type == "DeadlockError"
        assert str(failure).endswith("after 1 attempt(s)")

    @settings(**COMMON)
    @given(repeat=repeats)
    def test_watchdog_timeout_recovers(self, baseline, repeat):
        struck("timeout", "stall", repeat, 1, baseline, TIMED)

    @settings(**COMMON)
    @given(repeat=repeats)
    def test_killed_worker_recovers(self, baseline, repeat):
        struck("kill", "kill", repeat, 1, baseline)


#: Damage a torn append leaves, or a garbage line.
TORN = st.sampled_from(['{"key": "3f9a", "record": {"correct": tr',
                        "", "\x00\x00", "[1, 2"])


class TestArtifactFaults:
    @settings(**COMMON)
    @given(line=repeats, damage=TORN)
    def test_torn_journal_line_reruns_only_its_repeat(self, baseline,
                                                      line, damage):
        with tempfile.TemporaryDirectory() as scratch:
            for executor in executors("journal"):
                root = Path(scratch) / executor
                first = Fault(str(root / "first-ledger"))
                os.makedirs(first.ledger)
                run_on(executor, root / "first-cache", root / "first",
                       first)
                torn = journal_path(executor, root / "second")
                torn.parent.mkdir(parents=True)
                shutil.copy(journal_path(executor, root / "first"), torn)
                assert drop_journal_lines(torn, [line],
                                          replacement=damage) == 1
                fault = Fault(str(root / "ledger"))
                os.makedirs(fault.ledger)
                # A fresh cache: the point must come from the journal.
                outcome = run_on(executor, root / "cache",
                                 root / "second", fault)
                assert sum(fault.calls().values()) == 1, executor
                assert_same(baseline, outcome, executor)

    @settings(**COMMON)
    @given(garbage=st.binary(max_size=24))
    def test_corrupt_cache_entry_is_recomputed(self, baseline, garbage):
        with tempfile.TemporaryDirectory() as scratch:
            for executor in executors("cache"):
                root = Path(scratch) / executor
                first = Fault(str(root / "first-ledger"))
                os.makedirs(first.ledger)
                run_on(executor, root / "cache", root / "first", first)
                entry = ResultCache(root / "cache").path_for(SPEC)
                intact = entry.read_bytes()
                corrupt_file(entry, garbage)
                fault = Fault(str(root / "ledger"))
                os.makedirs(fault.ledger)
                # A fresh journal: the point must be recomputed.
                outcome = run_on(executor, root / "cache",
                                 root / "second", fault)
                assert sum(fault.calls().values()) == SPEC.repeats
                assert entry.read_bytes() == intact, executor
                assert_same(baseline, outcome, executor)


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnraisableExceptionWarning")
def test_an_alarm_dropped_in_a_gc_callback_is_repeated():
    # A TaskTimeout raised inside a gc callback is discarded; a one-shot
    # alarm lost there let the task run on.  The discard is silent: it
    # never reaches sys.unraisablehook (where pytest would turn it into
    # a PytestUnraisableExceptionWarning).
    def slow_collection(phase, info):
        if phase == "start" and not held:
            held.append(phase)
            until = time.monotonic() + 0.1
            while time.monotonic() < until:
                pass  # the first alarm is handled here

    held, unraisable = [], []
    hook = sys.unraisablehook
    sys.unraisablehook = unraisable.append
    gc.callbacks.append(slow_collection)
    try:
        started = time.monotonic()
        with pytest.raises(TaskTimeout):
            with watchdog(0.05):
                gc.collect()
                time.sleep(5)
        assert held and time.monotonic() - started < 1.0
        assert sys.unraisablehook == unraisable.append
    finally:
        gc.callbacks.remove(slow_collection)
        sys.unraisablehook = hook
    assert unraisable == []
