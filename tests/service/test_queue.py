"""Queue semantics: dedup, priority, fairness, cancel, resume, retry."""

from __future__ import annotations

import asyncio

import pytest

from repro.execution import ParallelRunner
from repro.execution.retry import RetryPolicy, TaskFailure
from repro.experiments import ExperimentSpec, run_experiment
from repro.service.jobs import JobRequest
from repro.service.queue import JobQueue
from repro.service.store import JobStore


def spec(**overrides) -> ExperimentSpec:
    base = dict(protocol="naive", n=4, ell=32, repeats=3)
    base.update(overrides)
    return ExperimentSpec(**base)


def run(coro_fn, tmp_path, **queue_kwargs):
    """Run ``coro_fn(queue)`` against a started queue, then close it."""
    async def main():
        queue = JobQueue(JobStore(tmp_path / "svc"), **queue_kwargs)
        await queue.start()
        try:
            return await coro_fn(queue)
        finally:
            await queue.close()
    return asyncio.run(main())


async def wait_done(queue, job_id, timeout=60.0):
    async def drain():
        async for _seq, _entry in queue.stream(job_id):
            pass
    await asyncio.wait_for(drain(), timeout)
    return queue.job(job_id)


class TestExecution:
    def test_single_job_matches_the_engine(self, tmp_path):
        async def scenario(queue):
            job, created = queue.submit(JobRequest(spec=spec()))
            assert created
            final = await wait_done(queue, job.id)
            assert final.state == "done" and final.correct
            assert final.done == final.total == spec().repeats
            return queue.result(job.id)

        outcomes = run(scenario, tmp_path, pool=2)
        reference = run_experiment(spec(), cache=None)
        assert len(outcomes) == 1
        assert outcomes[0] == reference

    def test_sweep_job_expands_points(self, tmp_path):
        async def scenario(queue):
            job, _ = queue.submit(JobRequest(spec=spec(), axis="n",
                                             values=(4, 6)))
            await wait_done(queue, job.id)
            return queue.result(job.id)

        outcomes = run(scenario, tmp_path, pool=2)
        assert [outcome.spec.n for outcome in outcomes] == [4, 6]

    def test_result_events_and_record_survive_on_disk(self, tmp_path):
        async def scenario(queue):
            job, _ = queue.submit(JobRequest(spec=spec()))
            await wait_done(queue, job.id)
            return job.id

        job_id = run(scenario, tmp_path, pool=1)
        store = JobStore(tmp_path / "svc")
        assert store.load_job(job_id).state == "done"
        assert store.load_result(job_id) is not None
        kinds = [entry["event"] for entry in store.load_events(job_id)]
        assert kinds[0] == "job_submitted" and kinds[-1] == "job_done"


class TestDedup:
    def test_concurrent_identical_submissions_coalesce(self, tmp_path):
        async def scenario(queue):
            first, created_a = queue.submit(JobRequest(spec=spec(),
                                                       client="a"))
            second, created_b = queue.submit(JobRequest(spec=spec(),
                                                        client="b"))
            assert created_a and not created_b
            assert second is first and first.submissions == 2
            await wait_done(queue, first.id)
            # Same execution -> literally the same result object.
            assert queue.result(first.id) is queue.result(second.id)
            return queue.stats

        stats = run(scenario, tmp_path, pool=2)
        assert stats.dedup_hits == 1 and stats.accepted == 1
        # One engine execution despite two submissions.
        assert stats.tasks_executed == spec().repeats

    def test_done_job_answers_resubmission_without_running(self, tmp_path):
        async def scenario(queue):
            job, _ = queue.submit(JobRequest(spec=spec()))
            await wait_done(queue, job.id)
            executed = queue.stats.tasks_executed
            again, created = queue.submit(JobRequest(spec=spec()))
            assert not created and again.state == "done"
            assert queue.stats.tasks_executed == executed
            return True

        assert run(scenario, tmp_path, pool=1)


class TestScheduling:
    def test_priority_overtakes_at_task_boundaries(self, tmp_path):
        async def scenario(queue):
            # Submitted while no worker has started: strictly by rank.
            slow, _ = queue.submit(JobRequest(spec=spec(ell=16),
                                              priority=50))
            fast, _ = queue.submit(JobRequest(spec=spec(ell=24),
                                              priority=1))
            await wait_done(queue, slow.id)
            await wait_done(queue, fast.id)
            return queue.job(fast.id), queue.job(slow.id)

        fast, slow = run(scenario, tmp_path, pool=1)
        assert fast.finished_at <= slow.finished_at

    def test_equal_priority_is_served_round_robin(self, tmp_path):
        # Reconstruct the interleave from progress-event times.
        async def interleave(queue):
            one, _ = queue.submit(JobRequest(spec=spec(ell=16)))
            two, _ = queue.submit(JobRequest(spec=spec(ell=24)))
            await wait_done(queue, one.id)
            await wait_done(queue, two.id)
            progress = [entry for job in (one, two)
                        for entry in queue.events(job.id)
                        if entry["event"] == "job_progress"]
            progress.sort(key=lambda entry: entry["t"])
            return [entry["job"] for entry in progress]

        order = run(interleave, tmp_path, pool=1)
        # Strict A/B alternation: with one worker and equal priority,
        # the served counter forces a perfect round-robin.
        assert len(order) == 2 * spec().repeats
        assert all(first != second
                   for first, second in zip(order, order[1:]))


class TestCancel:
    def test_cancel_pending_job_drops_all_tasks(self, tmp_path):
        async def scenario(queue):
            # pool=1 and a job ahead of it keeps the victim pending.
            blocker, _ = queue.submit(JobRequest(spec=spec(ell=16),
                                                 priority=1))
            victim, _ = queue.submit(JobRequest(spec=spec(ell=24),
                                                priority=99))
            cancelled = queue.cancel(victim.id)
            assert cancelled.state == "cancelled"
            await wait_done(queue, blocker.id)
            assert queue.result(victim.id) is None
            return queue.stats

        stats = run(scenario, tmp_path, pool=1)
        assert stats.jobs_cancelled == 1
        # Only the blocker's tasks ever ran.
        assert stats.tasks_executed == spec().repeats

    def test_cancel_is_idempotent_and_unknown_is_none(self, tmp_path):
        async def scenario(queue):
            job, _ = queue.submit(JobRequest(spec=spec()))
            await wait_done(queue, job.id)
            assert queue.cancel(job.id).state == "done"  # no-op
            assert queue.cancel("jdeadbeef") is None
            return True

        assert run(scenario, tmp_path, pool=1)

    def test_resubmit_revives_a_cancelled_job(self, tmp_path):
        async def scenario(queue):
            job, _ = queue.submit(JobRequest(spec=spec()))
            queue.cancel(job.id)
            revived, created = queue.submit(JobRequest(spec=spec()))
            assert revived is job and not created
            final = await wait_done(queue, job.id)
            assert final.state == "done" and final.correct
            return queue.stats

        stats = run(scenario, tmp_path, pool=1)
        assert stats.resubmitted == 1

    def test_resubmit_with_a_task_in_flight_drops_the_stale_result(
            self, tmp_path, monkeypatch):
        """Cancel while a task runs, resubmit at once: the old run's
        task finishes into a job that has a new run, and must not be
        folded (it used to fail the revived job with KeyError)."""
        import threading
        import time

        from repro.experiments import execute_repeat as real
        started = threading.Event()

        def slowed(point, repeat):
            started.set()
            time.sleep(0.05)
            return real(point, repeat)

        monkeypatch.setattr("repro.service.queue.execute_repeat", slowed)

        async def scenario(queue):
            job, _ = queue.submit(JobRequest(spec=spec()))
            await asyncio.get_running_loop().run_in_executor(
                None, started.wait, 30)
            assert queue.cancel(job.id).state == "cancelled"
            revived, created = queue.submit(JobRequest(spec=spec()))
            assert revived is job and not created
            final = await wait_done(queue, job.id)
            kinds = [entry["event"] for entry in queue.events(job.id)]
            return final, queue.result(job.id), kinds, queue.stats

        final, outcomes, kinds, stats = run(scenario, tmp_path, pool=1,
                                            cache=False)
        assert final.state == "done" and final.correct
        assert final.done == final.total == spec().repeats
        assert "job_failed" not in kinds and kinds[-1] == "job_done"
        assert outcomes == [run_experiment(spec(), cache=None)]
        # The stale task ran and was discarded; the new run redid it.
        assert stats.tasks_executed == spec().repeats + 1


PARENT_JOB_ID = "je4c09db0cff3450b"
_PARENT_JOB_SPEC = """{
      "backend": "sim",
      "base_seed": 5,
      "beta": 0.0,
      "ell": 32,
      "fault_model": "none",
      "n": 4,
      "network": "asynchronous",
      "protocol": "naive",
      "protocol_params": {},
      "proxy_faults": [],
      "repeats": 3,
      "source_faults": [],
      "sources": 1,
      "strategy": "wrong-bits",
      "topology": "complete"
    }"""
PARENT_JOB = """{
  "job": {
    "axis": null,
    "client": "parent",
    "correct": null,
    "done": 0,
    "error": null,
    "failed": 0,
    "finished_at": null,
    "id": "je4c09db0cff3450b",
    "priority": 10,
    "spec": %s,
    "started_at": 1700000001.0,
    "state": "running",
    "submissions": 1,
    "submitted_at": 1700000000.0,
    "total": 3,
    "values": []
  },
  "schema": 1
}""" % _PARENT_JOB_SPEC
PARENT_JOB_JOURNAL = """\
{"key": "16c762a9f321114242dcd6dc9cfbdf92f47f3a60326c5b8b2d34cf4aae51409b", "record": {"correct": true, "messages": 0, "queries": 32, "time": 0.9803323110131609}, "repeat": 0, "salt": "2026.10.1", "schema": 1}
{"key": "16c762a9f321114242dcd6dc9cfbdf92f47f3a60326c5b8b2d34cf4aae51409b", "record": {"correct": true, "messages": 0, "queries": 32, "time": 0.657122125494573}, "repeat": 1, "salt": "2026.10.1", "schema": 1}
{"key": "16c762a9f321114242dcd6dc9cfbdf92f47f3a60326c5b8b2d34cf4aae51409b", "record": {"correct": true, "messages": 0, "queries": 32, "time": 0.8548211810805797}, "repeat": 2, "salt": "2026.10.1", "schema": 1}
"""
PARENT_JOB_RESULT = """{
  "outcomes": [
    {
      "correct_runs": 3,
      "failed_runs": 0,
      "failures": [],
      "max_query_complexity": 32,
      "mean_message_complexity": 0.0,
      "mean_query_complexity": 32.0,
      "mean_round_complexity": null,
      "mean_time_complexity": 0.8307585391961045,
      "runs": 3,
      "spec": %s
    }
  ],
  "schema": 1
}""" % _PARENT_JOB_SPEC.replace("\n", "\n  ")


class TestResume:
    def test_recover_replays_the_journal_bit_identically(self, tmp_path):
        """A pre-seeded store (= a server killed mid-sweep) resumes and
        produces the same records an uninterrupted run produces."""
        from repro.service.jobs import Job, job_key

        request = JobRequest(spec=spec(repeats=4))
        store = JobStore(tmp_path / "svc")
        job = Job(id=job_key(request), request=request)
        job.transition("running")  # died mid-run
        store.save_job(job)
        # Two of four repeats made it into the journal before the kill.
        from repro.experiments import execute_repeat
        journal = store.journal_for(job.id)
        for repeat in (0, 1):
            journal.record(request.spec, repeat,
                           execute_repeat(request.spec, repeat))

        async def scenario(queue):
            final = await wait_done(queue, job.id)
            assert final.state == "done"
            return queue.result(job.id), queue.stats

        outcomes, stats = run(scenario, tmp_path, pool=2, cache=False)
        assert stats.journal_replayed == 2
        assert stats.tasks_executed == 2  # only the missing repeats ran
        reference = run_experiment(spec(repeats=4), cache=None)
        assert outcomes[0] == reference

    def test_a_store_written_by_the_parent_commit_resumes_here(
            self, tmp_path):
        """job.json + journal.jsonl as the commit before the queue moved
        onto the engine's sweep plan left them when killed after two of
        three repeats; the recovered job's result.json and event fields
        are what that commit wrote for the uninterrupted job."""
        import json

        from repro.execution import CODE_VERSION
        assert CODE_VERSION == "2026.10.1"  # else re-record the fixtures
        store = JobStore(tmp_path / "svc")
        job_dir = store.job_dir(PARENT_JOB_ID)
        job_dir.mkdir(parents=True)
        store.job_path(PARENT_JOB_ID).write_text(PARENT_JOB,
                                                 encoding="utf-8")
        lines = PARENT_JOB_JOURNAL.splitlines(True)
        (job_dir / "journal.jsonl").write_text("".join(lines[:2]),
                                               encoding="utf-8")

        async def scenario(queue):
            final = await wait_done(queue, PARENT_JOB_ID)
            assert final.state == "done" and final.done == final.total
            return queue.events(PARENT_JOB_ID), queue.stats

        events, stats = run(scenario, tmp_path, pool=1)
        assert (stats.journal_replayed, stats.tasks_executed) == (2, 1)
        assert (job_dir / "journal.jsonl").read_text(
            encoding="utf-8") == PARENT_JOB_JOURNAL
        assert store.result_path(PARENT_JOB_ID).read_text(
            encoding="utf-8") == PARENT_JOB_RESULT
        # The cache entry it stores is named by the journal's key.
        key = json.loads(lines[0])["key"]
        assert [path.name for path in store.cache_dir.iterdir()] == [
            f"{key}.json"]
        # Same event kinds, same fields (times aside) as the parent's
        # own trail for the tail of this job.
        assert [{name: value for name, value in entry.items()
                 if name not in ("t", "wall_s")} for entry in events] == [
            {"event": "job_started", "job": PARENT_JOB_ID, "tasks": 1,
             "replayed": 2, "cache_hits": 0},
            {"event": "job_progress", "job": PARENT_JOB_ID, "done": 3,
             "total": 3, "point": 0, "repeat": 2, "failed": 0},
            {"event": "job_done", "job": PARENT_JOB_ID, "correct": True}]
        assert all("t" in entry for entry in events)
        assert ["wall_s" in entry for entry in events] == [False, True,
                                                           True]

    def test_recover_skips_terminal_jobs(self, tmp_path):
        async def first_life(queue):
            job, _ = queue.submit(JobRequest(spec=spec()))
            await wait_done(queue, job.id)
            return job.id, queue.stats.tasks_executed

        job_id, executed = run(first_life, tmp_path, pool=1)

        async def second_life(queue):
            job = queue.job(job_id)
            assert job is not None and job.state == "done"
            assert queue.result(job_id) is not None  # loaded from disk
            return queue.stats.tasks_executed

        assert run(second_life, tmp_path, pool=1) == 0


class TestRetries:
    def test_flaky_task_is_retried_to_success(self, tmp_path,
                                              monkeypatch):
        from repro.experiments import execute_repeat as real
        calls = {"n": 0}

        def flaky(point, repeat):
            calls["n"] += 1
            if repeat == 1 and calls["n"] == 2:
                raise RuntimeError("transient")
            return real(point, repeat)

        monkeypatch.setattr("repro.service.queue.execute_repeat", flaky)

        async def scenario(queue):
            job, _ = queue.submit(JobRequest(spec=spec()))
            final = await wait_done(queue, job.id)
            assert final.state == "done" and final.correct
            return queue.stats

        policy = RetryPolicy(max_attempts=3, base_delay=0.001,
                             max_delay=0.002)
        stats = run(scenario, tmp_path, pool=1, cache=False,
                    policy=policy)
        assert stats.tasks_executed == spec().repeats + 1
        assert stats.tasks_failed == 0

    def test_exhausted_retries_degrade_not_wedge(self, tmp_path,
                                                 monkeypatch):
        from repro.experiments import execute_repeat as real

        def broken(point, repeat):
            if repeat == 0:
                raise RuntimeError("permanent")
            return real(point, repeat)

        monkeypatch.setattr("repro.service.queue.execute_repeat", broken)

        async def scenario(queue):
            job, _ = queue.submit(JobRequest(spec=spec()))
            final = await wait_done(queue, job.id)
            assert final.state == "done"  # degraded, not failed
            assert final.correct is False and final.failed == 1
            return queue.result(job.id), queue.stats

        policy = RetryPolicy(max_attempts=2, base_delay=0.001,
                             max_delay=0.002)
        outcomes, stats = run(scenario, tmp_path, pool=1, cache=False,
                              policy=policy)
        assert stats.tasks_failed == 1
        assert outcomes[0].failed_runs == 1
        assert outcomes[0].failures[0].error_type == "RuntimeError"

    def test_process_mode_enforces_the_timeout_run_many_does(self,
                                                             tmp_path):
        # A repeat of this spec takes far longer than 20 ms.
        probe = ExperimentSpec(protocol="crash-multi", n=32, ell=4096,
                               fault_model="crash", beta=0.5, repeats=1)
        policy = RetryPolicy(max_attempts=2, task_timeout=0.02)
        expected = ParallelRunner(policy=policy).run(probe)

        async def scenario(queue):
            job, _ = queue.submit(JobRequest(spec=probe))
            final = await wait_done(queue, job.id)
            assert final.state == "done" and final.failed == 1
            return queue.result(job.id)

        (outcome,) = run(scenario, tmp_path, pool=1, pool_mode="process",
                         cache=False, policy=policy)
        assert expected.failures == (TaskFailure(
            task="repeat-0", error_type="TaskTimeout",
            message="task exceeded its 0.02s wall-clock budget",
            attempts=2),)
        assert outcome == expected

    def test_thread_mode_refuses_a_timeout(self, tmp_path):
        with pytest.raises(ValueError, match='pool_mode="process"'):
            JobQueue(JobStore(tmp_path / "svc"), pool_mode="thread",
                     policy=RetryPolicy(task_timeout=1.0))


class TestCacheIntegration:
    def test_second_job_hits_the_point_cache(self, tmp_path):
        async def scenario(queue):
            single, _ = queue.submit(JobRequest(spec=spec()))
            await wait_done(queue, single.id)
            executed = queue.stats.tasks_executed
            # A *different* job (sweep) whose first point is the same
            # spec: that point must come from the cache, not the pool.
            sweep, created = queue.submit(
                JobRequest(spec=spec(), axis="n", values=(4, 6)))
            assert created
            await wait_done(queue, sweep.id)
            assert queue.stats.cache_hits == 1
            assert (queue.stats.tasks_executed - executed ==
                    spec().repeats)  # only the n=6 point ran
            results = queue.result(sweep.id)
            return results, queue.result(single.id)

        sweep_outcomes, single_outcomes = run(scenario, tmp_path, pool=2)
        assert sweep_outcomes[0] == single_outcomes[0]

    def test_validation_errors_surface_as_value_errors(self, tmp_path):
        with pytest.raises(ValueError):
            JobQueue(JobStore(tmp_path / "svc"), pool=0)
        with pytest.raises(ValueError):
            JobQueue(JobStore(tmp_path / "svc"), pool_mode="fiber")
