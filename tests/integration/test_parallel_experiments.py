"""Equivalence battery for the parallel experiment engine.

The engine's contract (:mod:`repro.execution`) is that worker count is
unobservable: ``run_experiment(spec, workers=4)`` must equal
``run_experiment(spec, workers=1)`` field-for-field for every fault
model and network, sweeps must not depend on evaluation order, and the
result cache must return identical outcomes on hits and shrug off
corrupted entries as misses.
"""

import dataclasses
import json

import pytest

from repro.execution import (
    CacheStats,
    ParallelRunner,
    ResultCache,
    SweepJournal,
    TaskFailure,
    resolve_cache,
    run_tasks,
)
from repro.execution import cache as cache_module
from repro.execution import journal as journal_module
from repro.execution import parallel as parallel_module
from repro.execution import plan as plan_module
from repro.experiments import (
    ExperimentOutcome,
    ExperimentSpec,
    RepeatRecord,
    aggregate_outcome,
    run_experiment,
    sweep_experiment,
)
from repro.service import jobs as jobs_module

# One spec per (fault model x network) cell, sized for test speed.
GRID = [
    ExperimentSpec(protocol="balanced", n=8, ell=128,
                   fault_model="none", network="asynchronous", repeats=2),
    ExperimentSpec(protocol="balanced", n=8, ell=128,
                   fault_model="none", network="synchronous", repeats=2),
    ExperimentSpec(protocol="crash-multi", n=8, ell=256,
                   fault_model="crash", beta=0.5,
                   network="asynchronous", repeats=2),
    ExperimentSpec(protocol="crash-multi", n=8, ell=256,
                   fault_model="crash", beta=0.5,
                   network="synchronous", repeats=2),
    ExperimentSpec(protocol="byz-committee", n=9, ell=90,
                   protocol_params={"block_size": 9},
                   fault_model="byzantine", beta=0.3,
                   strategy="equivocate", network="asynchronous",
                   repeats=2),
    ExperimentSpec(protocol="byz-committee", n=9, ell=90,
                   protocol_params={"block_size": 9},
                   fault_model="byzantine", beta=0.3,
                   network="synchronous", repeats=2),
    ExperimentSpec(protocol="byz-committee", n=9, ell=90,
                   protocol_params={"block_size": 9},
                   fault_model="dynamic", beta=0.2,
                   network="asynchronous", repeats=2),
    ExperimentSpec(protocol="byz-committee", n=9, ell=90,
                   protocol_params={"block_size": 9},
                   fault_model="dynamic", beta=0.2,
                   network="synchronous", repeats=2),
]

GRID_IDS = [f"{spec.fault_model}-{spec.network}" for spec in GRID]


def assert_outcomes_identical(first: ExperimentOutcome,
                              second: ExperimentOutcome) -> None:
    """Field-for-field equality with a readable failure message."""
    for field in dataclasses.fields(ExperimentOutcome):
        assert getattr(first, field.name) == getattr(second, field.name), \
            f"outcome field {field.name!r} differs"


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("spec", GRID, ids=GRID_IDS)
    def test_workers4_equals_workers1(self, spec):
        serial = run_experiment(spec, workers=1)
        parallel = run_experiment(spec, workers=4)
        assert_outcomes_identical(serial, parallel)

    def test_worker_count_is_unobservable(self):
        spec = GRID[2]
        outcomes = [run_experiment(spec, workers=workers)
                    for workers in (1, 2, 3, 4)]
        for other in outcomes[1:]:
            assert_outcomes_identical(outcomes[0], other)

    def test_runner_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            ParallelRunner(workers=0)

    def test_run_many_preserves_input_order(self):
        outcomes = ParallelRunner(workers=4).run_many(GRID[:4])
        assert [outcome.spec for outcome in outcomes] == GRID[:4]


class TestSweepOrderIndependence:
    def test_sweep_results_order_independent(self):
        spec = ExperimentSpec(protocol="crash-multi", n=8, ell=256,
                              fault_model="crash", beta=0.5, repeats=1)
        values = [0.25, 0.5, 0.75]
        forward = sweep_experiment(spec, axis="beta", values=values,
                                   workers=4)
        backward = sweep_experiment(spec, axis="beta",
                                    values=list(reversed(values)),
                                    workers=1)
        by_beta = {outcome.spec.beta: outcome for outcome in backward}
        for outcome in forward:
            assert_outcomes_identical(outcome, by_beta[outcome.spec.beta])

    def test_sweep_point_specs_match_values(self):
        spec = ExperimentSpec(protocol="balanced", n=4, ell=64, repeats=1)
        outcomes = sweep_experiment(spec, axis="n", values=[4, 8],
                                    workers=4)
        assert [outcome.spec.n for outcome in outcomes] == [4, 8]


class TestResultCache:
    def spec(self):
        return ExperimentSpec(protocol="crash-multi", n=8, ell=256,
                              fault_model="crash", beta=0.5, repeats=2)

    def test_hit_returns_identical_outcome(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_experiment(self.spec(), cache=cache)
        assert cache.stats.misses == 1 and cache.stats.stores == 1
        second = run_experiment(self.spec(), cache=cache)
        assert cache.stats.hits == 1
        assert_outcomes_identical(first, second)

    def test_parallel_and_cached_agree(self, tmp_path):
        baseline = run_experiment(self.spec(), workers=1)
        cached = run_experiment(self.spec(), workers=4,
                                cache=ResultCache(tmp_path))
        assert_outcomes_identical(baseline, cached)

    def test_sweep_only_computes_new_points(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = self.spec()
        first = sweep_experiment(spec, axis="beta", values=[0.25, 0.5],
                                 cache=cache)
        assert cache.stats == CacheStats(hits=0, misses=2, stores=2)
        second = sweep_experiment(spec, axis="beta",
                                  values=[0.25, 0.5, 0.75],
                                  workers=4, cache=cache)
        assert cache.stats == CacheStats(hits=2, misses=3, stores=3)
        for cached, fresh in zip(first, second):
            assert_outcomes_identical(cached, fresh)

    def test_distinct_cache_dirs_are_independent(self, tmp_path):
        one = ResultCache(tmp_path / "one")
        two = ResultCache(tmp_path / "two")
        run_experiment(self.spec(), cache=one)
        run_experiment(self.spec(), cache=two)
        assert one.stats.misses == 1 and two.stats.misses == 1

    def test_salt_change_invalidates(self, tmp_path):
        run_experiment(self.spec(), cache=ResultCache(tmp_path, salt="v1"))
        bumped = ResultCache(tmp_path, salt="v2")
        run_experiment(self.spec(), cache=bumped)
        assert bumped.stats == CacheStats(hits=0, misses=1, stores=1)

    def test_entry_predating_later_fields_still_hits(self, tmp_path):
        # An entry written before backend / sources / source_faults /
        # proxy_faults / topology existed stores a spec without them:
        # not field-equal to the asked spec, so the hit goes through
        # reconstruction, where the defaults fill in.
        cache = ResultCache(tmp_path)
        baseline = run_experiment(self.spec(), cache=cache)
        entry = cache.path_for(self.spec())
        payload = json.loads(entry.read_text(encoding="utf-8"))
        for later in ("backend", "sources", "source_faults",
                      "proxy_faults", "topology"):
            del payload["outcome"]["spec"][later]
        entry.write_text(json.dumps(payload), encoding="utf-8")
        reread = ResultCache(tmp_path)
        asked = self.spec()
        hit = reread.get(asked)
        assert reread.stats == CacheStats(hits=1, misses=0, stores=0)
        assert hit.spec == asked
        assert_outcomes_identical(baseline, hit)

    def test_two_hits_share_nothing_but_the_asked_spec(self, tmp_path):
        spec = ExperimentSpec(protocol="byz-committee", n=9, ell=90,
                              protocol_params={"block_size": 9}, repeats=2)
        failure = TaskFailure(task="repeat-1", error_type="OSError",
                              message="boom", attempts=3)
        stored = aggregate_outcome(spec, [
            RepeatRecord(queries=10, messages=4, time=1.5, correct=True),
            failure])
        cache = ResultCache(tmp_path)
        cache.put(spec, stored)
        first, second = cache.get(spec), cache.get(spec)
        assert first == second == stored
        assert first is not second
        # The fast path hands back the asked spec object itself ...
        assert first.spec is spec and second.spec is spec
        # ... and builds everything else afresh per hit.
        assert first.failures[0] is not second.failures[0]
        # Through reconstruction (an equal spec that is field-unequal
        # as stored: the entry lacks a later field) nothing is shared.
        entry = cache.path_for(spec)
        payload = json.loads(entry.read_text(encoding="utf-8"))
        del payload["outcome"]["spec"]["topology"]
        entry.write_text(json.dumps(payload), encoding="utf-8")
        third, fourth = cache.get(spec), cache.get(spec)
        assert third == fourth == stored
        assert third.spec is not spec and third.spec is not fourth.spec
        assert third.spec.protocol_params is not \
            fourth.spec.protocol_params
        assert third.spec.protocol_params is not spec.protocol_params

    def test_resolve_cache_forms(self, tmp_path):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        assert resolve_cache(str(tmp_path)).directory == tmp_path
        ready = ResultCache(tmp_path)
        assert resolve_cache(ready) is ready
        with pytest.raises(TypeError):
            resolve_cache(42)


class TestCacheCorruption:
    """Fault injection: a damaged cache entry is a miss, never a crash."""

    def spec(self):
        return ExperimentSpec(protocol="balanced", n=4, ell=64, repeats=2)

    def corrupt_and_rerun(self, tmp_path, mutate):
        warm = ResultCache(tmp_path)
        baseline = run_experiment(self.spec(), cache=warm)
        entry = warm.path_for(self.spec())
        assert entry.exists()
        mutate(entry)
        fresh = ResultCache(tmp_path)
        recomputed = run_experiment(self.spec(), cache=fresh)
        assert fresh.stats.misses == 1 and fresh.stats.stores == 1
        assert_outcomes_identical(baseline, recomputed)
        # The damaged entry was overwritten with a valid one.
        reread = ResultCache(tmp_path)
        assert_outcomes_identical(baseline,
                                  run_experiment(self.spec(), cache=reread))
        assert reread.stats.hits == 1

    def test_truncated_json(self, tmp_path):
        self.corrupt_and_rerun(
            tmp_path,
            lambda entry: entry.write_text(
                entry.read_text(encoding="utf-8")[:37], encoding="utf-8"))

    def test_garbage_bytes(self, tmp_path):
        self.corrupt_and_rerun(
            tmp_path, lambda entry: entry.write_bytes(b"\x00\xffnot json{"))

    def test_empty_file(self, tmp_path):
        self.corrupt_and_rerun(tmp_path, lambda entry: entry.write_text(""))

    def test_wrong_schema_version(self, tmp_path):
        def mutate(entry):
            payload = json.loads(entry.read_text(encoding="utf-8"))
            payload["schema"] = 999
            entry.write_text(json.dumps(payload), encoding="utf-8")
        self.corrupt_and_rerun(tmp_path, mutate)

    def test_valid_json_with_mangled_outcome(self, tmp_path):
        def mutate(entry):
            payload = json.loads(entry.read_text(encoding="utf-8"))
            del payload["outcome"]["spec"]["protocol"]
            entry.write_text(json.dumps(payload), encoding="utf-8")
        self.corrupt_and_rerun(tmp_path, mutate)

    def test_entry_for_different_spec(self, tmp_path):
        # A hand-renamed entry holding another spec's outcome must not
        # be served for this spec.
        other = ExperimentSpec(protocol="naive", n=4, ell=64, repeats=2)
        def mutate(entry):
            cache = ResultCache(tmp_path)
            donor = run_experiment(other, cache=cache)
            assert donor.spec == other
            entry.write_bytes(cache.path_for(other).read_bytes())
        self.corrupt_and_rerun(tmp_path, mutate)


    def test_deeply_nested_garbage(self, tmp_path):
        # json.loads raises RecursionError (not a ValueError) on this.
        self.corrupt_and_rerun(
            tmp_path, lambda entry: entry.write_text("[" * 100000))

    @pytest.mark.parametrize("field, value", [
        ("runs", "two"), ("runs", True), ("runs", -1),
        ("correct_runs", None), ("correct_runs", 3),
        ("failed_runs", 1.0), ("max_query_complexity", 64.0),
        ("mean_query_complexity", "x"), ("mean_time_complexity", None),
        ("mean_message_complexity", False),
        ("mean_round_complexity", "3"),
    ])
    def test_wrong_typed_measurement(self, tmp_path, field, value):
        # Right schema, salt and spec, but a measurement no run could
        # have produced: serving it would be a silently wrong hit.
        def mutate(entry):
            payload = json.loads(entry.read_text(encoding="utf-8"))
            payload["outcome"][field] = value
            entry.write_text(json.dumps(payload), encoding="utf-8")
        self.corrupt_and_rerun(tmp_path, mutate)


# A cache entry and a journal exactly as the commit before the
# spec_fields walk wrote them (asdict-based writer), kept as text.
PARENT_SPEC = dict(protocol="cross-validate", n=4, ell=64, repeats=2,
                   base_seed=7, protocol_params={"q": 3}, sources=3,
                   source_faults=("wrong-bits",))
PARENT_SALT = "2026.10.1"
PARENT_KEY = \
    "0f57283fa231795670425933926284b3c9d84ae6b42f68a16c688b6590012647"
PARENT_ENTRY = """{
  "key": "%s",
  "outcome": {
    "correct_runs": 2,
    "failed_runs": 0,
    "failures": [],
    "max_query_complexity": 192,
    "mean_message_complexity": 0.0,
    "mean_query_complexity": 192.0,
    "mean_round_complexity": null,
    "mean_time_complexity": 0.9768714546898305,
    "runs": 2,
    "spec": {
      "backend": "sim",
      "base_seed": 7,
      "beta": 0.0,
      "ell": 64,
      "fault_model": "none",
      "n": 4,
      "network": "asynchronous",
      "protocol": "cross-validate",
      "protocol_params": {
        "q": 3
      },
      "proxy_faults": [],
      "repeats": 2,
      "source_faults": [
        "wrong-bits"
      ],
      "sources": 3,
      "strategy": "wrong-bits",
      "topology": "complete"
    }
  },
  "salt": "2026.10.1",
  "schema": 1
}""" % PARENT_KEY
PARENT_JOURNAL = (
    '{"key": "%s", "record": {"correct": true, "messages": 0, '
    '"queries": 192, "time": 0.9962426222565898}, "repeat": 0, '
    '"salt": "2026.10.1", "schema": 1}\n'
    '{"key": "%s", "record": {"correct": true, "messages": 0, '
    '"queries": 192, "time": 0.9575002871230712}, "repeat": 1, '
    '"salt": "2026.10.1", "schema": 1}\n') % (PARENT_KEY, PARENT_KEY)


class TestSpecIdentityOnce:
    """The key is byte-stable across the asdict → field-walk change, and
    one ``run_many`` derives it once per spec."""

    def test_parent_written_cache_and_journal_are_read_warm(
            self, tmp_path, monkeypatch):
        spec = ExperimentSpec(**PARENT_SPEC)
        (tmp_path / f"{PARENT_KEY}.json").write_text(PARENT_ENTRY,
                                                     encoding="utf-8")
        cache = ResultCache(tmp_path, salt=PARENT_SALT)
        assert cache.path_for(spec).name == f"{PARENT_KEY}.json"
        hit = cache.get(spec)
        assert cache.stats == CacheStats(hits=1, misses=0, stores=0)
        assert hit.spec is spec
        assert (hit.runs, hit.correct_runs, hit.max_query_complexity,
                hit.mean_time_complexity) == (2, 2, 192,
                                              0.9768714546898305)
        # What this commit writes for that outcome is what the parent
        # wrote, byte for byte.
        rewritten = ResultCache(tmp_path / "again", salt=PARENT_SALT)
        assert rewritten.put(spec, hit).read_text(encoding="utf-8") \
            == PARENT_ENTRY
        # The journal resumes both repeats: nothing executes, nothing
        # is appended, and the aggregate equals the cached outcome.
        log = tmp_path / "journal.jsonl"
        log.write_text(PARENT_JOURNAL, encoding="utf-8")
        journal = SweepJournal(log, salt=PARENT_SALT)
        assert journal.key_for(spec) == PARENT_KEY

        def never(payload):
            raise AssertionError("a journaled repeat was re-executed")
        monkeypatch.setattr(parallel_module, "_spec_repeat_task", never)
        resumed = ParallelRunner(journal=journal, strict=True).run(spec)
        assert journal.stats.as_dict() == {
            "appended": 0, "replayed": 2, "corrupt": 0}
        assert_outcomes_identical(hit, resumed)
        # And a line appended now is the line the parent appended.
        fresh = SweepJournal(tmp_path / "fresh.jsonl", salt=PARENT_SALT)
        for repeat, line in enumerate(PARENT_JOURNAL.splitlines()):
            fields = json.loads(line)["record"]
            fresh.record(spec, repeat, RepeatRecord(
                queries=fields["queries"], messages=fields["messages"],
                time=fields["time"], correct=fields["correct"]))
        assert fresh.path.read_text(encoding="utf-8") == PARENT_JOURNAL

    @pytest.fixture
    def calls(self, monkeypatch):
        """Every ``spec_cache_key`` call, whichever module makes it."""
        calls = []

        def counting(spec, *, salt=cache_module.CODE_VERSION):
            calls.append(spec)
            return real(spec, salt=salt)
        real = cache_module.spec_cache_key
        for module in (cache_module, journal_module, plan_module,
                       jobs_module):
            monkeypatch.setattr(module, "spec_cache_key", counting)
        return calls

    def test_run_many_hashes_each_spec_once(self, tmp_path, calls):
        base = ExperimentSpec(protocol="balanced", n=4, ell=64, repeats=4)
        cache = ResultCache(tmp_path / "cache")
        journal = SweepJournal(tmp_path / "j.jsonl")

        def sweep():
            return sweep_experiment(base, axis="base_seed",
                                    values=(1, 2, 3), cache=cache,
                                    journal=journal)
        cold = sweep()
        assert cache.stats == CacheStats(hits=0, misses=3, stores=3)
        assert journal.stats.appended == 12
        # 21 before the key travelled with the run: get, key_for,
        # 4 x record and put, per spec.
        assert len(calls) == 3
        del calls[:]
        warm = sweep()
        assert cache.stats.hits == 3
        assert len(calls) == 3
        assert warm == cold

    def test_league_hashes_each_cell_once(self, tmp_path, calls):
        from repro.tournament import TournamentConfig, run_tournament
        config = TournamentConfig(
            protocols=("naive",), adversaries=("none",),
            topologies=("complete", "ring", "star"), n=4, ell=32,
            repeats=4, journal_path=str(tmp_path / "league.jsonl"))
        cold = run_tournament(config)
        assert cold.journal_stats["appended"] == 12
        # 15 while the league kept its own journal loop: key_for and
        # 4 x record per cell.
        assert len(calls) == 3
        del calls[:]
        warm = run_tournament(config)
        assert warm.journal_stats == {"appended": 0, "replayed": 12,
                                      "corrupt": 0}
        assert len(calls) == 3
        assert warm.cells == cold.cells

    def test_served_job_hashes_each_point_once(self, tmp_path, calls):
        from repro.service.jobs import JobRequest
        from tests.property.test_property_sweep_plan import serve
        cache = ResultCache(tmp_path / "cache")
        job, _outcomes, _stats = serve(tmp_path / "svc", JobRequest(
            spec=ExperimentSpec(protocol="naive", n=4, ell=32, repeats=4),
            axis="base_seed", values=(1, 2, 3)), cache)
        assert job.state == "done" and job.done == job.total == 12
        assert cache.stats == CacheStats(hits=0, misses=3, stores=3)
        # 22 while the queue kept its own loop (get, key_for, 4 x record
        # and put per point); the one beyond the points is job_key.
        assert len(calls) == 4

    def test_cache_and_journal_salts_may_differ(self, tmp_path):
        spec = ExperimentSpec(protocol="balanced", n=4, ell=64, repeats=2)
        cache = ResultCache(tmp_path / "cache", salt="c")
        journal = SweepJournal(tmp_path / "j.jsonl", salt="j")
        outcome = ParallelRunner(cache=cache, journal=journal).run(spec)
        assert cache.path_for(spec).exists()
        assert set(journal.replay()) == {(journal.key_for(spec), 0),
                                         (journal.key_for(spec), 1)}
        assert journal.key_for(spec) != cache.path_for(spec).stem
        assert_outcomes_identical(
            outcome, ParallelRunner(cache=cache).run(spec))


class TestRunTasks:
    def test_unpicklable_payloads_fall_back_to_serial(self):
        payloads = [lambda: 1, lambda: 2]  # lambdas cannot pickle
        with pytest.warns(RuntimeWarning, match="not picklable"):
            results = run_tasks(_call_thunk, payloads, workers=4)
        assert results == [1, 2]

    def test_picklable_payloads_do_not_warn(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_tasks(_square, [3], workers=1) == [9]

    def test_parallel_map_preserves_order(self):
        assert run_tasks(_square, list(range(20)), workers=4) == \
            [value * value for value in range(20)]

    def test_empty_payloads(self):
        assert run_tasks(_square, [], workers=4) == []


def _square(value):
    return value * value


def _call_thunk(thunk):
    return thunk()
