"""Cross-backend conformance battery.

One :class:`~repro.experiments.ExperimentSpec` layer drives three
engines; these tests pin the contract seams between them:

- the sync backend reports *exact* paper round complexities (1 round
  for naive flooding, 2 for the committee and sampling protocols);
- for fault-free protocols, the lockstep engine and the asynchronous
  simulator under unit-latency emulation agree on query complexity —
  the two synchrony notions differ in mechanism, not in measure;
- ``backend="sync"`` with ``network="asynchronous"`` is a category
  error and is rejected with an explanation;
- the lowerbound backend runs the Theorem 3.1/3.2 constructions as
  ordinary seedable experiments;
- sync-backend telemetry is valid schema v1 including the round
  markers; journal lines and tables carry rounds only when present;
- the registry rejects unknown names helpfully and accepts
  downstream-registered backends everywhere ``run_experiment`` goes;
- multi-source specs produce the same Q and success rate on both
  engines, with schema-v1-valid telemetry (``source`` on query events,
  ``source_disagreement`` on decode splits) — and single-source runs
  keep the exact pre-multi-source event shape.
"""

import dataclasses

import pytest

from repro.execution import SweepJournal
from repro.experiments import (
    ExperimentSpec,
    RepeatRecord,
    all_backends,
    execute_repeat,
    get_backend,
    outcomes_table,
    register_backend,
    run_experiment,
)
from repro.obs.schema import validate_event
from repro.obs.telemetry import RecordingTelemetry


def sync_spec(protocol: str, **overrides) -> ExperimentSpec:
    base = dict(protocol=protocol, n=8, ell=80, network="synchronous",
                repeats=2, base_seed=11, backend="sync")
    base.update(overrides)
    return ExperimentSpec(**base)


class TestRegistry:
    def test_builtins_registered(self):
        assert {"sim", "sync", "lowerbound"} <= set(all_backends())

    def test_unknown_backend_names_the_options(self):
        with pytest.raises(ValueError, match=r"'sim'.*'sync'"):
            get_backend("quantum")

    def test_spec_validation_resolves_the_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ExperimentSpec(protocol="naive", n=4, ell=8,
                           backend="quantum")

    def test_custom_backend_flows_through_run_experiment(self):
        class ConstantBackend:
            def validate(self, spec):
                pass

            def run_one(self, spec, repeat, seed, telemetry):
                return RepeatRecord(queries=spec.ell, messages=0,
                                    time=0.0, correct=True, rounds=3)

        register_backend("test-constant", ConstantBackend())
        try:
            spec = ExperimentSpec(protocol="anything-goes", n=4, ell=8,
                                  repeats=3, backend="test-constant")
            outcome = run_experiment(spec)
            assert outcome.mean_query_complexity == 8
            assert outcome.mean_round_complexity == 3
            assert outcome.success_rate == 1.0
        finally:
            all_backends()  # snapshot API stays importable
            from repro.experiments.backends import _REGISTRY
            _REGISTRY.pop("test-constant", None)


class TestSyncRoundConformance:
    """Paper round counts, measured exactly by the lockstep engine."""

    @pytest.mark.parametrize("protocol,params,rounds", [
        ("naive", {}, 1),
        ("balanced", {}, 2),
        ("byz-committee", {"block_size": 10}, 2),
        ("byz-two-cycle", {"num_segments": 4, "tau": 1}, 2),
    ])
    def test_fault_free_round_counts(self, protocol, params, rounds):
        outcome = run_experiment(sync_spec(protocol,
                                           protocol_params=params))
        assert outcome.mean_round_complexity == rounds
        assert outcome.success_rate == 1.0

    def test_time_measure_is_the_round_count(self):
        outcome = run_experiment(sync_spec("naive"))
        assert outcome.mean_time_complexity == \
            outcome.mean_round_complexity == 1.0

    def test_committee_survives_rushing_byzantine(self):
        outcome = run_experiment(sync_spec(
            "byz-committee", n=10, beta=0.2, fault_model="byzantine",
            strategy="wrong-bits", protocol_params={"block_size": 10}))
        assert outcome.mean_round_complexity == 2
        assert outcome.success_rate == 1.0

    @pytest.mark.parametrize("n, ell, beta", [
        (9, 240, 0.25), (16, 800, 0.2), (10, 400, 0.3)])
    def test_default_two_cycle_parameters_hold_inside_the_model(
            self, n, ell, beta):
        # The hand-ported lockstep class defaulted to (num_segments,
        # tau) = (4, 2) whatever n and t; with tau <= t the rushing
        # peers alone made a flipped string tau-frequent, and 11, 2 and
        # 18 of these 60 downloads were wrong.  The one body chooses by
        # the paper's case analysis on every backend.
        for base_seed in range(60):
            record = execute_repeat(sync_spec(
                "byz-two-cycle", n=n, ell=ell, beta=beta,
                fault_model="byzantine", base_seed=base_seed), 0)
            assert record.correct, base_seed

    def test_repeats_are_seed_deterministic(self):
        spec = sync_spec("byz-two-cycle", n=12, beta=0.25,
                         fault_model="byzantine",
                         protocol_params={"num_segments": 4, "tau": 2})
        first = execute_repeat(spec, 0)
        again = execute_repeat(spec, 0)
        assert first == again


class TestSyncMatchesAsyncUnitLatency:
    """Same measure, different mechanism: for fault-free protocols the
    lockstep rounds and the unit-latency emulation agree on Q (and M).
    """

    @pytest.mark.parametrize("protocol", ["naive", "balanced"])
    def test_query_complexity_agrees(self, protocol):
        base = dict(protocol=protocol, n=6, ell=60,
                    network="synchronous", repeats=2, base_seed=9)
        emulated = run_experiment(ExperimentSpec(**base))
        lockstep = run_experiment(ExperimentSpec(**base, backend="sync"))
        assert emulated.mean_query_complexity == \
            lockstep.mean_query_complexity
        assert emulated.mean_message_complexity == \
            lockstep.mean_message_complexity

    def test_sim_outcomes_carry_no_round_measure(self):
        outcome = run_experiment(ExperimentSpec(
            protocol="naive", n=4, ell=16, network="synchronous"))
        assert outcome.mean_round_complexity is None


class TestNetworkBackendDisambiguation:
    def test_sync_backend_rejects_asynchronous_network(self):
        with pytest.raises(ValueError,
                           match="requires network='synchronous'"):
            ExperimentSpec(protocol="naive", n=4, ell=8,
                           network="asynchronous", backend="sync")

    def test_error_explains_the_distinction(self):
        with pytest.raises(ValueError, match="unit latencies"):
            ExperimentSpec(protocol="naive", n=4, ell=8, backend="sync")

    def test_sync_backend_rejects_unknown_protocol(self):
        with pytest.raises(KeyError, match="no sync-backend"):
            ExperimentSpec(protocol="one-round", n=4, ell=8,
                           network="synchronous", backend="sync")

    def test_sync_backend_rejects_dynamic_faults(self):
        with pytest.raises(ValueError, match="dynamic"):
            ExperimentSpec(protocol="naive", n=4, ell=8, beta=0.2,
                           fault_model="dynamic",
                           network="synchronous", backend="sync")


class TestSimOnlyStrategies:
    """A strategy only the simulator's table names never runs silently
    as some other adversary on another backend."""

    _ATTACKS = ("committee-forge", "frequency-spam", "split-report")

    @pytest.mark.parametrize("fields", [
        dict(backend="sync", network="synchronous", fault_model="crash",
             beta=0.25, strategy="adaptive"),
        dict(backend="net", strategy="bursty"),
        dict(backend="lowerbound", strategy="bursty"),
    ] + [dict(backend="sync", network="synchronous",
              fault_model="byzantine", beta=0.25, strategy=attack)
         for attack in _ATTACKS] + [
        dict(backend="net", fault_model="byzantine", beta=0.25,
             strategy=attack) for attack in _ATTACKS],
        ids=["sync", "net", "lowerbound"]
        + [f"sync-{attack}" for attack in _ATTACKS]
        + [f"net-{attack}" for attack in _ATTACKS])
    def test_backend_rejects_a_sim_only_strategy(self, fields):
        strategy = fields["strategy"]
        with pytest.raises(ValueError, match=repr(strategy)):
            ExperimentSpec(protocol="naive", n=8, ell=64, **fields)


class TestLowerBoundBackend:
    def test_deterministic_construction_fools_committee(self):
        outcome = run_experiment(ExperimentSpec(
            protocol="byz-committee", n=10, ell=200,
            strategy="deterministic",
            protocol_params={"block_size": 10, "claimed_t": 2},
            repeats=2, base_seed=1, backend="lowerbound"))
        # "correct" means the adversary fooled the victim: Theorem 3.1
        # wins every repeat against a sub-ell committee protocol.
        assert outcome.success_rate == 1.0
        assert outcome.mean_query_complexity < 200
        assert outcome.mean_round_complexity is None

    def test_randomized_construction_runs_seeded(self):
        spec = ExperimentSpec(
            protocol="byz-two-cycle", n=12, ell=256,
            strategy="randomized",
            protocol_params={"num_segments": 4, "tau": 1,
                             "claimed_t": 6, "estimation_trials": 4,
                             "attack_trials": 2},
            repeats=1, base_seed=2, backend="lowerbound")
        assert execute_repeat(spec, 0) == execute_repeat(spec, 0)

    def test_randomized_requires_claimed_t(self):
        with pytest.raises(ValueError, match="claimed_t"):
            ExperimentSpec(protocol="byz-two-cycle", n=12, ell=256,
                           strategy="randomized",
                           protocol_params={"num_segments": 4, "tau": 1},
                           backend="lowerbound")

    def test_lowerbound_is_an_asynchronous_model_result(self):
        with pytest.raises(ValueError, match="asynchronous"):
            ExperimentSpec(protocol="byz-committee", n=10, ell=200,
                           strategy="deterministic",
                           protocol_params={"block_size": 10},
                           network="synchronous", backend="lowerbound")


class TestSyncTelemetry:
    def run_recorded(self, spec):
        telemetry = RecordingTelemetry()
        backend = get_backend("sync")
        backend.run_one(spec, 0, spec.seed_for(0), telemetry)
        return telemetry

    def test_every_event_validates_against_schema_v1(self):
        telemetry = self.run_recorded(sync_spec(
            "byz-committee", n=10, beta=0.2, fault_model="byzantine",
            protocol_params={"block_size": 10}))
        assert telemetry.events
        for entry in telemetry.events:
            validate_event(entry)

    def test_round_markers_bracket_every_round(self):
        telemetry = self.run_recorded(sync_spec("balanced"))
        starts = telemetry.events_of("round_start")
        ends = telemetry.events_of("round_end")
        summary = telemetry.events_of("run_summary")[0]
        assert [entry["round"] for entry in starts] == \
            [entry["round"] for entry in ends] == \
            list(range(1, int(summary["time_complexity"]) + 1))
        assert ends[-1]["finished"] == sync_spec("balanced").n

    def test_header_and_summary_frame_the_run(self):
        telemetry = self.run_recorded(sync_spec("naive"))
        kinds = [entry["event"] for entry in telemetry.events]
        assert kinds[0] == "run_header"
        assert kinds[-1] == "run_summary"


class TestMultiSourceConformance:
    """The multi-source layer across backends: same spec, same measures
    on both engines, and schema-v1-valid telemetry including the
    ``source`` query field and ``source_disagreement`` events."""

    def multi_spec(self, backend=None, **overrides):
        base = dict(protocol="cross-validate", n=6, ell=60,
                    network="synchronous", repeats=2, base_seed=21,
                    protocol_params={"q": 3}, sources=3)
        base.update(overrides)
        if backend is not None:
            base["backend"] = backend
        return ExperimentSpec(**base)

    def test_sim_and_sync_agree_on_q_and_success(self):
        emulated = run_experiment(self.multi_spec())
        lockstep = run_experiment(self.multi_spec(backend="sync"))
        assert emulated.mean_query_complexity == \
            lockstep.mean_query_complexity == 3 * 60
        assert emulated.success_rate == lockstep.success_rate == 1.0

    def test_agreement_survives_a_faulty_source(self):
        faults = ("wrong-bits:1.0",)
        emulated = run_experiment(self.multi_spec(source_faults=faults))
        lockstep = run_experiment(self.multi_spec(backend="sync",
                                                  source_faults=faults))
        assert emulated.success_rate == lockstep.success_rate == 1.0
        assert emulated.mean_query_complexity == \
            lockstep.mean_query_complexity

    @pytest.mark.parametrize("backend", ["sim", "sync"])
    def test_multi_source_telemetry_validates_schema_v1(self, backend):
        spec = self.multi_spec(backend=backend if backend == "sync"
                               else None,
                               source_faults=("wrong-bits:1.0",))
        telemetry = RecordingTelemetry()
        get_backend(backend).run_one(spec, 0, spec.seed_for(0), telemetry)
        queries = [entry for entry in telemetry.events
                   if entry["event"] == "query"]
        assert queries and all("source" in entry for entry in queries)
        assert {entry["source"] for entry in queries} == {0, 1, 2}
        for entry in telemetry.events:
            validate_event(entry)

    def test_disagreement_events_validate_schema_v1(self):
        # q=2 with a certain liar: every position disagrees on both
        # backends, and the emitted events are valid schema v1.
        spec = self.multi_spec(protocol_params={"q": 2}, sources=2,
                               source_faults=("honest", "wrong-bits:1.0"))
        telemetry = RecordingTelemetry()
        get_backend("sim").run_one(spec, 0, spec.seed_for(0), telemetry)
        disagreements = [entry for entry in telemetry.events
                         if entry["event"] == "source_disagreement"]
        assert len(disagreements) == spec.n * spec.ell
        for entry in disagreements:
            validate_event(entry)

    def test_single_source_events_stay_schema_stable(self):
        # k=1 runs must not grow a ``source`` field — old exports and
        # their consumers keep parsing unchanged.
        spec = self.multi_spec(protocol_params={"q": 1}, sources=1)
        telemetry = RecordingTelemetry()
        get_backend("sim").run_one(spec, 0, spec.seed_for(0), telemetry)
        queries = [entry for entry in telemetry.events
                   if entry["event"] == "query"]
        assert queries and all("source" not in entry for entry in queries)


class TestRoundsPlumbing:
    def test_journal_roundtrips_rounds(self, tmp_path):
        journal = SweepJournal(tmp_path / "journal.jsonl")
        spec = sync_spec("naive")
        journal.record(spec, 0, RepeatRecord(
            queries=80, messages=0, time=1.0, correct=True, rounds=1))
        replayed = journal.replay()[(journal.key_for(spec), 0)]
        assert replayed.rounds == 1

    def test_sim_journal_lines_omit_rounds(self, tmp_path):
        journal = SweepJournal(tmp_path / "journal.jsonl")
        spec = ExperimentSpec(protocol="naive", n=4, ell=8)
        journal.record(spec, 0, RepeatRecord(
            queries=8, messages=0, time=1.0, correct=True))
        text = (tmp_path / "journal.jsonl").read_text(encoding="utf-8")
        assert "rounds" not in text
        assert journal.replay()[(journal.key_for(spec), 0)].rounds is None

    def test_outcomes_table_grows_round_column_only_for_rounds(self):
        sim = run_experiment(ExperimentSpec(protocol="naive", n=4,
                                            ell=16))
        sync = run_experiment(sync_spec("naive"))
        assert "mean R" not in outcomes_table([sim])
        assert "mean R" in outcomes_table([sim, sync])

    def test_backend_field_discriminates_identity(self):
        sim = ExperimentSpec(protocol="naive", n=6, ell=60,
                             network="synchronous")
        sync = dataclasses.replace(sim, backend="sync")
        from repro.execution import spec_cache_key
        assert spec_cache_key(sim) != spec_cache_key(sync)
        assert sim.seed_for(0) != sync.seed_for(0)
