"""Tests for the declarative experiment layer."""

import dataclasses
import pickle

import pytest

from repro.adversary import (
    AdaptiveCrashAdversary,
    BurstyDelay,
    ByzantineAdversary,
    ComposedAdversary,
    CrashAdversary,
    EquivocateStrategy,
    NullAdversary,
    PerPeerStrategy,
    SelectiveSilenceStrategy,
    SilentStrategy,
    StaggeredStart,
    TargetedSlowdown,
    UniformRandomDelay,
    WrongBitsStrategy,
)
from repro.adversary.attacks import (
    CommitteeForgeAttacker,
    FrequencySpamAttacker,
    SplitReportAttacker,
)
from repro.adversary.dynamic import DynamicByzantineAdversary
from repro.experiments import (
    ExperimentSpec,
    outcomes_table,
    run_experiment,
    sweep_experiment,
)
from repro.experiments.spec import ADVERSARIES, BYZANTINE_STRATEGIES
from repro.tournament import fuzzing


def spec(**overrides):
    base = dict(protocol="crash-multi", n=8, ell=256,
                fault_model="crash", beta=0.5, repeats=2)
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpecValidation:
    def test_valid_spec_builds(self):
        assert spec().t == 4

    def test_unknown_protocol_rejected(self):
        with pytest.raises(KeyError):
            spec(protocol="nonexistent")

    def test_unknown_fault_model_rejected(self):
        with pytest.raises(ValueError, match="fault_model"):
            spec(fault_model="cosmic")

    def test_unknown_network_rejected(self):
        with pytest.raises(ValueError, match="network"):
            spec(network="carrier-pigeon")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            spec(strategy="lie-sometimes")

    def test_faulty_model_needs_beta(self):
        with pytest.raises(ValueError, match="beta"):
            spec(beta=0.0)

    def test_seed_is_stable_and_spec_sensitive(self):
        first = spec()
        assert first.seed_for(0) == spec().seed_for(0)
        assert first.seed_for(0) != first.seed_for(1)
        assert first.seed_for(0) != spec(ell=512).seed_for(0)


class TestRunExperiment:
    def test_runs_and_aggregates(self):
        outcome = run_experiment(spec())
        assert outcome.runs == 2
        assert outcome.success_rate == 1.0
        assert outcome.mean_query_complexity > 0
        assert outcome.max_query_complexity >= \
            outcome.mean_query_complexity

    def test_fault_free_spec(self):
        outcome = run_experiment(
            spec(fault_model="none", beta=0.0, protocol="balanced"))
        assert outcome.success_rate == 1.0
        assert outcome.mean_query_complexity == 256 / 8

    def test_byzantine_spec(self):
        outcome = run_experiment(ExperimentSpec(
            protocol="byz-committee", n=9, ell=90,
            protocol_params={"block_size": 9},
            fault_model="byzantine", beta=0.3, strategy="equivocate",
            repeats=2))
        assert outcome.success_rate == 1.0

    def test_dynamic_spec(self):
        outcome = run_experiment(ExperimentSpec(
            protocol="byz-committee", n=9, ell=90,
            protocol_params={"block_size": 9},
            fault_model="dynamic", beta=0.2, repeats=2))
        assert outcome.success_rate == 1.0

    def test_synchronous_network(self):
        outcome = run_experiment(
            spec(network="synchronous", fault_model="none", beta=0.0))
        assert outcome.success_rate == 1.0

    def test_deterministic_replay(self):
        assert run_experiment(spec()) == run_experiment(spec())


class TestSweep:
    def test_beta_sweep_covers_requested_points(self):
        outcomes = sweep_experiment(spec(repeats=1), axis="beta",
                                    values=[0.25, 0.75])
        assert [outcome.spec.beta for outcome in outcomes] == [0.25, 0.75]
        assert all(outcome.success_rate == 1.0 for outcome in outcomes)
        # (Per-seed Q is not monotone in beta at tiny scales — the
        # monotone shape claim lives in benchmark E3 at proper scale.)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            sweep_experiment(spec(), axis="flavor", values=[1])

    def test_table_renders(self):
        outcomes = sweep_experiment(spec(repeats=1), axis="n",
                                    values=[4, 8])
        table = outcomes_table(outcomes, axis="n")
        assert "mean Q" in table
        assert "4" in table and "8" in table


_LEGACY = {"wrong-bits": WrongBitsStrategy,
           "equivocate": EquivocateStrategy,
           "silent": SilentStrategy,
           "selective-silence": SelectiveSilenceStrategy}

_ATTACKS = {"committee-forge": CommitteeForgeAttacker,
            "frequency-spam": FrequencySpamAttacker,
            "split-report": SplitReportAttacker}


def legacy_adversary(spec):
    """The if-chain ``build_adversary`` was before the table: every
    pair it accepted must keep building exactly this adversary."""
    latency = (NullAdversary() if spec.network == "synchronous"
               else UniformRandomDelay())
    if spec.fault_model == "none" or spec.beta <= 0:
        return latency
    strategy = _LEGACY[spec.strategy]
    if spec.fault_model == "crash":
        faults = CrashAdversary(crash_fraction=spec.beta)
    elif spec.fault_model == "byzantine":
        faults = ByzantineAdversary(
            fraction=spec.beta, strategy_factory=PerPeerStrategy(strategy))
    else:
        faults = DynamicByzantineAdversary(
            fraction=spec.beta, strategy_factory=PerPeerStrategy(strategy))
    return ComposedAdversary(faults=faults, latency=latency)


class TestAdversaryTable:
    @pytest.mark.parametrize("network", ["synchronous", "asynchronous"])
    @pytest.mark.parametrize("fault_model",
                             ["none", "crash", "byzantine", "dynamic"])
    @pytest.mark.parametrize("strategy", sorted(_LEGACY))
    def test_every_legacy_pair_builds_the_same_adversary(
            self, fault_model, strategy, network):
        built = spec(protocol="naive", fault_model=fault_model,
                     beta=0.0 if fault_model == "none" else 0.25,
                     strategy=strategy, network=network)
        assert (pickle.dumps(built.build_adversary())
                == pickle.dumps(legacy_adversary(built)))

    def test_new_entries_build_their_adversaries(self):
        expected = {
            ("none", "bursty"): BurstyDelay,
            ("none", "staggered"): StaggeredStart,
            ("crash", "at-time"): ComposedAdversary,
            ("crash", "slow"): TargetedSlowdown,
            ("crash", "adaptive"): AdaptiveCrashAdversary,
        }
        for (fault_model, strategy), kind in expected.items():
            built = spec(fault_model=fault_model, strategy=strategy,
                         beta=0.0 if fault_model == "none" else 0.5)
            assert type(built.build_adversary()) is kind
        timed = spec(strategy="at-time").build_adversary()
        assert (timed.faults.mode, timed.faults.crash_fraction) == \
            ("at_time", 0.5)
        assert spec(strategy="slow").build_adversary().slow_peers == \
            {0, 1, 2, 3}

    @pytest.mark.parametrize("strategy",
                             ["bursty", "staggered", "slow", "adaptive"])
    def test_own_latencies_need_an_asynchronous_network(self, strategy):
        fault_model = "none" if strategy in ("bursty", "staggered") \
            else "crash"
        with pytest.raises(ValueError, match="asynchronous"):
            spec(fault_model=fault_model, strategy=strategy,
                 beta=0.0 if fault_model == "none" else 0.5,
                 network="synchronous")

    def test_a_name_belongs_to_its_fault_model(self):
        with pytest.raises(ValueError, match="'adaptive'"):
            spec(fault_model="byzantine", strategy="adaptive", beta=0.25)
        with pytest.raises(ValueError, match="'bursty'"):
            spec(strategy="bursty")

    def test_the_fuzzer_draws_the_table_strategies_in_order(self):
        assert fuzzing._STRATEGIES == (WrongBitsStrategy,
                                       EquivocateStrategy, SilentStrategy,
                                       SelectiveSilenceStrategy)
        assert set(BYZANTINE_STRATEGIES) | set(_ATTACKS) == {
            name for model, name in ADVERSARIES if model == "byzantine"}

    @pytest.mark.parametrize("attack, params, size", [
        ("committee-forge", {"block_size": 64}, 64),
        ("committee-forge", {}, 1),
        ("frequency-spam", {"num_segments": 4, "tau": 3}, 4),
        ("frequency-spam", {"base_segments": 8, "tau": 3}, 8),
        ("split-report", {}, 1),
    ])
    def test_an_attack_runs_its_scripted_peer_sized_by_the_params(
            self, attack, params, size):
        built = spec(fault_model="byzantine", strategy=attack, beta=0.25,
                     protocol_params=params).build_adversary()
        faults = built.faults
        assert type(faults) is ByzantineAdversary
        assert faults.fraction == 0.25
        peer = faults.scripted_factory(0, None)
        assert type(peer) is _ATTACKS[attack]
        assert size == (peer.block_size if attack == "committee-forge"
                        else peer.num_segments)
