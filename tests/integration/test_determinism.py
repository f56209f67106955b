"""Replay determinism: a run is a pure function of (config, seed).

Determinism is what makes every other test in this suite meaningful —
a flaky simulator would turn w.h.p. claims into noise.  These tests
replay full protocol runs and compare every observable."""

import pytest

from repro.adversary import (
    ByzantineAdversary,
    ComposedAdversary,
    CrashAdversary,
    UniformRandomDelay,
    WrongBitsStrategy,
)
from repro.execution import run_sharded
from repro.protocols import (
    ByzCommitteeDownloadPeer,
    ByzTwoCycleDownloadPeer,
    CrashMultiDownloadPeer,
    CrossValidateDownloadPeer,
    NaiveDownloadPeer,
)
from repro.sim import run_download
from repro.sim.errors import ConfigurationError

from tests.conftest import full_record


def run_crash(seed):
    adversary = ComposedAdversary(
        faults=CrashAdversary(crash_fraction=0.4),
        latency=UniformRandomDelay())
    return run_download(n=9, ell=300,
                        peer_factory=CrashMultiDownloadPeer.factory(),
                        adversary=adversary, seed=seed)


def run_byzantine(seed):
    adversary = ComposedAdversary(
        faults=ByzantineAdversary(
            fraction=0.3, strategy_factory=lambda pid: WrongBitsStrategy()),
        latency=UniformRandomDelay())
    return run_download(
        n=9, ell=270,
        peer_factory=ByzCommitteeDownloadPeer.factory(block_size=9),
        adversary=adversary, seed=seed)


def run_randomized(seed):
    return run_download(
        n=30, ell=1200,
        peer_factory=ByzTwoCycleDownloadPeer.factory(num_segments=3, tau=3),
        adversary=UniformRandomDelay(), seed=seed)


OBSERVABLES = ("events_processed", "elapsed_virtual_time", "honest",
               "faulty")


@pytest.mark.parametrize("runner", [run_crash, run_byzantine,
                                    run_randomized])
class TestReplayIdentical:
    def test_every_observable_matches(self, runner):
        first, second = runner(17), runner(17)
        for field in OBSERVABLES:
            assert getattr(first, field) == getattr(second, field), field
        assert first.outputs == second.outputs
        assert first.queried_indices == second.queried_indices
        assert str(first.report) == str(second.report)

    def test_different_seeds_differ_somewhere(self, runner):
        first, second = runner(17), runner(18)
        same_everything = (
            first.data == second.data
            and first.queried_indices == second.queried_indices
            and first.events_processed == second.events_processed)
        assert not same_everything


class TestSeedIsolation:
    def test_adversary_randomness_independent_of_protocol_randomness(self):
        # Fixing the seed fixes both streams; the split labels keep
        # them from aliasing (adversary consuming randomness must not
        # shift peer coin flips).  Verified indirectly: the faulty set
        # is a function of the seed alone, not of protocol behaviour.
        faulty_committee = set()
        faulty_naive = set()
        from repro.protocols import NaiveDownloadPeer
        for factory, sink in (
                (ByzCommitteeDownloadPeer.factory(block_size=9),
                 faulty_committee),
                (NaiveDownloadPeer.factory(), faulty_naive)):
            adversary = ComposedAdversary(
                faults=CrashAdversary(crash_fraction=0.3),
                latency=UniformRandomDelay())
            result = run_download(n=9, ell=90, peer_factory=factory,
                                  adversary=adversary, seed=55)
            sink.update(adversary.faulty_peers())
        assert faulty_committee == faulty_naive


class TestShardedEquality:
    """pid-sharded execution of message-free protocols merges back to
    the unsharded record exactly (see execution.sharding docstring for
    the independence argument)."""

    def test_naive_sharded_matches_unsharded(self):
        kwargs = dict(n=24, ell=96, peer_factory=NaiveDownloadPeer.factory(),
                      t=7, seed=5)
        whole = run_download(**kwargs)
        parts = run_sharded(shards=4, **kwargs)
        assert full_record(parts) == full_record(whole)

    def test_cross_validate_sharded_with_workers(self):
        kwargs = dict(n=12, ell=128,
                      peer_factory=CrossValidateDownloadPeer.factory(q=3),
                      t=0, seed=11, sources=3,
                      source_faults=("wrong-bits",))
        whole = run_download(**kwargs)
        parts = run_sharded(shards=3, workers=3, **kwargs)
        assert full_record(parts) == full_record(whole)

    def test_messaging_protocols_are_rejected(self):
        with pytest.raises(ConfigurationError, match="message-free"):
            run_sharded(
                n=8, ell=64, shards=2,
                peer_factory=ByzCommitteeDownloadPeer.factory(block_size=8),
                t=2)
