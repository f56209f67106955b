"""Tests for the multi-cycle randomized protocol (Theorem 3.12)."""

import pytest

from repro.adversary import (
    EquivocateStrategy,
    SilentStrategy,
    TargetedSlowdown,
    WrongBitsStrategy,
)
from repro.protocols import ByzMultiCycleDownloadPeer
from repro.sim import ConfigurationError, run_download

from tests.conftest import assert_download_correct, byzantine_async_adversary


class TestParameterChoice:
    def test_power_of_two(self):
        for n, t, ell in ((64, 8, 65536), (256, 16, 10 ** 6), (40, 6, 8192)):
            hierarchy, _ = ByzMultiCycleDownloadPeer.plan(n, t, ell)
            base = hierarchy.base_segments
            assert base & (base - 1) == 0

    def test_degenerates_for_majority(self):
        assert ByzMultiCycleDownloadPeer.plan(16, 8, 65536) == (None, ())

    def test_degenerates_for_tiny_input(self):
        assert ByzMultiCycleDownloadPeer.plan(64, 8, 64) == (None, ())

    def test_non_power_of_two_override_rejected(self):
        with pytest.raises(ConfigurationError, match="power of two"):
            run_download(n=8, ell=64, t=0,
                         peer_factory=ByzMultiCycleDownloadPeer.factory(
                             base_segments=6),
                         seed=1)


class TestCorrectness:
    def test_fault_free(self):
        result = run_download(
            n=32, ell=4096, t=0,
            peer_factory=ByzMultiCycleDownloadPeer.factory(base_segments=4,
                                                           tau=2),
            seed=1)
        assert_download_correct(result)

    @pytest.mark.parametrize("strategy", [WrongBitsStrategy, SilentStrategy,
                                          EquivocateStrategy])
    def test_byzantine_strategies(self, strategy):
        adversary = byzantine_async_adversary(0.15, lambda pid: strategy())
        result = run_download(
            n=40, ell=8192,
            peer_factory=ByzMultiCycleDownloadPeer.factory(base_segments=4,
                                                           tau=3),
            adversary=adversary, seed=2)
        assert_download_correct(result, strategy.__name__)

    def test_degenerate_single_segment_runs_naive(self):
        result = run_download(
            n=8, ell=64, t=0,
            peer_factory=ByzMultiCycleDownloadPeer.factory(base_segments=1),
            seed=3)
        assert_download_correct(result)
        assert result.report.query_complexity == 64

    def test_slow_peers(self):
        result = run_download(
            n=32, ell=4096, t=4,
            peer_factory=ByzMultiCycleDownloadPeer.factory(base_segments=4,
                                                           tau=2),
            adversary=TargetedSlowdown({0, 1}), seed=4)
        assert_download_correct(result)

    def test_success_across_seeds(self):
        failures = 0
        for seed in range(6):
            adversary = byzantine_async_adversary(
                0.1, lambda pid: WrongBitsStrategy())
            result = run_download(
                n=40, ell=4096,
                peer_factory=ByzMultiCycleDownloadPeer.factory(
                    base_segments=4, tau=3),
                adversary=adversary, seed=seed)
            failures += not result.download_correct
        assert failures == 0


class TestComplexity:
    def test_base_segment_dominates_query_cost(self):
        result = run_download(
            n=40, ell=8192, t=0,
            peer_factory=ByzMultiCycleDownloadPeer.factory(base_segments=8,
                                                           tau=2),
            seed=5)
        assert_download_correct(result)
        base_cost = 8192 // 8
        # Fallbacks can add whole child segments in unlucky seeds, but
        # the common case is base + a handful of tree queries.
        assert result.report.query_complexity < 4 * base_cost

    def test_more_base_segments_smaller_base_cost(self):
        def q_for(base):
            return run_download(
                n=64, ell=8192, t=0,
                peer_factory=ByzMultiCycleDownloadPeer.factory(
                    base_segments=base, tau=2),
                seed=6).report.query_complexity

        assert q_for(8) < q_for(2)

    def test_cycle_count_is_logarithmic(self):
        from repro.core.segments import HierarchicalSegmentation
        hierarchy = HierarchicalSegmentation(8192, 8)
        assert hierarchy.num_cycles == 4  # log2(8) + 1

    def test_final_cycle_not_broadcast(self):
        # Message count: cycles 1..R-1 broadcast, R does not.
        result = run_download(
            n=16, ell=1024, t=0,
            peer_factory=ByzMultiCycleDownloadPeer.factory(base_segments=4,
                                                           tau=1),
            seed=7)
        assert_download_correct(result)
        # 2 broadcast cycles (R=3): each peer sends 15 messages per
        # broadcast cycle.
        assert result.report.message_complexity == 16 * 15 * 2
