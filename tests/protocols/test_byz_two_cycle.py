"""Tests for the 2-cycle randomized protocol (Protocol 4 / Thm 3.7)."""

import pytest

from repro.adversary import (
    ByzantineAdversary,
    ComposedAdversary,
    EquivocateStrategy,
    SilentStrategy,
    UniformRandomDelay,
    WrongBitsStrategy,
)
from repro.protocols import ByzTwoCycleDownloadPeer, choose_segments
from repro.sim import ConfigurationError, run_download

from tests.conftest import assert_download_correct, byzantine_async_adversary


class TestParameterChoice:
    def test_sample_mode_for_large_inputs(self):
        hierarchy, taus = ByzTwoCycleDownloadPeer.plan(64, 8, 65536)
        assert hierarchy.base_segments > 1
        assert hierarchy.num_cycles == 2
        assert taus[0] >= 1

    def test_naive_mode_for_tiny_inputs(self):
        assert ByzTwoCycleDownloadPeer.plan(64, 8, 100) == (None, ())

    def test_naive_mode_for_small_networks(self):
        assert choose_segments(8, 3, 65536) == 1

    def test_naive_mode_for_majority(self):
        assert choose_segments(16, 8, 65536) == 1

    def test_tau_reflects_honest_floor(self):
        strong = choose_segments(256, 8, 10 ** 6)
        weak = choose_segments(256, 100, 10 ** 6)
        assert strong >= weak

    def test_segments_capped_by_input_length(self):
        assert choose_segments(4096, 0, 100) <= 100

    def test_override_must_be_complete(self):
        with pytest.raises(ConfigurationError, match="together"):
            run_download(n=8, ell=64, t=0,
                         peer_factory=ByzTwoCycleDownloadPeer.factory(
                             num_segments=4),
                         seed=1)

    def test_invalid_override_rejected(self):
        with pytest.raises(ValueError):
            run_download(n=8, ell=64, t=0,
                         peer_factory=ByzTwoCycleDownloadPeer.factory(
                             num_segments=0, tau=1),
                         seed=1)


class TestCorrectness:
    def test_fault_free_sampling(self):
        result = run_download(
            n=32, ell=2048, t=0,
            peer_factory=ByzTwoCycleDownloadPeer.factory(num_segments=4,
                                                         tau=2),
            seed=1)
        assert_download_correct(result)

    @pytest.mark.parametrize("strategy", [WrongBitsStrategy, SilentStrategy,
                                          EquivocateStrategy])
    def test_byzantine_strategies(self, strategy):
        adversary = byzantine_async_adversary(0.15,
                                              lambda pid: strategy())
        result = run_download(
            n=40, ell=4096,
            peer_factory=ByzTwoCycleDownloadPeer.factory(num_segments=4,
                                                         tau=3),
            adversary=adversary, seed=2)
        assert_download_correct(result, strategy.__name__)

    def test_success_rate_across_seeds(self):
        # "w.h.p." claim measured: with tau comfortably below the
        # honest per-segment expectation, every seed should succeed.
        failures = 0
        for seed in range(10):
            adversary = byzantine_async_adversary(
                0.1, lambda pid: WrongBitsStrategy())
            result = run_download(
                n=40, ell=2000,
                peer_factory=ByzTwoCycleDownloadPeer.factory(num_segments=4,
                                                             tau=3),
                adversary=adversary, seed=seed)
            failures += not result.download_correct
        assert failures == 0

    def test_naive_mode_correct_by_construction(self):
        result = run_download(
            n=8, ell=100, t=3,
            peer_factory=ByzTwoCycleDownloadPeer.factory(),
            adversary=byzantine_async_adversary(
                0.3, lambda pid: WrongBitsStrategy()),
            seed=3)
        assert_download_correct(result)
        assert result.report.query_complexity == 100


class TestComplexity:
    def test_query_complexity_one_segment_plus_trees(self):
        result = run_download(
            n=40, ell=4096, t=0,
            peer_factory=ByzTwoCycleDownloadPeer.factory(num_segments=4,
                                                         tau=3),
            seed=4)
        assert_download_correct(result)
        # One segment is 1024 bits; trees add at most n/tau-ish.
        assert 1024 <= result.report.query_complexity <= 1024 + 40

    def test_spam_cost_bounded_by_fakes_per_segment(self):
        # t Byzantine spammers can push at most t/tau fakes per segment
        # past the filter; each costs one tree query.
        adversary = byzantine_async_adversary(
            0.15, lambda pid: WrongBitsStrategy())
        result = run_download(
            n=40, ell=4096,
            peer_factory=ByzTwoCycleDownloadPeer.factory(num_segments=4,
                                                         tau=3),
            adversary=adversary, seed=5)
        segments = 4
        max_extra = segments * (6 // 3 + 1)  # t=6 corrupted, tau=3
        assert result.report.query_complexity <= 1024 + max_extra + segments

    def test_two_cycles_only(self):
        result = run_download(
            n=32, ell=2048, t=0,
            peer_factory=ByzTwoCycleDownloadPeer.factory(num_segments=4,
                                                         tau=2),
            seed=6)
        assert_download_correct(result)
        # Time: one broadcast round + decision-tree queries; well under
        # any phased protocol at the same scale.
        assert result.report.time_complexity < 20.0
