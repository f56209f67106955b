"""Quantitative integration tests: measured complexities vs the paper's
stated bounds (the same comparisons the benchmark harness reports)."""

import math

import pytest

from repro.core.bounds import (
    committee_query_bound,
    crash_multi_query_bound,
    default_direct_threshold,
    ideal_query_bound,
    naive_query_bound,
)
from repro.protocols import (
    BalancedDownloadPeer,
    ByzCommitteeDownloadPeer,
    ByzTwoCycleDownloadPeer,
    CrashMultiDownloadPeer,
    NaiveDownloadPeer,
)
from repro.sim import run_download

from tests.conftest import byzantine_async_adversary, crash_async_adversary
from repro.adversary import WrongBitsStrategy


class TestCrashOptimality:
    @pytest.mark.parametrize("beta", [0.2, 0.5, 0.8])
    def test_crash_multi_tracks_ell_over_n_minus_t(self, beta):
        n, ell = 10, 5000
        t = int(beta * n)
        result = run_download(n=n, ell=ell,
                              peer_factory=CrashMultiDownloadPeer.factory(),
                              adversary=crash_async_adversary(beta), seed=1)
        assert result.download_correct
        assert result.report.query_complexity <= crash_multi_query_bound(
            ell, n, t)

    def test_fault_free_exactly_ideal(self):
        n, ell = 10, 5000
        result = run_download(n=n, ell=ell,
                              peer_factory=CrashMultiDownloadPeer.factory(),
                              seed=1)
        assert result.report.query_complexity == math.ceil(
            ideal_query_bound(ell, n))

    def test_scaling_in_ell(self):
        # Doubling ell roughly doubles Q (linear in ell).
        def q_for(ell):
            return run_download(
                n=8, ell=ell, peer_factory=CrashMultiDownloadPeer.factory(),
                adversary=crash_async_adversary(0.5),
                seed=2).report.query_complexity

        small, large = q_for(2000), q_for(4000)
        assert 1.5 <= large / small <= 2.6

    def test_scaling_in_n(self):
        # More peers => less per-peer work at fixed beta.
        def q_for(n):
            return run_download(
                n=n, ell=4096, peer_factory=CrashMultiDownloadPeer.factory(),
                adversary=crash_async_adversary(0.25),
                seed=3).report.query_complexity

        assert q_for(16) < q_for(4)


class TestByzantineBounds:
    def test_committee_between_its_bound_and_naive(self):
        n, ell, t = 10, 2000, 3
        result = run_download(
            n=n, ell=ell, t=t,
            peer_factory=ByzCommitteeDownloadPeer.factory(block_size=10),
            adversary=byzantine_async_adversary(
                0.3, lambda pid: WrongBitsStrategy()),
            seed=4)
        assert result.download_correct
        measured = result.report.query_complexity
        assert measured <= committee_query_bound(ell, n, t, block_size=10)
        assert measured < naive_query_bound(ell)

    def test_two_cycle_beats_committee_for_large_ell(self):
        n, ell = 40, 16384
        committee = run_download(
            n=n, ell=ell, t=6,
            peer_factory=ByzCommitteeDownloadPeer.factory(block_size=64),
            adversary=byzantine_async_adversary(
                0.15, lambda pid: WrongBitsStrategy()),
            seed=5).report.query_complexity
        sampled = run_download(
            n=n, ell=ell,
            peer_factory=ByzTwoCycleDownloadPeer.factory(num_segments=8,
                                                         tau=2),
            adversary=byzantine_async_adversary(
                0.15, lambda pid: WrongBitsStrategy()),
            seed=5).report.query_complexity
        assert sampled < committee

    def test_naive_is_exactly_ell_always(self):
        result = run_download(n=6, ell=777,
                              peer_factory=NaiveDownloadPeer.factory(),
                              seed=6)
        assert result.report.query_complexity == 777


class TestTimeAndMessages:
    def test_balanced_time_constant_in_rounds(self):
        result = run_download(n=8, ell=512,
                              peer_factory=BalancedDownloadPeer.factory(),
                              seed=7)
        assert result.report.time_complexity <= 3.0

    def test_crash_multi_message_complexity_quadratic_per_phase(self):
        n = 8
        result = run_download(n=n, ell=512,
                              peer_factory=CrashMultiDownloadPeer.factory(),
                              seed=8)
        # Fault-free: 1 phase => requests + responses + missing round
        # + full arrays, all O(n^2).
        assert result.report.message_complexity <= 6 * n * n

    def test_direct_threshold_keeps_tail_bounded(self):
        for ell, n, t in ((1000, 10, 5), (5000, 20, 10)):
            threshold = default_direct_threshold(ell, n, t)
            assert threshold <= max(n, math.ceil(ell / (n - t)))
