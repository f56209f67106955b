"""Tests for Algorithm 2 (t-crash deterministic download) and the
Theorem 2.13 fast variant."""

import math

import pytest

from repro.adversary import (
    BurstyDelay,
    ComposedAdversary,
    CrashAdversary,
    CrashAfterSends,
    CrashAtTime,
    StaggeredStart,
    TargetedSlowdown,
    UniformRandomDelay,
)
from repro.core.bounds import (
    crash_multi_query_bound,
    default_direct_threshold,
    planned_phases,
)
from repro.protocols import CrashMultiDownloadPeer, CrashMultiFastDownloadPeer
from repro.sim import run_download

from tests.conftest import assert_download_correct, crash_async_adversary


class TestCorrectness:
    def test_no_fault(self):
        result = run_download(n=8, ell=1024,
                              peer_factory=CrashMultiDownloadPeer.factory(),
                              seed=1)
        assert_download_correct(result)

    @pytest.mark.parametrize("fraction", [0.1, 0.3, 0.5, 0.7])
    def test_crash_fractions_mid_broadcast(self, fraction):
        result = run_download(
            n=10, ell=1000, peer_factory=CrashMultiDownloadPeer.factory(),
            adversary=crash_async_adversary(fraction), seed=7)
        assert_download_correct(result, f"beta={fraction}")

    @pytest.mark.parametrize("fraction", [0.3, 0.6])
    def test_crash_fractions_at_time(self, fraction):
        result = run_download(
            n=10, ell=1000, peer_factory=CrashMultiDownloadPeer.factory(),
            adversary=crash_async_adversary(fraction, mode="at_time"),
            seed=8)
        assert_download_correct(result)

    def test_extreme_beta_all_but_one_crash(self):
        crashes = {pid: CrashAfterSends(pid) for pid in range(1, 6)}
        adversary = ComposedAdversary(
            faults=CrashAdversary(crashes=crashes),
            latency=UniformRandomDelay())
        result = run_download(n=6, ell=600,
                              peer_factory=CrashMultiDownloadPeer.factory(),
                              adversary=adversary, seed=9)
        assert_download_correct(result, "n-1 crashes")

    def test_slow_peers_not_fatally_suspected(self):
        result = run_download(
            n=8, ell=512, t=4,
            peer_factory=CrashMultiDownloadPeer.factory(),
            adversary=TargetedSlowdown({0, 1, 2}), seed=10)
        assert_download_correct(result)

    def test_bursty_network(self):
        result = run_download(
            n=8, ell=512, t=2,
            peer_factory=CrashMultiDownloadPeer.factory(),
            adversary=BurstyDelay(stall_fraction=0.3), seed=11)
        assert_download_correct(result)

    def test_staggered_starts(self):
        result = run_download(
            n=8, ell=512, t=2,
            peer_factory=CrashMultiDownloadPeer.factory(),
            adversary=StaggeredStart(spread=5.0), seed=12)
        assert_download_correct(result)

    def test_crash_during_full_array_broadcast(self):
        # Crash budget placed deep: the victim dies while flushing its
        # terminal FullArray broadcast; others must still finish.
        crashes = {2: CrashAfterSends(40)}
        adversary = ComposedAdversary(
            faults=CrashAdversary(crashes=crashes),
            latency=UniformRandomDelay())
        result = run_download(n=6, ell=300,
                              peer_factory=CrashMultiDownloadPeer.factory(),
                              adversary=adversary, seed=13)
        assert_download_correct(result)

    def test_seed_sweep(self):
        for seed in range(6):
            result = run_download(
                n=9, ell=729, peer_factory=CrashMultiDownloadPeer.factory(),
                adversary=crash_async_adversary(0.4), seed=seed)
            assert_download_correct(result, f"seed={seed}")


class TestComplexity:
    def test_fault_free_matches_ideal(self):
        result = run_download(n=8, ell=1024,
                              peer_factory=CrashMultiDownloadPeer.factory(),
                              seed=1)
        assert result.report.query_complexity == 1024 // 8

    def test_query_complexity_within_twice_optimal_plus_threshold(self):
        n, ell = 10, 4000
        result = run_download(
            n=n, ell=ell, peer_factory=CrashMultiDownloadPeer.factory(),
            adversary=crash_async_adversary(0.5), seed=3)
        # Lemma 2.11's own shares plus the residue (1200 here, inside
        # twice the optimum plus the direct threshold, 2400).
        assert result.report.query_complexity <= crash_multi_query_bound(
            ell, n, n // 2)

    def test_unknown_bits_decay_gives_planned_phases(self):
        # planned_phases must shrink the residue below the threshold.
        for ell, n, t in ((4096, 8, 4), (10_000, 10, 3), (512, 16, 8)):
            threshold = default_direct_threshold(ell, n, t)
            phases = planned_phases(ell, n, t, threshold)
            residue = ell
            for _ in range(phases):
                residue = math.ceil(residue * t / n)
            digits_exhausted = n ** phases >= ell
            assert residue <= threshold or digits_exhausted

    def test_zero_t_single_phase(self):
        assert planned_phases(1024, 8, 0, 128) == 1
        assert planned_phases(100, 8, 0, 128) == 0


class TestFastVariant:
    def test_correct_under_crashes(self):
        result = run_download(
            n=10, ell=1000,
            peer_factory=CrashMultiFastDownloadPeer.factory(),
            adversary=crash_async_adversary(0.5), seed=4)
        assert_download_correct(result)

    def test_correct_with_slow_peers(self):
        result = run_download(
            n=8, ell=512, t=4,
            peer_factory=CrashMultiFastDownloadPeer.factory(),
            adversary=TargetedSlowdown({0, 1}), seed=5)
        assert_download_correct(result)

    def test_fast_variant_no_slower_under_packetization(self):
        # Thm 2.13's point: long responses only block the fast variant
        # when the corresponding peer really crashed.  With slow (but
        # alive) peers and packetized bandwidth, the fast variant should
        # terminate no later than the base protocol.
        def run(factory):
            return run_download(
                n=8, ell=2048, t=4, peer_factory=factory,
                adversary=TargetedSlowdown({0, 1, 2}),
                message_size_limit=256, packetize=True, seed=6)

        base = run(CrashMultiDownloadPeer.factory())
        fast = run(CrashMultiFastDownloadPeer.factory())
        assert fast.download_correct and base.download_correct
        assert fast.report.time_complexity <= base.report.time_complexity


class TestProtocolInternals:
    def test_phase_request_indices_follow_digit_assignment(self):
        from repro.core.assignment import digit_owner
        result = run_download(
            n=4, ell=64, peer_factory=CrashMultiDownloadPeer.factory(),
            adversary=crash_async_adversary(0.5), seed=2)
        assert_download_correct(result)
        # Spot check: the digit rule partitions all of [0, ell).
        owners = {index: digit_owner(index, 1, 4) for index in range(64)}
        assert set(owners.values()) == {0, 1, 2, 3}

    def test_explicit_parameters_respected(self):
        result = run_download(
            n=8, ell=512, t=0,
            peer_factory=CrashMultiDownloadPeer.factory(
                direct_threshold=64, max_phases=1),
            seed=1)
        assert_download_correct(result)
