"""Tests for Algorithm 1 (one-crash deterministic download)."""

import pytest

from repro.adversary import (
    ComposedAdversary,
    CrashAdversary,
    CrashAfterSends,
    CrashAtTime,
    StaggeredStart,
    TargetedSlowdown,
    UniformRandomDelay,
)
from repro.core.bounds import crash_one_query_bound
from repro.protocols import CrashOneDownloadPeer
from repro.sim import ConfigurationError, Simulation, run_download

from tests.conftest import assert_download_correct


def one_crash(spec, latency=None):
    return ComposedAdversary(
        faults=CrashAdversary(crashes={spec[0]: spec[1]}),
        latency=latency or UniformRandomDelay())


class TestCorrectness:
    def test_no_fault(self):
        result = run_download(n=8, ell=512, t=1,
                              peer_factory=CrashOneDownloadPeer.factory(),
                              seed=1)
        assert_download_correct(result)

    @pytest.mark.parametrize("victim", [0, 3, 7])
    def test_silent_crash_any_victim(self, victim):
        result = run_download(
            n=8, ell=512, peer_factory=CrashOneDownloadPeer.factory(),
            adversary=one_crash((victim, CrashAfterSends(0))), seed=2)
        assert_download_correct(result, f"victim={victim}")

    @pytest.mark.parametrize("sends", [1, 3, 6, 10])
    def test_mid_broadcast_crash(self, sends):
        result = run_download(
            n=8, ell=512, peer_factory=CrashOneDownloadPeer.factory(),
            adversary=one_crash((2, CrashAfterSends(sends))), seed=3)
        assert_download_correct(result, f"sends={sends}")

    @pytest.mark.parametrize("time", [0.0, 0.5, 1.5, 3.0])
    def test_timed_crash(self, time):
        result = run_download(
            n=8, ell=512, peer_factory=CrashOneDownloadPeer.factory(),
            adversary=one_crash((5, CrashAtTime(time))), seed=4)
        assert_download_correct(result, f"time={time}")

    def test_slow_but_alive_peer_not_mistaken_for_crashed(self):
        result = run_download(
            n=8, ell=512, t=1,
            peer_factory=CrashOneDownloadPeer.factory(),
            adversary=TargetedSlowdown({4}), seed=5)
        assert_download_correct(result)

    def test_staggered_starts(self):
        result = run_download(
            n=8, ell=256, t=1,
            peer_factory=CrashOneDownloadPeer.factory(),
            adversary=StaggeredStart(spread=3.0), seed=6)
        assert_download_correct(result)

    def test_many_seeds_with_random_async(self):
        for seed in range(8):
            result = run_download(
                n=6, ell=240, peer_factory=CrashOneDownloadPeer.factory(),
                adversary=one_crash((seed % 6, CrashAfterSends(seed))),
                seed=seed)
            assert_download_correct(result, f"seed={seed}")


class TestComplexity:
    def test_fault_free_query_complexity_near_ell_over_n(self):
        result = run_download(n=8, ell=512, t=1,
                              peer_factory=CrashOneDownloadPeer.factory(),
                              seed=1)
        # Theorem 2.3: ell/n plus at most the phase-2 slice.
        assert result.report.query_complexity <= crash_one_query_bound(
            512, 8)

    def test_crash_query_complexity_within_theorem_bound(self):
        result = run_download(
            n=8, ell=512, peer_factory=CrashOneDownloadPeer.factory(),
            adversary=one_crash((1, CrashAfterSends(0))), seed=2)
        assert result.report.query_complexity <= crash_one_query_bound(
            512, 8)

    def test_load_balanced_in_fault_free_case(self):
        result = run_download(n=8, ell=512, t=1,
                              peer_factory=CrashOneDownloadPeer.factory(),
                              seed=1)
        loads = list(result.report.per_peer_query_bits.values())
        assert max(loads) - min(loads) <= 1


class TestConfigurationLimits:
    def test_rejects_t_above_one(self):
        with pytest.raises(ConfigurationError, match="one crash"):
            run_download(n=8, ell=64, t=2,
                         peer_factory=CrashOneDownloadPeer.factory(),
                         seed=1)

    def test_rejects_tiny_networks(self):
        with pytest.raises(ConfigurationError, match="n >= 3"):
            run_download(n=2, ell=64, t=1,
                         peer_factory=CrashOneDownloadPeer.factory(),
                         seed=1)
