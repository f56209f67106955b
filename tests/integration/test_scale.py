"""Scale tests: the simulator and protocols at bench-plus sizes.

Everything else in the suite runs tiny configurations for speed; these
runs confirm nothing quietly breaks at an order of magnitude more
peers/bits (event counts, recursion, memory-shape assumptions).  Each
test stays in the seconds range.
"""

import pytest

from repro.adversary import (
    ByzantineAdversary,
    ComposedAdversary,
    CrashAdversary,
    UniformRandomDelay,
    WrongBitsStrategy,
)
from repro.core.bounds import crash_optimal_query_bound
from repro.protocols import (
    ByzCommitteeDownloadPeer,
    ByzTwoCycleDownloadPeer,
    CrashMultiDownloadPeer,
)
from repro.sim import run_download


class TestLargeInputs:
    def test_crash_multi_at_64k_bits(self):
        n, ell = 16, 65_536
        adversary = ComposedAdversary(
            faults=CrashAdversary(crash_fraction=0.5),
            latency=UniformRandomDelay())
        result = run_download(n=n, ell=ell,
                              peer_factory=CrashMultiDownloadPeer.factory(),
                              adversary=adversary, seed=1)
        assert result.download_correct
        optimal = crash_optimal_query_bound(ell, n, n // 2)
        assert result.report.query_complexity <= 2.5 * optimal + n

    def test_two_cycle_at_64k_bits(self):
        result = run_download(
            n=64, ell=65_536,
            peer_factory=ByzTwoCycleDownloadPeer.factory(num_segments=8,
                                                         tau=3),
            adversary=ComposedAdversary(
                faults=ByzantineAdversary(
                    fraction=0.1,
                    strategy_factory=lambda pid: WrongBitsStrategy()),
                latency=UniformRandomDelay()),
            seed=2)
        assert result.download_correct
        # One segment of 8192 plus tree queries (fallbacks allowed).
        assert result.report.query_complexity <= 3 * 8192


class TestLargeNetworks:
    def test_committee_at_n_64(self):
        result = run_download(
            n=64, ell=4096, t=12,
            peer_factory=ByzCommitteeDownloadPeer.factory(block_size=64),
            adversary=ComposedAdversary(
                faults=ByzantineAdversary(
                    fraction=0.18,
                    strategy_factory=lambda pid: WrongBitsStrategy()),
                latency=UniformRandomDelay()),
            seed=3)
        assert result.download_correct
        # ell(2t+1)/n = 1600.
        assert result.report.query_complexity <= 1700

    def test_committee_at_n_2000(self):
        # Fault-free with unit latencies every broadcast collapses to
        # two pid spans, so the event *count* is per delivery while the
        # queue and the tally work are per span: two thousand peers
        # finish in well under a second.
        n, blocks, committee = 2000, 8, 7
        result = run_download(
            n=n, ell=1024, t=3,
            peer_factory=ByzCommitteeDownloadPeer.factory(block_size=128),
            seed=6)
        assert result.download_correct
        assert result.report.query_complexity == 128
        assert result.report.message_complexity == \
            blocks * committee * (n - 1)
        assert result.events_processed > result.report.message_complexity

    def test_crash_multi_at_n_48(self):
        result = run_download(
            n=48, ell=9600,
            peer_factory=CrashMultiDownloadPeer.factory(),
            adversary=ComposedAdversary(
                faults=CrashAdversary(crash_fraction=0.5),
                latency=UniformRandomDelay()),
            seed=4)
        assert result.download_correct

    def test_event_counts_stay_sane(self):
        result = run_download(n=32, ell=8192, t=0,
                              peer_factory=CrashMultiDownloadPeer.factory(),
                              seed=5)
        assert result.download_correct
        # Fault-free: one phase of O(n^2) messages plus queries; the
        # event count must not blow up superquadratically.
        assert result.events_processed < 40 * 32 * 32
