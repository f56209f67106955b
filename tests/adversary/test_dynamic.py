"""Tests for the Dynamic Byzantine adversary (companion-paper model)."""

import pytest

from repro.adversary import (
    ComposedAdversary,
    SilentStrategy,
    UniformRandomDelay,
    WrongBitsStrategy,
)
from repro.adversary.dynamic import DynamicByzantineAdversary
from repro.protocols import (
    ByzCommitteeDownloadPeer,
    ByzMultiCycleDownloadPeer,
    ByzTwoCycleDownloadPeer,
)
from repro.sim import run_download


def dynamic(fraction, **kwargs):
    return ComposedAdversary(
        faults=DynamicByzantineAdversary(fraction=fraction, **kwargs),
        latency=UniformRandomDelay())


class TestSelection:
    def test_per_cycle_sets_within_budget(self):
        adversary = DynamicByzantineAdversary(fraction=0.25)
        run_download(n=12, ell=60, t=3,
                     peer_factory=ByzCommitteeDownloadPeer.factory(
                         block_size=5),
                     adversary=ComposedAdversary(
                         faults=adversary, latency=UniformRandomDelay()),
                     seed=1)
        for cycle in adversary.cycles_seen:
            assert len(adversary.corrupted_in_cycle(cycle)) <= 3

    def test_sets_change_between_cycles(self):
        adversary = DynamicByzantineAdversary(fraction=0.25)

        class Env:
            n = 100
        adversary.env = Env()
        adversary.rng = __import__(
            "repro.util.rng", fromlist=["SplittableRNG"]).SplittableRNG(5)
        sets = {adversary.corrupted_in_cycle(cycle) for cycle in range(6)}
        assert len(sets) > 1

    def test_selection_is_cached_and_deterministic(self):
        adversary = DynamicByzantineAdversary(fraction=0.25)

        class Env:
            n = 40
        adversary.env = Env()
        from repro.util.rng import SplittableRNG
        adversary.rng = SplittableRNG(5)
        first = adversary.corrupted_in_cycle(3)
        assert adversary.corrupted_in_cycle(3) is first

    def test_pool_bounds_the_union(self):
        adversary = DynamicByzantineAdversary(fraction=0.2, pool=5)

        class Env:
            n = 50
        adversary.env = Env()
        from repro.util.rng import SplittableRNG
        adversary.rng = SplittableRNG(7)
        union = set()
        for cycle in range(30):
            union |= adversary.corrupted_in_cycle(cycle)
        assert len(union) <= 5

    def test_no_peers_marked_statically_faulty(self):
        adversary = DynamicByzantineAdversary(fraction=0.3)
        assert adversary.faulty_peers() == set()
        assert adversary.actually_faulty() == set()

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            DynamicByzantineAdversary(fraction=1.0)


class TestProtocolsUnderDynamicCorruption:
    def test_committee_survives(self):
        result = run_download(
            n=12, ell=240, t=3,
            peer_factory=ByzCommitteeDownloadPeer.factory(block_size=12),
            adversary=dynamic(0.25), seed=2)
        # Dynamic corruption twists messages only; every peer computes
        # honestly and must terminate with the full array.
        assert result.honest == set(range(12))
        assert result.download_correct

    def test_two_cycle_survives(self):
        result = run_download(
            n=40, ell=2000,
            peer_factory=ByzTwoCycleDownloadPeer.factory(num_segments=4,
                                                         tau=3),
            adversary=dynamic(0.1), t=4, seed=3)
        assert result.download_correct

    def test_multi_cycle_survives_changing_sets(self):
        # The companion paper's headline regime: the corrupted set
        # changes every cycle, so over log(s) cycles the union exceeds
        # any static budget — and the protocol still works.
        adversary_core = DynamicByzantineAdversary(fraction=0.15)
        result = run_download(
            n=40, ell=4096, t=6,
            peer_factory=ByzMultiCycleDownloadPeer.factory(base_segments=4,
                                                           tau=3),
            adversary=ComposedAdversary(faults=adversary_core,
                                        latency=UniformRandomDelay()),
            seed=4)
        assert result.download_correct
        assert len(adversary_core.union_corrupted()) > 6  # the static t

    def test_silent_dynamic_corruption(self):
        result = run_download(
            n=12, ell=120, t=3,
            peer_factory=ByzCommitteeDownloadPeer.factory(block_size=12),
            adversary=dynamic(0.25,
                              strategy_factory=lambda pid: SilentStrategy()),
            seed=5)
        assert result.download_correct

    def test_broadcast_consistent_variant(self):
        result = run_download(
            n=12, ell=120, t=3,
            peer_factory=ByzCommitteeDownloadPeer.factory(block_size=12),
            adversary=dynamic(0.25, broadcast_consistent=True), seed=6)
        assert result.download_correct

    def test_seed_sweep_multi_cycle(self):
        ok = 0
        for seed in range(5):
            result = run_download(
                n=40, ell=4096, t=6,
                peer_factory=ByzMultiCycleDownloadPeer.factory(
                    base_segments=4, tau=3),
                adversary=dynamic(0.15), seed=seed)
            ok += result.download_correct
        assert ok == 5
