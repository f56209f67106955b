"""Tests for the lockstep synchronous engine and its protocols."""

import pytest

from repro.protocols import (
    BalancedDownloadPeer,
    ByzCommitteeDownloadPeer,
    ByzTwoCycleDownloadPeer,
    NaiveDownloadPeer,
)
from repro.sim.errors import ConfigurationError
from repro.sync import (
    LockstepEscalatePeer,
    RoundCrashAdversary,
    RushingEchoAdversary,
    SilentSyncAdversary,
    SyncConfig,
    fraction_corrupted,
    hosted_factory,
    run_sync_download,
)

#: Every protocol here but the crash family's is the registry's body
#: on the lockstep host.
NAIVE = hosted_factory(NaiveDownloadPeer)
BALANCED = hosted_factory(BalancedDownloadPeer)


def committee(**params):
    return hosted_factory(ByzCommitteeDownloadPeer, **params)


def two_round(**params):
    return hosted_factory(ByzTwoCycleDownloadPeer, **params)


class TestEngineBasics:
    def test_naive_is_one_round(self):
        result = run_sync_download(n=6, ell=120, peer_factory=NAIVE, seed=1)
        assert result.download_correct
        assert result.rounds == 1
        assert result.query_complexity == 120
        assert result.message_complexity == 0

    def test_balanced_is_two_rounds(self):
        result = run_sync_download(n=6, ell=120, peer_factory=BALANCED,
                                   seed=1)
        assert result.download_correct
        assert result.rounds == 2
        assert result.query_complexity == 20
        assert result.message_complexity == 6 * 5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyncConfig(n=4, t=4, ell=8)
        with pytest.raises(ValueError):
            SyncConfig(n=0, t=0, ell=8)

    def test_seed_determinism(self):
        def run():
            return run_sync_download(
                n=20, ell=400, t=2,
                peer_factory=two_round(num_segments=2, tau=2), seed=9)

        first, second = run(), run()
        assert first.outputs == second.outputs
        assert first.query_complexity == second.query_complexity

    def test_corruption_budget_enforced(self):
        with pytest.raises(ValueError, match="budget"):
            run_sync_download(
                n=4, ell=8, t=1, peer_factory=NAIVE,
                adversary=SilentSyncAdversary(corrupted={0, 1}), seed=1)

    def test_stall_detection_ends_dead_runs(self):
        adversary = RoundCrashAdversary({2: (1, 0)})  # silent crash
        result = run_sync_download(n=6, ell=60, t=1,
                                   peer_factory=BALANCED,
                                   adversary=adversary, seed=1)
        assert not result.download_correct
        assert result.rounds < 10  # stalled, not MAX_ROUNDS


class TestSyncCommittee:
    def test_two_rounds_and_theorem_cost(self):
        result = run_sync_download(
            n=9, ell=270, t=2,
            peer_factory=committee(block_size=9), seed=2)
        assert result.download_correct
        assert result.rounds == 2
        assert result.query_complexity <= 270 * 5 // 9 + 9

    def test_survives_silent_corruption(self):
        result = run_sync_download(
            n=9, ell=270, t=4,
            peer_factory=committee(block_size=9),
            adversary=SilentSyncAdversary(corrupted={0, 2, 4, 6}), seed=3)
        assert result.download_correct

    def test_survives_rushing_echo(self):
        # The rushing attacker clones honest reports with flipped bits,
        # perfectly formed and perfectly timed; t+1 still saves us.
        result = run_sync_download(
            n=9, ell=270, t=2,
            peer_factory=committee(block_size=9),
            adversary=RushingEchoAdversary(corrupted={1, 5}, seed=4),
            seed=4)
        assert result.download_correct

    def test_majority_configuration_rejected(self):
        # The body's own error, as on the simulator.
        with pytest.raises(ConfigurationError, match="2t < n"):
            run_sync_download(
                n=8, ell=16, t=4, peer_factory=committee(), seed=1)


class TestSyncTwoRound:
    def test_exactly_two_rounds(self):
        result = run_sync_download(
            n=30, ell=600, t=0,
            peer_factory=two_round(num_segments=3, tau=2),
            seed=5)
        assert result.download_correct
        assert result.rounds == 2

    def test_query_cost_one_segment_plus_trees(self):
        result = run_sync_download(
            n=40, ell=4000, t=0,
            peer_factory=two_round(num_segments=4, tau=2),
            seed=6)
        assert result.download_correct
        assert result.query_complexity <= 1000 + 40 + 1000

    def test_survives_rushing_echo(self):
        # Rushing fakes enter the tau filter (they are cloned from a
        # real report so they share its segment) but decision trees
        # price them at one query each.
        result = run_sync_download(
            n=40, ell=2000, t=4,
            peer_factory=two_round(num_segments=4, tau=2),
            adversary=RushingEchoAdversary(
                corrupted=fraction_corrupted(40, 0.1, seed=7), seed=7),
            seed=7)
        assert result.download_correct

    def test_silent_corruption_sweep(self):
        ok = 0
        for seed in range(5):
            result = run_sync_download(
                n=40, ell=2000, t=4,
                peer_factory=two_round(num_segments=4, tau=2),
                adversary=SilentSyncAdversary(
                    corrupted=fraction_corrupted(40, 0.1, seed=seed)),
                seed=seed)
            ok += result.download_correct
        assert ok == 5


class TestRoundCrashes:
    def test_mid_round_crash_partial_delivery(self):
        # Peer 2 crashes in round 1 keeping 3 of its 5 sends: exactly
        # destinations 0, 1, 3 (ascending) hear it.
        adversary = RoundCrashAdversary({2: (1, 3)})
        result = run_sync_download(n=6, ell=60, t=1,
                                   peer_factory=BALANCED,
                                   adversary=adversary, seed=8)
        outputs = result.outputs
        # Peers 0, 1, 3 received slice 2 and finish; 4, 5 never do.
        assert outputs[0] is not None and outputs[1] is not None
        assert outputs[4] is None and outputs[5] is None

    def test_crashed_peers_counted_faulty(self):
        adversary = RoundCrashAdversary({1: (1, None), 3: (2, None)})
        result = run_sync_download(n=6, ell=60, t=2,
                                   peer_factory=NAIVE,
                                   adversary=adversary, seed=9)
        # Naive finishes in round 1, before the round-2 crash bites.
        assert result.outputs[1] is not None


class TestSyncCrashProtocol:
    def crash_factory(self, pid, config, rng):
        from repro.sync import SyncCrashPeer
        return SyncCrashPeer(pid, config, rng)

    def test_fault_free_is_two_rounds_at_ideal_cost(self):
        result = run_sync_download(n=8, ell=512, t=0,
                                   peer_factory=self.crash_factory, seed=1)
        assert result.download_correct
        assert result.rounds == 2
        assert result.query_complexity == 64

    def test_survives_mixed_crash_schedule(self):
        adversary = RoundCrashAdversary({1: (1, 0), 4: (1, 3), 6: (2, 2)})
        result = run_sync_download(n=8, ell=512, t=3,
                                   peer_factory=self.crash_factory,
                                   adversary=adversary, seed=2)
        assert result.download_correct
        assert result.rounds <= 6

    def test_cascading_crashes_one_per_round(self):
        adversary = RoundCrashAdversary(
            {pid: (pid, 2) for pid in range(1, 5)})
        result = run_sync_download(n=10, ell=1000, t=4,
                                   peer_factory=self.crash_factory,
                                   adversary=adversary, seed=3)
        assert result.download_correct

    def test_query_cost_near_optimal_under_crashes(self):
        adversary = RoundCrashAdversary(
            {pid: (1, 0) for pid in range(4)})  # 4 silent crashes
        result = run_sync_download(n=8, ell=800, t=4,
                                   peer_factory=self.crash_factory,
                                   adversary=adversary, seed=4)
        assert result.download_correct
        # optimal ell/(n - t) = 200; allow the constant.
        assert result.query_complexity <= 2 * 800 // 4 + 8


class TestSyncCrossValidateEscalate:
    def factory(self, f=1):
        return hosted_factory(LockstepEscalatePeer, f=f)

    def test_honest_sources_finish_in_one_round(self):
        result = run_sync_download(n=4, ell=64, t=0,
                                   peer_factory=self.factory(), seed=2,
                                   sources=3)
        assert result.download_correct
        assert result.rounds == 1
        # optimistic cost: f + 1 = 2 endpoints, full array each.
        assert result.query_complexity == 2 * 64

    def test_liar_forces_escalation_round(self):
        result = run_sync_download(n=4, ell=64, t=0,
                                   peer_factory=self.factory(), seed=2,
                                   sources=3,
                                   source_faults=("wrong-bits:1.0",))
        assert result.download_correct
        assert result.rounds == 2
        # every peer's rotation includes the liar at total blackout
        # rate, so all escalate to 2f + 1 = 3 endpoints.
        assert result.query_complexity == 3 * 64

    def test_f0_is_single_source_one_round(self):
        result = run_sync_download(n=3, ell=32, t=0,
                                   peer_factory=self.factory(f=0), seed=5)
        assert result.download_correct
        assert result.rounds == 1
        assert result.query_complexity == 32

    def test_infeasible_f_rejected(self):
        import pytest
        with pytest.raises(ValueError, match="2f"):
            run_sync_download(n=2, ell=16, t=0,
                              peer_factory=self.factory(f=1), seed=1,
                              sources=2)
