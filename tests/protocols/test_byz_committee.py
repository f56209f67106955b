"""Tests for the deterministic committee protocol (Theorem 3.4)."""

import math

import pytest

from repro.adversary import (
    ByzantineAdversary,
    ComposedAdversary,
    EquivocateStrategy,
    SelectiveSilenceStrategy,
    SilentStrategy,
    TargetedSlowdown,
    UniformRandomDelay,
    WrongBitsStrategy,
)
from repro.adversary.base import Adversary
from repro.core.bounds import committee_query_bound
from repro.obs.telemetry import RecordingTelemetry, using
from repro.oracle.feeds import EquivocatingFeed
from repro.protocols import ByzCommitteeDownloadPeer
from repro.protocols.board import CommitteeBoard
from repro.sim import ConfigurationError, Simulation, run_download
from repro.sync import hosted_factory
from repro.sync.engine import run_sync_download

from tests.conftest import (assert_download_correct,
                            byzantine_async_adversary, full_record)

ALL_STRATEGIES = [SilentStrategy, WrongBitsStrategy, EquivocateStrategy,
                  SelectiveSilenceStrategy]


class TestCorrectness:
    def test_no_fault(self):
        result = run_download(
            n=8, ell=256, t=0,
            peer_factory=ByzCommitteeDownloadPeer.factory(block_size=8),
            seed=1)
        assert_download_correct(result)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_every_strategy_at_max_minority(self, strategy):
        # n=9, t=4: the largest t with 2t < n.
        adversary = ComposedAdversary(
            faults=ByzantineAdversary(
                corrupted={0, 2, 4, 6},
                strategy_factory=lambda pid: strategy()),
            latency=UniformRandomDelay())
        result = run_download(
            n=9, ell=270,
            peer_factory=ByzCommitteeDownloadPeer.factory(block_size=9),
            adversary=adversary, seed=2)
        assert_download_correct(result, strategy.__name__)

    def test_per_bit_committees_paper_exact(self):
        result = run_download(
            n=7, ell=70,
            peer_factory=ByzCommitteeDownloadPeer.factory(block_size=1),
            adversary=byzantine_async_adversary(
                0.28, lambda pid: WrongBitsStrategy()), seed=3)
        assert_download_correct(result)

    def test_slow_honest_committee_members(self):
        result = run_download(
            n=9, ell=180, t=2,
            peer_factory=ByzCommitteeDownloadPeer.factory(block_size=4),
            adversary=TargetedSlowdown({1, 2}), seed=4)
        assert_download_correct(result)

    def test_seed_sweep_with_equivocation(self):
        for seed in range(5):
            result = run_download(
                n=10, ell=200,
                peer_factory=ByzCommitteeDownloadPeer.factory(block_size=10),
                adversary=byzantine_async_adversary(
                    0.3, lambda pid: EquivocateStrategy()),
                seed=seed)
            assert_download_correct(result, f"seed={seed}")


class TestComplexity:
    def test_query_complexity_matches_theorem(self):
        n, ell, t = 10, 1000, 3
        result = run_download(
            n=n, ell=ell, t=t,
            peer_factory=ByzCommitteeDownloadPeer.factory(block_size=10),
            seed=1)
        bound = committee_query_bound(ell, n, t, block_size=10)
        assert result.report.query_complexity <= bound
        # And the protocol really uses committees (queries way below ell
        # but above the fault-free ideal):
        assert result.report.query_complexity >= ell * (2 * t + 1) / n - n

    def test_block_size_does_not_change_query_complexity(self):
        def q_for(block_size):
            return run_download(
                n=8, ell=512, t=2,
                peer_factory=ByzCommitteeDownloadPeer.factory(
                    block_size=block_size),
                seed=1).report.query_complexity

        small, large = q_for(4), q_for(32)
        assert abs(small - large) <= 64  # boundary effects only

    def test_committee_grows_with_t(self):
        def q_for(t):
            return run_download(
                n=9, ell=900, t=t,
                peer_factory=ByzCommitteeDownloadPeer.factory(block_size=9),
                seed=1).report.query_complexity

        assert q_for(1) < q_for(3) < q_for(4)


class TestAcceptanceRule:
    def test_rejects_majority_configuration(self):
        # Exactly the t with 2t >= n are refused (7 of them at n=15):
        # Theorem 3.1 says nothing better than naive exists there.
        for n in (8, 15):
            refused = set()
            for t in range(n):
                try:
                    run_download(
                        n=n, ell=2 * n, t=t,
                        peer_factory=ByzCommitteeDownloadPeer.factory(),
                        seed=1)
                except ConfigurationError as error:
                    assert "2t < n" in str(error)
                    refused.add(t)
            assert refused == {t for t in range(n) if 2 * t >= n}

    def test_wrong_length_reports_ignored(self):
        from repro.adversary import ScriptedByzantinePeer
        from repro.protocols.byz_committee import CommitteeReport

        class WrongLength(ScriptedByzantinePeer):
            def body(self):
                self.inject_all(CommitteeReport(sender=self.pid, block=0,
                                                string="1"))  # too short
                return None

        adversary = ComposedAdversary(
            faults=ByzantineAdversary(
                corrupted={0, 1},
                scripted_factory=lambda pid, env: WrongLength(pid, env)),
            latency=UniformRandomDelay())
        result = run_download(
            n=7, ell=70,
            peer_factory=ByzCommitteeDownloadPeer.factory(block_size=10),
            adversary=adversary, seed=5)
        assert_download_correct(result)

    def test_non_member_reports_ignored(self):
        # A scripted attacker reports for every block, including blocks
        # whose committee it is not in; t+1 threshold must still hold.
        from repro.adversary.attacks import CommitteeForgeAttacker
        adversary = ComposedAdversary(
            faults=ByzantineAdversary(
                corrupted={3},
                scripted_factory=lambda pid, env: CommitteeForgeAttacker(
                    pid, env, block_size=10)),
            latency=UniformRandomDelay())
        result = run_download(
            n=7, ell=70,
            peer_factory=ByzCommitteeDownloadPeer.factory(block_size=10),
            adversary=adversary, seed=6)
        assert_download_correct(result)

    def test_give_up_deadline_with_honest_source_changes_nothing(self):
        result = run_download(
            n=8, ell=128, t=2,
            peer_factory=ByzCommitteeDownloadPeer.factory(
                block_size=8, give_up_time=100.0),
            adversary=byzantine_async_adversary(
                0.25, lambda pid: WrongBitsStrategy()),
            seed=7)
        assert_download_correct(result)


class _OneStreamQueryDelay(Adversary):
    """Unit message latency; the first ``n`` query answers stagger the
    peers (even pids at 0.5, odd at 1.0), every later one draws from a
    single sequential stream — so the *order* in which peers wake and
    re-query shows up in T."""

    def on_bind(self):
        self.answered = 0

    def query_latency(self, pid, now):
        self.answered += 1
        if self.answered <= self.env.n:
            return 1.0 if pid % 2 else 0.5
        return 1.0 + self.rng.random()


class TestSpanVsPerMessage:
    """A broadcast the network groups into pid spans and the same
    broadcast delivered message by message (a recording telemetry
    backend forces that) are one execution: same record, field for
    field."""

    def test_fault_free_broadcasts_become_spans(self):
        # Unit latencies: every broadcast is one span per side of the
        # sender, every tally lands on the board span-at-a-time.
        kwargs = dict(
            n=40, ell=512, t=3, seed=77,
            peer_factory=ByzCommitteeDownloadPeer.factory(block_size=64))
        spans = run_download(**kwargs)
        with using(RecordingTelemetry()):
            singles = run_download(**kwargs)
        assert full_record(spans) == full_record(singles)
        # 8 blocks x 7 committee members x 39 destinations, each one
        # counted as an event although a span queues a single one.
        assert spans.report.message_complexity == 8 * 7 * 39
        assert spans.events_processed > spans.report.message_complexity

    def test_a_scripted_attacker_still_hears_every_report(self):
        # The board owns the deliveries of the peers registered with
        # it, nobody else's: a span must split around an attacker that
        # reads honest reports from its own inbox.
        from repro.adversary import ScriptedByzantinePeer
        from repro.core.assignment import committee_for
        from repro.sim.process import WaitUntil

        class Eavesdropper(ScriptedByzantinePeer):
            def body(self):
                yield WaitUntil(lambda: False, "listening forever")

        def run():
            attackers = []

            def make(pid, env):
                attackers.append(Eavesdropper(pid, env))
                return attackers[-1]

            result = run_download(
                n=9, ell=72, t=2, seed=9,
                peer_factory=ByzCommitteeDownloadPeer.factory(block_size=8),
                adversary=ByzantineAdversary(corrupted={4},
                                             scripted_factory=make))
            assert_download_correct(result)
            return result, attackers[0].inbox

        spans, heard = run()
        with using(RecordingTelemetry()):
            singles, heard_singly = run()
        assert full_record(spans) == full_record(singles)
        assert heard == heard_singly
        # One report per honest member of each of the 9 committees.
        assert len(heard) == sum(
            len(set(committee_for(block, 5, 9)) - {4}) for block in range(9))

    @pytest.mark.parametrize("strategy", [None, WrongBitsStrategy])
    def test_the_lockstep_host_tallies_through_the_entry(self, strategy,
                                                        monkeypatch):
        # On the lockstep host every report to a registered peer goes
        # to the board's per-peer entry.  With the board owning no peer
        # the host hands them all to ``Peer.deliver`` and the handler
        # instead: the same run, field for field.
        entries = []
        deliver_one = CommitteeBoard.deliver_one

        def counting(board, message, pid):
            entries.append(pid)
            deliver_one(board, message, pid)

        monkeypatch.setattr(CommitteeBoard, "deliver_one", counting)

        def run():
            adversary = None if strategy is None else ByzantineAdversary(
                corrupted={1, 5}, strategy_factory=lambda pid: strategy())
            return run_sync_download(
                n=12, ell=96, t=3, seed=5, adversary=adversary,
                peer_factory=hosted_factory(ByzCommitteeDownloadPeer,
                                            block_size=8))

        through_entry = run()
        assert through_entry.download_correct and entries
        monkeypatch.setattr(CommitteeBoard, "owns", lambda board, pid: False)
        entries.clear()
        through_handler = run()
        assert entries == []
        assert through_entry == through_handler

    @pytest.mark.parametrize("give_up_time", [1.5, 2.0, 2.5, 50.0])
    def test_give_up_under_equivocating_source(self, give_up_time):
        """The oracle application's escape hatch, through the board: a
        feed that shows two of every three readers a private vector
        never yields t+1 matching reports, so every peer waits out the
        deadline, reads the unresolved blocks itself and terminates —
        identically on the span and the per-message path, including
        when the deadline coincides with report arrivals (1.5, 2.0)."""
        n, value_bits = 12, 8
        default = [10, 20, 30, 40, 50, 60]
        feed = EquivocatingFeed(
            0, {pid: [value + pid for value in default]
                for pid in range(n) if pid % 3},
            default, value_bits)

        def run():
            return Simulation(
                n=n, data=feed.encoded_for(0), t=2, seed=3,
                peer_factory=ByzCommitteeDownloadPeer.factory(
                    block_size=value_bits, give_up_time=give_up_time),
                source_faults=[feed.source_fault()],
                adversary=_OneStreamQueryDelay()).run()

        spans = run()
        with using(RecordingTelemetry()):
            singles = run()
        assert full_record(spans) == full_record(singles)
        assert spans.all_honest_terminated
        # Nobody finished before the deadline, and everybody paid for
        # the whole array: own committee blocks, then the leftovers.
        assert min(status.termination_time
                   for status in spans.statuses.values()) > give_up_time
        assert set(spans.report.per_peer_query_bits.values()) == {
            len(default) * value_bits}
        # Each reader ends with the vector the feed showed *it*.
        for pid, output in spans.outputs.items():
            assert output == feed.encoded_for(pid)
