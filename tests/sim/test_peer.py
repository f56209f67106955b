"""Unit tests for the Peer API and MessageLog."""

from dataclasses import dataclass

import pytest

from repro.sim import Simulation
from repro.sim.messages import Message
from repro.sim.peer import MessageLog, Peer


@dataclass(frozen=True)
class Note(Message):
    text: str


@dataclass(frozen=True)
class Other(Message):
    number: int


class TestMessageLog:
    def test_of_type_filters(self):
        log = MessageLog()
        log.add(Note(sender=0, text="a"))
        log.add(Other(sender=1, number=2))
        assert len(log.of_type(Note)) == 1
        assert len(log.of_type(Other)) == 1
        assert len(log) == 2

    def test_predicate_filter(self):
        log = MessageLog()
        log.add(Note(sender=0, text="a"))
        log.add(Note(sender=1, text="b"))
        assert log.count(Note, lambda m: m.text == "b") == 1

    def test_senders_deduplicated(self):
        log = MessageLog()
        log.add(Note(sender=0, text="a"))
        log.add(Note(sender=0, text="b"))
        log.add(Note(sender=2, text="a"))
        assert log.senders(Note) == {0, 2}

    def test_all_preserves_order(self):
        log = MessageLog()
        log.add(Note(sender=0, text="first"))
        log.add(Other(sender=1, number=1))
        log.add(Note(sender=2, text="second"))
        assert [type(m).__name__ for m in log.all()] == \
               ["Note", "Other", "Note"]

    def test_empty_log(self):
        log = MessageLog()
        assert log.of_type(Note) == []
        assert log.senders(Note) == set()
        assert log.count(Note) == 0


class EchoPeer(Peer):
    """Queries two bits, pings everyone, waits for all pings, finishes."""

    def body(self):
        self.begin_cycle()
        values = yield from self.query_bits([0, 1])
        self.learned = values
        self.broadcast(Note(sender=self.pid, text=f"hi-{self.pid}"))
        yield self.wait_for_messages(Note, self.n - 1)
        from repro.util.bitarrays import BitArray
        self.finish(BitArray.from_bits(
            [values[0], values[1]] + [0] * (self.ell - 2)))


class TestPeerBehaviour:
    def run_sim(self, n=4):
        sim = Simulation(n=n, data="1100", peer_factory=EchoPeer, seed=1)
        return sim.run()

    def test_query_bits_returns_values(self):
        result = self.run_sim()
        assert result.outputs[0][0] == 1
        assert result.outputs[0][1] == 1

    def test_broadcast_reaches_everyone_but_self(self):
        result = self.run_sim()
        assert result.report.message_complexity == 4 * 3

    def test_all_peers_terminate(self):
        result = self.run_sim()
        assert result.all_honest_terminated

    def test_cycle_counter_reported_to_adversary(self):
        calls = []

        from repro.adversary.base import Adversary

        class Watcher(Adversary):
            def on_cycle_start(self, pid, cycle, now):
                calls.append((pid, cycle))

        sim = Simulation(n=3, data="1100", peer_factory=EchoPeer,
                         adversary=Watcher(), seed=1)
        sim.run()
        assert (0, 1) in calls and (2, 1) in calls

    def test_empty_query_returns_immediately(self):
        class NoQuery(Peer):
            def body(self):
                values = yield from self.query_bits([])
                assert values == {}
                from repro.util.bitarrays import BitArray
                self.finish(BitArray.zeros(self.ell))

        sim = Simulation(n=2, data="10", peer_factory=NoQuery, seed=1)
        result = sim.run()
        assert result.report.query_complexity == 0

    def test_empty_start_query_answers_an_empty_run(self):
        # ``take_response`` is typed BitRun, and ``learn_many`` and the
        # vote tallies accept only runs.
        from repro.util.bitarrays import BitArray, BitRun
        taken = {}

        class Starter(Peer):
            def body(self):
                request = self.start_query([])
                assert self.response_ready(request)
                taken[self.pid] = self.take_response(request)
                self.finish(BitArray.zeros(self.ell))
                return
                yield  # pragma: no cover

        result = Simulation(n=2, data="10", peer_factory=Starter,
                            seed=1).run()
        assert result.report.query_complexity == 0
        assert [type(run) for run in taken.values()] == [BitRun, BitRun]
        assert all(len(run) == 0 for run in taken.values())

    def test_query_segment_returns_string(self):
        seen = {}

        class SegmentReader(Peer):
            def body(self):
                string = yield from self.query_segment(1, 4)
                seen[self.pid] = string
                from repro.util.bitarrays import BitArray
                self.finish(BitArray.zeros(self.ell))

        Simulation(n=2, data="10110", peer_factory=SegmentReader,
                   seed=1).run()
        assert seen[0] == "011"

    def test_others_excludes_self(self):
        class Probe(Peer):
            def body(self):
                assert self.pid not in self.others
                assert len(self.others) == self.n - 1
                from repro.util.bitarrays import BitArray
                self.finish(BitArray.zeros(self.ell))
                return
                yield  # pragma: no cover

        Simulation(n=3, data="101", peer_factory=Probe, seed=1).run()

    def test_on_message_handler_runs_at_delivery(self):
        deliveries = []

        class Handler(Peer):
            def __init__(self, pid, env):
                super().__init__(pid, env)
                self.on_message(Note, lambda m: deliveries.append(
                    (self.pid, m.sender)))

            def body(self):
                self.broadcast(Note(sender=self.pid, text="x"))
                yield self.wait_for_messages(Note, self.n - 1)
                from repro.util.bitarrays import BitArray
                self.finish(BitArray.zeros(self.ell))

        Simulation(n=3, data="101", peer_factory=Handler, seed=1).run()
        assert len(deliveries) == 6  # each of 3 peers hears 2 others
