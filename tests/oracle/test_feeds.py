"""Tests for oracle feeds and the honest range."""

import pytest

from repro.oracle.feeds import (
    CorruptFeed,
    EquivocatingFeed,
    HonestFeed,
    honest_range,
    in_honest_range,
)
from repro.util.rng import SplittableRNG


class TestHonestFeed:
    def test_zero_noise_reports_truth(self):
        feed = HonestFeed(0, [100, 200], value_bits=16, noise_bound=0)
        assert feed.values_for(0) == [100, 200]

    def test_noise_bounded(self):
        feed = HonestFeed(0, [100] * 50, value_bits=16, noise_bound=3,
                          rng=SplittableRNG(1))
        assert all(97 <= value <= 103 for value in feed.values_for(0))

    def test_same_answer_for_every_reader(self):
        feed = HonestFeed(0, [100], value_bits=16, noise_bound=5,
                          rng=SplittableRNG(2))
        assert feed.read(0, 0) == feed.read(7, 0)

    def test_noise_clamped_to_value_range(self):
        feed = HonestFeed(0, [0, 15], value_bits=4, noise_bound=5,
                          rng=SplittableRNG(3))
        assert all(0 <= value <= 15 for value in feed.values_for(0))

    def test_encoded_round_trips(self):
        from repro.oracle.numeric import decode_values
        feed = HonestFeed(0, [7, 9], value_bits=8, noise_bound=0)
        assert decode_values(feed.encoded_for(0), 8) == [7, 9]

    def test_source_fault_keeps_the_honest_flag(self):
        fault = HonestFeed(0, [1], value_bits=4).source_fault()
        assert fault.honest
        assert not CorruptFeed(1, [9], value_bits=4).source_fault().honest


class TestByzantineFeeds:
    def test_corrupt_feed_lies_consistently(self):
        feed = CorruptFeed(1, [9999], value_bits=16)
        assert feed.read(0, 0) == feed.read(5, 0) == 9999
        assert not feed.honest

    def test_equivocating_feed_lies_per_reader(self):
        feed = EquivocatingFeed(2, per_reader={0: [1], 1: [2]},
                                default=[3], value_bits=4)
        assert feed.read(0, 0) == 1
        assert feed.read(1, 0) == 2
        assert feed.read(9, 0) == 3

    def test_equivocating_source_fault_answers_per_reader(self):
        from repro.protocols import NaiveDownloadPeer
        from repro.sim import Simulation
        feed = EquivocatingFeed(2, per_reader={0: [5], 1: [10]},
                                default=[3], value_bits=8)
        result = Simulation(
            n=2, data=feed.encoded_for(0),
            peer_factory=NaiveDownloadPeer.factory(),
            source_faults=[feed.source_fault()], seed=1).run()
        from repro.oracle.numeric import decode_values
        assert decode_values(result.outputs[0], 8) == [5]
        assert decode_values(result.outputs[1], 8) == [10]

    def test_equivocating_source_still_charges_queries(self):
        from repro.protocols import NaiveDownloadPeer
        from repro.sim import Simulation
        feed = EquivocatingFeed(2, per_reader={0: [5]},
                                default=[3], value_bits=8)
        sources = []
        make_peer = NaiveDownloadPeer.factory()

        def capture(pid, env):
            sources.append(env.source)
            return make_peer(pid, env)

        result = Simulation(
            n=2, data=feed.encoded_for(0), peer_factory=capture,
            source_faults=[feed.source_fault()], seed=1).run()
        assert result.report.query_complexity == 8
        # The reader the feed lies to is served (and counted) like the
        # one it does not lie to.
        assert sources[0].requests_served == 2
        assert result.queried_indices == {0: set(range(8)),
                                          1: set(range(8))}


class TestHonestRange:
    def feeds(self):
        return [HonestFeed(0, [10], value_bits=16, noise_bound=0),
                HonestFeed(1, [14], value_bits=16, noise_bound=0),
                CorruptFeed(2, [9999], value_bits=16)]

    def test_range_over_honest_only(self):
        assert honest_range(self.feeds(), 0) == (10, 14)

    def test_membership(self):
        feeds = self.feeds()
        assert in_honest_range(feeds, 0, 12)
        assert in_honest_range(feeds, 0, 10)
        assert not in_honest_range(feeds, 0, 9)
        assert not in_honest_range(feeds, 0, 9999)

    def test_no_honest_feeds_rejected(self):
        with pytest.raises(ValueError, match="no honest feeds"):
            honest_range([CorruptFeed(0, [1], value_bits=4)], 0)
