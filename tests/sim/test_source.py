"""Unit tests for the external data source (one honest endpoint)."""

import pytest

from repro.adversary.base import Adversary
from repro.sim.messages import SOURCE_ID, SourceResponse
from repro.sim.metrics import MetricsCollector
from repro.sim.network import Network
from repro.sim.scheduler import Kernel
from repro.sim.sourceset import SourceSet
from repro.util.bitarrays import BitArray


class StubReceiver:
    def __init__(self, pid):
        self.pid = pid
        self.received = []
        self.live = True

    def deliver(self, message):
        self.received.append(message)


def build(bits="10110100"):
    kernel = Kernel()
    metrics = MetricsCollector()
    adversary = Adversary()
    network = Network(kernel, metrics, adversary)
    receiver = StubReceiver(0)
    network.attach(receiver)
    source = SourceSet(BitArray.from_string(bits), metrics, network,
                       adversary)
    return kernel, metrics, source, receiver


class TestQueries:
    def test_response_carries_requested_bits(self):
        kernel, _, source, receiver = build("10110100")
        source.request_bits(0, 1, [0, 2, 5])
        kernel.run()
        (response,) = receiver.received
        assert isinstance(response, SourceResponse)
        assert response.sender == SOURCE_ID
        assert response.values == {0: 1, 2: 1, 5: 1}

    def test_duplicates_collapsed_and_charged_once(self):
        kernel, metrics, source, _ = build()
        source.request_bits(0, 1, [3, 3, 3])
        assert metrics.report(honest=[0]).per_peer_query_bits[0] == 1

    def test_requery_across_requests_charged_again(self):
        kernel, metrics, source, _ = build()
        source.request_bits(0, 1, [3])
        source.request_bits(0, 2, [3])
        assert metrics.report(honest=[0]).per_peer_query_bits[0] == 2

    def test_charged_at_request_time_not_delivery(self):
        kernel, metrics, source, receiver = build()
        source.request_bits(0, 1, [0, 1])
        assert metrics.report(honest=[0]).per_peer_query_bits[0] == 2
        assert receiver.received == []

    def test_segment_request(self):
        kernel, metrics, source, receiver = build("10110100")
        source.request_segment(0, 7, 2, 6)
        kernel.run()
        (response,) = receiver.received
        assert response.values == {2: 1, 3: 1, 4: 0, 5: 1}
        assert metrics.report(honest=[0]).per_peer_query_bits[0] == 4

    def test_out_of_range_index_rejected(self):
        _, _, source, _ = build("1010")
        with pytest.raises(ValueError):
            source.request_bits(0, 1, [4])

    def test_queried_index_log(self):
        kernel, _, source, _ = build()
        source.request_bits(0, 1, [1, 2])
        source.request_bits(0, 2, [5])
        assert source.queried_indices[0] == {1, 2, 5}

    def test_requests_served_counter(self):
        kernel, _, source, _ = build()
        source.request_bits(0, 1, [1])
        source.request_bits(0, 2, [2])
        assert source.requests_served == 2


class TestHelpers:
    def test_peek_does_not_charge(self):
        _, metrics, source, _ = build("01")
        assert source.peek(1) == 1
        assert metrics.report(honest=[0]).per_peer_query_bits[0] == 0

    def test_peek_segment(self):
        _, _, source, _ = build("0110")
        assert source.peek_segment(1, 3) == "11"

    def test_len(self):
        _, _, source, _ = build("0110")
        assert len(source) == 4
