"""Unit tests for the network: delivery, withholding, crash-permit,
packetization, size limits, broadcast span grouping."""

from dataclasses import dataclass

import pytest

from repro.adversary.base import Adversary
from repro.obs.telemetry import RecordingTelemetry
from repro.sim.errors import ProtocolViolation
from repro.sim.messages import Message
from repro.sim.metrics import MetricsCollector
from repro.sim.network import WITHHOLD, Network
from repro.sim.scheduler import Kernel
from repro.sim.trace import TraceRecorder
from repro.topology import resolve_topology


@dataclass(frozen=True)
class Ping(Message):
    payload: str


class StubReceiver:
    def __init__(self, pid):
        self.pid = pid
        self.received = []
        self.live = True

    def deliver(self, message):
        self.received.append(message)


class WithholdingAdversary(Adversary):
    """Withholds messages from chosen senders; releases per policy."""

    def __init__(self, withhold_from=(), release_batches=None):
        super().__init__()
        self.withhold_from = set(withhold_from)
        self.release_batches = release_batches  # None = release all

    def message_latency(self, sender, destination, message, now, cycle):
        if sender in self.withhold_from:
            return WITHHOLD
        return 1.0

    def release_at_quiescence(self, withheld):
        if self.release_batches is None:
            return withheld
        if not self.release_batches:
            return []
        count = self.release_batches.pop(0)
        return withheld[:count]


def build(adversary=None, **kwargs):
    kernel = Kernel()
    metrics = MetricsCollector()
    adversary = adversary or Adversary()
    adversary_env = type("E", (), {})()  # bind() unused in these tests
    network = Network(kernel, metrics, adversary, **kwargs)
    receivers = [StubReceiver(pid) for pid in range(3)]
    for receiver in receivers:
        network.attach(receiver)
    return kernel, metrics, network, receivers


class TestBasicDelivery:
    def test_send_delivers_after_latency(self):
        kernel, _, network, receivers = build()
        network.send(0, 1, Ping(sender=0, payload="x"))
        assert receivers[1].received == []
        kernel.run()
        assert len(receivers[1].received) == 1
        assert kernel.now == 1.0

    def test_unknown_destination_raises(self):
        _, _, network, _ = build()
        with pytest.raises(ValueError, match="unknown destination"):
            network.send(0, 9, Ping(sender=0, payload="x"))

    def test_duplicate_attach_rejected(self):
        _, _, network, _ = build()
        with pytest.raises(ValueError, match="attached twice"):
            network.attach(StubReceiver(0))

    def test_delivery_to_dead_receiver_evaporates(self):
        kernel, _, network, receivers = build()
        network.send(0, 1, Ping(sender=0, payload="x"))
        receivers[1].live = False
        kernel.run()
        assert receivers[1].received == []

    def test_crashed_sender_cannot_send(self):
        kernel, metrics, network, receivers = build()
        receivers[0].live = False
        sent = network.send(0, 1, Ping(sender=0, payload="x"))
        assert not sent
        kernel.run()
        assert receivers[1].received == []

    def test_message_accounting_honest_only(self):
        kernel, metrics, network, _ = build()
        network.send(0, 1, Ping(sender=0, payload="abc"))
        network.send(0, 2, Ping(sender=0, payload="abc"), honest=False)
        assert metrics.messages_sent[0] == 1


class TestWithholding:
    def test_withheld_released_at_quiescence(self):
        adversary = WithholdingAdversary(withhold_from={0})
        kernel, _, network, receivers = build(adversary)
        network.send(0, 1, Ping(sender=0, payload="slow"))
        network.send(2, 1, Ping(sender=2, payload="fast"))
        kernel.run()
        payloads = [m.payload for m in receivers[1].received]
        assert payloads == ["fast", "slow"]

    def test_staged_release(self):
        adversary = WithholdingAdversary(withhold_from={0},
                                         release_batches=[1, 1])
        kernel, _, network, receivers = build(adversary)
        network.send(0, 1, Ping(sender=0, payload="a"))
        network.send(0, 1, Ping(sender=0, payload="b"))
        kernel.run()
        assert [m.payload for m in receivers[1].received] == ["a", "b"]

    def test_withheld_count_visible(self):
        adversary = WithholdingAdversary(withhold_from={0})
        kernel, _, network, _ = build(adversary)
        network.send(0, 1, Ping(sender=0, payload="a"))
        assert network.withheld_count == 1

    def test_release_nothing_leaves_messages_parked(self):
        adversary = WithholdingAdversary(withhold_from={0},
                                         release_batches=[])
        kernel, _, network, receivers = build(adversary)
        network.send(0, 1, Ping(sender=0, payload="a"))
        kernel.run()  # no essential processes -> clean exit
        assert receivers[1].received == []
        assert network.withheld_count == 1


class TestCrashPermit:
    class RefusingAdversary(Adversary):
        def __init__(self, allow):
            super().__init__()
            self.allow = allow

        def permit_send(self, sender, destination, message, now):
            if self.allow > 0:
                self.allow -= 1
                return True
            return False

    def test_permit_refusal_drops_message(self):
        kernel, metrics, network, receivers = build(
            self.RefusingAdversary(allow=1))
        assert network.send(0, 1, Ping(sender=0, payload="a"))
        assert not network.send(0, 2, Ping(sender=0, payload="b"))
        kernel.run()
        assert len(receivers[1].received) == 1
        assert receivers[2].received == []
        assert metrics.messages_sent[0] == 1  # refused send not charged


class TestSizeLimits:
    def test_oversized_honest_message_rejected(self):
        _, _, network, _ = build(message_size_limit=8)
        with pytest.raises(ProtocolViolation, match="limit"):
            network.send(0, 1, Ping(sender=0, payload="x" * 100))

    def test_byzantine_messages_exempt(self):
        kernel, _, network, receivers = build(message_size_limit=8)
        network.send(0, 1, Ping(sender=0, payload="x" * 100), honest=False)
        kernel.run()
        assert len(receivers[1].received) == 1

    def test_packetize_scales_latency_instead_of_rejecting(self):
        kernel, _, network, receivers = build(message_size_limit=100,
                                              packetize=True)
        big = Ping(sender=0, payload="x" * 150)  # > 2 packets with header
        network.send(0, 1, big)
        kernel.run()
        packets = -(-big.size_bits() // 100)
        assert kernel.now == pytest.approx(float(packets))

    def test_packetize_leaves_small_messages_alone(self):
        kernel, _, network, _ = build(message_size_limit=10_000,
                                      packetize=True)
        network.send(0, 1, Ping(sender=0, payload="x"))
        kernel.run()
        assert kernel.now == 1.0


class SpanSink:
    """A span sink that records what it is handed."""

    def __init__(self, unowned=()):
        self.unowned = set(unowned)
        self.spans = []

    def owns(self, pid):
        return pid not in self.unowned

    def deliver_span(self, message, lo, hi):
        self.spans.append((lo, hi))


class SteppedLatency(Adversary):
    """Latency 1.0 up to destination ``step``, 2.0 from there on."""

    def __init__(self, step):
        super().__init__()
        self.step = step

    def message_latency(self, sender, destination, message, now, cycle):
        return 1.0 if destination < self.step else 2.0


def build_wide(n=6, adversary=None, sink=None, **kwargs):
    kernel = Kernel()
    metrics = MetricsCollector()
    network = Network(kernel, metrics, adversary or Adversary(), **kwargs)
    receivers = [StubReceiver(pid) for pid in range(n)]
    for receiver in receivers:
        network.attach(receiver)
    if sink is not None:
        assert network.span_sink(Ping, lambda: sink) is sink
    return kernel, metrics, network, receivers


class TestBroadcastGrouping:
    """`Network.broadcast` alone decides whether a broadcast may be
    scheduled as pid spans; what it may never change is who gets the
    message, when, and what is charged."""

    PING = Ping(sender=0, payload="x")

    def _delivered_singly(self, receivers):
        return [receiver.pid for receiver in receivers if receiver.received]

    def test_plain_network_groups_an_equal_latency_run(self):
        sink = SpanSink()
        kernel, metrics, network, receivers = build_wide(sink=sink)
        network.broadcast(0, 6, self.PING)
        kernel.run()
        assert sink.spans == [(1, 6)]
        assert self._delivered_singly(receivers) == []
        # One queued event, five deliveries: both counted per message.
        assert kernel.events_processed == 5
        assert metrics.messages_sent[0] == 5
        assert metrics.message_bits_sent[0] == 5 * self.PING.size_bits()

    def test_the_sink_is_built_once_per_type(self):
        _, _, network, _ = build_wide()
        first = network.span_sink(Ping, SpanSink)
        assert network.span_sink(Ping, SpanSink) is first

    def test_without_a_sink_every_destination_gets_its_own_event(self):
        kernel, _, network, receivers = build_wide()
        network.broadcast(2, 6, self.PING)
        kernel.run()
        assert self._delivered_singly(receivers) == [0, 1, 3, 4, 5]
        assert kernel.events_processed == 5

    def test_the_sender_splits_the_run(self):
        sink = SpanSink()
        kernel, _, network, receivers = build_wide(sink=sink)
        network.broadcast(2, 6, self.PING)
        kernel.run()
        assert sink.spans == [(0, 2), (3, 6)]
        assert kernel.events_processed == 5

    def test_a_latency_change_splits_the_run(self):
        sink = SpanSink()
        kernel, _, network, receivers = build_wide(
            adversary=SteppedLatency(step=3), sink=sink)
        network.broadcast(0, 6, self.PING)
        kernel.run()
        assert sink.spans == [(1, 3), (3, 6)]
        assert kernel.now == 2.0

    def test_an_unowned_destination_gets_its_own_delivery(self):
        # E.g. a scripted attacker, which reads its inbox itself.
        sink = SpanSink(unowned={3})
        kernel, _, network, receivers = build_wide(sink=sink)
        network.broadcast(0, 6, self.PING)
        kernel.run()
        assert sink.spans == [(1, 3), (4, 6)]
        assert self._delivered_singly(receivers) == [3]
        assert kernel.events_processed == 5

    def test_a_lone_destination_is_delivered_not_spanned(self):
        sink = SpanSink()
        kernel, _, network, receivers = build_wide(
            adversary=SteppedLatency(step=5), sink=sink)
        network.broadcast(0, 6, self.PING)
        kernel.run()
        assert sink.spans == [(1, 5)]
        assert self._delivered_singly(receivers) == [5]

    def test_withheld_destinations_are_parked_one_by_one(self):
        sink = SpanSink()
        kernel, _, network, receivers = build_wide(
            adversary=WithholdingAdversary(withhold_from={0}), sink=sink)
        network.broadcast(0, 6, self.PING)
        assert network.withheld_count == 5
        kernel.run()
        assert sink.spans == []
        assert self._delivered_singly(receivers) == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("attr,value", [
        ("telemetry", RecordingTelemetry()), ("trace", TraceRecorder()),
        ("fifo", True), ("message_size_limit", 10_000)])
    def test_per_delivery_features_disable_grouping(self, attr, value):
        sink = SpanSink()
        kernel, _, network, receivers = build_wide(sink=sink)
        setattr(network, attr, value)
        network.broadcast(0, 6, self.PING)
        kernel.run()
        assert sink.spans == []
        assert self._delivered_singly(receivers) == [1, 2, 3, 4, 5]

    def test_a_routed_topology_is_never_grouped(self):
        sink = SpanSink()
        kernel, _, network, receivers = build_wide(
            sink=sink, topology=resolve_topology("ring", 6, 0))
        network.broadcast(0, 6, self.PING)
        kernel.run()
        assert sink.spans == []
        assert self._delivered_singly(receivers) == [1, 2, 3, 4, 5]

    def test_a_corrupting_proxy_sends_destination_by_destination(self):
        # A Byzantine sender's broadcasts go through its strategy one
        # destination at a time and never reach the span path.
        from repro.adversary.byzantine import (SelectiveSilenceStrategy,
                                               _CorruptingNetworkProxy)
        sink = SpanSink()
        kernel, metrics, network, receivers = build_wide(sink=sink)
        proxy = _CorruptingNetworkProxy(
            network, SelectiveSilenceStrategy(serve_below=3), pid=0)
        assert proxy.span_sink(Ping, SpanSink) is sink
        proxy.broadcast(0, 6, self.PING)
        kernel.run()
        assert sink.spans == []
        assert self._delivered_singly(receivers) == [1, 2]
        assert metrics.messages_sent[0] == 0  # Byzantine: uncharged
