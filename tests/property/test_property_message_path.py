"""The async message path, checked against what it replaced.

Each hop costs one latency hash and one heap entry; everything else on
the path was taken off it, and these properties hold that it still
computes the same thing:

- ``SplittableRNG.shuffle`` is ``random.Random.shuffle``: same draws,
  same permutation;
- a latency adversary's edge and query draws are ``derive_seed`` of
  their label scaled to 53 bits, at any label width, also after the
  adversary was pickled or copied, bound or not (its hash prefix
  states do not travel); every latency class's ``message_latency`` is
  its documented formula of that draw;
- a network that skips a composed adversary's identity hooks and calls
  its parts directly, and broadcasts in one batched loop (spans or
  not), records the events and deliveries of one that calls every hook
  through the composition and sends a broadcast destination by
  destination;
- a latency that is not a finite ``float`` leaves the direct heap push
  on every path (broadcast with and without a span sink, ``send``, a
  relay hop): NaN, infinite and negative ones raise ``ValueError``, an
  ``int`` is scheduled at ``now + float(latency)``, ``WITHHOLD`` parks
  the message;
- a blown event budget names the action that fired.
"""

import copy
import dataclasses
import pickle
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.adversary.base import Adversary
from repro.adversary.compose import ComposedAdversary
from repro.adversary.latency import (BurstyDelay, StaggeredStart,
                                     TargetedSlowdown, UniformRandomDelay)
from repro.obs.telemetry import RecordingTelemetry
from repro.sim.errors import BudgetExceeded
from repro.sim.messages import Message
from repro.sim.metrics import MetricsCollector
from repro.sim.network import WITHHOLD, Network, send_to_each
from repro.sim.peer import SimEnv
from repro.sim.process import Process, Sleep
from repro.sim.scheduler import Kernel
from repro.topology import resolve_topology
from repro.util.rng import SplittableRNG, derive_seed

COMMON = dict(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])

PEERS = 6
seeds = st.integers(min_value=0, max_value=2 ** 64 - 1)


@dataclasses.dataclass(frozen=True)
class Ping(Message):
    payload: str


class StubReceiver:
    def __init__(self, pid, kernel):
        self.pid = pid
        self.kernel = kernel
        self.received = []
        self.live = True

    def deliver(self, message):
        self.received.append((self.kernel.now, message))


class SpanSink:
    """Owns every pid's ``Ping`` deliveries, so a broadcast with
    telemetry off takes the grouped path; a span, and a lone delivery
    through the per-peer entry, land in each receiver's log as its own
    delivery would have."""

    def __init__(self, kernel, receivers):
        self.kernel = kernel
        self.receivers = receivers

    def owns(self, pid):
        return True

    def deliver_span(self, message, lo, hi):
        for receiver in self.receivers[lo:hi]:
            receiver.received.append((self.kernel.now, message))

    def deliver_one(self, message, pid):
        self.deliver_span(message, pid, pid + 1)


def bind(adversary, seed):
    env = SimEnv(kernel=None, network=None, source=None, metrics=None,
                 adversary=adversary, n=PEERS, t=0, ell=16,
                 rng=SplittableRNG(seed))
    adversary.bind(env)
    return adversary


def reference_unit(seed, label):
    return (derive_seed(seed, label) >> 11) / 2 ** 53


# -- the shuffle --------------------------------------------------------------

@settings(**COMMON)
@given(seeds, st.integers(min_value=0, max_value=70))
def test_shuffle_is_random_shuffle(seed, length):
    ours, theirs = list(range(length)), list(range(length))
    rng = SplittableRNG(seed)
    rng.shuffle(ours)
    reference = random.Random(rng.seed)
    reference.shuffle(theirs)
    assert ours == theirs
    # The same number of bits was drawn: the streams stay in step.
    assert rng.random() == reference.random()


# -- latency draws ------------------------------------------------------------

CLONES = {
    "as is": lambda adversary: adversary,
    "pickled": lambda adversary: pickle.loads(pickle.dumps(adversary)),
    "copied": copy.copy,
    "deep-copied": copy.deepcopy,
}

# Labels of every width: pids up to 10**4, cycles up to 10**3, and an
# edge repeated up to 12 times, so its counter reaches two digits.
edges = st.lists(st.tuples(st.integers(0, 10 ** 4), st.integers(0, 10 ** 4),
                           st.integers(0, 10 ** 3), st.integers(1, 12)),
                 max_size=6).map(lambda drawn: [
                     (sender, destination, cycle)
                     for sender, destination, cycle, repeats in drawn
                     for _ in range(repeats)])
queries = st.lists(st.integers(0, 10 ** 4), max_size=6).map(
    lambda pids: [pid for pid in pids for _ in range(pid % 12 + 1)])


@settings(**COMMON)
@given(seeds, st.sampled_from(sorted(CLONES)), st.booleans(), edges, edges,
       queries)
def test_draws_are_derive_seed_of_their_label(seed, clone, bind_first,
                                              before, after, asked):
    adversary = UniformRandomDelay(min_delay=0.25, max_delay=2.0)
    if bind_first:
        bind(adversary, seed)
    adversary = CLONES[clone](adversary)  # bound, or not yet
    if not bind_first:
        bind(adversary, seed)
    child = adversary.rng.seed
    counters = Counter()
    for drawn in (before, after):
        for sender, destination, cycle in drawn:
            key = (sender, destination, cycle)
            label = f"edge:{sender}:{destination}:{cycle}:{counters[key]}"
            counters[key] += 1
            assert adversary._edge_unit(sender, destination, cycle) \
                == reference_unit(child, label)
        # Mid-stream: a copy of a bound adversary continues its counters.
        adversary = CLONES[clone](adversary)
    for pid in asked:
        key = (pid, -1, 0)
        label = f"query:{pid}:{counters[key]}"
        counters[key] += 1
        assert adversary._query_unit(pid) == reference_unit(child, label)


def documented_latency(adversary, unit, sender):
    """Each latency class's docstring formula of its edge draw."""
    if isinstance(adversary, TargetedSlowdown):
        if sender in adversary.slow_peers:
            return adversary.slow_delay * (0.95 + 0.05 * unit)
        return adversary.fast_delay * (0.5 + 0.5 * unit)
    if isinstance(adversary, BurstyDelay):
        stall = adversary.stall_fraction
        if unit < stall:
            return adversary.max_delay
        return adversary._scale((unit - stall) / max(1e-12, 1.0 - stall)
                                * 0.25)
    return adversary._scale(unit)  # UniformRandomDelay, StaggeredStart


LATENCIES = {
    "uniform": lambda: UniformRandomDelay(min_delay=0.1, max_delay=1.7),
    "staggered": lambda: StaggeredStart(spread=2.0, min_delay=0.1,
                                        max_delay=1.7),
    "targeted": lambda: TargetedSlowdown({0, 3, 9999}, fast_delay=0.07,
                                         slow_delay=1.3),
    "bursty": lambda: BurstyDelay(stall_fraction=0.3, min_delay=0.1,
                                  max_delay=1.7),
}


@settings(**COMMON)
@given(seeds, st.sampled_from(sorted(LATENCIES)), edges)
def test_uniform_latency_is_the_scaled_edge_draw(seed, latency_name, drawn):
    """``message_latency`` is the class's formula of ``_edge_unit``
    (the inline draw of ``UniformRandomDelay`` and ``StaggeredStart``
    included), and ``_edge_unit`` is the documented label's hash."""
    adversary = bind(LATENCIES[latency_name](), seed)
    twin = bind(LATENCIES[latency_name](), seed)
    counters = Counter()
    for sender, destination, cycle in drawn:
        key = (sender, destination, cycle)
        label = f"edge:{sender}:{destination}:{cycle}:{counters[key]}"
        counters[key] += 1
        unit = twin._edge_unit(sender, destination, cycle)
        assert unit == reference_unit(twin.rng.seed, label)
        assert adversary.message_latency(
            sender, destination, None, 0.0, cycle) == documented_latency(
                twin, unit, sender)


# -- resolved hooks -----------------------------------------------------------

class Refuses(Adversary):
    """Overrides ``permit_send``: each sender's fourth and later sends
    are refused."""

    def __init__(self):
        super().__init__()
        self.sent = Counter()

    def permit_send(self, sender, destination, message, now):
        self.sent[sender] += 1
        return self.sent[sender] <= 3


class Rewrites(Adversary):
    """Overrides ``transform_message``: eats some messages, rewrites
    some, passes the rest through untouched."""

    def transform_message(self, sender, destination, message, now, cycle):
        if (sender + destination + cycle) % 5 == 0:
            return None
        if (sender + destination) % 3 == 0:
            return dataclasses.replace(message,
                                       payload=message.payload + "!")
        return message


class RefusesAndRewrites(Refuses, Rewrites):
    """Overrides both send-side hooks."""


FAULTS = [Adversary, Refuses, Rewrites, RefusesAndRewrites]


class CallsEveryHook(ComposedAdversary):
    """The reference: every hook through the composition's delegation,
    identity hooks included."""

    def send_hooks(self):
        return self.permit_send, self.transform_message, self.message_latency


def run_traffic(adversary_class, faults_class, latency_class, seed,
                topology, recorded, sinked, traffic):
    """Run ``traffic`` (a pair with ``sender == destination`` is a
    broadcast) and return everything observable.  The reference
    (``CallsEveryHook``) also broadcasts as one ``send`` per
    destination, the path the batched broadcast must not differ from;
    ``sinked`` registers the ``Ping`` span sink, so the batched loop
    groups spans, or leaves it out, so it pushes one entry each.
    """
    adversary = adversary_class(faults=faults_class(),
                                latency=latency_class())
    bind(adversary, seed)
    kernel = Kernel()
    network = Network(kernel, MetricsCollector(), adversary,
                      topology=topology, route_seed=seed)
    recording = RecordingTelemetry()
    if recorded:
        network.telemetry = recording
    receivers = [StubReceiver(pid, kernel) for pid in range(PEERS)]
    for receiver in receivers:
        network.attach(receiver)
    if sinked:
        network.span_sink(Ping, lambda: SpanSink(kernel, receivers))
    for number, (sender, destination, cycle) in enumerate(traffic):
        ping = Ping(sender=sender, payload=str(number))
        if sender != destination:
            network.send(sender, destination, ping, sender_cycle=cycle)
        elif adversary_class is CallsEveryHook:
            send_to_each(network, sender, PEERS, ping, cycle)
        else:
            network.broadcast(sender, PEERS, ping, sender_cycle=cycle)
    kernel.run()
    metrics = network.metrics
    return (recording.events, kernel.events_processed, kernel.now,
            [receiver.received for receiver in receivers],
            dict(metrics.messages_sent), dict(metrics.message_bits_sent))


@settings(**COMMON)
@given(seeds, st.sampled_from(FAULTS),
       st.sampled_from([UniformRandomDelay, Adversary]),
       st.sampled_from(["complete", "ring"]), st.booleans(), st.booleans(),
       st.lists(st.tuples(st.integers(0, PEERS - 1),
                          st.integers(0, PEERS - 1),
                          st.integers(0, 3)), min_size=1, max_size=10))
def test_skipped_identity_hooks_change_no_event(seed, faults_class,
                                                latency_class, topology_name,
                                                recorded, sinked, traffic):
    """With telemetry off a broadcast takes the batched loop (on the
    ring its routed destinations start their routes from it); with a
    sink on the complete graph, under unit latencies, its runs become
    spans."""
    topology = resolve_topology(topology_name, PEERS, 0)
    resolved = run_traffic(ComposedAdversary, faults_class, latency_class,
                           seed, topology, recorded, sinked, traffic)
    reference = run_traffic(CallsEveryHook, faults_class, latency_class,
                            seed, topology, recorded, sinked, traffic)
    assert resolved == reference


# -- latencies that leave the direct push ---------------------------------

class FixedLatency(Adversary):
    """Every draw is ``latency``; with ``relay_only`` a route's first
    hop (drawn from its origin) gets 0.5 and only relay hops get it."""

    def __init__(self, latency, relay_only=False):
        super().__init__()
        self.latency = latency
        self.relay_only = relay_only

    def message_latency(self, sender, destination, message, now, cycle):
        if self.relay_only and sender == message.sender:
            return 0.5
        return self.latency


PATHS = ["broadcast", "sink broadcast", "send", "relay hop"]
START = 0.25


def drive(path, latency, peers=PEERS):
    """Send one ``Ping`` from peer 0 at ``START`` along ``path`` (the
    relay hop is 0 -> 3 on the ring: two relays) and run the kernel
    without releasing anything withheld.  Returns the network, the
    receivers and the withheld count the run ended with."""
    kernel = Kernel()
    relay = path == "relay hop"
    topology = resolve_topology("ring", PEERS, 0) if relay else None
    network = Network(kernel, MetricsCollector(),
                      FixedLatency(latency, relay_only=relay),
                      topology=topology)
    receivers = [StubReceiver(pid, kernel) for pid in range(PEERS)]
    for receiver in receivers:
        network.attach(receiver)
    if path == "sink broadcast":
        network.span_sink(Ping, lambda: SpanSink(kernel, receivers))
    parked = []
    kernel.on_quiescence = lambda: parked.append(network.withheld_count)
    ping = Ping(sender=0, payload="x")
    kernel.now = START
    if path in ("broadcast", "sink broadcast"):
        network.broadcast(0, peers, ping)
    else:
        network.send(0, 3, ping)
    kernel.run()
    return network, receivers, parked[-1]


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("latency", [float("nan"), float("inf"), -1.0],
                         ids=["nan", "inf", "negative"])
def test_an_invalid_latency_raises_on_every_path(path, latency):
    with pytest.raises(ValueError, match="invalid latency"):
        drive(path, latency)


@pytest.mark.parametrize("path", PATHS)
def test_an_int_latency_is_scheduled_as_its_float(path):
    network, receivers, parked = drive(path, 2)
    if path == "relay hop":
        # 0.5 to the first relay, then 2 per relay hop.
        expected = {3: [START + 0.5 + float(2) + float(2)]}
    elif path == "send":
        expected = {3: [START + float(2)]}
    else:
        expected = {pid: [START + float(2)] for pid in range(1, PEERS)}
    delivered = {receiver.pid: [time for time, _ in receiver.received]
                 for receiver in receivers if receiver.received}
    assert delivered == expected and parked == 0
    assert network.metrics.messages_sent[0] == (
        1 if path in ("send", "relay hop") else PEERS - 1)


@pytest.mark.parametrize("path", PATHS)
def test_a_withheld_latency_parks_the_message(path):
    network, receivers, parked = drive(path, WITHHOLD)
    # A withheld relay hop parks at its relay; nothing is delivered.
    assert parked == (PEERS - 1 if "broadcast" in path else 1)
    assert not any(receiver.received for receiver in receivers)


@pytest.mark.parametrize("path", ["broadcast", "sink broadcast"])
def test_a_broadcast_to_an_unattached_peer_raises_as_send_does(path):
    with pytest.raises(ValueError, match=f"unknown destination peer {PEERS}"):
        drive(path, 1.0, peers=PEERS + 1)


@pytest.mark.parametrize("faults_class", FAULTS)
def test_identity_hooks_are_not_handed_over(faults_class):
    adversary = ComposedAdversary(faults=faults_class(),
                                  latency=UniformRandomDelay())
    permit_send, transform_message, message_latency = adversary.send_hooks()
    assert (permit_send is None) == (faults_class in (Adversary, Rewrites))
    assert (transform_message is None) == (faults_class
                                           in (Adversary, Refuses))
    # The parts' own bound methods: no delegation frame per message.
    assert message_latency.__self__ is adversary.latency
    if permit_send is not None:
        assert permit_send.__self__ is adversary.faults


# -- budgets ------------------------------------------------------------------

class Sleeper(Process):
    def body(self):
        while True:
            yield Sleep(1.0)


@settings(**COMMON)
@given(st.integers(0, PEERS - 1), st.integers(1, PEERS - 1),
       st.sampled_from(["complete", "ring"]))
def test_budget_exceeded_names_the_firing_action(sender, offset,
                                                 topology_name):
    destination = (sender + offset) % PEERS
    topology = resolve_topology(topology_name, PEERS, 0)
    kernel = Kernel()
    network = Network(kernel, MetricsCollector(), Adversary(),
                      topology=topology)
    for pid in range(PEERS):
        network.attach(StubReceiver(pid, kernel))
    network.send(sender, destination, Ping(sender=sender, payload="x"))
    with pytest.raises(BudgetExceeded) as caught:
        kernel.run(max_events=0)
    routed = topology is not None and \
        network._router.distance(sender, destination) > 1
    expected = ("_Route.arrive" if routed
                else f"Network._deliver({destination}, Ping)")
    assert expected in str(caught.value)

    kernel = Kernel()
    kernel.register(Sleeper(f"sleeper-{sender}"))
    with pytest.raises(BudgetExceeded) as caught:
        kernel.run(max_events=offset)
    assert f"Kernel._advance(sleeper-{sender})" in str(caught.value)
