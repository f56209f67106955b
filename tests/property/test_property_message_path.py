"""The async message path, checked against what it replaced.

Each hop costs one latency hash and one heap entry; everything else on
the path was taken off it, and these properties hold that it still
computes the same thing:

- ``SplittableRNG.shuffle`` is ``random.Random.shuffle``: same draws,
  same permutation;
- a latency adversary's edge and query draws are ``derive_seed`` of
  their label scaled to 53 bits, also after the adversary was pickled
  or copied, bound or not (its hash prefix states do not travel);
- a network that skips a composed adversary's identity hooks and calls
  its parts directly records the events and deliveries of one that
  calls every hook through the composition and sends a broadcast
  destination by destination;
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
from repro.adversary.latency import UniformRandomDelay
from repro.obs.telemetry import RecordingTelemetry
from repro.sim.errors import BudgetExceeded
from repro.sim.messages import Message
from repro.sim.metrics import MetricsCollector
from repro.sim.network import Network, send_to_each
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
    telemetry off takes the grouped path; a span lands in each
    receiver's log as its own delivery would have."""

    def __init__(self, kernel, receivers):
        self.kernel = kernel
        self.receivers = receivers

    def owns(self, pid):
        return True

    def deliver_span(self, message, lo, hi):
        for receiver in self.receivers[lo:hi]:
            receiver.received.append((self.kernel.now, message))


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

edges = st.lists(st.tuples(st.integers(0, PEERS - 1),
                           st.integers(0, PEERS - 1),
                           st.integers(0, 3)), max_size=12)
queries = st.lists(st.integers(0, PEERS - 1), max_size=6)


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


@settings(**COMMON)
@given(seeds, edges)
def test_uniform_latency_is_the_scaled_edge_draw(seed, drawn):
    adversary = bind(UniformRandomDelay(min_delay=0.1, max_delay=1.7), seed)
    twin = bind(UniformRandomDelay(min_delay=0.1, max_delay=1.7), seed)
    for sender, destination, cycle in drawn:
        assert adversary.message_latency(
            sender, destination, None, 0.0, cycle) == twin._scale(
                twin._edge_unit(sender, destination, cycle))


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
                topology, recorded, traffic):
    """Run ``traffic`` (a pair with ``sender == destination`` is a
    broadcast) and return everything observable.  The reference
    (``CallsEveryHook``) also broadcasts as one ``send`` per
    destination, the path the grouped broadcast must not differ from.
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
       st.sampled_from(["complete", "ring"]), st.booleans(),
       st.lists(st.tuples(st.integers(0, PEERS - 1),
                          st.integers(0, PEERS - 1),
                          st.integers(0, 3)), min_size=1, max_size=10))
def test_skipped_identity_hooks_change_no_event(seed, faults_class,
                                                latency_class, topology_name,
                                                recorded, traffic):
    """With telemetry off on the complete graph a broadcast takes the
    grouped path; under unit latencies its runs become spans."""
    topology = resolve_topology(topology_name, PEERS, 0)
    resolved = run_traffic(ComposedAdversary, faults_class, latency_class,
                           seed, topology, recorded, traffic)
    reference = run_traffic(CallsEveryHook, faults_class, latency_class,
                            seed, topology, recorded, traffic)
    assert resolved == reference


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
