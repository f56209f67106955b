"""Differential battery: one source core under three transports.

The simulator's :class:`~repro.sim.sourceset.SourceSet`, the lockstep
:class:`~repro.sync.engine.SyncSource` and the socket server's
:meth:`~repro.net.server.SourceServer._answer` are fronts over the same
:class:`~repro.sim.source.SourceCore`.  For drawn ``(k, faults,
per-peer query sequences)`` they must report the same ledger —
``query_bits``, ``queried_indices``, ``queried_by_source``,
``requests_served`` — and, outside each front's documented withhold
rule, the same answered bits; the net server also replays a duplicate
request ID for free.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.adversary.base import Adversary
from repro.net.server import SourceServer
from repro.net.wire import indices_to_wire, run_from_wire
from repro.sim.metrics import MetricsCollector
from repro.sim.network import Network
from repro.sim.scheduler import Kernel
from repro.sim.sourceset import SourceSet
from repro.sync.engine import SyncSource
from repro.util.bitarrays import BitArray, canonical_indices
from repro.util.rng import SplittableRNG

COMMON = dict(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])

PEERS = 3
#: No ``@onset``: the three fronts have three different clocks.
FAULTS = ["honest", "wrong-bits", "wrong-bits:1", "stale:0.25",
          "withhold", "slow:2"]


class StubReceiver:
    def __init__(self, pid):
        self.pid = pid
        self.received = []
        self.live = True

    def deliver(self, message):
        self.received.append(message)


@st.composite
def workloads(draw):
    ell = draw(st.integers(min_value=4, max_value=48))
    k = draw(st.integers(min_value=1, max_value=4))
    faults = tuple(draw(st.lists(st.sampled_from(FAULTS), max_size=k)))
    position = st.integers(min_value=0, max_value=ell - 1)
    indices = st.one_of(
        st.lists(position, max_size=12),  # duplicates, any order
        st.builds(lambda lo, hi: range(min(lo, hi), max(lo, hi) + 1),
                  position, position))    # the segment-query fast path
    queries = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=PEERS - 1),
                  st.integers(min_value=0, max_value=k - 1), indices),
        min_size=1, max_size=12))
    seed = draw(st.integers(min_value=0, max_value=2 ** 32))
    return ell, k, faults, queries, seed


def ledger(source):
    return {"query_bits": dict(source.query_bits),
            "queried_indices": source.queried_indices,
            "queried_by_source": source.queried_by_source,
            "requests_served": source.requests_served}


def inputs(ell, seed):
    """The array and the view RNG every engine derives from a seed."""
    root = SplittableRNG(seed)
    return BitArray.random(ell, root.split("input")), root


def run_sim(ell, k, faults, queries, seed):
    kernel, metrics, adversary = Kernel(), MetricsCollector(), Adversary()
    network = Network(kernel, metrics, adversary)
    receivers = [StubReceiver(pid) for pid in range(PEERS)]
    for receiver in receivers:
        network.attach(receiver)
    data, root = inputs(ell, seed)
    source = SourceSet(data, metrics, network, adversary, k=k,
                       faults=faults, rng=root)
    for rid, (pid, sid, indices) in enumerate(queries):
        source.request_bits_from(sid, pid, rid, indices)
    kernel.run()  # quiescence releases what a withholding endpoint parked
    answers = {message.request_id: message.values
               for receiver in receivers for message in receiver.received}
    charged = metrics.report(honest=range(PEERS)).per_peer_query_bits
    assert all(charged[pid] == source.query_bits.get(pid, 0)
               for pid in range(PEERS))
    return source, [answers[rid] for rid in range(len(queries))]


def run_sync(ell, k, faults, queries, seed):
    data, root = inputs(ell, seed)
    source = SyncSource(data, k=k, faults=faults, rng=root)
    return source, [source.query_from(sid, pid, indices)
                    for pid, sid, indices in queries]


def run_net(ell, k, faults, queries, seed):
    data, root = inputs(ell, seed)
    source = SourceServer(data, k=k, faults=faults, rng=root)
    answers = []
    for rid, (pid, sid, indices) in enumerate(queries):
        # As NetPeer._ask puts a query on the wire: canonical indices.
        frame = {"type": "query", "rid": f"r{rid}", "peer": pid,
                 "source": sid, "indices": indices_to_wire(
                     canonical_indices(indices, ell)[0])}
        response, _ = source._answer(frame)
        assert response["resend"] == 0
        before = ledger(source)
        replay, _ = source._answer(frame)
        assert replay["resend"] == 1
        assert replay["values"] == response["values"]
        assert ledger(source) == before, "a replayed rid was charged"
        answers.append(run_from_wire(response["values"]))
    return source, answers


@settings(**COMMON)
@given(workloads())
def test_three_fronts_keep_one_ledger_and_answer_the_same_bits(workload):
    ell, k, faults, queries, _ = workload
    sim, sim_answers = run_sim(*workload)
    sync, sync_answers = run_sync(*workload)
    net, net_answers = run_net(*workload)

    # The charging rule, stated independently of the core.
    bits, by_source = {}, {}
    for pid, sid, indices in queries:
        bits[pid] = bits.get(pid, 0) + len(set(indices))
        by_source.setdefault((pid, sid), set()).update(indices)
    expected = {
        "query_bits": bits, "queried_by_source": by_source,
        "queried_indices": {
            pid: set().union(*(indices for (reader, _), indices
                               in by_source.items() if reader == pid))
            for pid in bits},
        "requests_served": len(queries)}
    assert ledger(sim) == ledger(sync) == ledger(net) == expected
    assert sim.honest_sources() == sync.honest_sources() \
        == net.honest_sources()

    # Sim and net only delay a withheld answer; lockstep has no
    # "later", so its withholding endpoints answer nothing this round.
    assert sim_answers == net_answers
    for (pid, sid, indices), sim_answer, sync_answer in zip(
            queries, sim_answers, sync_answers):
        assert set(sim_answer) == set(indices)
        if sim.faults[sid].withholding:
            assert sync_answer == {}
        else:
            assert sync_answer == sim_answer
