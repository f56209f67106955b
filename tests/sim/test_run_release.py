"""A finished run is not cyclic garbage.

Kernel, network and peers reference each other in rings (cached
resumption closures, the receiver table, the quiescence hook, wait
predicates, suspended bodies).  ``Simulation.run`` cuts those rings on
the way out — also when the run raises — so dropping the simulation
and its result frees every peer by reference counting alone.  With the
cycle collector switched off, a dead weak reference proves exactly
that.  The lockstep and socket hosts end their runs the same way: once
a run of theirs is dropped, the collector finds nothing at all, and a
socket server that hangs up on a malformed frame leaves nothing either.
"""

import asyncio
import gc
import pickle
import socket
import struct
import tempfile
import weakref

import pytest

from repro.adversary import UniformRandomDelay
from repro.experiments import ExperimentSpec
from repro.experiments.runner import execute_repeat
from repro.experiments.spec import ADVERSARIES, OWN_LATENCY
from repro.net import PeerInbox
from repro.obs.telemetry import RecordingTelemetry, using
from repro.protocols import BalancedDownloadPeer, registry
from repro.sim import Simulation
from repro.sim.errors import BudgetExceeded, DeadlockError
from repro.sim.peer import Peer

N = 16


@pytest.fixture(autouse=True)
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class StuckPeer(Peer):
    """Broadcasts, then waits for a message nobody sends."""

    def body(self):
        yield self.wait_until(lambda: len(self.inbox) > self.n, "never")


def watched(factory, refs):
    """``factory``, with a weak reference to each peer (and its inbox)
    appended to ``refs``."""
    def build(pid, env):
        peer = factory(pid, env)
        refs.append(weakref.ref(peer))
        refs.append(weakref.ref(peer.inbox))
        return peer
    return build


def simulation(refs, *, factory=None, topology=None):
    return Simulation(
        n=N, ell=256, seed=5, topology=topology,
        adversary=UniformRandomDelay(),
        peer_factory=watched(factory or BalancedDownloadPeer.factory(),
                             refs))


@pytest.mark.parametrize("topology", [None, "ring"])
def test_peers_die_with_the_last_reference(topology):
    refs = []
    sim = simulation(refs, topology=topology)
    with using(RecordingTelemetry()) as recording:
        result = sim.run()
    # The result and the recording keep everything they expose...
    assert result.download_correct
    assert sorted(result.outputs) == sorted(result.statuses) == \
        list(range(N))
    assert result.report.message_complexity > 0
    assert recording.events_of("deliver")
    assert all(result.queried_indices[pid] for pid in range(N))
    # ... and none of it is a peer.
    del sim
    assert len(refs) == 2 * N and not any(ref() for ref in refs)
    del result


@pytest.mark.parametrize("topology", [None, "ring"])
def test_peers_die_after_a_deadlock(topology):
    refs = []
    sim = simulation(refs, factory=StuckPeer, topology=topology)
    with pytest.raises(DeadlockError, match="peer-0: never") as caught:
        sim.run()
    # Unchanged on its way through the unlink, and still picklable
    # (pool workers ship it to the parent).
    clone = pickle.loads(pickle.dumps(caught.value))
    assert str(clone) == str(caught.value)
    assert len(clone.waiting) == N
    del sim, caught
    assert len(refs) == 2 * N and not any(ref() for ref in refs)


@pytest.mark.parametrize("topology", [None, "ring"])
def test_peers_die_after_a_blown_budget(topology):
    refs = []
    sim = simulation(refs, topology=topology)
    with pytest.raises(BudgetExceeded, match="event budget 40") as caught:
        sim.run(max_events=40)  # deliveries still queued when it stops
    del sim, caught
    assert len(refs) == 2 * N and not any(ref() for ref in refs)


def spec_garbage(spec) -> int:
    """Objects the cyclic collector finds once one repeat of ``spec``
    has run and its record is dropped.  The same repeat runs once
    before: a process's first run may import modules (the socket
    host's event loop loads ``ssl``), whose class construction leaves
    garbage that is not the run's."""
    execute_repeat(spec, 0)
    gc.collect()
    execute_repeat(spec, 0)
    return gc.collect()


@pytest.mark.parametrize(
    "protocol", [entry.name for entry in registry.all_protocols()])
def test_a_lockstep_run_leaves_no_cyclic_garbage(protocol):
    # Byzantine-tolerant bodies run against the table's wrong-bits
    # liars, crash-tolerant ones under its crash plan.
    entry = registry.get(protocol)
    fault_model = ("byzantine" if entry.max_byzantine_fraction > 0 else
                   "crash" if entry.max_crash_fraction > 0 else "none")
    spec = ExperimentSpec(protocol, 8, 256, network="synchronous",
                          backend="sync", fault_model=fault_model,
                          beta=0.25 if fault_model != "none" else 0.0)
    assert spec_garbage(spec) == 0


@pytest.mark.parametrize("strategy", sorted(
    name for model, name in ADVERSARIES
    if model == "byzantine" and name not in OWN_LATENCY))
def test_a_lockstep_run_against_each_liar_leaves_no_cyclic_garbage(
        strategy):
    # A corrupted peer is a hosted body too: the strategy's proxy over
    # the host's ports, or a scripted attacker.
    spec = ExperimentSpec("byz-committee", 8, 256, network="synchronous",
                          backend="sync", fault_model="byzantine",
                          strategy=strategy, beta=0.25)
    assert spec_garbage(spec) == 0


@pytest.mark.parametrize("protocol, params, proxy_faults", [
    ("balanced", {}, ()), ("cross-validate", {}, ()),
    # Point-to-point sends.
    ("crash-multi", {}, ()),
    # A per-peer CommitteeBoard (block size 1 would be 1 792 frames).
    ("byz-committee", {"block_size": 16}, ()),
    # Requests that fail and are retried.
    ("balanced", {}, ("disconnect:0.2",))],
    ids=["balanced", "cross-validate", "crash-multi", "byz-committee",
         "balanced-disconnect"])
def test_a_socket_run_leaves_no_cyclic_garbage(protocol, params,
                                               proxy_faults):
    spec = ExperimentSpec(protocol, 8, 256, backend="net",
                          sources=3 if protocol == "cross-validate" else 1,
                          protocol_params=params, proxy_faults=proxy_faults)
    assert spec_garbage(spec) == 0


def test_malformed_frames_leave_no_cyclic_garbage():
    async def send_garbage():
        loop = asyncio.get_running_loop()
        with tempfile.TemporaryDirectory(prefix="rnet-") as sockets:
            inbox = PeerInbox(0)
            await inbox.start(f"{sockets}/inbox.sock")
            try:
                for _ in range(3):
                    with socket.socket(socket.AF_UNIX) as sock:
                        sock.setblocking(False)
                        await loop.sock_connect(sock,
                                                f"{sockets}/inbox.sock")
                        await loop.sock_sendall(
                            sock, struct.pack(">I", 9) + b"not json!")
                        # The inbox hangs up without an answer.
                        assert await loop.sock_recv(sock, 1) == b""
            finally:
                await inbox.close()

    asyncio.run(send_garbage())  # the first run may import modules
    gc.collect()
    asyncio.run(send_garbage())
    assert gc.collect() == 0


def test_a_routed_socket_run_leaves_no_cyclic_garbage():
    # Relays that outlive their bodies: the hub of a star forwards
    # leaf-to-leaf copies after its own body has finished.
    spec = ExperimentSpec("crash-multi", 8, 256, backend="net",
                          topology="star")
    assert spec_garbage(spec) == 0
