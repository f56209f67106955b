"""A finished run is not cyclic garbage.

Kernel, network and peers reference each other in rings (cached
resumption closures, the receiver table, the quiescence hook, wait
predicates, suspended bodies).  ``Simulation.run`` cuts those rings on
the way out — also when the run raises — so dropping the simulation
and its result frees every peer by reference counting alone.  With the
cycle collector switched off, a dead weak reference proves exactly
that.
"""

import gc
import pickle
import weakref

import pytest

from repro.adversary import UniformRandomDelay
from repro.protocols import BalancedDownloadPeer
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
        n=N, ell=256, seed=5, topology=topology, trace=True,
        adversary=UniformRandomDelay(),
        peer_factory=watched(factory or BalancedDownloadPeer.factory(),
                             refs))


@pytest.mark.parametrize("topology", [None, "ring"])
def test_peers_die_with_the_last_reference(topology):
    refs = []
    sim = simulation(refs, topology=topology)
    result = sim.run()
    # The result keeps everything it exposes...
    assert result.download_correct
    assert sorted(result.outputs) == sorted(result.statuses) == \
        list(range(N))
    assert result.report.message_complexity > 0
    assert result.trace.select("deliver")
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
