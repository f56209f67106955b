"""Assemble and run one net-backend download, then clean up — always.

:func:`run_net_download` is the net analogue of
:func:`repro.sim.run_download`.  It rebuilds the *identical
experiment* the simulator would run for the same seed — the input
array from the seed's ``"input"`` RNG split, the per-endpoint source
views from the same :class:`~repro.sim.source.SourceCore`, the routes
from the same :class:`~repro.topology.Router` — then executes it over
real sockets:

1. a socket directory is created; the :class:`SourceServer` (and, for
   peer-to-peer protocols, one :class:`PeerInbox` per peer) starts on
   its upstream path;
2. a :class:`ChaosProxy` route fronts every upstream — the proxy runs
   even fault-free (with a pass-through plan), so the transport path
   under test is always the deployed one;
3. peers run as asyncio tasks in this process, all dialing proxy
   addresses; under a sparse topology each peer gets its next-hop
   table, and relays keep forwarding after their bodies finish, so the
   run ends once every body has finished and every peer is idle;
4. the whole run sits under one wall-clock deadline.  A peer that
   exhausts its retries, crashes, or outlives the deadline turns the
   run into a :class:`NetRunError` — which the execution engine's
   retry layer converts into an explicit ``failed_runs`` record.  A
   sweep can degrade; it can never hang.
5. teardown is unconditional: tasks cancelled, servers and proxy
   closed, socket files removed.

Accounting lives server-side (the source server's idempotent
request-ID ledger), so retries and proxy duplicates can never inflate
Q.  Time is wall-clock seconds — deliberately *not* comparable to the
simulator's virtual time (see docs/MODEL.md).
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.execution.retry import RetryPolicy
from repro.obs.telemetry import event
from repro.protocols.registry import get
from repro.topology import Router, resolve_topology
from repro.util.bitarrays import BitArray
from repro.util.rng import SplittableRNG, derive_seed

from repro.net.chaos import ChaosPlan
from repro.net.client import DEFAULT_NET_RETRY, NetClient
from repro.net.peers import NetPeer
from repro.net.proxy import ChaosProxy
from repro.net.server import PeerInbox, SourceServer


class NetRunError(RuntimeError):
    """The run failed as a whole: a peer died, a request exhausted its
    retries, or the wall-clock deadline passed.  The execution engine
    degrades this into a ``failed_runs`` record."""


@dataclass
class NetRunResult:
    """Everything the backend and the tests need from one net run."""

    data: BitArray
    outputs: dict[int, BitArray]
    query_bits: dict[int, int]
    queried_indices: Mapping[int, set] = field(default_factory=dict)
    queried_by_source: Mapping[tuple, set] = field(default_factory=dict)
    messages: int = 0
    retries: int = 0
    elapsed_wall: float = 0.0
    requests_served: int = 0
    proxy_counts: dict[str, int] = field(default_factory=dict)

    @property
    def query_complexity(self) -> int:
        """Max per-peer charged query bits (the paper's Q measure)."""
        return max(self.query_bits.values(), default=0)

    @property
    def total_query_bits(self) -> int:
        return sum(self.query_bits.values())

    @property
    def message_complexity(self) -> int:
        """Logical peer-to-peer sends (transport retries excluded)."""
        return self.messages

    @property
    def download_correct(self) -> bool:
        """True iff every peer output the exact input array."""
        return (len(self.outputs) > 0
                and all(output == self.data
                        for output in self.outputs.values()))

    @property
    def correct(self) -> bool:
        return self.download_correct


def run_net_download(*, n: int, ell: int, protocol: str,
                     protocol_params: Optional[dict] = None,
                     sources: int = 1, source_faults=(),
                     proxy_faults=(), topology=None, seed: int = 0,
                     retry: Optional[RetryPolicy] = None,
                     request_timeout: float = 0.5,
                     run_timeout: float = 60.0,
                     base_delay: float = 0.0,
                     withhold_delay: float = 0.2) -> NetRunResult:
    """Run one seeded download over real sockets (blocking wrapper)."""
    get(protocol)  # an unknown name fails before any socket exists
    return asyncio.run(_run(
        n=n, ell=ell, protocol=protocol,
        protocol_params=dict(protocol_params or {}),
        sources=sources, source_faults=tuple(source_faults),
        proxy_faults=tuple(proxy_faults), topology=topology,
        seed=seed,
        retry=retry if retry is not None else DEFAULT_NET_RETRY,
        request_timeout=request_timeout, run_timeout=run_timeout,
        base_delay=base_delay, withhold_delay=withhold_delay))


async def _run(*, n, ell, protocol, protocol_params, sources,
               source_faults, proxy_faults, topology, seed, retry,
               request_timeout, run_timeout, base_delay,
               withhold_delay) -> NetRunResult:
    # The experiment's inputs come from the exact RNG splits the
    # simulator uses — splits are label-addressed and stateless, so
    # data and views match the sim's bit for bit for the same seed.
    root = SplittableRNG(seed)
    data = BitArray.random(ell, root.split("input"))
    # Same construction seed as the simulator, so a random-dregular
    # graph here has the identical edge set for the identical run seed.
    topo = resolve_topology(topology, n, seed)
    plan = (ChaosPlan(proxy_faults, derive_seed(seed, "net-chaos"))
            if proxy_faults else None)
    started = time.monotonic()

    def clock() -> float:
        return time.monotonic() - started

    source = SourceServer(data, k=sources, faults=source_faults, rng=root,
                          base_delay=base_delay,
                          withhold_delay=withhold_delay)
    # Socket dir under the system tmp (Unix socket paths are length-
    # limited, so never under a deep pytest tmp_path).
    sock_dir = tempfile.mkdtemp(prefix="rnet-")
    protocol_class = get(protocol).peer_class
    proxy = ChaosProxy(plan, clock=clock)
    inboxes: dict[int, PeerInbox] = {}
    tasks: list[asyncio.Task] = []
    peers: list[NetPeer] = []
    try:
        await source.start(f"{sock_dir}/src.sock")
        await proxy.add_route(f"{sock_dir}/src-proxy.sock",
                              f"{sock_dir}/src.sock", "src")
        # Peer links: on the complete graph, one shared proxy route per
        # inbox; under a sparse topology, one proxy route PER EDGE (so
        # the chaos plan can shake individual links), each peer learns
        # only its neighbours' addresses, and its next-hop table (the
        # simulator's routes) names the neighbour a copy goes on to.
        peer_paths: dict[int, dict[int, str]] = {pid: {} for pid in range(n)}
        next_hops: dict[int, dict[int, int]] = {pid: {} for pid in range(n)}
        if protocol_class.peer_to_peer:
            for pid in range(n):
                inboxes[pid] = PeerInbox(pid)
                await inboxes[pid].start(f"{sock_dir}/p{pid}.sock")
            if topo is None:
                shared = {pid: f"{sock_dir}/p{pid}-proxy.sock"
                          for pid in range(n)}
                for pid, path in shared.items():
                    await proxy.add_route(path, f"{sock_dir}/p{pid}.sock",
                                          f"p{pid}")
                peer_paths = dict.fromkeys(range(n), shared)
            else:
                for src, dst in topo.edges():
                    for u, v in ((src, dst), (dst, src)):
                        path = f"{sock_dir}/e{u}-{v}.sock"
                        await proxy.add_route(
                            path, f"{sock_dir}/p{v}.sock", f"e{u}-{v}")
                        peer_paths[u][v] = path
                router = Router(topo, seed=derive_seed(seed, "routing"))
                next_hops = {pid: {dst: router.next_hop(pid, dst)
                                   for dst in range(n) if dst != pid}
                             for pid in range(n)}
        def factory(path, proc):
            return NetClient(path, proc=proc, retry=retry,
                             timeout=request_timeout,
                             task_seed=derive_seed(seed, proc), clock=clock)

        for pid in range(n):
            peers.append(NetPeer(
                pid, protocol_class, protocol_params,
                n=n, ell=ell, sources=sources, client_factory=factory,
                source_path=f"{sock_dir}/src-proxy.sock",
                peer_paths=peer_paths[pid], next_hop=next_hops[pid],
                inbox=inboxes.get(pid), clock=clock, seed=seed))
        tasks.extend(asyncio.ensure_future(peer.run()) for peer in peers)
        try:
            results = await asyncio.wait_for(_finish(peers, tasks),
                                             timeout=run_timeout)
        except asyncio.TimeoutError:
            raise NetRunError(f"net run exceeded its {run_timeout:g}s "
                              f"deadline with peers still unfinished")
        except Exception as exc:
            # One peer failing fails the run; name the first casualty.
            for pid, task in enumerate(tasks):
                if task.done() and task.exception() is not None:
                    failed = task.exception()
                    event("net_crash", t=clock(), proc=f"peer-{pid}",
                          error=type(failed).__name__)
                    raise NetRunError(
                        f"peer {pid} failed: "
                        f"{type(failed).__name__}: {failed}") from failed
            raise NetRunError(f"net run failed: {type(exc).__name__}: "
                              f"{exc}") from exc
        return NetRunResult(
            data=data, outputs=dict(enumerate(results)),
            query_bits=dict(source.query_bits),
            queried_indices=source.queried_indices,
            queried_by_source=source.queried_by_source,
            messages=sum(peer.messages for peer in peers),
            retries=sum(peer.retries for peer in peers),
            elapsed_wall=clock(),
            requests_served=source.requests_served,
            proxy_counts=dict(proxy.counts))
    finally:
        for task in tasks:
            if not task.done():
                task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        await asyncio.gather(*(peer.halt() for peer in peers))
        for peer in peers:
            peer.close()
        for inbox in inboxes.values():
            await inbox.close()
        await source.close()
        await proxy.close()
        shutil.rmtree(sock_dir, ignore_errors=True)


async def _finish(peers: list[NetPeer], runs: list) -> list[BitArray]:
    """Every body's output, once the run is quiescent: every body has
    finished, no peer has a query or message awaiting its answer, and
    every relay has handled every message its inbox stored — so no
    frame is left in flight to forward (exact in one event loop)."""
    outputs = await asyncio.gather(*runs)
    while not all(peer.idle for peer in peers):
        for peer in peers:
            await peer.settle()
    return outputs
