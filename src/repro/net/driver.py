"""Assemble and run one net-backend download, then clean up — always.

:func:`run_net_download` is the net analogue of
:func:`repro.sim.run_download`.  It rebuilds the *identical
experiment* the simulator would run for the same seed — the input
array from the seed's ``"input"`` RNG split, the per-endpoint source
views from the same :class:`~repro.sim.source.SourceCore` — then
executes it over real sockets:

1. a socket directory is created; the :class:`SourceServer` (and, for
   peer-to-peer protocols, one :class:`PeerInbox` per peer) starts on
   its upstream path;
2. a :class:`ChaosProxy` route fronts every upstream — the proxy runs
   even fault-free (with a pass-through plan), so the transport path
   under test is always the deployed one;
3. peers run as asyncio tasks (``mode="task"``, the default) or as
   spawned worker processes (``mode="process"``,
   ``python -m repro.net.worker``), all dialing proxy addresses;
4. the whole run sits under one wall-clock deadline.  A peer that
   exhausts its retries, crashes, or outlives the deadline turns the
   run into a :class:`NetRunError` — which the execution engine's
   retry layer converts into an explicit ``failed_runs`` record.  A
   sweep can degrade; it can never hang.
5. teardown is unconditional: tasks cancelled, servers and proxy
   closed, worker children reaped (SIGTERM, then SIGKILL after a
   grace period), socket files removed.

Accounting lives server-side (the source server's idempotent
request-ID ledger), so retries and proxy duplicates can never inflate
Q.  Time is wall-clock seconds — deliberately *not* comparable to the
simulator's virtual time (see docs/MODEL.md).
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.execution.retry import RetryPolicy
from repro.obs.telemetry import event
from repro.protocols.registry import get
from repro.topology import resolve_topology
from repro.util.bitarrays import BitArray
from repro.util.rng import SplittableRNG, derive_seed

from repro.net.chaos import ChaosPlan
from repro.net.client import DEFAULT_NET_RETRY, NetClient
from repro.net.peers import NetPeer
from repro.net.proxy import ChaosProxy
from repro.net.server import PeerInbox, SourceServer

#: Grace period between SIGTERM and SIGKILL when reaping workers.
_REAP_GRACE = 2.0

NET_MODES = ("task", "process")


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
    mode: str = "task"

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
                     mode: str = "task",
                     retry: Optional[RetryPolicy] = None,
                     request_timeout: float = 0.5,
                     run_timeout: float = 60.0,
                     base_delay: float = 0.0,
                     withhold_delay: float = 0.2) -> NetRunResult:
    """Run one seeded download over real sockets (blocking wrapper)."""
    if mode not in NET_MODES:
        raise ValueError(f"mode must be one of {NET_MODES}, got {mode!r}")
    get(protocol)  # an unknown name fails before any socket exists
    return asyncio.run(_run(
        n=n, ell=ell, protocol=protocol,
        protocol_params=dict(protocol_params or {}),
        sources=sources, source_faults=tuple(source_faults),
        proxy_faults=tuple(proxy_faults), topology=topology,
        seed=seed, mode=mode,
        retry=retry if retry is not None else DEFAULT_NET_RETRY,
        request_timeout=request_timeout, run_timeout=run_timeout,
        base_delay=base_delay, withhold_delay=withhold_delay))


async def _run(*, n, ell, protocol, protocol_params, sources,
               source_faults, proxy_faults, topology, seed, mode,
               retry, request_timeout, run_timeout, base_delay,
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
    needs_inboxes = get(protocol).peer_class.peer_to_peer
    proxy = ChaosProxy(plan, clock=clock)
    inboxes: dict[int, PeerInbox] = {}
    procs: list[asyncio.subprocess.Process] = []
    tasks: list[asyncio.Task] = []
    peers: list = []
    try:
        await source.start(f"{sock_dir}/src.sock")
        await proxy.add_route(f"{sock_dir}/src-proxy.sock",
                              f"{sock_dir}/src.sock", "src")
        # Peer links: on the complete graph, one shared proxy route per
        # inbox; under a sparse topology, one proxy route PER EDGE (so
        # the chaos plan can shake individual links) and each peer only
        # ever learns its neighbours' addresses.
        paths_for: dict[int, dict[int, str]] = {pid: {} for pid in range(n)}
        neighbors_for: dict[int, Optional[list[int]]] = dict.fromkeys(
            range(n))
        if needs_inboxes and topo is None:
            peer_paths = {}
            for pid in range(n):
                await proxy.add_route(f"{sock_dir}/p{pid}-proxy.sock",
                                      f"{sock_dir}/p{pid}.sock", f"p{pid}")
                peer_paths[pid] = f"{sock_dir}/p{pid}-proxy.sock"
            paths_for = dict.fromkeys(range(n), peer_paths)
        elif needs_inboxes:
            for pid in range(n):
                neighbors_for[pid] = list(topo.neighbors(pid))
            for src, dst in topo.edges():
                for u, v in ((src, dst), (dst, src)):
                    path = f"{sock_dir}/e{u}-{v}.sock"
                    await proxy.add_route(path, f"{sock_dir}/p{v}.sock",
                                          f"e{u}-{v}")
                    paths_for[u][v] = path
        if mode == "task":
            outputs, messages, retries = await _run_tasks(
                n=n, ell=ell, protocol=protocol,
                protocol_params=protocol_params, sources=sources,
                sock_dir=sock_dir, paths_for=paths_for,
                neighbors_for=neighbors_for,
                needs_inboxes=needs_inboxes, inboxes=inboxes,
                retry=retry, request_timeout=request_timeout,
                run_timeout=run_timeout, seed=seed, clock=clock,
                tasks=tasks, peers=peers)
        else:
            outputs, messages, retries = await _run_processes(
                n=n, ell=ell, protocol=protocol,
                protocol_params=protocol_params, sources=sources,
                sock_dir=sock_dir, paths_for=paths_for,
                neighbors_for=neighbors_for,
                needs_inboxes=needs_inboxes, retry=retry,
                request_timeout=request_timeout,
                run_timeout=run_timeout, seed=seed, clock=clock,
                procs=procs)
        return NetRunResult(
            data=data, outputs=outputs,
            query_bits=dict(source.query_bits),
            queried_indices=source.queried_indices,
            queried_by_source=source.queried_by_source,
            messages=messages, retries=retries,
            elapsed_wall=clock(),
            requests_served=source.requests_served,
            proxy_counts=dict(proxy.counts), mode=mode)
    finally:
        for task in tasks:
            if not task.done():
                task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        for peer in peers:
            peer.close()
        for inbox in inboxes.values():
            await inbox.close()
        await source.close()
        await proxy.close()
        await _reap(procs)
        shutil.rmtree(sock_dir, ignore_errors=True)


async def _run_tasks(*, n, ell, protocol, protocol_params, sources,
                     sock_dir, paths_for, neighbors_for,
                     needs_inboxes, inboxes,
                     retry, request_timeout, run_timeout, seed, clock,
                     tasks, peers) -> tuple[dict, int, int]:
    """Peers as asyncio tasks in this process."""
    if needs_inboxes:
        for pid in range(n):
            inbox = PeerInbox(pid)
            await inbox.start(f"{sock_dir}/p{pid}.sock")
            inboxes[pid] = inbox
    protocol_class = get(protocol).peer_class
    for pid in range(n):
        def factory(path, proc, _pid=pid):
            return NetClient(path, proc=proc, retry=retry,
                             timeout=request_timeout,
                             task_seed=derive_seed(seed, proc),
                             clock=clock)
        peers.append(NetPeer(
            pid, protocol_class, protocol_params,
            n=n, ell=ell, sources=sources,
            client_factory=factory,
            source_path=f"{sock_dir}/src-proxy.sock",
            peer_paths=paths_for.get(pid), inbox=inboxes.get(pid),
            neighbors=neighbors_for.get(pid), clock=clock, seed=seed))
    tasks.extend(asyncio.ensure_future(peer.run()) for peer in peers)
    try:
        results = await asyncio.wait_for(asyncio.gather(*tasks),
                                         timeout=run_timeout)
    except asyncio.TimeoutError:
        raise NetRunError(f"net run exceeded its {run_timeout:g}s "
                          f"deadline with peers still unfinished")
    except NetRunError:
        raise
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
        raise NetRunError(f"net run failed: {exc}") from exc
    outputs = {pid: output for pid, output in enumerate(results)}
    messages = sum(peer.messages for peer in peers)
    retries = sum(peer.retries for peer in peers)
    return outputs, messages, retries


async def _run_processes(*, n, ell, protocol, protocol_params, sources,
                         sock_dir, paths_for, neighbors_for,
                         needs_inboxes, retry,
                         request_timeout, run_timeout, seed, clock,
                         procs) -> tuple[dict, int, int]:
    """Peers as spawned worker processes (``repro.net.worker``).

    Workers get their config as one JSON object on stdin and answer
    with one JSON object on stdout; their inbox sockets (when the
    protocol needs them) are created *inside* the worker, with the
    driver's proxy routes dialing them lazily.
    """
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(
        os.path.abspath(__import__("repro").__file__)))
    env["PYTHONPATH"] = (src_root + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src_root)
    configs = []
    for pid in range(n):
        configs.append({
            "pid": pid, "n": n, "ell": ell, "protocol": protocol,
            "protocol_params": protocol_params, "sources": sources,
            "source_path": f"{sock_dir}/src-proxy.sock",
            "peer_paths": {str(other): path
                           for other, path in paths_for[pid].items()
                           if other != pid},
            "neighbors": neighbors_for[pid],
            "inbox_path": (f"{sock_dir}/p{pid}.sock"
                           if needs_inboxes else None),
            "request_timeout": request_timeout,
            "retry": {"max_attempts": retry.max_attempts,
                      "base_delay": retry.base_delay,
                      "backoff": retry.backoff,
                      "max_delay": retry.max_delay,
                      "jitter": retry.jitter},
            "seed": seed,
        })
    for config in configs:
        proc = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro.net.worker",
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.PIPE, env=env)
        procs.append(proc)

    async def talk(proc, config):
        payload = json.dumps(config).encode("utf-8")
        return await proc.communicate(payload)

    try:
        replies = await asyncio.wait_for(
            asyncio.gather(*(talk(proc, config)
                             for proc, config in zip(procs, configs))),
            timeout=run_timeout)
    except asyncio.TimeoutError:
        raise NetRunError(f"net run exceeded its {run_timeout:g}s "
                          f"deadline with workers still running")
    outputs: dict[int, BitArray] = {}
    messages = retries = 0
    for config, proc, (stdout, stderr) in zip(configs, procs, replies):
        pid = config["pid"]
        if proc.returncode != 0:
            event("net_crash", t=clock(), proc=f"peer-{pid}",
                  error=f"exit:{proc.returncode}")
            detail = stderr.decode("utf-8", "replace").strip()
            raise NetRunError(
                f"worker for peer {pid} exited with "
                f"{proc.returncode}: {detail[-500:]}")
        try:
            reply = json.loads(stdout.decode("utf-8"))
            outputs[pid] = BitArray.from_string(reply["bits"])
            messages += int(reply["messages"])
            retries += int(reply["retries"])
        except (ValueError, KeyError) as exc:
            event("net_crash", t=clock(), proc=f"peer-{pid}",
                  error=type(exc).__name__)
            raise NetRunError(f"worker for peer {pid} returned "
                              f"garbage: {exc}") from exc
    return outputs, messages, retries


async def _reap(procs) -> None:
    """Terminate, then kill, every still-running worker."""
    alive = [proc for proc in procs if proc.returncode is None]
    for proc in alive:
        try:
            proc.terminate()
        except ProcessLookupError:  # pragma: no cover - already gone
            pass
    if not alive:
        return
    try:
        await asyncio.wait_for(
            asyncio.gather(*(proc.wait() for proc in alive),
                           return_exceptions=True),
            timeout=_REAP_GRACE)
    except asyncio.TimeoutError:  # pragma: no cover - stuck children
        for proc in alive:
            if proc.returncode is None:
                try:
                    proc.kill()
                except ProcessLookupError:
                    pass
        await asyncio.gather(*(proc.wait() for proc in alive),
                             return_exceptions=True)
