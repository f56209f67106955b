"""The socket host: a registry protocol's one body, driven over sockets.

A protocol body (``repro.protocols``) reaches the world only through
``self.env``, so the net backend does not re-implement protocols — it
hands the registry's class a set of ports whose far side is real
transport.  :class:`NetPeer` owns the clients, request IDs and
counters, and its :meth:`~NetPeer.run` steps ``body()``:

- ``request_bits_from`` becomes a ``query`` frame (timeouts and retries
  ride inside the :class:`~repro.net.client.NetClient`), its answer a
  delivered ``SourceResponse`` whose ``values`` is the parsed
  :class:`~repro.util.bitarrays.BitRun` — checked, inside the retry
  loop, to cover exactly the asked indices;
- ``broadcast`` of a :class:`~repro.protocols.balanced.ShareMessage`
  becomes ``share`` frames carrying its run — to every other peer on
  the complete graph, to the neighbours under a sparse topology, where
  every first-seen share is also relayed onward as the run the inbox
  parsed (flooding is transport, not protocol:
  inboxes dedupe by origin, so the body's ``n - 1`` distinct-sender
  wait is unchanged);
- "wait" is an ``asyncio.Event`` set by whatever the body is waiting
  for, instead of a virtual clock.

That the body is the simulator's is what makes the net↔sim conformance
tests hold by construction: a fault-free proxy replay of a sim spec
charges the identical query complexity to the identical endpoints and
decodes the identical array.  Which protocols run here is the
``backends`` field of their registry entries — those whose query sets
are pure functions of ``(pid, n, ell, source views)``; the net
backend's adversary is the chaos proxy, not the peers.
"""

from __future__ import annotations

import asyncio
from itertools import islice
from typing import Callable, Optional

from repro.obs.telemetry import counter, get_backend
from repro.protocols.balanced import ShareMessage
from repro.protocols.ports import HostPorts
from repro.sim.messages import SOURCE_ID, Message, SourceResponse
from repro.util.bitarrays import BitArray, BitRun, canonical_indices
from repro.util.rng import SplittableRNG

from repro.net.client import NetClient, NetRequestError
from repro.net.server import PeerInbox
from repro.net.wire import (WireError, indices_to_wire, run_from_wire,
                            run_to_wire)


class NetPeer(HostPorts):
    """Runs ``protocol_class``'s body as one peer on real sockets: the
    body's env has this object for every port.  (No ``schedule``: no
    net-hosted body waits on a deadline.)"""

    def __init__(self, pid: int, protocol_class: type, params: dict, *,
                 n: int, ell: int, sources: int,
                 client_factory: Callable[[str, str], NetClient],
                 source_path: str,
                 peer_paths: Optional[dict[int, str]] = None,
                 inbox: Optional[PeerInbox] = None,
                 neighbors: Optional[list[int]] = None,
                 clock: Callable[[], float] = None) -> None:
        super().__init__(sources)
        self.pid = pid
        self.inbox = inbox
        #: ``None`` means the complete graph (every other peer is one
        #: hop away); a list restricts peer traffic to those links and
        #: switches the share exchange to flooding.
        self.neighbors = list(neighbors) if neighbors is not None else None
        self.clock = clock if clock is not None else (lambda: 0.0)
        self._client_factory = client_factory
        self._source_path = source_path
        self._peer_paths = dict(peer_paths or {})
        self._clients: dict[str, NetClient] = {}
        self._seq = 0
        self.messages = 0  #: logical peer-to-peer sends (not retries)
        #: Every task this peer started and has not seen finish; a
        #: failed one parks its exception in ``_failure`` for ``run``.
        self._tasks: set[asyncio.Task] = set()
        self._failure: Optional[BaseException] = None
        self._wake = asyncio.Event()
        telemetry = get_backend()
        # The rng is never drawn from: a body runs here because its
        # query sets are a pure function of (pid, n, ell, source views).
        self.peer = protocol_class(pid, self.env(
            n=n, t=0, ell=ell, rng=SplittableRNG(0),
            telemetry=telemetry if telemetry.enabled else None), **params)

    # -- kernel port: wall clock, and an event to wake the stepping loop --

    @property
    def now(self) -> float:
        return self.clock()

    def notify(self, process) -> None:
        self._wake.set()

    # -- network port: share frames ---------------------------------------

    def send(self, sender: int, destination: int, message: Message,
             sender_cycle: int = 0) -> None:
        if not isinstance(message, ShareMessage):
            raise TypeError(f"the net wire carries ShareMessage only, "
                            f"not {type(message).__name__}")
        self._spawn(self.send_share(destination, message.values))

    def broadcast(self, sender: int, n: int, message: Message,
                  sender_cycle: int = 0) -> None:
        if self.neighbors is None:
            super().broadcast(sender, n, message)
        else:  # flooding: the neighbours relay it onward
            for other in self.neighbors:
                self.send(sender, other, message)

    # -- source port: query frames ----------------------------------------

    def request_bits_from(self, source_id: int, pid: int, request_id: int,
                          indices) -> None:
        self._spawn(self._ask(source_id, request_id, indices))

    # -- transport helpers ------------------------------------------------

    def _client(self, path: str, name: str) -> NetClient:
        """The client for one address — one per source endpoint, so a
        chunk's ``q`` queries can fly concurrently, and one per peer
        link (each client serializes its own connection)."""
        proc = f"peer-{self.pid}:{name}"
        if proc not in self._clients:
            self._clients[proc] = self._client_factory(path, proc)
        return self._clients[proc]

    def _next_rid(self) -> str:
        self._seq += 1
        return f"p{self.pid}:{self._seq}"

    async def send_share(self, other: int, values: BitRun, *,
                         origin: Optional[int] = None) -> None:
        """Send one logical share (retries ride inside the client).

        ``origin`` names the share's original producer when this send
        is a flooding relay — receivers dedupe by origin, so a share
        relayed along many paths still counts once.  The relay is
        charged here, to the relaying peer, matching the simulator's
        accounting.

        Delivery is best-effort past the retry budget: a receiver that
        stops answering has either already deduped this share (only its
        ack was the casualty — the common case when a worker process
        finishes and exits) or genuinely crashed, and a crashed receiver
        trips the run deadline on its own.  Abandoning the send can
        therefore never hide a failure; it only avoids manufacturing
        one."""
        self.messages += 1
        client = self._client(self._peer_paths[other], f"p{other}")
        try:
            await client.request({
                "type": "share", "rid": self._next_rid(),
                "src": self.pid if origin is None else origin, "mid": 0,
                "values": run_to_wire(values)})
        except NetRequestError:
            counter("net_shares_abandoned")

    def close(self) -> None:
        for client in self._clients.values():
            client.close()

    @property
    def retries(self) -> int:
        return sum(client.retries for client in self._clients.values())

    # -- hosting the body -------------------------------------------------

    def _spawn(self, coroutine) -> asyncio.Task:
        task = asyncio.ensure_future(coroutine)
        self._tasks.add(task)
        task.add_done_callback(self._reap)
        return task

    def _reap(self, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        if not task.cancelled() and task.exception() is not None:
            self._failure = self._failure or task.exception()
        self._wake.set()

    async def _ask(self, sid: int, request_id: int, indices) -> None:
        """Query endpoint ``sid``; hand the body its answer — the run
        over exactly the asked indices, anything else being one more
        failed attempt of the request."""
        asked = indices_to_wire(
            canonical_indices(indices, self.peer.ell)[0])

        def parse(response: dict) -> BitRun:
            run = run_from_wire(response.get("values"))
            if indices_to_wire(run.indices) != asked:
                raise WireError(f"asked for {asked!r:.80}, was answered "
                                f"{run.indices!r:.80}")
            return run

        values = await self._client(
            self._source_path, f"src{sid}").request({
                "type": "query", "rid": self._next_rid(),
                "peer": self.pid, "source": sid,
                "indices": asked}, parse)
        self.peer.deliver(SourceResponse(
            sender=SOURCE_ID, request_id=request_id, values=values))

    async def _pump_shares(self) -> None:
        """Hand every first-seen share to the body (its ``values`` is
        the run the inbox parsed, not a copy) and, under a sparse
        topology, relay that same run to the neighbours."""
        handled = 0  # shares are only ever added, and dicts keep order
        while True:
            await self.inbox.wait_for_shares(handled + 1)
            # No await below, so the dict cannot grow under the slice.
            for (src, _mid), values in islice(self.inbox.shares.items(),
                                              handled, None):
                handled += 1
                if src == self.pid:
                    continue  # own share, echoed by a neighbour's relay
                self.peer.deliver(ShareMessage(sender=src, values=values))
                for other in self.neighbors or ():
                    self._spawn(self.send_share(other, values, origin=src))

    async def _until(self, predicate: Callable[[], bool]) -> None:
        """Sleep until ``predicate()`` holds; a task of this peer that
        failed meanwhile ends the wait with its exception."""
        while True:
            if self._failure is not None:
                raise self._failure
            if predicate():
                return
            self._wake.clear()
            await self._wake.wait()

    async def run(self) -> BitArray:
        """Step the body to its end; returns the peer's output.

        Returns only once every query and share this peer issued has
        been answered (so each has reached the source server's ledger,
        or its receiver), raises the first failure of any of them, and
        leaves no task behind on any exit path.
        """
        pump = (self._spawn(self._pump_shares())
                if self.inbox is not None else None)
        try:
            for wait in self.peer.body():
                await self._until(wait.predicate)
            await self._until(lambda: self._tasks <= {pump})
            return self.peer.output
        finally:
            tasks = list(self._tasks)
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
