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
- ``send`` and ``broadcast`` of any message become ``msg`` frames
  (:func:`~repro.net.wire.message_to_wire`) under one message id, one
  per destination, each sent to that destination's next hop on the
  simulator's routes (the destination itself on the complete graph).
  A frame names its ``dst`` (a broadcast copy sent straight to its
  destination names none); a peer that is not ``dst`` forwards it one
  hop on, and only ``dst`` hands it to the body.  A finished relay
  keeps forwarding, as on the simulator, so the relay outlives the
  body: the driver ends the run once every peer is
  :attr:`~NetPeer.idle`;
- "wait" is an ``asyncio.Event`` set by whatever the body is waiting
  for, instead of a virtual clock, and ``schedule`` is the loop's
  ``call_later``: a deadline counts wall seconds.

That the body is the simulator's, handed the run's root
:class:`~repro.util.rng.SplittableRNG` so it flips the simulator's
coins, is what makes the net↔sim conformance tests hold by
construction: a fault-free proxy replay of a sim spec charges the
identical query complexity to the identical endpoints and decodes the
identical array.  Every registry protocol runs here; the net backend's
adversary is the chaos proxy, not the peers.
"""

from __future__ import annotations

import asyncio
from itertools import islice
from typing import Callable, Optional

from repro.obs.telemetry import counter, get_backend
from repro.protocols.ports import HostPorts
from repro.sim.messages import SOURCE_ID, Message, SourceResponse
from repro.util.bitarrays import BitArray, BitRun, canonical_indices
from repro.util.rng import SplittableRNG

from repro.net.client import NetClient, NetRequestError
from repro.net.server import PeerInbox
from repro.net.wire import (WireError, indices_to_wire, message_to_wire,
                            run_from_wire)


class NetPeer(HostPorts):
    """Runs ``protocol_class``'s body as one peer on real sockets: the
    body's env has this object for every port."""

    def __init__(self, pid: int, protocol_class: type, params: dict, *,
                 n: int, ell: int, sources: int,
                 client_factory: Callable[[str, str], NetClient],
                 source_path: str,
                 peer_paths: Optional[dict[int, str]] = None,
                 next_hop: Optional[dict[int, int]] = None,
                 inbox: Optional[PeerInbox] = None,
                 clock: Callable[[], float] = None, seed: int = 0) -> None:
        super().__init__(sources)
        self.pid = pid
        self.inbox = inbox
        #: ``dst -> neighbour one hop closer`` on the run's routes;
        #: empty on the complete graph, where the hop is ``dst`` itself.
        self._next_hop = dict(next_hop or {})
        self.clock = clock if clock is not None else (lambda: 0.0)
        self._client_factory = client_factory
        self._source_path = source_path
        self._peer_paths = dict(peer_paths or {})
        self._clients: dict[str, NetClient] = {}
        self._seq = self._mid = 0
        self.messages = 0  #: logical peer-to-peer sends (not retries)
        #: Every task this peer started and has not seen finish; a
        #: failed one parks its exception in ``_failure`` for ``run``.
        self._tasks: set[asyncio.Task] = set()
        self._failure: Optional[BaseException] = None
        self._relay: Optional[asyncio.Task] = None
        self._handled = 0  #: inbox messages the relay has handled
        self._wake = asyncio.Event()
        telemetry = get_backend()
        self.peer = protocol_class(pid, self.env(
            n=n, t=0, ell=ell, rng=SplittableRNG(seed),
            telemetry=telemetry if telemetry.enabled else None), **params)

    # -- kernel port: wall clock, and an event to wake the stepping loop --

    @property
    def now(self) -> float:
        return self.clock()

    def notify(self, process) -> None:
        self._wake.set()

    def schedule(self, delay: float, action) -> None:
        asyncio.get_running_loop().call_later(delay, action)

    # -- network port: msg frames -----------------------------------------

    def send(self, sender: int, destination: int, message: Message,
             sender_cycle: int = 0) -> None:
        self._mid += 1
        self._route(message_to_wire(message), self.pid, self._mid,
                    destination)

    def broadcast(self, sender: int, n: int, message: Message,
                  sender_cycle: int = 0) -> None:
        """One routed copy per other peer under one message id; a copy
        sent straight to its destination names none (``dst`` null)."""
        self._mid += 1
        wire = message_to_wire(message)
        for other in self.peer.others:
            hop = self._next_hop.get(other, other)
            self._spawn(self._send(hop, wire, self.pid, self._mid,
                                   None if hop == other else other))

    def _route(self, wire: dict, src: int, mid: int, dst: int) -> None:
        """Send a copy for ``dst`` to its next hop."""
        self._spawn(self._send(self._next_hop.get(dst, dst), wire, src,
                               mid, dst))

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

    async def _send(self, other: int, wire: dict, src: int, mid: int,
                    dst: Optional[int]) -> None:
        """Send one logical message (retries ride inside the client).

        ``src`` names the message's original sender, which differs from
        this peer's when this send is a relay; receivers dedupe by
        ``(src, mid, dst)``.  Each hop is charged here, to the peer that
        sends it, matching the simulator's accounting.

        Delivery is best-effort past the retry budget: a receiver that
        stops answering has either already deduped this message (only
        its ack was the casualty) or genuinely crashed, and a crashed
        receiver trips the run deadline on its own.  Abandoning the send
        can therefore never hide a failure; it only avoids manufacturing
        one."""
        self.messages += 1
        client = self._client(self._peer_paths[other], f"p{other}")
        try:
            await client.request({
                "type": "msg", "rid": self._next_rid(), "src": src,
                "mid": mid, "dst": dst, "message": wire})
        except NetRequestError:
            counter("net_messages_abandoned")

    def close(self) -> None:
        """Close every connection; drop the span sinks and the body's
        peer, whose ``env`` has this object for every port (cycles)."""
        for client in self._clients.values():
            client.close()
        for sink in self.span_sinks.values():
            sink.unlink()
        self.span_sinks.clear()
        if self.peer is not None:
            self.peer.unlink()
            self.peer = None

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

    async def _pump_messages(self) -> None:
        """Hand every first-seen message for this peer to the body (the
        object the inbox parsed, not a copy); forward every other one to
        its next hop — after the body has finished too."""
        messages = self.inbox.messages  # only ever added to, in order
        while True:
            await self.inbox.wait_for_messages(self._handled + 1)
            # No await below, so the dict cannot grow under the slice.
            for (src, mid, dst), message in islice(
                    messages.items(), self._handled, None):
                self._handled += 1
                if dst in (None, self.pid):
                    self.peer.deliver(message)
                else:
                    self._route(message_to_wire(message), src, mid, dst)
            self._wake.set()  # for :meth:`settle`

    @property
    def idle(self) -> bool:
        """No query or message of this peer awaits its answer, and its
        relay has handled every message its inbox stored."""
        return self._tasks <= {self._relay} and (
            self.inbox is None or self._handled == len(self.inbox.messages))

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

        Returns only once every query and message this peer issued has
        been answered (so each has reached the source server's ledger,
        or its receiver), and raises the first failure of any of them.
        The relay outlives the body, so a returning run leaves it
        running until :meth:`halt`; a raising one halts first.
        """
        if self.inbox is not None:
            self._relay = self._spawn(self._pump_messages())
        try:
            for wait in self.peer.body():
                await self._until(wait.predicate)
            await self._until(lambda: self._tasks <= {self._relay})
        except BaseException:
            await self.halt()
            raise
        return self.peer.output

    async def settle(self) -> None:
        """Wait until this peer is :attr:`idle` (or a task failed)."""
        await self._until(lambda: self.idle)

    async def halt(self) -> None:
        """Cancel every task this peer still owns, its relay among them."""
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        self._relay = None  # its traceback references this peer
