"""The chaos proxy: a real socket forwarder that injects faults.

Every net-backend connection — peer↔source and peer↔peer alike —
dials a proxy listener instead of its upstream.  A route dials its
upstream once, lazily, and multiplexes its client connections onto
it, asking the :class:`~repro.net.chaos.ChaosPlan` the fate of each
whole frame (decisions are keyed on frame content, so a fault hits a
whole request or response).  A ``None`` plan forwards everything.

- An answer goes back to the client connection whose request it
  answers (request ids are unique per request); one for a connection
  that has closed dies with it, undecided — as does a held request.
  A frame with no ``str`` ``rid`` is refused: only its sender closes.
- A delayed or duplicated frame is written by ``call_later`` and
  blocks nothing behind it, which is how "delay" doubles as reordering.
- ``disconnect`` closes the client's connection; the client sees EOF
  and retries (dedupe lives in the servers).  A server refuses a bad
  frame with an answer and keeps the upstream; if the upstream drops
  all the same, every client it owed an answer is disconnected at once.
- The proxy runs in the driver process, so its telemetry is never lost
  in a worker.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Optional

from repro.obs.telemetry import event

from repro.net.chaos import PASS, ChaosPlan, FrameDecision
from repro.net.wire import (_PREFIX, FrameProtocol, WireError, decode_body,
                            dial)


class ChaosProxy:
    """One run's fault-injecting forwarder over any number of routes."""

    def __init__(self, plan: Optional[ChaosPlan] = None, *,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.plan = plan
        self.clock = clock if clock is not None else time.monotonic
        self.counts = {"drop": 0, "dup": 0, "delay": 0, "disconnect": 0}
        self._servers: list[asyncio.AbstractServer] = []
        self._routes: list[_Route] = []

    async def add_route(self, listen_path: str, upstream_path: str,
                        label: str) -> None:
        """Listen on ``listen_path``; forward every client over one
        shared connection to ``upstream_path``."""
        route = _Route(self, upstream_path, label)
        self._routes.append(route)
        self._servers.append(
            await asyncio.get_running_loop().create_unix_server(
                lambda: _Client(route), path=listen_path))

    async def close(self) -> None:
        """Stop listening; close every connection and pending dial."""
        for server in self._servers:
            server.close()
        for route in self._routes:
            for connection in (*route.clients, route):
                if connection.transport is not None:
                    connection.transport.close()
        dials = [route.dialing for route in self._routes if route.dialing]
        for task in dials:
            task.cancel()
        await asyncio.gather(*dials, return_exceptions=True)
        for server in self._servers:
            await server.wait_closed()
        self._servers.clear()
        self._routes.clear()  # each route references the proxy back

    def decide(self, body: bytes, label: str,
               direction: str) -> FrameDecision:
        """One frame's fate, counted and announced."""
        if self.plan is None:
            return PASS
        decision = self.plan.decide(body, direction)
        for kind, hit in (("disconnect", decision.disconnect),
                          ("drop", decision.drop),
                          ("dup", decision.duplicate)):
            if hit:
                self.counts[kind] += 1
                event(f"net_proxy_{kind}", t=self.clock(), link=label,
                      direction=direction)
        if decision.delay > 0:
            self.counts["delay"] += 1
            event("net_proxy_delay", t=self.clock(), link=label,
                  direction=direction, seconds=decision.delay)
        return decision


def _rid(body: bytes) -> Optional[str]:
    try:
        rid = decode_body(body).get("rid")
    except WireError:
        return None
    return rid if type(rid) is str else None


class _Route(FrameProtocol):
    """One listener's clients, multiplexed onto one upstream connection
    (this protocol's ``transport``, dialed on the first frame)."""

    def __init__(self, proxy: ChaosProxy, path: str, label: str) -> None:
        self.proxy = proxy
        self.path = path
        self.label = label
        self.clients: set[_Client] = set()
        #: rid -> the connection of each copy written upstream and not
        #: yet answered, oldest first
        self.owed: dict[str, list[_Client]] = {}
        self.backlog: list[tuple] = []  #: ``_send_up`` calls before the dial
        self.dialing: Optional[asyncio.Task] = None

    def forward(self, decision: FrameDecision, client: _Client,
                body: bytes, write: Callable[[bytes], None]) -> None:
        """Disconnect ``client``, drop, or ``write`` now or after a delay."""
        if decision.disconnect:
            client.transport.close()
        elif not decision.drop:
            data = (_PREFIX.pack(len(body)) + body) * (
                2 if decision.duplicate else 1)
            if decision.delay > 0:
                asyncio.get_running_loop().call_later(decision.delay,
                                                      write, data)
            else:
                write(data)

    def to_upstream(self, client: _Client, body: bytes) -> None:
        rid = _rid(body)
        if rid is None:  # no answer could find its way back: refuse it
            client.transport.close()
            return
        decision = self.proxy.decide(body, self.label, "c2s")
        copies = 2 if decision.duplicate else 1
        self.forward(decision, client, body,
                     lambda data: self._send_up(client, rid, copies, data))

    def _send_up(self, client: _Client, rid: str, copies: int,
                 data: bytes) -> None:
        if client.transport.is_closing():
            return  # a held request dies with its connection
        if self.transport is None:
            self.backlog.append((client, rid, copies, data))
            if self.dialing is None:
                self.dialing = asyncio.ensure_future(self._dial())
            return
        self.transport.write(data)
        self.owed.setdefault(rid, []).extend([client] * copies)

    def frame_received(self, body: bytes) -> None:
        """An answer from upstream, for the connection whose request it
        answers (the servers answer one ``rid`` in arrival order)."""
        rid = _rid(body)
        senders = self.owed.get(rid)
        if not senders:
            return
        client = senders.pop(0)
        if not senders:
            del self.owed[rid]
        if not client.transport.is_closing():
            self.forward(self.proxy.decide(body, self.label, "s2c"),
                         client, body, client.send)

    async def _dial(self) -> None:
        """Dial the upstream, then flush the backlog."""
        try:
            await dial(self.path, lambda: self)
        except OSError:  # no upstream: its waiting clients retry now
            for client, *_ in self.backlog:
                client.transport.close()
            self.backlog.clear()
            return
        finally:
            self.dialing = None
        backlog, self.backlog = self.backlog, []
        for args in backlog:
            self._send_up(*args)

    def connection_lost(self, exc) -> None:
        """The upstream dropped (or never came): every client it owed an
        answer is disconnected, to retry now rather than time out."""
        super().connection_lost(exc)
        self.transport = None
        owed, self.owed = self.owed, {}
        for senders in owed.values():
            for client in senders:
                client.transport.close()


class _Client(FrameProtocol):
    """An accepted client connection of one route."""

    def __init__(self, route: _Route) -> None:
        self.route = route

    def connection_made(self, transport) -> None:
        super().connection_made(transport)
        self.route.clients.add(self)

    def connection_lost(self, exc) -> None:
        super().connection_lost(exc)
        self.route.clients.discard(self)

    def frame_received(self, body: bytes) -> None:
        self.route.to_upstream(self, body)
