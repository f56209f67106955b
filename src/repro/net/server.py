"""Socket servers for the net backend: the source set and peer inboxes.

:class:`SourceServer` is the socket front of
:class:`~repro.sim.source.SourceCore`: one listener for all ``k``
endpoints, each query answered from its endpoint's *view* — the same
fault models, RNG splits and bits as the simulator's for the seed.

Accounting adds **idempotent request IDs** to the core's: the first
sighting of an ID charges its unique indices and caches the response;
a retry or proxy duplicate is answered from the cache, uncharged, so Q
under a faulty proxy *equals* the fault-free run's.  Replays carry an
incremented ``resend``, so the proxy rolls a fresh fault for each.

Latency (no virtual clock here, so ``@onset`` is rejected at
validation): ``withhold`` answers after an extra fixed delay — the
sim's "released at quiescence" in wall clock, costing time but never
liveness or Q; ``slow:factor`` multiplies the base delay (default 0).

:class:`PeerInbox` accepts ``msg`` frames, dedupes them by ``(src,
message id, dst)`` (a broadcast's copies share their id, and two may
pass one relay), keeps the message
:func:`~repro.net.wire.message_from_wire` parses of each first-seen
one, and always acks — a retried message is re-acked (``resend``),
never double-counted.

Both answer each frame as it arrives (:class:`_FrameServer`).  A frame
that fails validation — a foreign type, a bad run or message, an index
outside the array, an ill-typed field — is answered ``refused`` on a
connection that serves on; one not JSON or with no ``str`` ``rid``
quietly ends it.
"""

from __future__ import annotations

import asyncio
import math
from typing import Optional

from repro.sim.messages import Message
from repro.sim.source import SourceCore
from repro.util.bitarrays import BitArray
from repro.util.rng import SplittableRNG

from repro.net.wire import (FrameProtocol, WireError, decode_body,
                            encode_frame, indices_from_wire,
                            message_from_wire, run_to_wire)


class _FrameServer:
    """A Unix-socket listener that answers one type of frame.

    A subclass names the ``frame_type`` it serves and the exact type of
    each field it needs (so a ``bool`` is no ``int``), and builds each
    answer in ``_answer(frame) -> (payload, delay)``; a delayed answer
    is written by ``call_later`` and holds up nothing behind it.  A
    malformed or foreign frame is refused, request by request.
    """

    frame_type: str

    def __init__(self) -> None:
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set[_Answering] = set()

    async def start(self, path: str) -> None:
        self._server = await asyncio.get_running_loop().create_unix_server(
            lambda: _Answering(self), path=path)

    async def close(self) -> None:
        """Stop listening and end every accepted connection (which
        ``wait_closed`` awaits from Python 3.12 on)."""
        if self._server is not None:
            self._server.close()
            for connection in self._connections:
                connection.transport.close()
            await self._server.wait_closed()
            self._server = None


class _Answering(FrameProtocol):
    """One accepted connection of a :class:`_FrameServer`."""

    def __init__(self, server: _FrameServer) -> None:
        self.server = server

    def connection_made(self, transport) -> None:
        super().connection_made(transport)
        self.server._connections.add(self)

    def connection_lost(self, exc) -> None:
        super().connection_lost(exc)
        self.server._connections.discard(self)

    def frame_received(self, body: bytes) -> None:
        frame = decode_body(body)
        rid = frame.get("rid")
        if type(rid) is not str:  # no address for a refusal
            raise WireError("'rid' must be a str")
        try:
            if frame.get("type") != self.server.frame_type:
                raise WireError(f"{type(self.server).__name__} got a "
                                f"{frame.get('type')!r} frame")
            for name, kind in self.server.fields.items():
                if type(frame.get(name)) is not kind:
                    raise WireError(f"{name!r} must be a {kind.__name__}")
            answer, delay = self.server._answer(frame)
        except (WireError, ValueError) as exc:  # or an index off the array
            answer, delay = {"type": "refused", "rid": rid,
                             "error": str(exc)}, 0.0
        if delay > 0:
            asyncio.get_running_loop().call_later(delay, self.send,
                                                  encode_frame(answer))
        else:
            self.send(encode_frame(answer))


class SourceServer(SourceCore, _FrameServer):
    """All ``k`` source endpoints behind one Unix-socket listener."""

    frame_type = "query"
    fields = {"peer": int, "source": int}

    def __init__(self, data: BitArray, *, k: int = 1, faults=(),
                 rng: Optional[SplittableRNG] = None,
                 base_delay: float = 0.0,
                 withhold_delay: float = 0.2) -> None:
        super().__init__(data, k=k, faults=faults, rng=rng)
        _FrameServer.__init__(self)
        self.base_delay = base_delay
        self.withhold_delay = withhold_delay
        self._responses: dict[str, dict] = {}
        self._resends: dict[str, int] = {}

    # -- serving ----------------------------------------------------------

    def _answer(self, frame: dict) -> tuple[dict, float]:
        """Build (response payload, response delay) for one query frame.

        Charges Q only on the first sighting of the frame's request ID.
        """
        rid, pid, source_id = frame["rid"], frame["peer"], frame["source"]
        if not 0 <= source_id < self.k:
            raise WireError(f"source {source_id} out of range "
                            f"[0, {self.k})")
        fault = self.faults[source_id]
        delay = self.base_delay
        if fault.withholding:
            delay = self.withhold_delay
        elif fault.latency_factor != 1.0:
            delay = delay * fault.latency_factor
        cached = self._responses.get(rid)
        if cached is not None:
            self._resends[rid] += 1
            response = dict(cached)
            response["resend"] = self._resends[rid]
            return response, delay
        unique = self.charge(pid, source_id,
                             indices_from_wire(frame.get("indices")))
        # No virtual clock on sockets: every fault is active throughout.
        values = self.read(source_id, pid, unique, math.inf)
        response = {
            "type": "bits",
            "rid": rid,
            "values": run_to_wire(values),
            "resend": 0,
        }
        self._responses[rid] = response
        self._resends[rid] = 0
        return response, delay


class PeerInbox(_FrameServer):
    """One peer's server side: receive messages, dedupe, acknowledge."""

    frame_type = "msg"
    fields = {"src": int, "mid": int}

    def __init__(self, pid: int) -> None:
        super().__init__()
        self.pid = pid
        #: ``(src, mid, dst) -> message``, first sightings in order
        self.messages: dict[tuple, Message] = {}
        self._resends: dict[tuple, int] = {}
        self._changed = asyncio.Event()

    async def wait_for_messages(self, count: int) -> None:
        """Block until ``count`` distinct messages have arrived."""
        while len(self.messages) < count:
            self._changed.clear()
            await self._changed.wait()

    def _answer(self, frame: dict) -> tuple[dict, float]:
        """Store a first-seen message as the object it parses to; ack."""
        if type(frame.get("dst")) not in (int, type(None)):
            raise WireError("'dst' must be an int or null")
        key = (frame["src"], frame["mid"], frame.get("dst"))
        if key not in self.messages:
            self.messages[key] = message_from_wire(frame.get("message"))
            self._resends[key] = 0
            self._changed.set()
        else:
            self._resends[key] += 1
        return {"type": "ack", "rid": frame["rid"],
                "resend": self._resends[key]}, 0.0
