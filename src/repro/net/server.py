"""Socket servers for the net backend: the source set and peer inboxes.

:class:`SourceServer` is the external data source as an actual server:
the socket front of :class:`~repro.sim.source.SourceCore`.  One
listener serves all ``k`` endpoints; a query frame names its endpoint,
and the server answers from that endpoint's *view* — the same fault
models, the same RNG splits, and therefore the same bits as the
simulator builds for the same seed.

Query accounting is the core's, with one rule on top — **idempotent
request IDs**.  The first time a request ID is seen, its unique
indices are charged and the response is cached; any later frame with
the same ID — a client retry after a dropped response, a
proxy-duplicated request — is answered from the cache without
touching a counter.  That is what makes query complexity under
a faulty proxy *equal* to the fault-free run's, which the conformance
tests gate.  Replayed responses carry an incremented ``resend`` field
so their bytes differ per send — a content-hashing proxy that dropped
the original must get a fresh decision for the replay.

Source-fault latency semantics (net has no virtual clock, so ``@onset``
is rejected at validation):

- ``withhold`` answers after an extra fixed delay — the sim's
  "released at quiescence" compressed to wall clock: it costs time,
  never liveness, and never Q;
- ``slow:factor`` multiplies the base response delay;
- everything else answers its view after the base delay (0 by
  default).

:class:`PeerInbox` is the peer↔peer half: each peer's server accepts
``share`` frames, deduplicates them by ``(sender, message id)``, keeps
each first-seen one as the :class:`~repro.util.bitarrays.BitRun` its
``values`` parse to (:func:`~repro.net.wire.run_from_wire`), and always
acknowledges — retried shares are re-acked (with a ``resend``
counter), never double-counted.

Both answer with runs and parse indices through the one codec of
:mod:`repro.net.wire`, inside one serving loop (:class:`_FrameServer`)
where a malformed frame is a ``WireError`` that ends the connection.
"""

from __future__ import annotations

import asyncio
import math
from typing import Optional

from repro.sim.source import SourceCore
from repro.util.bitarrays import BitArray, BitRun
from repro.util.rng import SplittableRNG

from repro.net.wire import (WireError, encode_frame, indices_from_wire,
                            read_frame, run_from_wire, run_to_wire)


class _FrameServer:
    """A Unix-socket listener that answers one type of frame.

    A subclass names the ``frame_type`` it serves and builds each
    answer in ``_answer(frame) -> (payload, delay)``.  A malformed or
    foreign frame (:class:`WireError`), like a dead socket, ends that
    one connection and nothing else: the client's retry opens the next.
    """

    frame_type: str
    _server: Optional[asyncio.AbstractServer] = None

    async def start(self, path: str) -> None:
        self._server = await asyncio.start_unix_server(self._handle,
                                                       path=path)

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(self, reader, writer) -> None:
        try:
            while (frame := await read_frame(reader)) is not None:
                if frame.get("type") != self.frame_type:
                    raise WireError(f"{type(self).__name__} got a "
                                    f"{frame.get('type')!r} frame")
                answer, delay = self._answer(frame)
                if delay > 0:
                    await asyncio.sleep(delay)
                writer.write(encode_frame(answer))
                await writer.drain()
        except (WireError, ConnectionError, OSError,
                asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass


class SourceServer(SourceCore, _FrameServer):
    """All ``k`` source endpoints behind one Unix-socket listener."""

    frame_type = "query"

    def __init__(self, data: BitArray, *, k: int = 1, faults=(),
                 rng: Optional[SplittableRNG] = None,
                 base_delay: float = 0.0,
                 withhold_delay: float = 0.2) -> None:
        super().__init__(data, k=k, faults=faults, rng=rng)
        self.base_delay = base_delay
        self.withhold_delay = withhold_delay
        self._responses: dict[str, dict] = {}
        self._resends: dict[str, int] = {}

    # -- serving ----------------------------------------------------------

    def _answer(self, frame: dict) -> tuple[dict, float]:
        """Build (response payload, response delay) for one query frame.

        Charges Q only on the first sighting of the frame's request ID.
        """
        rid = frame["rid"]
        source_id = int(frame.get("source", 0))
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
        pid = int(frame["peer"])
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
    """One peer's server side: receive shares, dedupe, acknowledge."""

    frame_type = "share"

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.shares: dict[tuple[int, int], BitRun] = {}
        self._resends: dict[tuple[int, int], int] = {}
        self._changed = asyncio.Event()

    async def wait_for_shares(self, count: int) -> None:
        """Block until ``count`` distinct shares have arrived."""
        while len(self.shares) < count:
            self._changed.clear()
            await self._changed.wait()

    def _answer(self, frame: dict) -> tuple[dict, float]:
        """Store a first-seen share as the run it parses to; ack it."""
        key = (int(frame["src"]), int(frame["mid"]))
        if key not in self.shares:
            self.shares[key] = run_from_wire(frame.get("values"))
            self._resends[key] = 0
            self._changed.set()
        else:
            self._resends[key] += 1
        return {"type": "ack", "rid": frame["rid"],
                "resend": self._resends[key]}, 0.0
