"""The peer API protocol implementations are written against.

:class:`Peer` wraps the raw process model with everything a DR-model
peer may do — and nothing more:

- ``self.send(dst, msg)`` / ``self.broadcast(msg)`` — peer-to-peer
  messages (the adversary delays them);
- ``yield from self.query_bits(indices)`` — query the external source
  and wait for the (adversary-delayed) answer;
- ``yield self.wait_until(pred, desc)`` — adaptive waiting on the
  inbox;
- ``self.finish(output)`` — terminate with an output array.

Protocol code never touches the kernel, the network, or other peers'
objects directly, so a protocol written against this API is
automatically subject to the adversary.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Type, TypeVar

from repro.sim.messages import Message, SourceResponse
from repro.sim.process import Process, WaitUntil
from repro.util.bitarrays import BitArray, BitRun
from repro.util.rng import SplittableRNG

M = TypeVar("M", bound=Message)


@dataclass
class SimEnv:
    """Everything a run shares: kernel, network, source, parameters.

    ``n`` is the number of peers, ``t`` the fault budget, ``ell`` the
    input length in bits.  ``rng`` is the root randomness; each
    component derives its own child stream.
    """

    kernel: object
    network: object
    source: object
    metrics: object
    adversary: object
    n: int
    t: int
    ell: int
    rng: SplittableRNG
    message_size_limit: Optional[int] = None
    trace: Optional[object] = None
    #: Resolved telemetry backend, or ``None`` when telemetry is
    #: disabled — the runner caches the process-global backend here
    #: once per run so per-event sites pay a single ``is not None``.
    telemetry: Optional[object] = None
    extras: dict = field(default_factory=dict)
    #: The run's :class:`~repro.topology.Topology` when connectivity is
    #: sparse, else ``None`` (the model's complete graph).  Protocols
    #: may inspect it (e.g. ``env.topology.neighbors(pid)``); sends to
    #: non-neighbors are legal and relayed by the network layer.
    topology: Optional[object] = None

    @property
    def peer_ids(self) -> range:
        """All peer IDs, ``0 .. n-1``."""
        return range(self.n)


class MessageLog:
    """A peer's inbox with by-type views for cheap filtered waiting."""

    def __init__(self) -> None:
        self._all: list[Message] = []
        self._by_type: dict[type, list[Message]] = defaultdict(list)
        self._senders: dict[type, set[int]] = defaultdict(set)

    def add(self, message: Message) -> None:
        """Record a delivered message."""
        self._all.append(message)
        self._by_type[type(message)].append(message)
        self._senders[type(message)].add(message.sender)

    def __len__(self) -> int:
        return len(self._all)

    def all(self) -> list[Message]:
        """Every message received so far, in delivery order."""
        return list(self._all)

    def of_type(self, message_type: Type[M],
                predicate: Optional[Callable[[M], bool]] = None) -> list[M]:
        """Messages of ``message_type`` (optionally filtered)."""
        messages = self._by_type.get(message_type, [])
        if predicate is None:
            return list(messages)
        return [message for message in messages if predicate(message)]

    def count(self, message_type: Type[M],
              predicate: Optional[Callable[[M], bool]] = None) -> int:
        """Count of matching messages."""
        return len(self.of_type(message_type, predicate))

    def senders(self, message_type: Type[M],
                predicate: Optional[Callable[[M], bool]] = None) -> set[int]:
        """Distinct senders of matching messages."""
        if predicate is None:
            return set(self._senders.get(message_type, ()))
        return {message.sender
                for message in self.of_type(message_type, predicate)}

    def value_counts(self, message_type: Type[M],
                     key: Callable[[M], object]) -> Counter:
        """Histogram of ``key(message)`` over messages of a type,
        counting each *sender* at most once per key value (a Byzantine
        peer repeating itself must not inflate frequency counts)."""
        seen: set[tuple[int, object]] = set()
        histogram: Counter = Counter()
        for message in self.of_type(message_type):
            entry = (message.sender, key(message))
            if entry not in seen:
                seen.add(entry)
                histogram[key(message)] += 1
        return histogram


class Peer(Process):
    """Base class for honest DR-model peers."""

    def __init__(self, pid: int, env: SimEnv) -> None:
        super().__init__(name=f"peer-{pid}")
        self.pid = pid
        self.env = env
        self.inbox = MessageLog()
        self.rng = env.rng.split(f"peer-{pid}")
        self.output: Optional[BitArray] = None
        self.cycle = 0
        self._source_responses: dict[int, BitRun] = {}
        self._request_counter = 0
        self._handlers: dict[Type[Message],
                             list[Callable[[Message], None]]] = {}

    # -- convenient parameter views ------------------------------------------

    @property
    def n(self) -> int:
        """Number of peers in the network."""
        return self.env.n

    @property
    def t(self) -> int:
        """Upper bound on the number of faulty peers."""
        return self.env.t

    @property
    def ell(self) -> int:
        """Input length in bits."""
        return self.env.ell

    @property
    def others(self) -> list[int]:
        """All peer IDs except this peer's own."""
        return [pid for pid in self.env.peer_ids if pid != self.pid]

    # -- receiving --------------------------------------------------------------

    def deliver(self, message: Message) -> None:
        """Network/source callback: a message arrived."""
        if isinstance(message, SourceResponse):
            self._source_responses[message.request_id] = message.values
        else:
            self.inbox.add(message)
            for handler in self._handlers.get(type(message), ()):
                handler(message)
        self.env.kernel.notify(self)

    def on_message(self, message_type: Type[M],
                   handler: Callable[[M], None]) -> None:
        """Register a reactive handler for ``message_type``.

        Handlers run at delivery time, *outside* the generator body —
        they let a peer answer requests while its main logic is parked
        in a wait (the paper's "upon receiving a request" clauses).
        Handlers must not yield; if service must be deferred (the
        receiver has not reached the required stage yet), the handler
        should queue the request and the body should drain the queue at
        stage transitions.
        """
        self._handlers.setdefault(message_type, []).append(handler)

    # -- sending ----------------------------------------------------------------

    def send(self, destination: int, message: Message) -> None:
        """Send one message to ``destination``."""
        self.env.network.send(self.pid, destination, message,
                              sender_cycle=self.cycle)

    def broadcast(self, message: Message) -> None:
        """Send ``message`` to every *other* peer (ascending ID order).

        A crash mid-broadcast leaves a prefix of the ID order delivered
        — exactly the partial-send behaviour the crash model allows.
        """
        self.env.network.broadcast(self.pid, self.env.n, message,
                                   sender_cycle=self.cycle)

    # -- querying the source -------------------------------------------------------

    @property
    def source_count(self) -> int:
        """Number of external source endpoints."""
        return self.env.source.k

    def start_query(self, indices: Iterable[int], source: int = 0) -> int:
        """Issue a query to endpoint ``source`` without waiting.

        Returns the request id; pair with :meth:`response_ready` /
        :meth:`take_response` to collect the answer later.  The
        multi-source protocols use this to keep ``q`` queries in
        flight per chunk instead of serializing round trips.
        """
        if not isinstance(indices, range):
            indices = list(indices)
        request_id = self._request_counter
        self._request_counter += 1
        if not indices:
            self._source_responses[request_id] = {}
            return request_id
        self.env.source.request_bits_from(source, self.pid, request_id,
                                          indices)
        return request_id

    def response_ready(self, request_id: int) -> bool:
        """True once the answer to ``request_id`` has arrived."""
        return request_id in self._source_responses

    def take_response(self, request_id: int) -> BitRun:
        """Pop and return the answer to ``request_id`` (once ready)."""
        return self._source_responses.pop(request_id)

    def query_bits(self, indices: Iterable[int]) -> Iterator[WaitUntil]:
        """Query the source for ``indices``; yields until answered.

        Use as ``values = yield from self.query_bits([...])``; the
        result maps each index to its bit.  An empty index set costs
        nothing and returns immediately.
        """
        # Keep range objects intact: the source has a fast path for
        # contiguous step-1 ranges (no sort/dedup, one-shift bitmask).
        if not isinstance(indices, range):
            indices = list(indices)
        if not indices:
            return BitRun((), b"")
        request_id = self._request_counter
        self._request_counter += 1
        self.env.source.request_bits(self.pid, request_id, indices)
        yield WaitUntil(lambda: request_id in self._source_responses,
                        f"peer-{self.pid} source response #{request_id}")
        return self._source_responses.pop(request_id)

    def query_segment(self, lo: int, hi: int) -> Iterator[WaitUntil]:
        """Query the contiguous segment ``[lo, hi)``; returns a bit string."""
        values = yield from self.query_bits(range(lo, hi))
        return values.segment(lo, hi)

    # -- waiting ---------------------------------------------------------------------

    def wait_until(self, predicate: Callable[[], bool],
                   description: str) -> WaitUntil:
        """Build a wait request tagged with this peer's name."""
        return WaitUntil(predicate, f"peer-{self.pid}: {description}")

    def wait_for_messages(self, message_type: Type[M], minimum: int,
                          predicate: Optional[Callable[[M], bool]] = None,
                          description: str = "") -> WaitUntil:
        """Wait until ``minimum`` distinct senders match.

        Counting distinct senders (not raw messages) is what the
        protocols' "hear from at least n - t peers" steps mean; it also
        blunts Byzantine message spam.
        """
        what = description or f"{minimum} x {message_type.__name__}"
        if predicate is None:
            heard = self.inbox._senders[message_type]  # kept by ``add``
            return self.wait_until(lambda: len(heard) >= minimum, what)
        return self.wait_until(
            lambda: len(self.inbox.senders(message_type, predicate)) >= minimum,
            what)

    def wait_with_deadline(self, predicate: Callable[[], bool],
                           deadline: float, description: str) -> WaitUntil:
        """Wait for ``predicate`` but give up at absolute ``deadline``.

        NOTE: clocks do not exist in the pure asynchronous model — no
        DR-model protocol in this library uses this.  It exists for the
        *application* layer (the oracle pipeline), where a Byzantine
        data source can make a Download wait unsatisfiable and the
        deployment is partially synchronous in practice (the paper's
        footnote 4).  The caller must handle the timed-out case.
        """
        kernel = self.env.kernel
        delay = max(0.0, deadline - kernel.now)
        kernel.schedule(delay, lambda: kernel.notify(self),
                        kind=f"deadline:{self.name}")
        return self.wait_until(
            lambda: predicate() or kernel.now >= deadline, description)

    # -- cycles & termination ------------------------------------------------------

    def begin_cycle(self) -> None:
        """Mark the start of the peer's next local cycle.

        Cycle numbers feed the adversary's cycle-respecting scheduling
        restriction: latencies for cycle ``c`` messages are fixed
        without knowledge of cycle-``c`` coin flips.
        """
        self.cycle += 1
        telemetry = self.env.telemetry
        if telemetry is not None:
            telemetry.emit("cycle", {"t": self.env.kernel.now,
                                     "peer": self.pid,
                                     "cycle": self.cycle})
        self.env.adversary.on_cycle_start(self.pid, self.cycle,
                                          self.env.kernel.now)

    def finish(self, output: BitArray) -> None:
        """Terminate with ``output`` (call immediately before returning)."""
        self.output = output
        self.env.metrics.record_termination(self.pid, self.env.kernel.now)
        if self.env.trace is not None:
            self.env.trace.record(self.env.kernel.now, "terminate",
                                  pid=self.pid)
        telemetry = self.env.telemetry
        if telemetry is not None:
            telemetry.emit("terminate", {"t": self.env.kernel.now,
                                         "peer": self.pid})

    def body(self) -> Iterator[WaitUntil]:  # pragma: no cover - abstract
        raise NotImplementedError
