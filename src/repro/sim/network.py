"""The complete peer-to-peer network with adversary-controlled delays.

Every ``send`` consults the adversary, which returns either a finite
latency (the message is scheduled for delivery) or the
:data:`WITHHOLD` sentinel (the message is parked in the withheld pool).
Withheld messages model the adversary's power to delay "by any finite
amount": they are flushed when the system reaches quiescence — the
point at which, per the model discussion in Section 3.1, the adversary
is *compelled* to release delayed messages because every honest peer is
parked waiting.

Crash faults interact with sending: the adversary may crash a sender
*between individual sends of a batch* (the model explicitly allows a
peer to crash "after it has already sent some, but perhaps not all, of
the messages").  The network therefore asks the adversary for
permission before each send; a refusal halts the sender on the spot and
drops that message and all later ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, runtime_checkable

from repro.sim.errors import ProtocolViolation
from repro.sim.messages import Message
from repro.sim.metrics import MetricsCollector
from repro.sim.scheduler import Kernel
from repro.topology.routing import Router


class _Withhold:
    """Sentinel type for adversary-withheld deliveries."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "WITHHOLD"


#: Returned by an adversary's latency methods to park a delivery until
#: quiescence (or until the adversary chooses to release it).
WITHHOLD = _Withhold()

Latency = "float | _Withhold"


@runtime_checkable
class Receiver(Protocol):
    """Anything that can be attached to the network as a peer."""

    pid: int

    def deliver(self, message: Message) -> None:
        """Accept a delivered message (called at delivery time)."""

    @property
    def live(self) -> bool:
        """False once the process crashed or finished."""


@dataclass
class WithheldMessage:
    """One delivery the adversary is currently sitting on.

    ``resume`` is set only for withheld *relay hops* on a routed
    topology: releasing the entry must land the message at the hop's
    destination and continue the route, not final-deliver it there.
    """

    sender: int
    destination: int
    message: Message
    sent_at: float
    resume: Optional[object] = None


class _Route:
    """One topology-routed delivery, carried through all its hops.

    Send-side adversary hooks (``permit_send``, ``transform_message``)
    fired once, at the origin; the relay is a transport service of the
    network layer, so what the adversary keeps for every hop is its
    scheduling power — each hop draws its own ``message_latency`` and
    may be withheld independently (a withheld hop released at
    quiescence lands at the hop's destination and the route continues
    from there, so the adversary can stall a route one quiescence per
    hop but never forever).  Only one hop is ever pending, so the
    bound :meth:`arrive` is every hop's scheduled action and a
    withheld hop's ``resume``.
    """

    __slots__ = ("network", "hops", "index", "message", "cycle", "honest")

    def __init__(self, network: "Network", hops: list, message: Message,
                 cycle: int, honest: bool) -> None:
        self.network = network
        self.hops = hops
        self.index = 0  # pending hop: hops[index] -> hops[index + 1]
        self.message = message
        self.cycle = cycle
        self.honest = honest

    def forward(self) -> None:
        """Dispatch the pending hop."""
        network, message, index = self.network, self.message, self.index
        hop_src, hop_dst = self.hops[index], self.hops[index + 1]
        latency = network.adversary.message_latency(
            hop_src, hop_dst, message, network.kernel.now, self.cycle)
        if (network.packetize and network.message_size_limit is not None
                and isinstance(latency, (int, float))):
            latency = float(latency) * -(
                -message.size_bits() // network.message_size_limit)
        network._dispatch(
            hop_src, hop_dst, message, latency, self.arrive,
            "deliver" if index + 2 == len(self.hops) else "relay")

    def arrive(self) -> None:
        """The pending hop arrived at ``hops[index + 1]``.

        At the final destination this is a delivery (telemetry carries
        the total ``hop`` count; ``src`` stays the original sender, as
        on the direct path).  At an intermediate node the message is
        forwarded to the next hop — unless the relay *crashed*, in
        which case the route is severed and the message dies (sparse
        topologies make crash faults cut routes; that is the model).
        A relay that merely finished still forwards: relaying is the
        network layer's transport service, and a terminated-but-correct
        node's links stay up.
        """
        network, message, hops = self.network, self.message, self.hops
        hop = self.index + 1
        node = hops[hop]
        receiver = network._receivers[node]
        now = network.kernel.now
        trace, telemetry = network.trace, network.telemetry
        if hop + 1 == len(hops):
            if not receiver.live:
                return
            if trace is not None:
                trace.record(now, "deliver",
                             sender=message.sender, destination=node,
                             message=type(message).__name__, hop=hop)
            if telemetry is not None:
                telemetry.emit("deliver", {
                    "t": now, "src": message.sender, "dst": node,
                    "type": type(message).__name__, "hop": hop})
            receiver.deliver(message)
            return
        if getattr(receiver, "halted", False):
            return  # route severed at a crashed relay
        size = message.size_bits()
        if trace is not None:
            trace.record(now, "deliver",
                         sender=hops[hop - 1], destination=node,
                         message=type(message).__name__,
                         relay=True, hop=hop)
            trace.record(now, "send",
                         sender=node, destination=hops[hop + 1],
                         message=type(message).__name__, bits=size,
                         honest=self.honest, relay=True, hop=hop + 1)
        if telemetry is not None:
            telemetry.emit("deliver", {
                "t": now, "src": hops[hop - 1], "dst": node,
                "type": type(message).__name__, "relay": True, "hop": hop})
            telemetry.emit("send", {
                "t": now, "src": node, "dst": hops[hop + 1],
                "type": type(message).__name__, "bits": size,
                "honest": self.honest, "relay": True, "hop": hop + 1})
        if self.honest:
            network.metrics.record_message(node, size)
        self.index = hop
        self.forward()


def send_to_each(network, sender_pid: int, n: int, message: Message,
                 sender_cycle: int) -> None:
    """A broadcast as ``n - 1`` separate ``network.send`` calls, in
    ascending destination order (shared with the Byzantine corrupting
    proxy, whose ``send`` rewrites per destination)."""
    for destination in range(n):
        if destination != sender_pid:
            network.send(sender_pid, destination, message,
                         sender_cycle=sender_cycle)


class Network:
    """Complete network over ``n`` peers with per-message adversary delays."""

    def __init__(self, kernel: Kernel, metrics: MetricsCollector,
                 adversary, message_size_limit: Optional[int] = None,
                 packetize: bool = False, fifo: bool = False,
                 topology=None, route_seed: int = 0) -> None:
        self.kernel = kernel
        self.metrics = metrics
        self.adversary = adversary
        self.message_size_limit = message_size_limit
        #: With packetize=True a message of ``k * b`` bits travels as
        #: ``k`` back-to-back packets: its delivery latency is
        #: multiplied by ``ceil(size / b)`` instead of being rejected.
        #: This models the paper's ``X / b`` transmission-time terms
        #: (e.g. the long responses in Theorem 2.13's analysis).
        self.packetize = packetize
        #: With fifo=True no message may overtake an earlier message on
        #: the same directed link: a delivery is pushed just past the
        #: link's previous delivery if the adversary's latency would
        #: reorder them.  The base model is non-FIFO (the default);
        #: the option exists because several classical arguments (e.g.
        #: "receiving a phase-2 message implies the phase-1 message
        #: arrived", Algorithm 1's completion case) become exact under
        #: FIFO links.  Withheld messages released at quiescence bypass
        #: the ordering (they are the adversary's to sequence).
        self.fifo = fifo
        #: Peer-to-peer connectivity.  ``None`` is the model's complete
        #: graph: every pair is one hop and the code path is
        #: byte-identical to the pre-topology engine.  A sparse
        #: :class:`~repro.topology.Topology` routes non-adjacent pairs
        #: hop by hop through a seeded shortest-path relay; each hop
        #: draws its own adversary latency and is charged as one
        #: message to the relaying peer.  The external data source is
        #: *not* part of the graph — queries stay direct, so Q is a
        #: topology-independent measure (only T and M degrade).
        self.topology = topology
        self._router = None
        if topology is not None and not topology.is_complete:
            self._router = Router(topology, seed=route_seed)
        self._receivers: dict[int, Receiver] = {}
        #: ``message type -> span sink`` (see :meth:`span_sink`).
        self._span_sinks: dict[type, object] = {}
        self._withheld: list[WithheldMessage] = []
        self._last_delivery: dict[tuple[int, int], float] = {}
        #: Optional TraceRecorder; when set, every send/delivery is
        #: recorded (wired by the runner when tracing is enabled).
        self.trace = None
        #: Resolved telemetry backend, or ``None`` when disabled (the
        #: runner wires this alongside ``trace``).
        self.telemetry = None
        kernel.on_quiescence = self._flush_withheld

    # -- wiring ---------------------------------------------------------------

    def attach(self, receiver: Receiver) -> None:
        """Register ``receiver`` under its ``pid``."""
        if receiver.pid in self._receivers:
            raise ValueError(f"peer {receiver.pid} attached twice")
        self._receivers[receiver.pid] = receiver

    def unlink(self) -> None:
        """Drop the references to receivers and span sinks, which
        reference the network back (see :meth:`Kernel.unlink`)."""
        self._receivers.clear()
        self._span_sinks.clear()

    def receiver(self, pid: int) -> Receiver:
        """Look up the attached receiver for ``pid``."""
        return self._receivers[pid]

    @property
    def withheld_count(self) -> int:
        """Number of deliveries currently parked by the adversary."""
        return len(self._withheld)

    # -- sending ----------------------------------------------------------------

    def send(self, sender_pid: int, destination: int, message: Message,
             *, sender_cycle: int = 0, honest: bool = True) -> bool:
        """Send ``message`` from ``sender_pid`` to ``destination``.

        Returns True if the message left the sender (it may still be
        withheld/delayed arbitrarily), False if the sender was crashed
        by the adversary before this send.
        """
        if destination not in self._receivers:
            raise ValueError(f"unknown destination peer {destination}")
        sender = self._receivers.get(sender_pid)
        if sender is not None and not sender.live:
            return False
        if not self.adversary.permit_send(sender_pid, destination, message,
                                          self.kernel.now):
            # Crash mid-batch: the adversary killed the sender before
            # this particular message went out.
            if self.telemetry is not None:
                self.telemetry.emit("crash_send", {
                    "t": self.kernel.now, "peer": sender_pid,
                    "dst": destination})
            return False
        transformed = self.adversary.transform_message(
            sender_pid, destination, message, self.kernel.now, sender_cycle)
        if transformed is not message and self.telemetry is not None:
            self.telemetry.emit("transform", {
                "t": self.kernel.now, "src": sender_pid,
                "dst": destination, "type": type(message).__name__})
        if transformed is None:
            return True  # dynamically-corrupted sender: message eaten
        message = transformed
        size = message.size_bits()
        if honest and self.message_size_limit is not None \
                and size > self.message_size_limit and not self.packetize:
            raise ProtocolViolation(
                f"peer {sender_pid} sent a {size}-bit message; the limit "
                f"is {self.message_size_limit} bits")
        if honest:
            self.metrics.record_message(sender_pid, size)
        if self.trace is not None:
            self.trace.record(self.kernel.now, "send",
                              sender=sender_pid, destination=destination,
                              message=type(message).__name__, bits=size,
                              honest=honest)
        if self.telemetry is not None:
            self.telemetry.emit("send", {
                "t": self.kernel.now, "src": sender_pid,
                "dst": destination, "type": type(message).__name__,
                "bits": size, "honest": honest})
        if self._router is not None:
            hops = self._router.path(sender_pid, destination)
            if len(hops) > 2:
                _Route(self, hops, message, sender_cycle, honest).forward()
                return True
        latency = self.adversary.message_latency(
            sender_pid, destination, message, self.kernel.now, sender_cycle)
        if (self.packetize and self.message_size_limit is not None
                and isinstance(latency, (int, float))):
            packets = -(-size // self.message_size_limit)
            latency = float(latency) * packets
        self._dispatch(sender_pid, destination, message, latency)
        return True

    def _dispatch(self, sender_pid: int, destination: int, message: Message,
                  latency, arrive=None, kind: str = "deliver") -> None:
        """Park or schedule one link traversal; a routed hop passes its
        route's ``arrive``, so landing continues the route."""
        if isinstance(latency, _Withhold):
            if self.telemetry is not None:
                self.telemetry.emit("withhold", {
                    "t": self.kernel.now, "src": sender_pid,
                    "dst": destination, "type": type(message).__name__})
            self._withheld.append(WithheldMessage(
                sender_pid, destination, message, self.kernel.now, arrive))
            return
        if not isinstance(latency, (int, float)) or latency < 0:
            raise ValueError(
                f"adversary returned invalid latency {latency!r}")
        delay = float(latency)
        if self.fifo:
            link = (sender_pid, destination)
            earliest = self._last_delivery.get(link, 0.0) + 1e-9
            arrival = max(self.kernel.now + delay, earliest)
            self._last_delivery[link] = arrival
            delay = arrival - self.kernel.now
        self.kernel.schedule(
            delay,
            arrive or (lambda: self._deliver(destination, message)),
            kind=f"{kind}:{sender_pid}->{destination}")

    # -- broadcasting ------------------------------------------------------

    def span_sink(self, message_type: type, factory):
        """The run's span sink for ``message_type``, built by
        ``factory()`` on first request.

        A span sink is a run-shared object that owns the delivery
        semantics of one message type: a protocol that reads those
        messages only through its handler (never from the inbox)
        registers one here, and :meth:`broadcast` may then hand it a
        whole run of destinations as a single event.  It provides
        ``deliver_span(message, lo, hi)`` — the message reached every
        pid in ``[lo, hi)`` — and ``owns(pid)`` — ``pid``'s deliveries
        of this type go through the sink; a destination it does not own
        (a scripted attacker, say) always gets its own delivery event.
        """
        sink = self._span_sinks.get(message_type)
        if sink is None:
            sink = self._span_sinks[message_type] = factory()
        return sink

    def broadcast(self, sender_pid: int, n: int, message: Message,
                  *, sender_cycle: int = 0) -> None:
        """Send ``message`` to every peer ``0 .. n-1`` but the sender,
        in ascending destination order.

        Every adversary hook (``permit_send``, ``transform_message``,
        ``message_latency``) fires once per destination in that order,
        so RNG draw order and crash-mid-batch behaviour (a prefix of
        the ID order goes out) do not depend on how deliveries are
        scheduled.  Only the *scheduling* may be collapsed: when the
        message type has a :meth:`span_sink` and nothing acts per
        delivery — no trace or telemetry (they record each delivery),
        no FIFO links or size limit (they act per message), no routed
        topology (a span is one hop to consecutive pids) — a maximal
        run of consecutive destinations that got the message
        untransformed with the same numeric latency becomes one queued
        event, delivered by ``sink.deliver_span``.  The run's
        per-destination events would have carried consecutive sequence
        numbers, so no other event can order between them and the pop
        order of the whole queue is unchanged.  Withheld, transformed
        and lone deliveries, and destinations the sink does not own,
        take the per-message path; so does every send of a Byzantine
        sender, whose corrupting proxy never reaches this method.
        """
        sink = self._span_sinks.get(type(message))
        if (sink is None or self._router is not None
                or self.telemetry is not None or self.trace is not None
                or self.fifo or self.message_size_limit is not None):
            send_to_each(self, sender_pid, n, message, sender_cycle)
            return
        kernel = self.kernel
        adversary = self.adversary
        metrics = self.metrics
        sender = self._receivers.get(sender_pid)
        now = kernel.now
        sent = 0          # untransformed sends, for one batched charge
        run_lo = -1       # current groupable destination run [lo, hi)
        run_hi = -1
        run_latency = 0.0

        def flush() -> None:
            nonlocal run_lo
            if run_lo < 0:
                return
            if run_hi - run_lo == 1:
                destination = run_lo
                kernel.schedule(
                    run_latency,
                    lambda: self._deliver(destination, message),
                    kind=f"deliver:{sender_pid}->{destination}")
            else:
                lo, hi = run_lo, run_hi
                kernel.schedule(
                    run_latency,
                    lambda: self._deliver_span(message, lo, hi, sink),
                    kind=f"deliver-span:{sender_pid}->{lo}:{hi}")
            run_lo = -1

        for destination in range(n):
            if destination == sender_pid:
                continue
            if sender is not None and not sender.live:
                # Crashed mid-batch: the remaining sends would all
                # short-circuit on the live check, exactly as here.
                break
            if not adversary.permit_send(sender_pid, destination, message,
                                         now):
                continue
            transformed = adversary.transform_message(
                sender_pid, destination, message, now, sender_cycle)
            if transformed is None:
                continue  # dynamically-corrupted sender: message eaten
            if transformed is not message:
                flush()
                metrics.record_message(sender_pid, transformed.size_bits())
                latency = adversary.message_latency(
                    sender_pid, destination, transformed, now, sender_cycle)
                self._dispatch(sender_pid, destination, transformed, latency)
                continue
            sent += 1
            latency = adversary.message_latency(
                sender_pid, destination, message, now, sender_cycle)
            if isinstance(latency, _Withhold) or not sink.owns(destination):
                flush()
                self._dispatch(sender_pid, destination, message, latency)
                continue
            if not isinstance(latency, (int, float)) or latency < 0:
                raise ValueError(
                    f"adversary returned invalid latency {latency!r}")
            latency = float(latency)
            if run_lo >= 0 and destination == run_hi \
                    and latency == run_latency:
                run_hi = destination + 1
            else:
                flush()
                run_lo, run_hi, run_latency = (destination,
                                               destination + 1, latency)
        flush()
        if sent:
            metrics.record_messages(sender_pid, sent, message.size_bits())

    def _deliver_span(self, message: Message, lo: int, hi: int,
                      sink) -> None:
        """Deliver ``message`` to the contiguous pid span ``[lo, hi)``
        as one event.  ``events_processed`` counts deliveries, so the
        span is charged one event per destination; the sink owns the
        per-peer effects (tallies and completion notifies).
        Crashed/finished receivers need no check here: a delivery to
        one is an event that evaporates, and the sink's state for a
        peer that is no longer live is never read again.
        """
        self.kernel.events_processed += (hi - lo) - 1
        sink.deliver_span(message, lo, hi)

    def deliver_direct(self, destination: int, message: Message,
                       latency) -> None:
        """Schedule a delivery that bypasses send-side bookkeeping.

        Used by the data source (whose responses are not peer messages)
        and by the quiescence flush.  ``latency`` may be
        :data:`WITHHOLD`.
        """
        self._dispatch(message.sender, destination, message, latency)

    def _deliver(self, destination: int, message: Message) -> None:
        receiver = self._receivers[destination]
        if not receiver.live:
            return  # deliveries to crashed/finished peers evaporate
        if self.trace is not None:
            self.trace.record(self.kernel.now, "deliver",
                              sender=message.sender,
                              destination=destination,
                              message=type(message).__name__)
        if self.telemetry is not None:
            self.telemetry.emit("deliver", {
                "t": self.kernel.now, "src": message.sender,
                "dst": destination, "type": type(message).__name__})
        receiver.deliver(message)

    # -- quiescence ----------------------------------------------------------------

    def _flush_withheld(self) -> bool:
        """Quiescence hook: let the adversary release parked deliveries.

        Returns True when at least one new event was scheduled (the
        kernel then keeps running).  The adversary chooses which
        withheld messages to release; by the model it must eventually
        release them all, so the default adversary policy releases
        everything.
        """
        if not self._withheld:
            return False
        released = self.adversary.release_at_quiescence(list(self._withheld))
        if not released:
            return False
        released_ids = {id(entry) for entry in released}
        self._withheld = [entry for entry in self._withheld
                          if id(entry) not in released_ids]
        for entry in released:
            if self.telemetry is not None:
                self.telemetry.emit("release", {
                    "t": self.kernel.now, "src": entry.sender,
                    "dst": entry.destination,
                    "type": type(entry.message).__name__})
            self.kernel.schedule(
                0.0,
                (entry.resume if entry.resume is not None else
                 (lambda e=entry: self._deliver(e.destination, e.message))),
                kind=f"release:{entry.sender}->{entry.destination}")
        return True
