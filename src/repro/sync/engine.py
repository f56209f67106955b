"""Lockstep synchronous execution of the DR model.

The target paper's prior-work rows (and the companion DISC/PODC paper
itself) live in the classic synchronous model: computation proceeds in
global rounds; every message sent in round ``r`` arrives before round
``r + 1``; queries are answered within the round.  The asynchronous
kernel can *emulate* synchrony (unit latencies), but round-native
execution is worth having on its own:

- **round complexity is exact** — the engine counts rounds, which is
  the synchronous papers' time measure;
- the **round barrier** is real: a round's messages all arrive
  together, however many the body waits for;
- protocols read naturally, one ``round()`` method per paper round.

The adversary is the simulator's (:class:`repro.adversary.Adversary`,
a spec's ``ADVERSARIES`` entry), bound the way the simulator binds it;
the :class:`SyncEngine` docstring says what it can do in rounds.

The engine is deliberately independent of :mod:`repro.sim`'s kernel —
a hundred-line loop, not an event heap — because lockstep needs none
of the machinery (and sharing it would couple the two time models).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.adversary.base import NullAdversary
from repro.obs.schema import SCHEMA_VERSION
from repro.obs.telemetry import get_backend as _get_telemetry
from repro.sim.messages import Message
from repro.sim.errors import ConfigurationError
from repro.sim.peer import SimEnv
from repro.sim.source import SourceCore
from repro.topology import resolve_topology
from repro.topology.routing import Router
from repro.util.bitarrays import BitArray, BitRun
from repro.util.rng import SplittableRNG, derive_seed
from repro.util.validation import check_nonnegative, check_positive

#: Safety cap: no protocol in this library needs more rounds.
MAX_ROUNDS = 10_000


@dataclass
class SyncConfig:
    """Shared parameters of one synchronous execution.

    ``topology`` is the run's :class:`~repro.topology.Topology` when
    connectivity is sparse, else ``None`` (the model's complete
    graph).  Round-native protocols may read it — e.g. to size their
    waiting windows by ``topology.diameter``, the lockstep bound on
    how late a routed broadcast can arrive.
    """

    n: int
    t: int
    ell: int
    topology: Optional[object] = None

    def __post_init__(self) -> None:
        check_positive("n", self.n)
        check_nonnegative("t", self.t)
        check_positive("ell", self.ell)
        if self.t >= self.n:
            raise ValueError(f"t={self.t} must be below n={self.n}")


class SyncSource(SourceCore):
    """Round-synchronous source: queries are answered immediately.

    The round-native front of :class:`~repro.sim.source.SourceCore`
    (same ledger, same fault models, same views for the same seed as
    the async :class:`~repro.sim.sourceset.SourceSet`).  Round-model
    mapping of the fault grammar: ``@onset`` compares against the
    round number; ``withhold`` answers nothing (an empty response this
    round — synchrony means there is no "later"); ``slow`` degenerates
    to honest, since the model answers every query within the round by
    definition.
    """

    def __init__(self, data: BitArray, *, k: int = 1, faults=(),
                 rng: Optional[SplittableRNG] = None) -> None:
        super().__init__(data, k=k, faults=faults, rng=rng)
        #: Live telemetry backend (or None) + current round, both set by
        #: the engine so query events carry round-native timestamps.
        self.telemetry = None
        self.telemetry_round = 0
        #: ``message type -> tally`` the run's hosted bodies share, as
        #: the simulator's peers share ``Network.span_sink``'s.
        self.span_sinks: dict[type, object] = {}

    def query(self, pid: int, indices: Sequence[int]) -> BitRun:
        return self.query_from(0, pid, indices)

    def unlink(self) -> None:
        """The run ended: each span sink drops its references to the
        peers, then the source drops the sinks."""
        for sink in self.span_sinks.values():
            sink.unlink()
        self.span_sinks.clear()

    def query_from(self, source_id: int, pid: int,
                   indices: Sequence[int]) -> BitRun:
        """Query endpoint ``source_id``; charged like any query.

        A withholding endpoint returns the empty run (charged anyway —
        the bits were requested); other faults answer from their view once
        the round has reached their onset.
        """
        unique = self.charge(pid, source_id, indices)
        now = self.telemetry_round
        if self.telemetry is not None:
            event = {"t": float(now), "peer": pid, "bits": len(unique)}
            if self.k > 1:
                event["source"] = source_id
            self.telemetry.emit("query", event)
        fault = self.active_fault(source_id, now)
        if fault is not None and fault.withholding:
            return BitRun((), b"")
        return self.read(source_id, pid, unique, now)


class SyncPeer:
    """Base class for round-native protocol peers.

    Subclasses implement :meth:`round`, which receives the round number
    and the messages delivered at the end of the previous round, and
    returns the messages to send this round (destination -> message,
    or the :meth:`broadcast` shorthand).  Query the source with
    ``self.query(indices)``; terminate by calling :meth:`finish`.
    """

    def __init__(self, pid: int, config: SyncConfig,
                 rng: SplittableRNG) -> None:
        self.pid = pid
        self.config = config
        #: This peer's coins: the run's root, split once per peer as
        #: :class:`~repro.sim.peer.Peer` splits ``SimEnv.rng`` — one
        #: seed, the same coins on both engines.
        self.rng = rng.split(f"peer-{pid}")
        self.output: Optional[BitArray] = None
        self.finished_round: Optional[int] = None
        #: What ``run_header.protocol`` calls this peer's protocol.
        self.protocol_label = type(self).__name__
        #: Deadline-aware waiting: a peer parked until round ``r`` (set
        #: this to ``r``) is deliberate silence, not a stall — the
        #: engine's quiet-round detector skips rounds where any live
        #: peer still has an unexpired deadline (how a peer waits out a
        #: routed broadcast's worst-case ``diameter`` rounds).
        self.waiting_until: Optional[int] = None
        #: Set by a crash (:meth:`halt`); a halted peer never acts again.
        self.halted = False
        self._source: Optional[SyncSource] = None
        self._outbox: dict[int, list[Message]] = {}

    # -- conveniences ------------------------------------------------------

    @property
    def n(self) -> int:
        return self.config.n

    @property
    def t(self) -> int:
        return self.config.t

    @property
    def ell(self) -> int:
        return self.config.ell

    @property
    def done(self) -> bool:
        return self.output is not None

    @property
    def live(self) -> bool:
        """Whether a crash can still stop this peer — what a crash
        adversary asks of a simulator process.  A peer that finishes in
        a round still sends that round's outbox, so only a crash ends
        it."""
        return not self.halted

    def halt(self) -> None:
        """Crash this peer: it never acts again."""
        self.halted = True

    def corrupt(self, adversary) -> None:
        """The adversary plans to fail this peer.  A round-native peer
        has no body for it to rewrite or replace, so only its crashes
        (``permit_send``) reach it; a hosted body overrides this."""

    def query(self, indices: Sequence[int]) -> BitRun:
        """Query the source (answered within the round)."""
        return self._source.query(self.pid, indices)

    def send(self, destination: int, message: Message) -> None:
        """Queue one message for end-of-round delivery."""
        self._outbox.setdefault(destination, []).append(message)

    def broadcast(self, message: Message) -> None:
        """Queue ``message`` to every other peer."""
        for destination in range(self.n):
            if destination != self.pid:
                self.send(destination, message)

    def finish(self, output: BitArray) -> None:
        """Terminate with ``output`` (recorded with the current round)."""
        self.output = output

    # -- protocol hook --------------------------------------------------------

    def round(self, round_no: int, inbox: list[Message]) -> None:
        """One protocol round; override in subclasses."""
        raise NotImplementedError

    def unlink(self) -> None:
        """The run ended: a peer that keeps a reference back into the
        run (a hosted body's ports) drops it here."""


@dataclass
class SyncRunResult:
    """Outcome of one synchronous execution."""

    data: BitArray
    outputs: dict[int, Optional[BitArray]]
    rounds: int
    honest: set[int]
    faulty: set[int]
    query_complexity: int
    total_query_bits: int
    message_complexity: int
    per_peer_query_bits: dict[int, int] = field(default_factory=dict)
    #: Total payload+header bits sent by non-corrupted peers (the
    #: message analogue of ``total_query_bits``).
    message_bits: int = 0
    #: Messages sent per honest peer (mirrors ``per_peer_query_bits``).
    per_peer_messages: dict[int, int] = field(default_factory=dict)
    #: Messages delivered across the run (the lockstep analogue of the
    #: async kernel's processed-event count).
    events_processed: int = 0

    @property
    def download_correct(self) -> bool:
        return all(self.outputs.get(pid) == self.data
                   for pid in self.honest)


class SyncEngine:
    """Run peers in lockstep rounds until every honest peer finishes.

    ``adversary`` is the simulator's (a spec's ``ADVERSARIES`` entry),
    bound as :class:`~repro.sim.runner.Simulation` binds it: over the
    run's root ``SplittableRNG(seed)``, so one seed fails the same
    peers on both engines.  Each peer it plans to fail is handed to it
    (:meth:`SyncPeer.corrupt`: a hosted body is then built by its
    ``make_faulty_peer``).  Each round's outbox goes through its
    ``permit_send`` in ascending destination order, and the first
    refusal crashes the sender from that message on; a planned crash
    that never fires leaves the peer honest.  Corrupted peers' sends
    are not charged, and neither they nor crashed peers count for Q.
    """

    def __init__(self, *, config: SyncConfig, data: BitArray,
                 peer_factory, adversary=None,
                 seed: int = 0, sources: int = 1,
                 source_faults=()) -> None:
        if len(data) != config.ell:
            raise ValueError(
                f"data has {len(data)} bits, config says {config.ell}")
        self.config = config
        self.data = data.copy()
        self.seed = seed
        self.adversary = adversary or NullAdversary()
        #: Seeded shortest-path router, or ``None`` on the complete
        #: graph.  A message over an ``h``-hop route is read by its
        #: destination ``h`` rounds after it was sent: each hop takes
        #: one round, each relay forward is charged as one message to
        #: the relaying peer, and a relay that crashes mid-route
        #: severs it.
        self.router = (Router(config.topology,
                              seed=derive_seed(seed, "routing"))
                       if config.topology is not None else None)
        #: In-flight routed messages: ``(hops, index, message,
        #: honest_origin)`` with the message parked at
        #: ``hops[index + 1]``, forwarded at the next delivery step.
        self._relays: list[tuple] = []
        root = SplittableRNG(seed)
        self.source = SyncSource(self.data.copy(), k=sources,
                                 faults=source_faults, rng=root)
        self.round_no = 0
        #: The run as the adversary sees it; the round is its clock.
        self.env = SimEnv(kernel=self, network=None, source=self.source,
                          metrics=None, adversary=self.adversary,
                          n=config.n, t=config.t, ell=config.ell, rng=root,
                          topology=config.topology)
        self.adversary.bind(self.env)
        self.planned_faulty = set(self.adversary.faulty_peers())
        if len(self.planned_faulty) > config.t:
            raise ValueError(
                f"adversary plans {len(self.planned_faulty)} faults, "
                f"budget is t={config.t}")
        self.peers: dict[int, SyncPeer] = {}
        for pid in range(config.n):
            peer = peer_factory(pid, config, root)
            peer._source = self.source
            if pid in self.planned_faulty:
                peer.corrupt(self.adversary)
            self.peers[pid] = peer
        self.adversary.after_setup(self.peers)
        #: Faulty before anything ran: the corrupted peers.  A crash
        #: victim joins the faulty set only when its crash fires.
        self.corrupted = set(self.adversary.actually_faulty())
        self._permit_send = self.adversary.send_hooks()[0]
        self.messages_sent = 0
        self.message_bits = 0
        self.per_peer_messages: dict[int, int] = {}

    @property
    def now(self) -> float:
        """The adversary's clock: the current round."""
        return float(self.round_no)

    def schedule(self, delay: float, action) -> None:
        raise ConfigurationError(
            f"{type(self.adversary).__name__} schedules an action in "
            f"virtual time (a crash at a time?); lockstep counts rounds "
            f"and has no clock to run it on")

    #: Consecutive rounds with no traffic and no termination before the
    #: engine declares the run stalled (a deterministic protocol repeats
    #: such a round forever; randomized ones get a few retries).
    STALL_LIMIT = 3

    def _transmit(self, sink, round_no: int, src: int, dst: int,
                  message: Message, honest: bool, charged: bool,
                  hop: int = 0) -> None:
        """One link traversal ``src -> dst``: charged to ``src`` when
        ``charged`` and announced as a ``send`` event (a relay forward,
        ``hop > 0``, carries ``relay`` and its hop number)."""
        bits = message.size_bits()
        if charged:
            self.messages_sent += 1
            self.per_peer_messages[src] = \
                self.per_peer_messages.get(src, 0) + 1
            self.message_bits += bits
        if sink is not None:
            event = {"t": float(round_no), "src": src, "dst": dst,
                     "type": type(message).__name__, "bits": bits,
                     "honest": honest}
            if hop:
                event["relay"] = True
                event["hop"] = hop
            sink.emit("send", event)

    def _permitted(self, sink, pid: int,
                   outbox: dict[int, list[Message]]):
        """``pid``'s ``outbox`` as far as the adversary lets it out:
        in ascending destination order, up to the first refused
        message (the simulator's mid-batch crash)."""
        kept: dict[int, list[Message]] = {}
        for destination in sorted(outbox):
            messages = outbox[destination]
            for count, message in enumerate(messages):
                if not self._permit_send(pid, destination, message,
                                         self.now):
                    if sink is not None:
                        sink.emit("crash_send", {"t": self.now, "peer": pid,
                                                 "dst": destination})
                    if count:
                        kept[destination] = messages[:count]
                    return kept
            kept[destination] = messages
        return kept

    def run(self, max_rounds: int = MAX_ROUNDS) -> SyncRunResult:
        try:
            return self._run(max_rounds)
        finally:
            # Hosted bodies reach their host back through its ports and
            # the run's span sinks reach the bodies: cut those rings,
            # also when the run raised, so reference counting frees it.
            for peer in self.peers.values():
                peer.unlink()
            self.source.unlink()
            # The bound adversary keeps the env, which points back at
            # the engine and the adversary (cf. Simulation.run).
            self.env.kernel = self.env.adversary = None

    def _run(self, max_rounds: int) -> SyncRunResult:
        # Resolve the process-global telemetry backend once per run,
        # mirroring the async Simulation: a disabled backend costs one
        # check here and nothing per round.
        backend = _get_telemetry()
        sink = backend if backend.enabled else None
        self.source.telemetry = self.env.telemetry = sink
        if sink is not None:
            header = {"schema": SCHEMA_VERSION, "n": self.config.n,
                      "ell": self.config.ell, "t_budget": self.config.t,
                      "seed": self.seed,
                      "adversary": type(self.adversary).__name__,
                      "planned_faulty": sorted(self.planned_faulty)}
            if self.peers:
                header["protocol"] = next(
                    iter(self.peers.values())).protocol_label
            sink.emit("run_header", header)
        inboxes: dict[int, list[Message]] = {pid: []
                                             for pid in range(self.config.n)}
        rounds = 0
        quiet_rounds = 0
        events_processed = 0
        for round_no in range(1, max_rounds + 1):
            acting = [pid for pid, peer in sorted(self.peers.items())
                      if peer.finished_round is None and not peer.halted]
            live_honest = [pid for pid in acting
                           if pid not in self.corrupted]
            if not live_honest:
                break
            rounds = self.round_no = round_no
            self.source.telemetry_round = round_no
            if sink is not None:
                sink.emit("round_start", {"t": float(round_no),
                                          "round": round_no})

            # 1. Peers act (ascending ID; none sees another's round-r
            #    messages, so the order is cosmetic), and their outboxes
            #    go out as far as the adversary permits.
            traffic: dict[int, dict[int, list[Message]]] = {}
            for pid in acting:
                peer = self.peers[pid]
                peer._outbox = {}
                peer.round(round_no, inboxes[pid])
                inboxes[pid] = []
                if peer.done and peer.finished_round is None:
                    peer.finished_round = round_no
                    if sink is not None:
                        sink.emit("terminate", {"t": float(round_no),
                                                "peer": pid})
                traffic[pid] = (peer._outbox if self._permit_send is None
                                else self._permitted(sink, pid,
                                                     peer._outbox))

            # 2. End-of-round delivery.  In-flight relay hops move
            #    first (they were sent in earlier rounds), then this
            #    round's traffic is dispatched — directly on edges,
            #    through the relay queue otherwise.
            next_inboxes: dict[int, list[Message]] = {
                pid: inboxes[pid] for pid in range(self.config.n)}
            delivered = 0
            if self._relays:
                pending, self._relays = self._relays, []
                for hops, index, message, honest_origin in pending:
                    node = hops[index + 1]
                    if self.peers[node].halted:
                        continue  # route severed at a crashed relay
                    hop = index + 1
                    next_node = hops[index + 2]
                    if sink is not None:
                        sink.emit("deliver", {
                            "t": float(round_no), "src": hops[index],
                            "dst": node, "type": type(message).__name__,
                            "relay": True, "hop": hop})
                    self._transmit(
                        sink, round_no, node, next_node, message,
                        honest_origin,
                        honest_origin and node not in self.corrupted,
                        hop=hop + 1)
                    delivered += 1
                    if index + 3 == len(hops):
                        next_inboxes[next_node].append(message)
                        if sink is not None:
                            sink.emit("deliver", {
                                "t": float(round_no),
                                "src": getattr(message, "sender", hops[0]),
                                "dst": next_node,
                                "type": type(message).__name__,
                                "hop": hop + 1})
                    else:
                        self._relays.append(
                            (hops, index + 1, message, honest_origin))
            for sender, outbox in traffic.items():
                honest_sender = sender not in self.corrupted
                for destination, messages in outbox.items():
                    if self.router is not None and sender != destination:
                        hops = self.router.path(sender, destination)
                        if len(hops) > 2:
                            # Routed: charge and announce the origin
                            # transmission now, park the messages at
                            # the first relay.
                            delivered += len(messages)
                            for message in messages:
                                self._transmit(
                                    sink, round_no, sender, destination,
                                    message, honest_sender, honest_sender)
                                self._relays.append(
                                    (hops, 0, message, honest_sender))
                            continue
                    next_inboxes[destination].extend(messages)
                    delivered += len(messages)
                    for message in messages:
                        self._transmit(sink, round_no, sender, destination,
                                       message, honest_sender,
                                       honest_sender)
                        if sink is not None:
                            sink.emit("deliver", {
                                "t": float(round_no), "src": sender,
                                "dst": destination,
                                "type": type(message).__name__})
            inboxes = next_inboxes
            events_processed += delivered

            # Stall detection: a round with no traffic and no new
            # termination repeats forever for deterministic protocols
            # (the synchronous analogue of the async DeadlockError).
            finished_round = sum(
                1 for pid in live_honest
                if self.peers[pid].finished_round == round_no)
            if sink is not None:
                sink.emit("round_end", {"t": float(round_no),
                                        "round": round_no,
                                        "delivered": delivered,
                                        "finished": finished_round})
            waiting = any(
                self.peers[pid].waiting_until is not None
                and self.peers[pid].waiting_until > round_no
                for pid in live_honest)
            if delivered == 0 and not finished_round \
                    and not self._relays and not waiting:
                quiet_rounds += 1
                if quiet_rounds >= self.STALL_LIMIT:
                    break
            else:
                quiet_rounds = 0

        faulty = set(self.adversary.actually_faulty())
        honest = set(self.peers) - faulty
        per_peer = {pid: self.source.query_bits.get(pid, 0)
                    for pid in honest}
        per_messages = {pid: self.per_peer_messages.get(pid, 0)
                        for pid in honest}
        result = SyncRunResult(
            data=self.data,
            outputs={pid: peer.output for pid, peer in self.peers.items()},
            rounds=rounds,
            honest=honest,
            faulty=faulty,
            query_complexity=max(per_peer.values(), default=0),
            total_query_bits=sum(per_peer.values()),
            message_complexity=self.messages_sent,
            per_peer_query_bits=per_peer,
            message_bits=self.message_bits,
            per_peer_messages=per_messages,
            events_processed=events_processed,
        )
        if sink is not None:
            sink.emit("run_summary", {
                "correct": bool(result.download_correct),
                "query_complexity": result.query_complexity,
                "total_query_bits": result.total_query_bits,
                "message_complexity": result.message_complexity,
                "message_bits": result.message_bits,
                "time_complexity": float(result.rounds),
                "events_processed": result.events_processed,
                "honest": sorted(honest),
                "faulty": sorted(result.faulty),
                "per_peer_query_bits": dict(per_peer),
                "per_peer_messages": dict(per_messages),
            })
        return result


def run_sync_download(*, n: int, ell: int, t: int = 0, peer_factory,
                      data: Optional[BitArray] = None, adversary=None,
                      seed: int = 0, sources: int = 1,
                      source_faults=(), topology=None) -> SyncRunResult:
    """One-call convenience mirroring :func:`repro.sim.run_download`."""
    config = SyncConfig(n=n, t=t, ell=ell,
                        topology=resolve_topology(topology, n, seed))
    if data is None:
        data = BitArray.random(ell, SplittableRNG(seed).split("input"))
    engine = SyncEngine(config=config, data=data, peer_factory=peer_factory,
                        adversary=adversary, seed=seed, sources=sources,
                        source_faults=source_faults)
    return engine.run()
