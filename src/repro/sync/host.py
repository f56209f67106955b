"""The lockstep host: a registry protocol's one body, driven in rounds.

A protocol body (``repro.protocols``) reaches the world only through
``self.env``, so running it on another substrate is a matter of handing
it another set of ports.  :class:`LockstepHost` is a
:class:`~repro.sync.engine.SyncPeer` whose :meth:`~LockstepHost.round`
delivers the round's inbox, answers queries in-round from the engine's
:class:`~repro.sync.engine.SyncSource`, and steps the body until it
parks on a wait the round cannot satisfy.  The round-model mapping of
the three places that needed a decision is written down in
docs/MODEL.md ("Hosted bodies in lockstep").  A peer the adversary
corrupts is hosted the same way: its body is whatever the adversary's
``make_faulty_peer`` builds — the honest body sending through a
strategy's proxy over these ports, or a scripted attacker.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Optional

from repro.protocols.ports import HostPorts
from repro.sim.messages import SOURCE_ID, Message, SourceResponse
from repro.sim.peer import SimEnv
from repro.sim.process import Process, WaitUntil
from repro.sync.engine import SyncConfig, SyncPeer
from repro.util.rng import SplittableRNG


class _Ports(HostPorts):
    """The env's ports in round terms."""

    def __init__(self, host: "LockstepHost") -> None:
        super().__init__(host._source.k)
        self.host = host
        self.span_sinks = host._source.span_sinks  # one tally per run

    # -- kernel: the round is the clock --------------------------------------

    @property
    def now(self) -> float:
        return float(self.host.round_no)

    def notify(self, process) -> None:
        """Nothing to wake: the host re-checks the wait every round."""

    def schedule(self, delay: float, action) -> None:
        """A deadline ``delay`` rounds ahead.  The one thing a body
        schedules is its own wake-up (``wait_with_deadline``), which the
        per-round re-check already is; what is left to do is to tell the
        engine that the silence until then is deliberate."""
        self.host.waiting_until = self.host.round_no + math.ceil(delay)

    # -- network: end-of-round delivery --------------------------------------

    def send(self, sender: int, destination: int, message: Message,
             sender_cycle: int = 0, honest: bool = True) -> None:
        """Queue ``message`` for the end of the round.  The engine
        charges by sender, so a corrupted peer's ``honest=False`` sends
        need no mark of their own."""
        self.host.send(destination, message)

    # -- source: answered within the round -----------------------------------

    def request_bits_from(self, source_id: int, pid: int, request_id: int,
                          indices) -> None:
        host = self.host
        values = host._source.query_from(source_id, pid, indices)
        # Non-empty requests only reach the source port, so an empty
        # answer is a withholding endpoint's: charged, never delivered.
        if values:
            host.peer.deliver(SourceResponse(
                sender=SOURCE_ID, request_id=request_id, values=values))


class LockstepHost(SyncPeer):
    """Runs the body ``build(pid, env)`` returns as one lockstep peer."""

    def __init__(self, pid: int, config: SyncConfig, rng: SplittableRNG,
                 build: Callable[[int, SimEnv], Process]) -> None:
        super().__init__(pid, config, rng)
        self.root = rng  # the body splits its own ``peer-{pid}`` stream
        self.build = build
        protocol_class = getattr(build, "protocol_class", None)
        if protocol_class is not None:
            self.protocol_label = protocol_class.protocol_name
        self.round_no = 0
        #: The protocol object; built in round 1, once the engine has
        #: attached the source its constructor may ask for ``k``.
        self.peer = None
        self._body: Optional[Iterator] = None
        self._wait: Optional[WaitUntil] = None

    def round(self, round_no: int, inbox: list[Message]) -> None:
        self.round_no = round_no
        if self._body is None:
            ports = _Ports(self)
            self.peer = self.build(self.pid, ports.env(
                n=self.n, t=self.t, ell=self.ell, rng=self.root,
                telemetry=self._source.telemetry,
                topology=self.config.topology))
            # A body with no yield (a fire-and-forget attacker) ran to
            # completion inside the call.
            self._body = self.peer.body() or iter(())
        # A message type with a span sink goes to the sink's per-peer
        # entry, as on the simulator: never to the inbox or a handler.
        sinks = self._source.span_sinks
        for message in inbox:
            sink = sinks.get(type(message)) if sinks else None
            if sink is not None and sink.owns(self.pid):
                sink.deliver_one(message, self.pid)
            else:
                self.peer.deliver(message)
        while self._wait is None or self._wait.predicate():
            try:
                self._wait = next(self._body)
            except StopIteration:
                self.finish(self.peer.output)
                # The body has announced its own ``terminate``.
                self.finished_round = round_no
                return

    def corrupt(self, adversary) -> None:
        """Build the body through ``adversary.make_faulty_peer``, as
        the simulator builds a faulty peer's process."""
        honest = self.build
        self.build = lambda pid, env: adversary.make_faulty_peer(
            pid, env, honest)

    def unlink(self) -> None:
        """Drop the protocol object, its body and its wait: each
        reaches this host back through the ports of its ``env``; and
        the builder, which may hold the adversary (which holds the
        run's peers)."""
        if self.peer is not None:
            self.peer.unlink()
        self.peer = self._body = self._wait = self.build = None


def hosted_factory(protocol_class: type, **params):
    """A :class:`~repro.sync.engine.SyncEngine` ``peer_factory`` that
    runs ``protocol_class(pid, env, **params)`` on the lockstep host."""
    build = protocol_class.factory(**params)

    def factory(pid: int, config: SyncConfig, rng: SplittableRNG):
        return LockstepHost(pid, config, rng, build)
    return factory
