"""Byzantine adversaries: corrupted peers that deviate arbitrarily.

The implementation strategy is *honest-execution wrapping*: a corrupted
peer runs the real protocol code, but its outgoing messages pass
through a :class:`ByzantineStrategy` that may rewrite, redirect, or
drop them (and may rewrite differently per destination — equivocation).
This gives protocol-aware attacks for free: the attacker automatically
speaks the protocol's message types, participates in its waits, and
stays in lockstep with honest peers, while lying about content.
Attacks that need fully custom behaviour (e.g. flooding crafted
segment reports) subclass :class:`ScriptedByzantinePeer` instead.

Byzantine message traffic is not charged to message complexity and is
exempt from the honest message-size limit (both match the model, which
measures only nonfaulty peers).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Iterator, Optional

from repro.adversary.base import Adversary, PeerFactory
from repro.sim.messages import Message
from repro.sim.network import send_to_each
from repro.sim.peer import SimEnv
from repro.sim.process import Process, WaitUntil
from repro.util.bitarrays import FLIP_CHARS, BitRun
from repro.util.validation import check_fraction


def flip_bitlike_fields(message: Message) -> Message:
    """Return a copy of ``message`` with every bit-like payload inverted.

    Bit-like fields: ``str`` values over the 0/1 alphabet (segment
    strings) and :class:`~repro.util.bitarrays.BitRun` values (bit
    maps).  Scalar 0/1 ``int`` fields named ``value`` or ``bit`` are
    flipped too.  Messages with no bit-like payload are returned
    unchanged.
    """
    replacements = {}
    for field in dataclasses.fields(message):
        if field.name == "sender":
            continue
        value = getattr(message, field.name)
        if isinstance(value, str) and value and set(value) <= {"0", "1"}:
            replacements[field.name] = value.translate(FLIP_CHARS)
        elif type(value) is BitRun:
            if value:
                replacements[field.name] = value.flipped()
        elif field.name in ("value", "bit") and value in (0, 1):
            replacements[field.name] = 1 - value
    if not replacements:
        return message
    return dataclasses.replace(message, **replacements)


class PerPeerStrategy:
    """Picklable ``strategy_factory``: one fresh strategy per corrupted
    peer.

    ``PerPeerStrategy(WrongBitsStrategy)`` is the closure-free spelling
    of ``lambda pid: WrongBitsStrategy()``.  Lambdas cannot cross
    process boundaries, so adversaries meant to run under the parallel
    experiment engine (:mod:`repro.execution`) must use this instead.
    Keyword arguments are forwarded to every construction.
    """

    def __init__(self, strategy_class: Callable[..., "ByzantineStrategy"],
                 **kwargs) -> None:
        self.strategy_class = strategy_class
        self.kwargs = dict(kwargs)

    def __call__(self, pid: int) -> "ByzantineStrategy":
        return self.strategy_class(**self.kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"PerPeerStrategy({self.strategy_class.__name__}"
                f"{', ' + repr(self.kwargs) if self.kwargs else ''})")


class ByzantineStrategy:
    """Per-peer corruption policy applied to the honest execution."""

    name = "byzantine"

    def corrupt(self, message: Message, destination: int,
                pid: int) -> Optional[Message]:
        """Rewrite an outgoing ``message`` (None drops it entirely)."""
        raise NotImplementedError


class SilentStrategy(ByzantineStrategy):
    """Send nothing at all — the strongest *omission* attack.

    Against the crash protocols this behaves like a crash before the
    first send; against Byzantine-model protocols it forces every
    "wait for n - t" to be satisfied without the attacker.
    """

    name = "silent"

    def corrupt(self, message: Message, destination: int,
                pid: int) -> Optional[Message]:
        return None


class WrongBitsStrategy(ByzantineStrategy):
    """Report inverted data to everyone, consistently.

    All recipients see the same lie, so frequency-based defences see a
    coherent fake value with up to ``t`` supporters.
    """

    name = "wrong-bits"

    def __init__(self) -> None:
        #: ``(message, its flip)`` of the last message corrupted: a
        #: broadcast hands one message over once per destination, and
        #: the lie is the same for all of them.  Messages are frozen,
        #: and holding the original keeps its identity from reuse.
        self._last: tuple = (None, None)

    def corrupt(self, message: Message, destination: int,
                pid: int) -> Optional[Message]:
        original, flipped = self._last
        if message is not original:
            flipped = flip_bitlike_fields(message)
            self._last = (message, flipped)
        return flipped


class EquivocateStrategy(ByzantineStrategy):
    """Tell half the peers the truth and the other half the opposite.

    Splits honest views without ever being unanimous — the classic
    equivocation stressor for threshold-based decision rules.
    """

    name = "equivocate"

    def corrupt(self, message: Message, destination: int,
                pid: int) -> Optional[Message]:
        if destination % 2 == 0:
            return message
        return flip_bitlike_fields(message)


class SelectiveSilenceStrategy(ByzantineStrategy):
    """Answer only low-ID peers; starve the rest.

    Combines truthful participation (so the attacker is never
    blacklisted by the peers it serves) with targeted omission.
    """

    name = "selective-silence"

    def __init__(self, serve_below: Optional[int] = None) -> None:
        self.serve_below = serve_below

    def corrupt(self, message: Message, destination: int,
                pid: int) -> Optional[Message]:
        # Default: serve only peers with a smaller ID than the attacker.
        threshold = self.serve_below if self.serve_below is not None else pid
        return message if destination < threshold else None


class _CorruptingNetworkProxy:
    """Stands in for the real network inside a corrupted peer's env."""

    def __init__(self, network, strategy: ByzantineStrategy, pid: int) -> None:
        self._network = network
        self._strategy = strategy
        self._pid = pid

    @property
    def kernel(self):
        return self._network.kernel

    def send(self, sender_pid: int, destination: int, message: Message,
             *, sender_cycle: int = 0, honest: bool = True) -> bool:
        corrupted = self._strategy.corrupt(message, destination, self._pid)
        telemetry = self._network.telemetry
        if telemetry is not None and corrupted is not message:
            telemetry.emit("corrupt", {
                "t": self._network.kernel.now, "peer": self._pid,
                "dst": destination, "type": type(message).__name__,
                "action": "drop" if corrupted is None else "rewrite"})
        if corrupted is None:
            return True  # silently dropped by the attacker
        return self._network.send(sender_pid, destination, corrupted,
                                  sender_cycle=sender_cycle, honest=False)

    def broadcast(self, sender_pid: int, n: int, message: Message,
                  *, sender_cycle: int = 0) -> None:
        # Corruption is per destination, so never grouped into spans.
        send_to_each(self, sender_pid, n, message, sender_cycle)

    def span_sink(self, message_type: type, factory):
        return self._network.span_sink(message_type, factory)

    def deliver_direct(self, destination: int, message: Message,
                       latency) -> None:
        self._network.deliver_direct(destination, message, latency)


class ScriptedByzantinePeer(Process):
    """Base for fully custom attacker processes.

    Subclasses get the corrupted peer's ``pid`` and the real ``env``
    and may send arbitrary messages via :meth:`inject`.  They are
    non-essential: an attacker parked forever does not deadlock a run.
    """

    def __init__(self, pid: int, env: SimEnv) -> None:
        super().__init__(name=f"byzantine-{pid}")
        self.pid = pid
        self.env = env
        self.essential = False
        self.inbox: list[Message] = []
        self.output = None

    def deliver(self, message: Message) -> None:
        self.inbox.append(message)
        self.env.kernel.notify(self)

    def inject(self, destination: int, message: Message) -> None:
        """Send an arbitrary message (uncharged, unlimited size)."""
        self.env.network.send(self.pid, destination, message, honest=False)

    def inject_all(self, message: Message) -> None:
        """Send ``message`` to every other peer."""
        for destination in self.env.peer_ids:
            if destination != self.pid:
                self.inject(destination, message)

    def body(self) -> Iterator[WaitUntil]:  # pragma: no cover - abstract
        raise NotImplementedError


class ByzantineAdversary(Adversary):
    """Corrupts a seeded or explicit peer set with a chosen strategy.

    Args:
        fraction: corrupt ``floor(fraction * n)`` seeded-random peers
            (exclusive with ``corrupted``).
        corrupted: explicit set of peer IDs to corrupt.
        strategy_factory: builds one :class:`ByzantineStrategy` per
            corrupted peer (default: :class:`WrongBitsStrategy`).
        scripted_factory: if given, corrupted peers run this custom
            process instead of the wrapped honest execution.
    """

    def __init__(self, *, fraction: Optional[float] = None,
                 corrupted: Optional[set[int]] = None,
                 strategy_factory: Callable[[int], ByzantineStrategy] = None,
                 scripted_factory: Optional[
                     Callable[[int, SimEnv], ScriptedByzantinePeer]] = None
                 ) -> None:
        super().__init__()
        if (fraction is None) == (corrupted is None):
            raise ValueError("pass exactly one of fraction= or corrupted=")
        if fraction is not None:
            check_fraction("fraction", fraction, inclusive_high=False)
        self.fraction = fraction
        self._explicit = set(corrupted) if corrupted is not None else None
        self.strategy_factory = strategy_factory or (
            lambda pid: WrongBitsStrategy())
        self.scripted_factory = scripted_factory
        self.corrupted: set[int] = set()
        self.strategies: dict[int, ByzantineStrategy] = {}

    def fault_budget(self, n: int) -> int:
        if self._explicit is not None:
            return len(self._explicit)
        return int(math.floor(self.fraction * n))

    def on_bind(self) -> None:
        if self._explicit is not None:
            for pid in self._explicit:
                if not 0 <= pid < self.env.n:
                    raise ValueError(f"corruption plan names unknown peer {pid}")
            self.corrupted = set(self._explicit)
        else:
            count = self.fault_budget(self.env.n)
            self.corrupted = set(self.rng.sample(range(self.env.n), count))

    def faulty_peers(self) -> set[int]:
        return set(self.corrupted)

    def make_faulty_peer(self, pid: int, env: SimEnv,
                         honest_factory: PeerFactory) -> Process:
        if self.scripted_factory is not None:
            return self.scripted_factory(pid, env)
        strategy = self.strategy_factory(pid)
        self.strategies[pid] = strategy
        proxy = _CorruptingNetworkProxy(env.network, strategy, pid)
        corrupted_env = dataclasses.replace(env, network=proxy)
        peer = honest_factory(pid, corrupted_env)
        peer.name = f"byzantine-{pid}({strategy.name})"
        peer.essential = False
        return peer
