"""The adversary interface and the benign default.

The model's adversary (Section 1.2 of the paper) has exactly these
powers, each of which maps to one method of :class:`Adversary`:

========================================  =====================================
Power                                     Hook
========================================  =====================================
choose the input                          (callers pin ``data=`` instead; the
                                          lower-bound drivers use it)
choose when each peer starts              :meth:`start_time`
set per-message latency                   :meth:`message_latency`
set query-response latency                :meth:`query_latency`
fail up to ``t`` peers                    :meth:`faulty_peers`,
                                          :meth:`make_faulty_peer` (Byzantine),
                                          :meth:`permit_send` /
                                          :meth:`after_setup` (crash timing)
release delayed messages at quiescence    :meth:`release_at_quiescence`
========================================  =====================================

Restrictions the model imposes, and how they are honoured here:

- *Finite delays*: a latency is either a finite float or
  :data:`~repro.sim.network.WITHHOLD`; withheld messages are flushed at
  quiescence (the kernel compels it).
- *Cycle-respecting scheduling* (randomized setting): latencies for a
  message sent in local cycle ``c`` may not depend on coin flips made in
  cycle ``c``.  Adversaries in this library guarantee that by
  construction — their latency functions are deterministic in
  ``(sender, destination, cycle, per-edge counter)`` and the
  adversary's *own* seed, never in message content.
- The adversary knows the protocol and may simulate it (the
  lower-bound adversaries in :mod:`repro.adversary.lower_bound` do).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.messages import Message
from repro.sim.network import WithheldMessage
from repro.sim.peer import SimEnv
from repro.sim.process import Process

PeerFactory = Callable[[int, SimEnv], Process]


class Adversary:
    """Base adversary: no faults, unit latencies (synchronous behaviour)."""

    def __init__(self) -> None:
        self.env: Optional[SimEnv] = None
        self.rng = None

    # -- lifecycle -----------------------------------------------------------

    def bind(self, env: SimEnv) -> None:
        """Attach to a run; derive the adversary's private randomness."""
        self.env = env
        self.rng = env.rng.split("adversary")
        self.on_bind()

    def on_bind(self) -> None:
        """Subclass hook: runs once after :meth:`bind` (choose victims here)."""

    def after_setup(self, processes: dict[int, Process]) -> None:
        """Subclass hook: runs after peers are registered (schedule crashes)."""

    # -- fault plan ------------------------------------------------------------

    def fault_budget(self, n: int) -> int:
        """The ``t`` this adversary needs (used when the caller omits ``t``)."""
        return 0

    def faulty_peers(self) -> set[int]:
        """Peers this adversary plans to corrupt or crash."""
        return set()

    def actually_faulty(self) -> set[int]:
        """Peers that really deviated or crashed in this execution.

        Defaults to the plan; crash adversaries narrow it to peers that
        were actually halted (a planned-but-never-executed crash leaves
        the peer nonfaulty, and it then counts for complexity measures).
        """
        return self.faulty_peers()

    def make_faulty_peer(self, pid: int, env: SimEnv,
                         honest_factory: PeerFactory) -> Process:
        """Build the process that runs in a corrupted peer's place.

        Crash adversaries return the honest process (they halt it
        later); Byzantine adversaries return an attacker process.
        """
        return honest_factory(pid, env)

    # -- scheduling powers ----------------------------------------------------------

    def start_time(self, pid: int) -> float:
        """Absolute virtual time at which peer ``pid`` begins executing."""
        return 0.0

    def message_latency(self, sender: int, destination: int, message: Message,
                        now: float, cycle: int):
        """Latency for one peer-to-peer message (or ``WITHHOLD``)."""
        return 1.0

    def query_latency(self, pid: int, now: float):
        """Latency for one source query round-trip (or ``WITHHOLD``)."""
        return 1.0

    def permit_send(self, sender: int, destination: int, message: Message,
                    now: float) -> bool:
        """Called before each individual send; False crashes the sender
        mid-batch and swallows this message."""
        return True

    def transform_message(self, sender: int, destination: int,
                          message: Message, now: float, cycle: int):
        """Rewrite (or return None to eat) an outgoing message.

        This is the *dynamic* Byzantine power (the companion paper's
        Dynamic Byzantine model, where the corrupted set changes
        between cycles): the peer's computation stays honest, but its
        mouth may lie while it is corrupted.  The default adversary is
        the identity.
        """
        return message

    def send_hooks(self) -> tuple:
        """``(permit_send, transform_message, message_latency)`` as the
        network calls them, resolved once per run: bound methods, with
        ``None`` for a send-side hook that is still this class's
        identity (the network then skips it)."""
        return (_overridden(self.permit_send, Adversary.permit_send),
                _overridden(self.transform_message,
                            Adversary.transform_message),
                self.message_latency)

    def release_at_quiescence(
            self, withheld: list[WithheldMessage]) -> list[WithheldMessage]:
        """Choose which withheld deliveries to release at quiescence.

        The model compels eventual release, so the default releases
        everything.  Subclasses may stage releases, but returning an
        empty list while honest peers still wait deadlocks the run (and
        the kernel reports it as such).
        """
        return withheld

    def on_cycle_start(self, pid: int, cycle: int, now: float) -> None:
        """Notification that peer ``pid`` entered local cycle ``cycle``."""


def _overridden(hook: Callable, identity: Callable) -> Optional[Callable]:
    """``hook``, or ``None`` when it is the base class's ``identity``."""
    return None if getattr(hook, "__func__", None) is identity else hook


class NullAdversary(Adversary):
    """No faults, all latencies exactly one unit: the synchronous baseline."""
