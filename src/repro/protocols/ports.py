"""What a host other than the simulator hands a protocol body.

A body reaches the world only through ``self.env`` — ``kernel``,
``network``, ``source``, ``metrics``, ``adversary`` — so hosting it on
another substrate (lockstep rounds, sockets) means providing those
ports.  :class:`HostPorts` is the part of that every host shares; the
list of calls is in docs/EXTENDING.md ("One body, three hosts").
"""

from __future__ import annotations

from typing import Optional

from repro.sim.messages import Message
from repro.sim.peer import SimEnv
from repro.util.rng import SplittableRNG


class HostPorts:
    """One object serving as every port of a hosted body's env.

    A host subclasses it with the substrate's ``now``, ``notify``,
    ``send`` and ``request_bits_from`` (and ``schedule``, where hosted
    bodies wait on deadlines); accounting is the host's own, so the
    metrics and adversary ports do nothing.
    """

    def __init__(self, k: int) -> None:
        self.k = k  # source port: the number of endpoints
        #: ``message type -> tally`` (:meth:`span_sink`); a host whose
        #: peers share a process points this at one dict per run.
        self.span_sinks: dict[type, object] = {}

    def env(self, *, n: int, t: int, ell: int, rng: SplittableRNG,
            telemetry: Optional[object] = None,
            topology: Optional[object] = None) -> SimEnv:
        """The env whose every port is this object."""
        return SimEnv(kernel=self, network=self, source=self, metrics=self,
                      adversary=self, n=n, t=t, ell=ell, rng=rng,
                      telemetry=telemetry, topology=topology)

    def broadcast(self, sender: int, n: int, message: Message,
                  sender_cycle: int = 0) -> None:
        for other in range(n):
            if other != sender:
                self.send(sender, other, message, sender_cycle)

    def span_sink(self, message_type: type, factory):
        """The tally for ``message_type``, built by ``factory()`` on
        first request (cf. :meth:`repro.sim.network.Network.span_sink`).
        A host delivers message by message, so only the tally's
        per-message side is ever driven."""
        sink = self.span_sinks.get(message_type)
        if sink is None:
            sink = self.span_sinks[message_type] = factory()
        return sink

    def request_bits(self, pid: int, request_id: int, indices) -> None:
        self.request_bits_from(0, pid, request_id, indices)

    def record_termination(self, pid: int, now: float) -> None:
        pass

    def on_cycle_start(self, pid: int, cycle: int, now: float) -> None:
        pass
