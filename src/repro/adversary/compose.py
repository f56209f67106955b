"""Composition of a fault adversary with a latency adversary.

The model's adversary wields both powers at once: it fails peers *and*
schedules every message.  The concrete adversaries in this package each
implement one power; :class:`ComposedAdversary` welds a fault plan
(crash or Byzantine) onto a delay schedule so that e.g. "asynchronous
network + mid-broadcast crashes" is one object::

    ComposedAdversary(
        faults=CrashAdversary(crash_fraction=0.5),
        latency=UniformRandomDelay(),
    )

Division of labour:

- ``faults`` decides who is faulty, builds corrupted peers, permits or
  refuses individual sends (mid-batch crashes), and receives the
  ``after_setup`` hook;
- ``latency`` decides start times and all message/query latencies, and
  owns the quiescence-release policy;
- cycle notifications go to both.
"""

from __future__ import annotations

from repro.adversary.base import Adversary, PeerFactory
from repro.sim.messages import Message
from repro.sim.network import WithheldMessage
from repro.sim.peer import SimEnv
from repro.sim.process import Process


class ComposedAdversary(Adversary):
    """Fault plan from one adversary, scheduling from another."""

    def __init__(self, *, faults: Adversary, latency: Adversary) -> None:
        super().__init__()
        self.faults = faults
        self.latency = latency

    # -- lifecycle ------------------------------------------------------------

    def bind(self, env: SimEnv) -> None:
        super().bind(env)
        self.faults.bind(env)
        self.latency.bind(env)

    def after_setup(self, processes: dict[int, Process]) -> None:
        self.faults.after_setup(processes)
        self.latency.after_setup(processes)

    # -- fault plan (delegated to `faults`) -----------------------------------

    def fault_budget(self, n: int) -> int:
        return self.faults.fault_budget(n)

    def faulty_peers(self) -> set[int]:
        return self.faults.faulty_peers()

    def actually_faulty(self) -> set[int]:
        return self.faults.actually_faulty()

    def make_faulty_peer(self, pid: int, env: SimEnv,
                         honest_factory: PeerFactory) -> Process:
        return self.faults.make_faulty_peer(pid, env, honest_factory)

    def permit_send(self, sender: int, destination: int, message: Message,
                    now: float) -> bool:
        return self.faults.permit_send(sender, destination, message, now)

    def transform_message(self, sender: int, destination: int,
                          message: Message, now: float, cycle: int):
        return self.faults.transform_message(sender, destination, message,
                                             now, cycle)

    # -- scheduling (delegated to `latency`) --------------------------------------

    def start_time(self, pid: int) -> float:
        return self.latency.start_time(pid)

    def message_latency(self, sender: int, destination: int, message: Message,
                        now: float, cycle: int):
        return self.latency.message_latency(sender, destination, message,
                                            now, cycle)

    def query_latency(self, pid: int, now: float):
        return self.latency.query_latency(pid, now)

    def send_hooks(self) -> tuple:
        """The parts' own bound hooks, so the network pays no
        delegation frame per message."""
        permit_send, transform_message, _ = self.faults.send_hooks()
        return permit_send, transform_message, self.latency.send_hooks()[2]

    def release_at_quiescence(
            self, withheld: list[WithheldMessage]) -> list[WithheldMessage]:
        return self.latency.release_at_quiescence(withheld)

    # -- both ---------------------------------------------------------------------

    def on_cycle_start(self, pid: int, cycle: int, now: float) -> None:
        self.faults.on_cycle_start(pid, cycle, now)
        self.latency.on_cycle_start(pid, cycle, now)
