"""``cross-validate-escalate`` as the round model states it (lockstep only).

Rotation, chunking, decode and the escalation rule are
:class:`~repro.protocols.multisource.CrossValidateEscalateDownloadPeer`'s
— the one piece of the four hosted protocols that is not shared with
the simulator and the socket backend is what only synchrony *knows*,
and the shared class leaves exactly those steps open:

- queries that react to nothing share a round, so every chunk's
  optimistic queries go out in round 1 and every escalation in round 2
  (the chunks run side by side; the round count never depends on
  ``ell``);
- an answer the round did not bring never comes, so a withheld
  optimistic vote is a missing vote — a disagreement — not a wait;
- an escalation reacts to answers, so it is the next round's;
- a waiting window can be a *round count* (the topology's diameter),
  which is what the cooperative ``alert`` path needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.protocols.multisource import CrossValidateEscalateDownloadPeer
from repro.sim.messages import Message
from repro.sim.peer import SimEnv
from repro.sim.process import WaitUntil


@dataclass(frozen=True)
class EscalationAlert(Message):
    """Disagreement notice of the escalate protocol's ``alert`` path.

    Broadcast by a peer whose optimistic ``f + 1`` votes were not
    unanimous; every receiver escalates to the full ``2f + 1``
    endpoints.  Routed topologies deliver it up to ``diameter`` rounds
    late, which is exactly the waiting window alert-mode peers hold
    open before trusting their unanimous round-1 votes.
    """

    round_no: int = 0


def _side_by_side(bodies: list[Iterator]) -> Iterator:
    """Run ``bodies`` at once: each moves until it parks, and the whole
    parks until one of them can move again."""
    parked: dict[Iterator, Optional[WaitUntil]] = dict.fromkeys(bodies)
    while parked:
        for body, wait in list(parked.items()):
            try:
                while wait is None or wait.predicate():
                    wait = parked[body] = next(body)
            except StopIteration:
                del parked[body]
        if parked:
            yield WaitUntil(lambda: any(wait.predicate()
                                        for wait in parked.values()),
                            "any parked chunk")


class LockstepEscalatePeer(CrossValidateEscalateDownloadPeer):
    """``cross-validate-escalate`` with the round model's knowledge.

    Round complexity is exactly 1 (every chunk unanimous) or 2.  With
    ``alert=True`` a peer that sees disagreement also broadcasts an
    :class:`EscalationAlert`, and *every* peer escalates on receipt —
    per-reader equivocation detected by one peer then hardens
    everyone's decode.  Unanimous peers hold their votes for the
    topology's ``diameter`` rounds (the routed broadcast's worst case)
    before trusting silence.  Off by default: the classic local
    escalation.
    """

    def __init__(self, pid: int, env: SimEnv, f: int = 0,
                 alert: bool = False) -> None:
        super().__init__(pid, env, f=f)
        self.alert = alert
        self._alerted = False
        self._opened = 0.0  # the round of the optimistic queries

    def body(self) -> Iterator:
        self.begin_cycle()
        self._opened = self.env.kernel.now
        yield from _side_by_side(self._chunks())
        self.finish_with_working()

    def _gather(self, pending: dict[int, int], absorb, what: str) -> Iterator:
        # The lockstep source answers inside the round (repro.sync.host),
        # so whatever is coming is here.
        if absorb():
            pending.clear()
        else:
            # Not one vote for the chunk: no decode can finish, and the
            # engine's stall detector ends the run.
            yield self.wait_until(lambda: False, what)

    def _second_step(self) -> Iterator:
        # No wait at all for a peer escalating on an alert it received
        # in a later round: the alert was the communication step.
        yield self.wait_with_deadline(
            lambda: False, self._opened + 1,
            "the round after the optimistic answers")

    def _escalation_called(self) -> bool:
        return self._alerted or self.inbox.count(EscalationAlert) > 0

    def _on_disagreement(self) -> None:
        if self.alert and not self._alerted:
            self._alerted = True
            self.broadcast(EscalationAlert(
                sender=self.pid, round_no=int(self.env.kernel.now)))

    def _on_unanimous(self) -> Iterator:
        if not self.alert:
            return False
        topology = self.env.topology
        window = topology.diameter if topology is not None else 1
        yield self.wait_with_deadline(
            self._escalation_called, self.env.kernel.now + window,
            "an escalation alert")
        return self._escalation_called()
