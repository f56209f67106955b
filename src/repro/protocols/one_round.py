"""A single-round (2-cycle, one exchange) Download protocol.

The companion paper proves that *extremely fast* protocols are
inherently query-hungry: in any single-round randomized protocol each
peer must essentially query the entire input.  To make that trade-off
measurable, this module implements the natural one-exchange protocol
family:

1. every peer queries ``redundancy`` round-robin slices (its own plus
   ``redundancy - 1`` more, chosen deterministically by ID shift or
   uniformly at random), so each bit is covered by ``redundancy`` peers
   in expectation;
2. one broadcast of the queried values; wait for ``n - t`` shares;
3. **completion**: whatever is still unknown is queried directly —
   a one-round protocol has no further exchanges to fall back on, so
   the residue lands on the query bill.

Per-peer cost ≈ ``redundancy * ell / n`` (step 1) plus the uncovered
residue (step 3).  Against an oblivious adversary, random redundancy
``r`` loses a bit only if all its ``r`` owners crash (``~ beta^r``);
against the *adaptive* crash adversary
(:class:`repro.adversary.adaptive.AdaptiveCrashAdversary`), which picks
its victims after seeing who queried what, the residue is maximal —
the measured blow-up that the companion paper's one-round lower bound
formalizes.  Algorithm 2 escapes by iterating; this protocol cannot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.core.assignment import round_robin_indices
from repro.protocols.base import DownloadPeer
from repro.sim.messages import Message
from repro.sim.peer import SimEnv


@dataclass(frozen=True)
class OneRoundShare(Message):
    """The single exchange: every value the sender queried."""

    values: Mapping[int, int]


class OneRoundDownloadPeer(DownloadPeer):
    """One query phase, one exchange, direct completion."""

    protocol_name = "one-round"

    def __init__(self, pid: int, env: SimEnv, redundancy: int = 1,
                 randomized: bool = False) -> None:
        super().__init__(pid, env)
        if not 1 <= redundancy <= env.n:
            raise ValueError(
                f"redundancy must be in [1, n], got {redundancy}")
        self.redundancy = redundancy
        self.randomized = randomized
        self.completion_queries = 0

    def _my_slices(self) -> list[int]:
        """The slice owners this peer covers."""
        if self.randomized:
            return self.rng.sample(range(self.n), self.redundancy)
        return [(self.pid + shift) % self.n
                for shift in range(self.redundancy)]

    def body(self) -> Iterator:
        self.begin_cycle()
        self.note_phase("share")
        wanted: set[int] = set()
        for owner in self._my_slices():
            wanted.update(round_robin_indices(owner, self.ell, self.n))
        values = yield from self.query_bits(sorted(wanted))
        self.learn_many(values)
        self.broadcast(OneRoundShare(sender=self.pid, values=values))

        self.begin_cycle()
        self.note_phase("collect")
        needed = self.n - self.t - 1
        yield self.wait_for_messages(OneRoundShare, needed,
                                     description=f"{needed} shares")
        for message in self.inbox.of_type(OneRoundShare):
            self.learn_many(message.values)

        # The single round is over; the residue can only come from the
        # source now.
        self.note_phase("completion")
        residue = self.unknown_indices()
        self.completion_queries = len(residue)
        values = yield from self.query_bits(residue)
        self.learn_many(values)
        self.finish_with_working()
