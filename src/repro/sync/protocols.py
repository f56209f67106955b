"""The one lockstep-native synchronous Download algorithm.

:class:`SyncCrashPeer` is the lockstep ancestor of Algorithm 2 and a
*different algorithm*, not a port of the registry's ``crash-multi``
body: silence in round ``r`` proves a crash by round ``r + 1``, so it
needs none of Algorithm 2's phases (measured against the hosted body
under the table's crash entry at n 16-64: 2-6 rounds against 9-13,
Q up to 5.2x lower, M 1.6-4.7x lower — docs/MODEL.md, "Hosted bodies
in lockstep").  It has no body for a Byzantine adversary to corrupt,
so the lockstep backend runs it only fault-free or under crashes.  One ``round()`` call per paper round, so the engine's
round counter *is* its round complexity.

Every other protocol the lockstep backend runs is the registry's one
body on :class:`~repro.sync.host.LockstepHost`.
"""

from __future__ import annotations

from itertools import compress

from repro.core.assignment import round_robin_indices
from repro.protocols.balanced import ShareMessage
from repro.sync.engine import SyncConfig, SyncPeer
from repro.util.bitarrays import (BIT_TO_CHAR, UNKNOWN, UNKNOWN_MASK, BitArray,
                                  BitRun, cells_at)
from repro.util.rng import SplittableRNG


class SyncCrashPeer(SyncPeer):
    """Synchronous crash-tolerant download (any ``t < n``).

    The lockstep ancestor of Algorithm 2, exploiting what synchrony
    adds: a peer silent in round ``r`` has *provably* crashed by round
    ``r + 1`` (messages are reliable and on-time), so there is no
    slow-vs-crashed dilemma to manage.

    Per round, every unfinished peer (a) absorbs arrived shares,
    (b) gossips everything it learned since its last broadcast — so a
    value anyone holds floods the alive component within two rounds,
    even across the view divergence a mid-broadcast crash causes, and
    (c) reassigns *its* still-unknown bits over the peers that spoke
    last round (deterministic rank order) and queries its own part.
    A peer that completes broadcasts one final full share before
    terminating, so no one ever waits on a finished peer.

    A round in which no relevant peer crashes closes every remaining
    gap, so the protocol ends within ``crashes + 3`` rounds, and the
    per-peer query load stays within a constant of ``ell / (n - t)``
    (each crash re-spreads only the victim's residual share).
    """

    def __init__(self, pid: int, config: SyncConfig,
                 rng: SplittableRNG) -> None:
        super().__init__(pid, config, rng)
        #: One byte per position: its bit, or UNKNOWN.
        self._cells = bytearray((UNKNOWN,)) * config.ell
        self._fresh: list[int] = []  # learned since last broadcast

    def _learn(self, run: BitRun) -> None:
        """Record the run's bits at the positions still unknown."""
        if not run:
            return
        cells = self._cells
        news = cells_at(cells, run.indices).translate(UNKNOWN_MASK)
        for index, bit in compress(zip(run.indices, run.bits), news):
            cells[index] = bit
            self._fresh.append(index)

    def _share_fresh(self) -> None:
        self.broadcast(ShareMessage(
            sender=self.pid,
            values=BitRun.gather(self._cells, self._fresh, UNKNOWN)))
        self._fresh = []

    def _finish(self) -> None:
        self.finish(BitArray.from_string(
            self._cells.translate(BIT_TO_CHAR).decode("ascii")))

    def round(self, round_no: int, inbox) -> None:
        spoke_last_round = set()
        for message in inbox:
            if isinstance(message, ShareMessage):
                self._learn(message.values)
                spoke_last_round.add(message.sender)

        if round_no == 1:
            self._learn(self.query(round_robin_indices(self.pid, self.ell,
                                                       self.n)))
            self._share_fresh()
            return

        if UNKNOWN not in self._cells:
            # Final full share: nobody may depend on a finished peer.
            self.broadcast(ShareMessage(
                sender=self.pid,
                values=BitRun(range(self.ell), bytes(self._cells))))
            self._finish()
            return

        # Reassign my unknown bits over last round's speakers (+ me);
        # silence in the synchronous model is proof of death.
        alive = sorted(spoke_last_round | {self.pid})
        unknown = list(compress(range(self.ell),
                                self._cells.translate(UNKNOWN_MASK)))
        self._learn(self.query(unknown[alive.index(self.pid)::len(alive)]))
        self._share_fresh()
        if UNKNOWN not in self._cells:
            self._finish()
