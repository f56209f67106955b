"""The one lockstep-native synchronous Download algorithm.

:class:`SyncCrashPeer` is the lockstep ancestor of Algorithm 2 and a
*different algorithm*, not a port of the registry's ``crash-multi``
body: silence in round ``r`` proves a crash by round ``r + 1``, so it
needs none of Algorithm 2's phases (measured against the hosted body
under the backend's crash plans at n 16-64: 2-3 rounds against 9-13,
Q up to 6x lower, M 2.3-3.7x lower — docs/MODEL.md, "Hosted bodies
in lockstep").  One ``round()`` call per paper round, so the engine's
round counter *is* its round complexity.

Every other protocol the lockstep backend runs is the registry's one
body on :class:`~repro.sync.host.LockstepHost`.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.core.assignment import round_robin_indices
from repro.protocols.balanced import ShareMessage
from repro.sync.engine import SyncConfig, SyncPeer
from repro.util.bitarrays import BitArray
from repro.util.rng import SplittableRNG


class _ArrayBuilder:
    """Tiny helper: accumulate bits, detect completion."""

    def __init__(self, ell: int) -> None:
        self.bits: list[Optional[int]] = [None] * ell

    def put(self, index: int, bit: int) -> None:
        if self.bits[index] is None:
            self.bits[index] = bit

    @property
    def complete(self) -> bool:
        return all(bit is not None for bit in self.bits)

    def to_array(self) -> BitArray:
        return BitArray.from_bits([bit or 0 for bit in self.bits])


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
        self.builder = _ArrayBuilder(config.ell)
        self._fresh: dict[int, int] = {}  # learned since last broadcast

    def _learn(self, values: Mapping[int, int]) -> None:
        for index, bit in values.items():
            if self.builder.bits[index] is None:
                self._fresh[index] = bit
                self.builder.put(index, bit)

    def round(self, round_no: int, inbox) -> None:
        spoke_last_round = set()
        for message in inbox:
            if isinstance(message, ShareMessage):
                self._learn(message.values)
                spoke_last_round.add(message.sender)

        if round_no == 1:
            values = self.query(round_robin_indices(self.pid, self.ell,
                                                    self.n))
            self._learn(values)
            self.broadcast(ShareMessage(sender=self.pid,
                                        values=dict(self._fresh)))
            self._fresh = {}
            return

        if self.builder.complete:
            # Final full share: nobody may depend on a finished peer.
            everything = {index: bit
                          for index, bit in enumerate(self.builder.bits)}
            self.broadcast(ShareMessage(sender=self.pid, values=everything))
            self.finish(self.builder.to_array())
            return

        # Reassign my unknown bits over last round's speakers (+ me);
        # silence in the synchronous model is proof of death.
        alive = sorted(spoke_last_round | {self.pid})
        unknown = [index for index, bit in enumerate(self.builder.bits)
                   if bit is None]
        mine = [index for slot, index in enumerate(unknown)
                if alive[slot % len(alive)] == self.pid]
        self._learn(self.query(mine))
        self.broadcast(ShareMessage(sender=self.pid,
                                    values=dict(self._fresh)))
        self._fresh = {}
        if self.builder.complete:
            self.finish(self.builder.to_array())
