"""Lockstep-native synchronous Download algorithms.

The paper's prior-work rows that are *different algorithms* in the
round model, not ports of an asynchronous body — one ``round()``
method per paper round, so the engine's round counter *is* the round
complexity the synchronous papers report:

- :class:`SyncCommitteePeer` — 2 rounds, the deterministic committee
  protocol of [3] (the protocol Theorem 3.4 asynchronizes);
- :class:`SyncTwoRoundPeer` — 2 rounds, Protocol 4's synchronous
  original: sample-and-broadcast, then decision trees, with the
  separating-index queries answered inside round 2;
- :class:`SyncCrashPeer` — the lockstep ancestor of Algorithm 2.

``naive``, ``balanced``, ``cross-validate`` and
``cross-validate-escalate`` are not here: the registry's one body of
each runs in lockstep on :class:`~repro.sync.host.LockstepHost`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.assignment import committee_for, round_robin_indices
from repro.core.decision_tree import build_tree, determine
from repro.core.frequent import FrequencyTable
from repro.core.segments import Segmentation
from repro.protocols.balanced import ShareMessage
from repro.protocols.byz_committee import CommitteeReport
from repro.protocols.byz_two_cycle import SegmentReport
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

    def put_values(self, values: dict[int, int]) -> None:
        for index, bit in values.items():
            self.put(index, bit)

    def put_string(self, lo: int, string: str) -> None:
        for offset, ch in enumerate(string):
            self.put(lo + offset, int(ch))

    @property
    def complete(self) -> bool:
        return all(bit is not None for bit in self.bits)

    def to_array(self) -> BitArray:
        return BitArray.from_bits([bit or 0 for bit in self.bits])


class SyncCommitteePeer(SyncPeer):
    """The [3] committee protocol, 2 rounds, ``2t < n``."""

    def __init__(self, pid: int, config: SyncConfig, rng: SplittableRNG,
                 block_size: int = 1) -> None:
        super().__init__(pid, config, rng)
        if 2 * config.t >= config.n:
            raise ValueError(f"committee protocol needs 2t < n, got "
                             f"t={config.t}, n={config.n}")
        import math
        self.blocks = Segmentation(config.ell,
                                   max(1, math.ceil(config.ell / block_size)))
        self.committee_size = 2 * config.t + 1
        self.builder = _ArrayBuilder(config.ell)

    def round(self, round_no: int, inbox) -> None:
        if round_no == 1:
            for block in range(self.blocks.num_segments):
                committee = committee_for(block, self.committee_size, self.n)
                if self.pid not in committee:
                    continue
                lo, hi = self.blocks.bounds(block)
                values = self.query(range(lo, hi))
                self.builder.put_values(values)
                string = "".join("1" if values[index] else "0"
                                 for index in range(lo, hi))
                self.broadcast(CommitteeReport(sender=self.pid, block=block,
                                               string=string))
            return
        # Round 2: accept each block with t+1 identical member reports.
        support: dict[tuple[int, str], set[int]] = {}
        for message in inbox:
            if not isinstance(message, CommitteeReport):
                continue
            if not 0 <= message.block < self.blocks.num_segments:
                continue
            committee = committee_for(message.block, self.committee_size,
                                      self.n)
            if message.sender not in committee:
                continue
            lo, hi = self.blocks.bounds(message.block)
            if len(message.string) != hi - lo:
                continue
            support.setdefault((message.block, message.string),
                               set()).add(message.sender)
        for (block, string), senders in support.items():
            if len(senders) >= self.t + 1:
                lo, _ = self.blocks.bounds(block)
                self.builder.put_string(lo, string)
        if self.builder.complete:
            self.finish(self.builder.to_array())


class SyncTwoRoundPeer(SyncPeer):
    """Protocol 4's synchronous original: sample, then decision trees.

    Round complexity exactly 2; queries in round 2 are the separating
    indices of the decision trees (answered within the round — the
    synchronous model's source replies immediately).
    """

    def __init__(self, pid: int, config: SyncConfig, rng: SplittableRNG,
                 num_segments: int = 4, tau: int = 2) -> None:
        super().__init__(pid, config, rng)
        self.segmentation = Segmentation(config.ell, num_segments)
        self.tau = tau
        self.builder = _ArrayBuilder(config.ell)
        self.picked: Optional[int] = None

    def round(self, round_no: int, inbox) -> None:
        if round_no == 1:
            self.picked = self.rng.randrange(self.segmentation.num_segments)
            lo, hi = self.segmentation.bounds(self.picked)
            values = self.query(range(lo, hi))
            self.builder.put_values(values)
            string = "".join("1" if values[index] else "0"
                             for index in range(lo, hi))
            self.broadcast(SegmentReport(sender=self.pid,
                                         segment=self.picked, string=string))
            return
        reports = FrequencyTable()
        for message in inbox:
            if not isinstance(message, SegmentReport):
                continue
            if not 0 <= message.segment < self.segmentation.num_segments:
                continue
            lo, hi = self.segmentation.bounds(message.segment)
            if len(message.string) != hi - lo:
                continue
            reports.add(message.sender, message.segment, message.string)
        for segment in range(self.segmentation.num_segments):
            if segment == self.picked:
                continue
            lo, hi = self.segmentation.bounds(segment)
            candidates = reports.frequent(segment, self.tau)
            if not candidates:
                self.builder.put_values(self.query(range(lo, hi)))
                continue
            tree = build_tree(candidates)
            string, _ = determine(
                tree,
                lambda index, base=lo: self.query([base + index])[base + index])
            self.builder.put_string(lo, string)
        self.finish(self.builder.to_array())


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

    def _learn(self, values: dict[int, int]) -> None:
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
