"""The run-shared committee tally of the byz-committee protocol.

Theorem 3.4's acceptance rule is per peer: accept a block once
``t + 1`` distinct members of its committee reported the same string.
Kept per peer it is one ``(block, string) -> supporters`` dict in every
peer, touched once per delivered report — at ``n = 10^5`` that is
``O(n)`` dicts updated ``O(blocks * committee)`` times each.  The
:class:`CommitteeBoard` stores the same information *per column*: one
column per distinct ``(block, string)`` report value, with the vote
counts of **all** peers for that column held in a
:class:`TierTally` — tier ``k`` is a single arbitrary-precision-int
bitmask of the peers holding at least ``k + 1`` votes.  Adding one
report for a whole span of peers is then ``t + 1`` big-int AND/ORs
(bytes-level vectorization, ~``n / 8`` bytes per operand) instead of
``n`` dict updates, and the peers newly reaching the ``t + 1``
acceptance threshold fall out as a bitmask.

The rule, restated column-wise (a Hypothesis model test checks it peer
by peer against the dict-of-sets statement above):

* Dedup by *distinct sender* is per ``(column, sender)`` delivered-set
  bitmask — "count each committee member once".
* A peer accepts a block exactly once (``accepted_mask`` filters), at
  the delivery event where its ``t + 1``-th distinct vote lands.
* A span delivery wakes the peers it completed, in ascending pid order
  — the order their own delivery events would have run in — and a
  single delivery through :meth:`deliver_one` wakes its peer only if it
  completed it.  For any other peer the notify of a per-message
  delivery evaluates a false wait predicate and schedules nothing, so
  skipping it is invisible.  (The one predicate a delivery can satisfy
  without completing the peer is a passed ``give_up_time``; see
  :meth:`deliver_span`.)
* Votes tallied for crashed/finished peers are never read again
  (their output, if any, was packed at finish time); per-message
  deliveries to such peers evaporate the same way.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Optional

from repro.core.assignment import committee_for, committees_by_peer
from repro.core.segments import Segmentation
from repro.util.bitarrays import BitArray


def iter_bits(mask: int):
    """Yield the set-bit positions of ``mask`` in ascending order."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


class TierTally:
    """Saturating per-peer vote counter over bitmask tiers.

    ``tiers[k]`` holds the peers with at least ``k + 1`` votes; counts
    saturate at ``threshold``.  :meth:`add` credits one vote to every
    peer in ``mask`` and returns the peers that *newly* reached the
    threshold — the batched equivalent of incrementing ``n`` individual
    counters and comparing each against ``threshold``.
    """

    __slots__ = ("threshold", "tiers")

    def __init__(self, threshold: int) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.tiers = [0] * threshold

    def add(self, mask: int) -> int:
        """Credit one vote to each peer in ``mask``; return the mask of
        peers whose count just reached the threshold."""
        tiers = self.tiers
        top = self.threshold - 1
        carry = mask
        for level in range(top):
            tier = tiers[level]
            tiers[level] = tier | carry
            carry &= tier
            if not carry:
                return 0
        newly = carry & ~tiers[top]
        tiers[top] |= carry
        return newly

    def count(self, pid: int) -> int:
        """Current (saturated) vote count of peer ``pid`` — the
        reference read-side used by the property tests."""
        return sum((tier >> pid) & 1 for tier in self.tiers)


class CommitteeBoard:
    """Shared column-major report tally for one byz-committee run."""

    def __init__(self, *, kernel, n: int, t: int, blocks: Segmentation,
                 committee_size: int) -> None:
        self.kernel = kernel
        self.n = n
        self.t = t
        self.threshold = t + 1
        self.blocks = blocks
        self.num_blocks = blocks.num_segments
        self.committee_size = committee_size
        #: Absolute give-up deadline of the run's peers, or ``None``
        #: (set by :meth:`register`).
        self.deadline: Optional[float] = None
        #: Registered receivers (the run's peers), indexed by pid; a
        #: Byzantine shell's inner honest peer registers too.
        self.receivers: list[Optional[object]] = [None] * n
        self._members = committees_by_peer(self.num_blocks, committee_size,
                                           n)
        self._committees = [
            frozenset(committee_for(block, committee_size, n))
            for block in range(self.num_blocks)]
        self._widths = [hi - lo for lo, hi in
                        (blocks.bounds(block)
                         for block in range(self.num_blocks))]
        # Column store: one column per distinct (block, string) value.
        self._cols: dict[tuple[int, str], int] = {}
        self._col_string: list[str] = []
        self._col_block: list[int] = []
        self._tally: list[TierTally] = []
        #: Per-(column, sender) delivered-destination bitmask: the
        #: distinct-sender dedup rule, span-at-a-time.
        self._seen: list[dict[int, int]] = []
        #: Per-block bitmask of peers that accepted the block.
        self._accepted_mask: list[int] = [0] * self.num_blocks
        self._accepted_col = [array("l", [-1]) * n
                              for _ in range(self.num_blocks)]
        self._accepted_count = array("q", [0]) * n
        #: Interned outputs keyed by the tuple of accepted column ids —
        #: in a normal run every honest peer accepts the same columns,
        #: so the whole fleet shares one packed BitArray.
        self._outputs: dict[tuple, BitArray] = {}
        #: Marks the column a report resolved to on this board (see
        #: :meth:`_column`).
        self._token = object()

    # -- wiring ------------------------------------------------------------

    def register(self, peer) -> None:
        """Make ``peer`` a receiver.  One factory builds every peer of
        a run, so they agree on ``give_up_time``."""
        self.receivers[peer.pid] = peer
        self.deadline = peer.give_up_time

    def unlink(self) -> None:
        """The run ended: drop the receivers, which reference the board
        back (span-sink contract)."""
        self.receivers.clear()

    def owns(self, pid: int) -> bool:
        """True when ``pid`` registered (span-sink contract: only an
        owned destination's reports reach the board's entries)."""
        return self.receivers[pid] is not None

    def blocks_of(self, pid: int) -> list[int]:
        """Blocks whose committee contains ``pid`` (ascending)."""
        return self._members.get(pid, [])

    # -- column management -------------------------------------------------

    def _col_id(self, block: int, string: str) -> int:
        col = self._cols.get((block, string))
        if col is None:
            col = len(self._col_string)
            self._cols[(block, string)] = col
            self._col_string.append(string)
            self._col_block.append(block)
            self._tally.append(TierTally(self.threshold))
            self._seen.append({})
        return col

    def _column(self, message) -> Optional[int]:
        """:meth:`_valid_col` of a report, resolved once per message
        object: a broadcast hands one frozen report to ``n - 1`` peers,
        so the first resolution is kept in the instance dict (as
        ``Message.size_bits`` keeps the size), tagged with this board's
        token so that another board never reads it."""
        cached = message.__dict__.get("_board_col")
        if cached is not None and cached[0] is self._token:
            return cached[1]
        col = self._valid_col(message.block, message.sender, message.string)
        message.__dict__["_board_col"] = (self._token, col)
        return col

    def _valid_col(self, block: int, sender: int,
                   string: str) -> Optional[int]:
        """Column for a report, or ``None`` for reports the acceptance
        rule ignores: no such block (Byzantine garbage), a sender
        outside the block's committee (only members may vouch for it),
        a string of the wrong width (it can never be the block)."""
        if not 0 <= block < self.num_blocks:
            return None
        if sender not in self._committees[block]:
            return None
        if len(string) != self._widths[block]:
            return None
        return self._col_id(block, string)

    # -- delivery ----------------------------------------------------------

    def on_single(self, pid: int, message) -> None:
        """Handler path: one report reached one peer through its own
        ``deliver`` (a delivery the network could not hand to
        :meth:`deliver_one`, see ``Network.span_sink``, or any on the
        socket host).  That ``deliver`` notifies the peer, so nothing is
        woken here."""
        col = self._column(message)
        if col is not None:
            self._tally_one(pid, col, message.sender)

    def deliver_one(self, message, pid: int) -> None:
        """Per-peer entry (span-sink contract): one report reached
        ``pid``, and never its inbox or handler.  The report is tallied
        as :meth:`on_single` tallies it; the peer is notified only if
        the report completed it, or once ``deadline`` has passed — the
        rule :meth:`deliver_span` follows."""
        receiver = self.receivers[pid]
        if not receiver.live:
            return  # deliveries to crashed/finished peers evaporate
        col = self._column(message)
        kernel = self.kernel
        if (col is not None and self._tally_one(pid, col, message.sender)) \
                or (self.deadline is not None
                    and kernel.now >= self.deadline):
            kernel.notify(receiver)

    def _tally_one(self, pid: int, col: int, sender: int) -> bool:
        """Count ``sender``'s report in ``col`` for ``pid`` (once per
        sender); True when it completed ``pid``."""
        bit = 1 << pid
        seen = self._seen[col]
        prev = seen.get(sender, 0)
        if prev & bit:
            return False  # duplicate from this sender: counted once already
        seen[sender] = prev | bit
        newly = self._tally[col].add(bit)
        # t + 1 identical reports include at least one honest one.
        return bool(newly) and bool(self._accept(col, newly))

    def deliver_span(self, message, lo: int, hi: int) -> None:
        """Span path: one report reached the whole pid span [lo, hi).

        Wakes the peers the report completed.  Past ``deadline`` a
        peer's wait is satisfied by the clock alone, so every peer of
        the span is notified, as its own delivery event would have."""
        completed: Iterable[int] = ()
        col = self._column(message)
        if col is not None:
            span = (1 << hi) - (1 << lo)
            seen = self._seen[col]
            sender = message.sender
            prev = seen.get(sender, 0)
            mask = span & ~prev if prev & span else span
            seen[sender] = prev | span
            newly = self._tally[col].add(mask) if mask else 0
            if newly:
                completed = self._accept(col, newly)
        kernel = self.kernel
        if self.deadline is not None and kernel.now >= self.deadline:
            completed = range(lo, hi)
        receivers = self.receivers
        for pid in completed:  # ascending = per-message delivery order
            kernel.notify(receivers[pid])

    def _accept(self, col: int, newly: int) -> list[int]:
        """Record that the peers in ``newly`` reached ``t + 1`` votes
        for ``col``; returns those that thereby hold every block."""
        block = self._col_block[col]
        pending = newly & ~self._accepted_mask[block]
        self._accepted_mask[block] |= pending
        row = self._accepted_col[block]
        counts = self._accepted_count
        completed = []
        for pid in iter_bits(pending):
            row[pid] = col
            counts[pid] += 1
            if counts[pid] == self.num_blocks:
                completed.append(pid)
        return completed

    # -- the peer-facing read side ----------------------------------------

    def self_accept(self, pid: int, block: int, string: str) -> None:
        """``pid`` read ``block`` from the source itself and accepts
        its own reading — unless a ``t + 1``-supported report already
        settled the block (first acceptance wins)."""
        bit = 1 << pid
        if self._accepted_mask[block] & bit:
            return
        col = self._col_id(block, string)
        self._accepted_mask[block] |= bit
        self._accepted_col[block][pid] = col
        self._accepted_count[pid] += 1

    def accepted_blocks(self, pid: int) -> int:
        """How many blocks ``pid`` has accepted so far."""
        return self._accepted_count[pid]

    def unaccepted_blocks(self, pid: int) -> list[int]:
        """The blocks ``pid`` has not accepted yet (ascending)."""
        return [block for block, mask in enumerate(self._accepted_mask)
                if not (mask >> pid) & 1]

    def output_for(self, pid: int) -> BitArray:
        """Pack ``pid``'s accepted strings into the output array.

        Outputs are interned by accepted-column tuple: in a normal run
        every honest peer accepted identical columns and the whole
        fleet shares one :class:`BitArray` instead of ``n`` copies.
        """
        cols = tuple(self._accepted_col[block][pid]
                     for block in range(self.num_blocks))
        output = self._outputs.get(cols)
        if output is None:
            output = BitArray.from_segments(
                self._col_string[col] for col in cols)
            self._outputs[cols] = output
        return output
