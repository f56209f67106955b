"""Theorem 3.4: deterministic asynchronous Download for ``beta < 1/2``.

The committee protocol from [3], adapted to asynchrony exactly as the
paper prescribes.  The input is carved into blocks; each block gets a
round-robin *committee* of ``2t + 1`` peers.  Committee members query
their block and broadcast its value; everyone else accepts a block the
moment ``t + 1`` *distinct* peers of its committee have reported the
same string — at least one of any ``t + 1`` committee members is
honest, so an accepted string is correct, and the ``>= t + 1`` honest
members of every committee guarantee eventual acceptance no matter how
messages are delayed (honest peers can be slowed, never forged).

The paper forms a committee per *bit*; this implementation generalizes
to per-*block* committees (``block_size`` bits, default 1 = the paper's
protocol) because the committee-membership pattern — hence the query
complexity ``ell * (2t + 1) / n`` — is independent of the block size,
while larger blocks shrink the simulated message count by that factor.
Benches use blocks; the test suite also runs the exact per-bit variant.

Query complexity per peer: each peer sits on at most
``ceil(blocks * (2t+1) / n)`` committees and queries one block for
each, i.e. ``ceil(ell * (2t + 1) / n)`` bits — Theorem 3.4's bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Iterator

from repro.core.segments import Segmentation
from repro.protocols.base import DownloadPeer
from repro.protocols.board import CommitteeBoard
from repro.sim.errors import ConfigurationError
from repro.sim.messages import Message
from repro.sim.peer import SimEnv


@dataclass(frozen=True)
class CommitteeReport(Message):
    """A committee member's reading of its block."""

    block: int
    string: str


class ByzCommitteeDownloadPeer(DownloadPeer):
    """Deterministic committee download; requires ``2t < n``."""

    protocol_name = "byz-committee"

    def __init__(self, pid: int, env: SimEnv, block_size: int = 1,
                 give_up_time: float = None) -> None:
        super().__init__(pid, env)
        if 2 * env.t >= env.n:
            raise ConfigurationError(
                f"the committee protocol needs 2t < n, got t={env.t}, "
                f"n={env.n} (Theorem 3.1: impossible deterministically)")
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.block_size = block_size
        #: Application-layer escape hatch (None = pure protocol): if
        #: the trusted-source assumption is violated (an equivocating
        #: oracle feed), "t+1 identical reports" may never materialize;
        #: after this much virtual time the peer queries the unresolved
        #: blocks itself.  See Peer.wait_with_deadline for the caveat.
        self.give_up_time = give_up_time
        self.blocks = Segmentation(env.ell,
                                   max(1, math.ceil(env.ell / block_size)))
        self.committee_size = 2 * env.t + 1
        #: The acceptance rule lives in the run-shared column-major
        #: tally (:mod:`repro.protocols.board`), not in per-peer dicts:
        #: the first peer of a run builds the board, every peer
        #: registers with it and feeds it the reports delivered one by
        #: one; grouped deliveries reach it as whole pid spans.
        self._board = env.network.span_sink(CommitteeReport, lambda: (
            CommitteeBoard(kernel=env.kernel, n=env.n, t=env.t,
                           blocks=self.blocks,
                           committee_size=self.committee_size)))
        self._board.register(self)
        self.on_message(CommitteeReport,
                        partial(self._board.on_single, pid))

    def _read_blocks(self, blocks: list[int]) -> Iterator:
        """Query ``blocks`` in one batched request and accept each
        reading; returns the ``(block, string)`` pairs."""
        wanted: list[int] = []
        for block in blocks:
            lo, hi = self.blocks.bounds(block)
            wanted.extend(range(lo, hi))
        values = yield from self.query_bits(wanted)
        readings = []
        for block in blocks:
            lo, hi = self.blocks.bounds(block)
            string = values.segment(lo, hi)
            self._board.self_accept(self.pid, block, string)
            readings.append((block, string))
        return readings

    def body(self) -> Iterator:
        board = self._board
        self.begin_cycle()
        self.note_phase("report")
        # One batched request for all committee duties: the committees
        # a peer serves on are known up front, so their queries can be
        # issued in parallel (the paper's committees operate in
        # parallel up to the n/(2t+1) concurrency it notes).
        readings = yield from self._read_blocks(board.blocks_of(self.pid))
        for block, string in readings:
            self.broadcast(CommitteeReport(sender=self.pid, block=block,
                                           string=string))

        self.begin_cycle()
        self.note_phase("collect")
        num_blocks = self.blocks.num_segments
        done = lambda: board.accepted_blocks(self.pid) == num_blocks  # noqa: E731
        if self.give_up_time is None:
            yield self.wait_until(done,
                                  "t+1 matching reports for every block")
        else:
            yield self.wait_with_deadline(
                done, self.give_up_time,
                "t+1 matching reports for every block (with deadline)")
            if not done():
                # The source broke its trust contract (possible only in
                # the oracle application); read the leftovers ourselves.
                yield from self._read_blocks(
                    board.unaccepted_blocks(self.pid))
        self.finish(board.output_for(self.pid))
