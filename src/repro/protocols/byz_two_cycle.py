"""Protocol 4 / Theorem 3.7: the 2-cycle randomized Byzantine download.

Cycle 1 — the input is cut into ``s`` segments; each peer picks one
uniformly at random, queries it whole, and broadcasts
``(segment, string)`` to everyone.

Cycle 2 — each peer waits until it holds reports from at least
``n - t`` peers (itself included).  Among the senders at least
``n - 2t`` are honest, and because the adversary fixed its schedule
before any coin was flipped, those honest peers' segment choices are
uniform — so every segment is covered by at least ``tau`` honest,
*consistent* reports w.h.p. (Claim 5).  For every segment the peer
feeds the tau-frequent strings (:class:`~repro.core.frequent.FrequencyTable`)
into a decision tree (:mod:`~repro.core.decision_tree`) and resolves the
survivors with a few adaptive source queries.  Byzantine peers can push
fabricated strings past the tau filter only by spending ``>= tau``
corrupted identities per fake, and each fake costs every honest peer at
most one extra tree query — that is the ``n / tau`` term of the bound.

Parameter choice (:func:`choose_two_cycle_parameters`) follows the
paper's three cases: sample mode with ``s ~ (n - 2t) / (2 log2 n)``
segments when the input is large, a clamped variant in the middle, and
plain naive querying when the input is so small that sampling cannot
beat it (Case 3).

Failure mode (by design, matching the theorem's "w.h.p."): if some
segment ends up with fewer than ``tau`` honest reports among the
``n - t`` the peer heard, the honest string may miss the tree and the
peer may output a wrong array.  The E5 claim of
:mod:`repro.experiments.claims` runs the protocol over ``ell``, ``beta``
and 20 seeds and marks the one row (n=40, beta=0.2) where this happens
as a finding — at n=40 Claim 5's union bound is vacuous; correctness
tests pin seeds/parameters where the premise of Claim 5 holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.core.decision_tree import build_tree, determine_via_peer
from repro.core.frequent import FrequencyTable
from repro.core.segments import Segmentation
from repro.protocols.base import DownloadPeer
from repro.sim.errors import ConfigurationError
from repro.sim.messages import Message
from repro.sim.peer import SimEnv


@dataclass(frozen=True)
class SegmentReport(Message):
    """Cycle-1 broadcast: "I sampled this segment; here is its value"."""

    segment: int
    string: str


@dataclass(frozen=True)
class TwoCycleParameters:
    """Resolved parameters for one run of the 2-cycle protocol."""

    num_segments: int
    tau: int
    naive: bool

    def __post_init__(self) -> None:
        if not self.naive:
            if self.num_segments < 1:
                raise ValueError("num_segments must be >= 1")
            if self.tau < 1:
                raise ValueError("tau must be >= 1")


def choose_two_cycle_parameters(n: int, t: int, ell: int) -> TwoCycleParameters:
    """The paper's case analysis, made concrete.

    Honest support floor ``h = n - 2t`` (hear ``n - t``, up to ``t`` of
    them Byzantine).  Sample mode needs each of ``s`` segments to catch
    ``tau`` of the ``h`` honest picks w.h.p., so ``s`` is capped at
    ``h / (2 * max(2, log2 n))`` and ``tau`` is half the resulting
    per-segment expectation.  When that cap leaves ``s <= 1`` — or when
    the segment cost ``ell / s`` is no better than ``ell`` (tiny
    inputs, Case 3) — the peer falls back to naive querying.
    """
    if 2 * t >= n:
        # beta >= 1/2: Theorem 3.2 says sampling cannot work; the
        # protocol degenerates to the naive one (its only safe mode).
        return TwoCycleParameters(num_segments=1, tau=1, naive=True)
    honest_floor = n - 2 * t
    log_term = max(2.0, math.log2(n))
    segments = int(honest_floor // (2 * log_term))
    if segments <= 1 or ell <= 4 * n:
        return TwoCycleParameters(num_segments=1, tau=1, naive=True)
    segments = min(segments, ell)
    tau = max(1, honest_floor // (2 * segments))
    return TwoCycleParameters(num_segments=segments, tau=tau, naive=False)


class ByzTwoCycleDownloadPeer(DownloadPeer):
    """2-cycle randomized download (``beta < 1/2``)."""

    protocol_name = "byz-two-cycle"

    def __init__(self, pid: int, env: SimEnv,
                 num_segments: Optional[int] = None,
                 tau: Optional[int] = None) -> None:
        super().__init__(pid, env)
        params = choose_two_cycle_parameters(env.n, env.t, env.ell)
        if num_segments is not None or tau is not None:
            if num_segments is None or tau is None:
                raise ConfigurationError(
                    "override num_segments and tau together or not at all")
            params = TwoCycleParameters(num_segments=num_segments, tau=tau,
                                        naive=False)
        self.params = params
        self.segmentation = (None if params.naive else
                             Segmentation(env.ell, params.num_segments))
        self.reports = FrequencyTable()
        self.tree_queries = 0
        self.fallback_segments = 0
        #: Peers whose report arrived, valid or not (and self): the
        #: cycle-2 wait's count, kept as each report lands.
        self._reporters = {pid}
        self.on_message(SegmentReport, self._on_report)

    def _on_report(self, message: SegmentReport) -> None:
        self._reporters.add(message.sender)
        if self.segmentation is None:
            return
        if not 0 <= message.segment < self.segmentation.num_segments:
            return  # Byzantine garbage: no such segment
        lo, hi = self.segmentation.bounds(message.segment)
        if len(message.string) != hi - lo:
            return  # wrong length can never be the segment's value
        self.reports.add(message.sender, message.segment, message.string)

    # -- body -----------------------------------------------------------------

    def body(self) -> Iterator:
        if self.params.naive:
            yield from self._run_naive()
            return

        # ---- cycle 1: sample, query, broadcast ----
        self.begin_cycle()
        self.note_phase("sample")
        picked = self.rng.randrange(self.segmentation.num_segments)
        lo, hi = self.segmentation.bounds(picked)
        string = yield from self.query_segment(lo, hi)
        self.learn_string(lo, string)
        self.reports.add(self.pid, picked, string)
        self.broadcast(SegmentReport(sender=self.pid, segment=picked,
                                     string=string))

        # ---- cycle 2: wait for n - t reporters, then determine ----
        self.begin_cycle()
        self.note_phase("determine")
        needed = self.n - self.t
        reporters = self._reporters
        yield self.wait_until(
            lambda: len(reporters) >= needed,
            f"segment reports from {needed} peers (incl. self)")
        for segment in range(self.segmentation.num_segments):
            if segment == picked:
                continue
            yield from self._determine_segment(segment)
        self.finish_with_working()

    def _determine_segment(self, segment: int) -> Iterator:
        """Resolve one segment from tau-frequent reports (or fall back
        to querying it outright when nothing qualified)."""
        lo, hi = self.segmentation.bounds(segment)
        candidates = self.reports.frequent(segment, self.params.tau)
        if not candidates:
            # No string reached the threshold (a low-probability event
            # under Claim 5's premise): query the segment directly.
            self.fallback_segments += 1
            string = yield from self.query_segment(lo, hi)
            self.learn_string(lo, string)
            return
        tree = build_tree(candidates)
        string, spent = yield from determine_via_peer(self, tree, lo)
        self.tree_queries += spent
        self.learn_string(lo, string)

    def _run_naive(self) -> Iterator:
        self.begin_cycle()
        for lo in range(0, self.ell, 4096):
            hi = min(self.ell, lo + 4096)
            values = yield from self.query_bits(range(lo, hi))
            self.learn_many(values)
        self.finish_with_working()
