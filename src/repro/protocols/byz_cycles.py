"""Protocol 4 (Thm 3.7) and Theorem 3.12: the randomized Byzantine
download over a segment hierarchy
(:class:`~repro.core.segments.HierarchicalSegmentation`).

- **Cycle 1** — each peer picks one of the ``s`` base segments
  uniformly at random, queries it whole, and broadcasts
  :class:`SegmentReport` ``(segment, string)`` to everyone.
- **Cycle r >= 2** — the peer waits until it holds cycle-``(r-1)``
  reports from at least ``n - t`` peers (itself included), picks one
  cycle-``r`` segment u.a.r. (the final cycle has one, the whole
  input, and draws no coin) and resolves each of its children: a
  decision tree (:mod:`~repro.core.decision_tree`) over the child's
  tau-frequent strings (:class:`~repro.core.frequent.FrequencyTable`),
  or, when none qualified, a query of the child's unknown bits.  It
  broadcasts the concatenation unless the cycle is the last.

At fan-in ``s`` the hierarchy has two cycles: Protocol 4,
``byz-two-cycle``.  At fan-in 2 it doubles segments over
``log2(s) + 1`` cycles: Theorem 3.12, ``byz-multi-cycle``, whose later
cycles amortize the ``ell / s`` of the whole-segment query away.

Correctness is Claim 5 and Lemma 3.10's induction: at least ``n - 2t``
of the ``n - t`` reporters are honest, and because the adversary fixed
its schedule before any coin was flipped, their picks are uniform — so
w.h.p. every segment has ``tau`` honest, consistent reports, the true
string is tau-frequent for every child, and the tree returns it.
Byzantine peers push a fake past the filter only by spending ``>= tau``
identities on it, and each fake costs an honest peer at most one tree
query: the ``n / tau`` term per cycle of
:func:`~repro.core.bounds.segment_cycles_query_bound`.  No peer pays
twice for a bit: the tree walk reads a bit the peer knows, and the
fallback asks only for the unknown ones.

Failure mode (by design, matching the theorems' "w.h.p."): if a
segment has fewer than ``tau`` honest reports among the ``n - t`` a
peer heard, the honest string may miss the tree and the peer may
output a wrong array.  The E5 claim of :mod:`repro.experiments.claims`
marks the one row (n=40, beta=0.2) where this happens as a finding:
at n=40 Claim 5's union bound is vacuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.core.decision_tree import build_tree, determine_via_peer
from repro.core.frequent import FrequencyTable
from repro.core.segments import (
    HierarchicalSegmentation,
    largest_power_of_two_at_most,
)
from repro.protocols.base import DownloadPeer
from repro.sim.errors import ConfigurationError
from repro.sim.messages import Message
from repro.sim.peer import SimEnv
from repro.util.validation import check_positive


@dataclass(frozen=True)
class SegmentReport(Message):
    """"I resolved this segment; here is its value".  ``segment`` is the
    hierarchy's global number, so cycle-1 reports number the base
    segments ``0 .. s-1``."""

    segment: int
    string: str


def choose_segments(n: int, t: int, ell: int) -> int:
    """The paper's case analysis, made concrete: how many base segments.

    Honest support floor ``h = n - 2t`` (hear ``n - t``, up to ``t`` of
    them Byzantine).  Each of ``s`` segments must catch ``tau`` of the
    ``h`` honest picks w.h.p., so ``s`` is capped at
    ``h / (2 * max(2, log2 n))`` and at ``ell``.  1 means naive
    querying: when ``2t >= n`` (Theorem 3.2 says sampling cannot work),
    when the input is so small that sampling cannot beat it
    (``ell <= 4n``, Case 3), or when the cap leaves ``s <= 1``.
    """
    if 2 * t >= n or ell <= 4 * n:
        return 1
    cap = int((n - 2 * t) // (2 * max(2.0, math.log2(n))))
    return max(1, min(cap, ell))


class ByzCyclesDownloadPeer(DownloadPeer):
    """The one body.  A subclass names its parameters and fixes the
    hierarchy's shape: its ``shape(n, t, ell, segments, tau)`` returns
    ``(base segments, fan-in)`` from the given parameters or defaults."""

    @classmethod
    def plan(cls, n: int, t: int, ell: int, segments: Optional[int] = None,
             tau: Optional[int] = None):
        """``(hierarchy, taus)`` of a run, ``taus[r - 1]`` being the
        threshold on cycle-``r`` reports: ``tau`` if given, else half a
        segment's expected honest support ``(n - 2t) / s_r``.  The
        hierarchy is ``None`` when the peer queries naively."""
        segments, fan_in = cls.shape(n, t, ell, segments, tau)
        if segments == 1:
            return None, ()
        hierarchy = HierarchicalSegmentation(ell, segments, fan_in)
        if tau is not None:
            check_positive("tau", tau)
        return hierarchy, tuple(
            max(1, (n - 2 * t) // (2 * hierarchy.segments_in_cycle(cycle)))
            if tau is None else tau
            for cycle in range(1, hierarchy.num_cycles))

    def __init__(self, pid: int, env: SimEnv, segments: Optional[int],
                 tau: Optional[int]) -> None:
        super().__init__(pid, env)
        self.hierarchy, self.taus = self.plan(env.n, env.t, env.ell,
                                              segments, tau)
        self.reports = FrequencyTable()
        #: Per cycle but the last, the peers whose report for one of
        #: its segments arrived (and self): the next cycle's wait
        #: count, kept as each report lands.
        self._reporters = [{pid} for _ in self.taus]
        #: Per reportable segment number: its width and its cycle's
        #: reporter set.  The top segment is never reported.
        self._intake = () if self.hierarchy is None else tuple(
            (hi - lo, self._reporters[cycle - 1])
            for (lo, hi), cycle in zip(self.hierarchy.spans[:-1],
                                       self.hierarchy.cycle_of))
        self.on_message(SegmentReport, self._on_report)

    def _on_report(self, message: SegmentReport) -> None:
        segment = message.segment
        if not 0 <= segment < len(self._intake):
            return  # Byzantine garbage: no such reportable segment
        width, reporters = self._intake[segment]
        reporters.add(message.sender)
        if len(message.string) == width:  # else never the segment's value
            self.reports.add(message.sender, segment, message.string)

    # -- body -----------------------------------------------------------------

    def body(self) -> Iterator:
        hierarchy = self.hierarchy
        if hierarchy is None:
            yield from self._run_naive()
            return

        # ---- cycle 1: sample, query, broadcast ----
        self.begin_cycle()
        self.note_phase("sample")
        segment = self.rng.randrange(hierarchy.base_segments)
        lo, hi = hierarchy.spans[segment]
        string = yield from self.query_segment(lo, hi)
        self.learn_string(lo, string)
        self._report(segment, string)

        # ---- cycles 2 .. R: wait for n - t reporters, then determine ----
        needed = self.n - self.t
        for cycle in range(2, hierarchy.num_cycles + 1):
            self.begin_cycle()
            self.note_phase("determine")
            yield self.wait_until(
                lambda heard=self._reporters[cycle - 2]: len(heard) >= needed,
                f"cycle-{cycle - 1} segment reports from {needed} peers "
                f"(incl. self)")
            count = hierarchy.segments_in_cycle(cycle)
            segment = self.rng.randrange(count) if count > 1 else 0
            yield from self._resolve(cycle, segment)
            if cycle < hierarchy.num_cycles:
                number = hierarchy.number(cycle, segment)
                self._report(number,
                             self.working_string(*hierarchy.spans[number]))
        self.finish_with_working()

    def _report(self, segment: int, string: str) -> None:
        self.reports.add(self.pid, segment, string)
        self.broadcast(SegmentReport(sender=self.pid, segment=segment,
                                     string=string))

    def _resolve(self, cycle: int, segment: int) -> Iterator:
        """Learn a cycle-``cycle`` segment child by child from the
        tau-frequent cycle-``(cycle-1)`` reports."""
        hierarchy = self.hierarchy
        tau = self.taus[cycle - 2]
        for child in hierarchy.children(cycle, segment):
            number = hierarchy.number(cycle - 1, child)
            lo, hi = hierarchy.spans[number]
            if self.known_range(lo, hi):
                continue  # e.g. the peer's own base segment
            candidates = self.reports.frequent(number, tau)
            if candidates:
                string = yield from determine_via_peer(
                    self, build_tree(candidates), lo)
                self.learn_string(lo, string)
            else:
                # No string reached the threshold (Claim 5's premise
                # missed): ask the source for what is still unknown.
                self.learn_many((yield from self.query_bits(
                    self.unknown_indices(lo, hi))))

    def _run_naive(self) -> Iterator:
        self.begin_cycle()
        for lo in range(0, self.ell, 4096):
            values = yield from self.query_bits(
                range(lo, min(self.ell, lo + 4096)))
            self.learn_many(values)
        self.finish_with_working()


class ByzTwoCycleDownloadPeer(ByzCyclesDownloadPeer):
    """Protocol 4: ``num_segments`` base segments under one top segment
    (``beta < 1/2``)."""

    protocol_name = "byz-two-cycle"

    def __init__(self, pid: int, env: SimEnv,
                 num_segments: Optional[int] = None,
                 tau: Optional[int] = None) -> None:
        super().__init__(pid, env, num_segments, tau)

    @staticmethod
    def shape(n, t, ell, segments, tau):
        if (segments is None) != (tau is None):
            raise ConfigurationError(
                "override num_segments and tau together or not at all")
        if segments is None:
            segments = choose_segments(n, t, ell)
        return segments, max(2, segments)


class ByzMultiCycleDownloadPeer(ByzCyclesDownloadPeer):
    """Theorem 3.12: ``base_segments`` (a power of two) doubling up to
    the whole input (``beta < 1/2``)."""

    protocol_name = "byz-multi-cycle"

    def __init__(self, pid: int, env: SimEnv,
                 base_segments: Optional[int] = None,
                 tau: Optional[int] = None) -> None:
        super().__init__(pid, env, base_segments, tau)

    @staticmethod
    def shape(n, t, ell, segments, tau):
        if segments is None:
            segments = largest_power_of_two_at_most(choose_segments(n, t, ell))
        elif segments & (segments - 1):
            raise ConfigurationError(
                f"base_segments must be a power of two, got {segments}")
        return segments, 2
