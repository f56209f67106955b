"""Theorem 3.12: the multi-cycle randomized Byzantine download.

The 2-cycle protocol's weak spot is the ``ell / s`` cost of the one
whole-segment query.  The multi-cycle protocol amortizes it away by
*doubling* segments across ``log2(s) + 1`` cycles
(:class:`~repro.core.segments.HierarchicalSegmentation`):

- **Cycle 1** — exactly the 2-cycle protocol's first cycle: sample one
  of ``s`` base segments u.a.r., query it whole, broadcast the string.
- **Cycle r >= 2** — sample one cycle-``r`` segment u.a.r.  It is the
  concatenation of two cycle-``(r-1)`` segments; resolve each child
  with a decision tree over the tau-frequent cycle-``(r-1)`` reports
  (plus a handful of source queries), concatenate, broadcast the
  result as a cycle-``r`` report.
- **Final cycle** — a single segment covers the whole input; resolving
  its two children yields the output.  (The final result needs no
  broadcast; every peer performs the final resolution itself.)

Correctness is Lemma 3.10's induction: w.h.p. every cycle-``r`` segment
was sampled by at least ``tau_r`` honest peers who — inductively —
learned it correctly and broadcast consistent strings, so the true
string is tau-frequent for every child and decision trees return it.

The per-cycle thresholds ``tau_r`` scale with the per-segment honest
expectation ``(n - 2t) / s_r``, which doubles every cycle — later
cycles are progressively safer.  Expected per-peer queries: the
``ell / s`` base segment plus ``O(n / tau)`` tree queries per cycle
over ``O(log s)`` cycles (the paper's ``Õ(ell / n)`` for suitable
``s``, ``beta`` constant ``< 1/2``).
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


@dataclass(frozen=True)
class CycleReport(Message):
    """A peer's resolved string for the segment it sampled in ``cycle``."""

    cycle: int
    segment: int
    string: str


def choose_base_segments(n: int, t: int, ell: int) -> int:
    """Power-of-two base segment count for the doubling hierarchy.

    Starts from the same ``(n - 2t) / (2 log2 n)`` cap as the 2-cycle
    protocol and rounds down to a power of two (the hierarchy halves
    the count every cycle).  Returns 1 when sampling cannot be safe —
    the protocol then degenerates to a single naive cycle.
    """
    if 2 * t >= n or ell <= 4 * n:
        return 1
    honest_floor = n - 2 * t
    cap = int(honest_floor // (2 * max(2.0, math.log2(n))))
    if cap <= 1:
        return 1
    return largest_power_of_two_at_most(min(cap, ell))


class ByzMultiCycleDownloadPeer(DownloadPeer):
    """Multi-cycle randomized download (``beta < 1/2``)."""

    protocol_name = "byz-multi-cycle"

    def __init__(self, pid: int, env: SimEnv,
                 base_segments: Optional[int] = None,
                 tau: Optional[int] = None) -> None:
        super().__init__(pid, env)
        if base_segments is None:
            base_segments = choose_base_segments(env.n, env.t, env.ell)
        if base_segments & (base_segments - 1):
            raise ConfigurationError(
                f"base_segments must be a power of two, got {base_segments}")
        self.hierarchy = HierarchicalSegmentation(env.ell, base_segments)
        self.base_tau = tau  # None = per-cycle default
        self.reports: dict[int, FrequencyTable] = {}
        self.tree_queries = 0
        self.fallback_segments = 0
        self.on_message(CycleReport, self._on_report)

    # -- thresholds --------------------------------------------------------

    def tau_for_cycle(self, cycle: int) -> int:
        """Frequency threshold applied to cycle-``cycle`` reports."""
        if self.base_tau is not None:
            return self.base_tau
        honest_floor = max(1, self.n - 2 * self.t)
        segments = self.hierarchy.segments_in_cycle(cycle)
        return max(1, honest_floor // (2 * segments))

    # -- report intake -----------------------------------------------------------

    def _on_report(self, message: CycleReport) -> None:
        if not 1 <= message.cycle < self.hierarchy.num_cycles:
            return  # final-cycle reports are never sent; reject garbage
        count = self.hierarchy.segments_in_cycle(message.cycle)
        if not 0 <= message.segment < count:
            return
        lo, hi = self.hierarchy.bounds(message.cycle, message.segment)
        if len(message.string) != hi - lo:
            return
        table = self.reports.setdefault(message.cycle, FrequencyTable())
        table.add(message.sender, message.segment, message.string)

    def _reporters(self, cycle: int) -> set[int]:
        table = self.reports.get(cycle)
        reporters = set() if table is None else set.union(
            set(), *(table.reporters(segment)
                     for segment in table.segments()))
        reporters.add(self.pid)
        return reporters

    # -- body -----------------------------------------------------------------------

    def body(self) -> Iterator:
        if self.hierarchy.base_segments == 1:
            # Degenerate hierarchy: a single "segment" is the input.
            self.begin_cycle()
            string = yield from self.query_segment(0, self.ell)
            self.learn_string(0, string)
            self.finish_with_working()
            return

        # ---- cycle 1: sample a base segment ----
        self.begin_cycle()
        picked = self.rng.randrange(self.hierarchy.base_segments)
        lo, hi = self.hierarchy.bounds(1, picked)
        string = yield from self.query_segment(lo, hi)
        self.learn_string(lo, string)
        self._record_own(1, picked, string)
        self.broadcast(CycleReport(sender=self.pid, cycle=1, segment=picked,
                                   string=string))

        # ---- cycles 2 .. R ----
        for cycle in range(2, self.hierarchy.num_cycles + 1):
            self.begin_cycle()
            needed = self.n - self.t
            yield self.wait_until(
                lambda c=cycle - 1, k=needed: len(self._reporters(c)) >= k,
                f"cycle {cycle - 1} reports from {needed} peers")
            count = self.hierarchy.segments_in_cycle(cycle)
            segment = (0 if count == 1
                       else self.rng.randrange(count))
            resolved = yield from self._resolve(cycle, segment)
            if cycle < self.hierarchy.num_cycles:
                self._record_own(cycle, segment, resolved)
                self.broadcast(CycleReport(sender=self.pid, cycle=cycle,
                                           segment=segment, string=resolved))

        # The final cycle's lone segment is the entire input.
        self.finish_with_working()

    def _record_own(self, cycle: int, segment: int, string: str) -> None:
        table = self.reports.setdefault(cycle, FrequencyTable())
        table.add(self.pid, segment, string)

    def _resolve(self, cycle: int, segment: int) -> Iterator:
        """Resolve a cycle-``cycle`` segment from its two children's
        tau-frequent cycle-``(cycle-1)`` reports; returns its string."""
        tau = self.tau_for_cycle(cycle - 1)
        table = self.reports.setdefault(cycle - 1, FrequencyTable())
        pieces: list[str] = []
        for child in self.hierarchy.children(cycle, segment):
            lo, hi = self.hierarchy.bounds(cycle - 1, child)
            if self.known_range(lo, hi):
                # Already learned (e.g. our own cycle-1 segment).
                pieces.append(self.working_string(lo, hi))
                continue
            candidates = table.frequent(child, tau)
            if not candidates:
                self.fallback_segments += 1
                string = yield from self.query_segment(lo, hi)
            else:
                tree = build_tree(candidates)
                string, spent = yield from determine_via_peer(self, tree, lo)
                self.tree_queries += spent
            self.learn_string(lo, string)
            pieces.append(string)
        return "".join(pieces)
