"""Protocol-aware scripted Byzantine attacks.

The generic corruption strategies in :mod:`repro.adversary.byzantine`
wrap an honest execution; the attackers here instead *speak the
protocols' message types directly*, targeting each protocol's specific
trust anchor:

- :class:`CommitteeForgeAttacker` — floods forged
  :class:`~repro.protocols.byz_committee.CommitteeReport` messages for
  every block it sits on (and some it does not), trying to assemble
  ``t + 1`` matching fakes;
- :class:`FrequencySpamAttacker` — targets the randomized protocols'
  tau-frequency filter: all corrupted peers coordinate on a single
  fabricated string per segment so every fake reaches the threshold
  and inflates every decision tree;
- :class:`SplitReportAttacker` — sends a *different* fabricated string
  to every peer, trying to starve the threshold instead (honest peers
  should then see fakes with support 1 each).

These live in the adversary package but import protocol message types;
that direction of dependency is deliberate — attacks are written
against protocols, never vice versa.
"""

from __future__ import annotations

from typing import Iterator

from repro.adversary.byzantine import ScriptedByzantinePeer
from repro.core.assignment import committee_for
from repro.core.segments import Segmentation
from repro.protocols.byz_committee import CommitteeReport
from repro.protocols.byz_cycles import SegmentReport
from repro.sim.process import WaitUntil


def _flip(string: str) -> str:
    return "".join("1" if ch == "0" else "0" for ch in string)


class CommitteeForgeAttacker(ScriptedByzantinePeer):
    """Forges committee reports for every block in the input.

    It never queries the source: its lie is a constant string of the
    block's width.  For blocks it legitimately sits on it reports all
    zeros, for every other block all ones — honest peers must reject
    the latter on membership grounds — and it adds one report for a
    block that does not exist.  Every forger sends the same strings,
    so with ``2t + 1`` committees, ``t`` coordinated forgers contribute
    at most ``t`` matching fakes: one short of acceptance.
    """

    def __init__(self, pid, env, block_size: int = 1) -> None:
        super().__init__(pid, env)
        self.block_size = block_size

    def body(self) -> Iterator[WaitUntil]:
        import math
        blocks = Segmentation(self.env.ell,
                              max(1, math.ceil(self.env.ell
                                               / self.block_size)))
        committee_size = 2 * self.env.t + 1
        for block in range(blocks.num_segments):
            lo, hi = blocks.bounds(block)
            fake = "1" * (hi - lo)
            if self.pid in committee_for(block, committee_size, self.env.n):
                fake = _flip(fake)  # any consistent lie will do
            self.inject_all(CommitteeReport(sender=self.pid, block=block,
                                            string=fake))
        # Also forge a report for a nonexistent block (robustness bait).
        self.inject_all(CommitteeReport(sender=self.pid,
                                        block=blocks.num_segments + 7,
                                        string="0" * self.block_size))


class FrequencySpamAttacker(ScriptedByzantinePeer):
    """Coordinated tau-frequency flooding for the randomized protocols.

    Every corrupted peer sends the *same* fabricated string for *every*
    segment, so each fake gets support ``t`` — past the threshold
    whenever ``tau <= t``.  Correctness must then rest entirely on the
    decision trees: the fakes enter the candidate sets, but the source
    queries route every honest peer back to the true string.  The cost
    of the attack is the extra tree queries it forces — which is
    exactly the ``n / tau`` term of Theorem 3.7's bound.
    """

    def __init__(self, pid, env, num_segments: int) -> None:
        super().__init__(pid, env)
        self.num_segments = num_segments

    def body(self) -> Iterator[WaitUntil]:
        segmentation = Segmentation(self.env.ell, self.num_segments)
        for segment in range(segmentation.num_segments):
            lo, hi = segmentation.bounds(segment)
            fake = "10" * ((hi - lo + 1) // 2)
            self.inject_all(SegmentReport(sender=self.pid, segment=segment,
                                          string=fake[:hi - lo]))


class SplitReportAttacker(ScriptedByzantinePeer):
    """Per-destination fabrications: support-1 noise for every peer.

    The dual of :class:`FrequencySpamAttacker`: no fake ever reaches
    ``tau >= 2``, so the filter should drop all of them and honest
    peers should pay *zero* extra tree queries for this attacker.
    """

    def __init__(self, pid, env, num_segments: int) -> None:
        super().__init__(pid, env)
        self.num_segments = num_segments

    def body(self) -> Iterator[WaitUntil]:
        segmentation = Segmentation(self.env.ell, self.num_segments)
        for segment in range(segmentation.num_segments):
            lo, hi = segmentation.bounds(segment)
            width = hi - lo
            for destination in self.env.peer_ids:
                if destination == self.pid:
                    continue
                # Unique per (attacker, destination): no fake can ever
                # accumulate support above 1.
                pattern = format(self.pid * 65_537 + destination, "032b")
                fake = (pattern * (width // 32 + 1))[:width]
                self.inject(destination,
                            SegmentReport(sender=self.pid, segment=segment,
                                          string=fake))
