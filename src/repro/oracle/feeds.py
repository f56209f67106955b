"""Off-chain data sources ("feeds") for the oracle application.

The paper's oracle model (Section 4) has ``m`` data sources, up to a
fraction of which are Byzantine.  Honest sources may legitimately
disagree a little (e.g. two exchanges quoting slightly different
prices); Byzantine sources may return anything — including *different
answers to different readers* (equivocation), the nastiest case for
aggregation.

Three feed behaviours:

- :class:`HonestFeed` — a fixed value vector near the ground truth
  (bounded per-feed noise);
- :class:`CorruptFeed` — a fixed but adversarial vector (consistent
  lying);
- :class:`EquivocatingFeed` — per-reader adversarial vectors.

Feeds plug into the DR simulation's source layer
(:mod:`repro.sim.source`): :meth:`Feed.source_fault` renders one feed
as a per-endpoint fault model (an equivocating feed answers by reader
identity), so ``Simulation(source_faults=[feed.source_fault()])`` runs
a Download protocol *against* the feed, and ``sources=len(feeds),
source_faults=[feed.source_fault() for feed in feeds]`` runs the
cross-validation protocols (``cross-validate`` and friends) against a
whole feed set with full per-(peer, source) query accounting.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.oracle.numeric import encode_values, max_value
from repro.sim.source import PerReaderViewFault, ViewFault
from repro.util.bitarrays import BitArray
from repro.util.rng import SplittableRNG
from repro.util.validation import check_nonnegative, check_positive


class Feed:
    """Base feed: ``cells`` values of ``value_bits`` bits each."""

    honest = True

    def __init__(self, feed_id: int, cells: int, value_bits: int) -> None:
        self.feed_id = feed_id
        self.cells = check_positive("cells", cells)
        self.value_bits = check_positive("value_bits", value_bits)

    def read(self, reader: int, cell: int) -> int:
        """Answer one direct read by ``reader`` (classic ODC path)."""
        raise NotImplementedError

    def values_for(self, reader: int) -> list[int]:
        """The full vector ``reader`` would see."""
        return [self.read(reader, cell) for cell in range(self.cells)]

    def encoded_for(self, reader: int) -> BitArray:
        """Bit encoding of :meth:`values_for` (Download's input)."""
        return encode_values(self.values_for(reader), self.value_bits)

    def source_fault(self):
        """This feed as a :class:`~repro.sim.source.SourceFault`:
        an endpoint answering from the feed's encoded vector.  Honest
        feeds keep the honest flag (their bounded noise is legitimate
        disagreement, not a fault)."""
        return ViewFault(self.encoded_for(0), honest=self.honest)


class HonestFeed(Feed):
    """Truthful feed with bounded observation noise.

    ``values[j] = clamp(truth[j] + noise_j)`` with ``|noise_j| <=
    noise_bound``, fixed per feed — honest feeds answer every reader
    identically (the paper's static-data assumption).
    """

    def __init__(self, feed_id: int, truth: Sequence[int], value_bits: int,
                 noise_bound: int = 0,
                 rng: Optional[SplittableRNG] = None) -> None:
        super().__init__(feed_id, len(truth), value_bits)
        check_nonnegative("noise_bound", noise_bound)
        ceiling = max_value(value_bits)
        noise_rng = rng or SplittableRNG(feed_id)
        self.values: list[int] = []
        for value in truth:
            noisy = value
            if noise_bound:
                noisy += noise_rng.randint(-noise_bound, noise_bound)
            self.values.append(min(ceiling, max(0, noisy)))

    def read(self, reader: int, cell: int) -> int:
        return self.values[cell]


class CorruptFeed(Feed):
    """Byzantine feed lying consistently (same lie to everyone)."""

    honest = False

    def __init__(self, feed_id: int, values: Sequence[int],
                 value_bits: int) -> None:
        super().__init__(feed_id, len(values), value_bits)
        self.values = list(values)

    def read(self, reader: int, cell: int) -> int:
        return self.values[cell]


class EquivocatingFeed(Feed):
    """Byzantine feed answering each reader differently.

    ``per_reader[pid]`` is the vector shown to ``pid``; readers not in
    the map get ``default``.
    """

    honest = False

    def __init__(self, feed_id: int, per_reader: dict[int, Sequence[int]],
                 default: Sequence[int], value_bits: int) -> None:
        super().__init__(feed_id, len(default), value_bits)
        self.per_reader = {pid: list(values)
                           for pid, values in per_reader.items()}
        self.default = list(default)

    def read(self, reader: int, cell: int) -> int:
        return self.per_reader.get(reader, self.default)[cell]

    def source_fault(self):
        per_reader_bits = {
            pid: encode_values(values, self.value_bits)
            for pid, values in self.per_reader.items()}
        return PerReaderViewFault(
            per_reader_bits, encode_values(self.default, self.value_bits))


def honest_range(feeds: Sequence[Feed], cell: int) -> tuple[int, int]:
    """The paper's honest range for ``cell``: ``[min, max]`` over the
    values honest feeds report (honest feeds are reader-independent)."""
    honest_values = [feed.read(0, cell) for feed in feeds if feed.honest]
    if not honest_values:
        raise ValueError("no honest feeds: the honest range is undefined")
    return min(honest_values), max(honest_values)


def in_honest_range(feeds: Sequence[Feed], cell: int, value: int) -> bool:
    """ODD acceptance test for one published value."""
    low, high = honest_range(feeds, cell)
    return low <= value <= high
