"""Segment partitioning for the randomized protocols.

The randomized download protocols partition the input array into
contiguous segments of (roughly) equal length; peers sample segments,
query them whole, and exchange segment *strings*.  Two partitioning
schemes are needed:

- :class:`Segmentation` — one flat partition into ``s`` segments
  (the committee protocol's blocks);
- :class:`HierarchicalSegmentation` — a stack of partitions in which
  each cycle-``r`` segment is the concatenation of ``fan_in``
  cycle-``(r-1)`` segments: the randomized protocols' cycles
  (fan-in ``s`` for Protocol 4, 2 for the multi-cycle doubling of
  Lemma 3.10).
"""

from __future__ import annotations

from repro.core.assignment import balanced_partition
from repro.util.validation import check_index, check_positive


class Segmentation:
    """A flat partition of ``[0, ell)`` into ``s`` contiguous segments."""

    def __init__(self, ell: int, num_segments: int) -> None:
        check_positive("ell", ell)
        check_positive("num_segments", num_segments)
        if num_segments > ell:
            raise ValueError(
                f"cannot cut {ell} bits into {num_segments} nonempty segments")
        self.ell = ell
        self.num_segments = num_segments
        self._bounds = balanced_partition(ell, num_segments)

    def bounds(self, segment: int) -> tuple[int, int]:
        """Half-open bit range ``[lo, hi)`` of ``segment``."""
        check_index("segment", segment, self.num_segments)
        return self._bounds[segment]

    def length(self, segment: int) -> int:
        """Number of bits in ``segment``."""
        lo, hi = self.bounds(segment)
        return hi - lo

    def segment_of(self, index: int) -> int:
        """The segment containing bit ``index`` (binary search)."""
        check_index("index", index, self.ell)
        lo_segment, hi_segment = 0, self.num_segments - 1
        while lo_segment < hi_segment:
            mid = (lo_segment + hi_segment) // 2
            if index >= self._bounds[mid][1]:
                lo_segment = mid + 1
            else:
                hi_segment = mid
        return lo_segment

    def all_bounds(self) -> list[tuple[int, int]]:
        """Bounds of every segment, in order."""
        return list(self._bounds)

    def max_length(self) -> int:
        """Length of the longest segment (= ceil(ell / s))."""
        return max(hi - lo for lo, hi in self._bounds)

    def __repr__(self) -> str:
        return f"Segmentation(ell={self.ell}, s={self.num_segments})"


class HierarchicalSegmentation:
    """A stack of partitions of ``[0, ell)``, one per cycle.

    Cycle 1 cuts the input into ``base_segments`` pieces.  Segment ``i``
    of cycle ``r`` is the concatenation of segments ``i * fan_in`` to
    ``(i + 1) * fan_in - 1`` of cycle ``r - 1``, so ``base_segments``
    must be a power of ``fan_in``, and the final cycle
    (:attr:`num_cycles`) has one segment: the whole input.  Fan-in 2 is
    the multi-cycle protocol's doubling (Lemma 3.10); fan-in
    ``base_segments`` puts every base segment under the top one, the
    2-cycle protocol.

    Segments are also numbered across cycles, cycle 1 first
    (:meth:`number`); :attr:`spans` holds each number's bit range and
    :attr:`cycle_of` its cycle, so a number alone names a segment.
    """

    def __init__(self, ell: int, base_segments: int, fan_in: int = 2) -> None:
        check_positive("ell", ell)
        check_positive("base_segments", base_segments)
        if fan_in < 2:
            raise ValueError(f"fan_in must be at least 2, got {fan_in}")
        if base_segments > ell:
            raise ValueError(
                f"cannot cut {ell} bits into {base_segments} nonempty segments")
        self.ell = ell
        self.base_segments = base_segments
        self.fan_in = fan_in
        # Boundaries are fixed once at the base and merged upward, so a
        # parent is exactly its children's concatenation even when
        # ``ell`` is not divisible by the segment count.
        level = balanced_partition(ell, base_segments)
        self._firsts: list[int] = []
        spans: list[tuple[int, int]] = []
        cycle_of: list[int] = []
        while True:
            self._firsts.append(len(spans))
            spans.extend(level)
            cycle_of.extend([len(self._firsts)] * len(level))
            if len(level) == 1:
                break
            if len(level) % fan_in:
                raise ValueError(f"base_segments must be a power of fan_in "
                                 f"{fan_in}, got {base_segments}")
            level = [(level[first][0], level[first + fan_in - 1][1])
                     for first in range(0, len(level), fan_in)]
        self.spans = tuple(spans)
        self.cycle_of = tuple(cycle_of)
        self.num_cycles = len(self._firsts)

    def segments_in_cycle(self, cycle: int) -> int:
        """Number of segments at ``cycle`` (1-based)."""
        check_index("cycle", cycle - 1, self.num_cycles)
        return self.base_segments // self.fan_in ** (cycle - 1)

    def number(self, cycle: int, segment: int) -> int:
        """The global number of ``segment`` at ``cycle``."""
        check_index("segment", segment, self.segments_in_cycle(cycle))
        return self._firsts[cycle - 1] + segment

    def bounds(self, cycle: int, segment: int) -> tuple[int, int]:
        """Bit range of ``segment`` at ``cycle``."""
        return self.spans[self.number(cycle, segment)]

    def children(self, cycle: int, segment: int) -> range:
        """The cycle-``(cycle-1)`` segments whose concat is this one."""
        if cycle < 2:
            raise ValueError("cycle-1 segments have no children")
        self.number(cycle, segment)  # validates both
        return range(segment * self.fan_in, (segment + 1) * self.fan_in)

    def parent(self, cycle: int, segment: int) -> int:
        """The cycle-``(cycle+1)`` segment containing this one."""
        if cycle >= self.num_cycles:
            raise ValueError("the top segment has no parent")
        return segment // self.fan_in

    def length(self, cycle: int, segment: int) -> int:
        """Number of bits in ``segment`` at ``cycle``."""
        lo, hi = self.bounds(cycle, segment)
        return hi - lo

    def __repr__(self) -> str:
        return (f"HierarchicalSegmentation(ell={self.ell}, "
                f"base={self.base_segments}, fan_in={self.fan_in}, "
                f"cycles={self.num_cycles})")


def largest_power_of_two_at_most(value: int) -> int:
    """Largest power of two ``<= value`` (``value`` must be positive)."""
    check_positive("value", value)
    return 1 << (value.bit_length() - 1)
