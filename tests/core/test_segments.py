"""Unit tests for segment partitioning."""

import pytest

from repro.core.segments import (
    HierarchicalSegmentation,
    Segmentation,
    largest_power_of_two_at_most,
)


class TestSegmentation:
    def test_bounds_cover_input(self):
        seg = Segmentation(100, 7)
        bounds = seg.all_bounds()
        assert bounds[0][0] == 0 and bounds[-1][1] == 100
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo

    def test_lengths_near_equal(self):
        seg = Segmentation(100, 7)
        lengths = [seg.length(i) for i in range(7)]
        assert max(lengths) - min(lengths) <= 1
        assert seg.max_length() == max(lengths)

    def test_segment_of_inverts_bounds(self):
        seg = Segmentation(97, 6)
        for segment in range(6):
            lo, hi = seg.bounds(segment)
            assert seg.segment_of(lo) == segment
            assert seg.segment_of(hi - 1) == segment

    def test_single_segment(self):
        seg = Segmentation(10, 1)
        assert seg.bounds(0) == (0, 10)
        assert seg.segment_of(9) == 0

    def test_as_many_segments_as_bits(self):
        seg = Segmentation(5, 5)
        assert all(seg.length(i) == 1 for i in range(5))

    def test_too_many_segments_rejected(self):
        with pytest.raises(ValueError):
            Segmentation(4, 5)

    def test_invalid_lookup_rejected(self):
        seg = Segmentation(10, 2)
        with pytest.raises(ValueError):
            seg.bounds(2)
        with pytest.raises(ValueError):
            seg.segment_of(10)


class TestHierarchicalSegmentation:
    def test_cycle_count(self):
        assert HierarchicalSegmentation(100, 8).num_cycles == 4
        assert HierarchicalSegmentation(100, 1).num_cycles == 1

    def test_top_cycle_is_whole_input(self):
        hierarchy = HierarchicalSegmentation(100, 8)
        assert hierarchy.bounds(4, 0) == (0, 100)
        assert hierarchy.segments_in_cycle(4) == 1

    def test_children_concatenate_exactly(self):
        hierarchy = HierarchicalSegmentation(101, 8)  # uneven base
        for cycle in range(2, hierarchy.num_cycles + 1):
            for segment in range(hierarchy.segments_in_cycle(cycle)):
                left, right = hierarchy.children(cycle, segment)
                lo, hi = hierarchy.bounds(cycle, segment)
                left_lo, left_hi = hierarchy.bounds(cycle - 1, left)
                right_lo, right_hi = hierarchy.bounds(cycle - 1, right)
                assert (left_lo, right_hi) == (lo, hi)
                assert left_hi == right_lo

    def test_parent_inverts_children(self):
        hierarchy = HierarchicalSegmentation(64, 8)
        for cycle in range(2, hierarchy.num_cycles + 1):
            for segment in range(hierarchy.segments_in_cycle(cycle)):
                for child in hierarchy.children(cycle, segment):
                    assert hierarchy.parent(cycle - 1, child) == segment

    def test_each_cycle_partitions_input(self):
        hierarchy = HierarchicalSegmentation(77, 4)
        for cycle in range(1, hierarchy.num_cycles + 1):
            total = sum(hierarchy.length(cycle, segment)
                        for segment in range(
                            hierarchy.segments_in_cycle(cycle)))
            assert total == 77

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of fan_in 2"):
            HierarchicalSegmentation(64, 6)

    def test_children_of_base_cycle_rejected(self):
        hierarchy = HierarchicalSegmentation(64, 4)
        with pytest.raises(ValueError):
            hierarchy.children(1, 0)

    def test_parent_of_top_rejected(self):
        hierarchy = HierarchicalSegmentation(64, 4)
        with pytest.raises(ValueError):
            hierarchy.parent(hierarchy.num_cycles, 0)


class TestPowerOfTwo:
    def test_values(self):
        assert largest_power_of_two_at_most(1) == 1
        assert largest_power_of_two_at_most(7) == 4
        assert largest_power_of_two_at_most(8) == 8
        assert largest_power_of_two_at_most(1000) == 512

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            largest_power_of_two_at_most(0)
