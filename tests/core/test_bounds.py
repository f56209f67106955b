"""Unit tests for the executable complexity bounds."""

import pytest

from repro.core import bounds


class TestCrashBounds:
    def test_ideal(self):
        assert bounds.ideal_query_bound(1000, 10) == 100

    def test_crash_optimal(self):
        assert bounds.crash_optimal_query_bound(1000, 10, 5) == 200

    def test_crash_optimal_rejects_t_at_n(self):
        with pytest.raises(ValueError):
            bounds.crash_optimal_query_bound(10, 4, 4)

    def test_crash_multi_adds_residue(self):
        # Three phases: own digit shares 100, 5 * 10 and 5 * 5 * 1,
        # then the residue of 5 * 5 * 5 digit classes of one bit; the
        # earlier cut-offs (100 + 500, 150 + 250) cost more.
        assert bounds.crash_multi_query_bound(1000, 10, 5) == \
            100 + 50 + 25 + 125

    def test_crash_multi_fault_free_is_the_ideal(self):
        assert bounds.crash_multi_query_bound(1024, 8, 0) == 128
        # An input at most the direct threshold is queried whole.
        assert bounds.crash_multi_query_bound(8, 10, 0) == 8

    @pytest.mark.parametrize("ell,n,t", [(8192, 16, 12), (5000, 10, 8),
                                         (8192, 40, 20), (4000, 40, 4)])
    def test_crash_multi_between_optimal_and_ell(self, ell, n, t):
        value = bounds.crash_multi_query_bound(ell, n, t)
        assert bounds.crash_optimal_query_bound(ell, n, t) <= value <= ell

    def test_crash_one(self):
        # ceil(512 / 8) = 64, plus ceil(64 / 7) = 10 of the crashed share.
        assert bounds.crash_one_query_bound(512, 8) == 64 + 10
        assert bounds.crash_one_query_bound(4096, 16) == 256 + 18

    @staticmethod
    def _phases(ell, n, t):
        return bounds.planned_phases(
            ell, n, t, bounds.default_direct_threshold(ell, n, t))

    def test_phase_bound_t_zero(self):
        assert self._phases(1000, 10, 0) == 1

    def test_phase_bound_small_input(self):
        # An input at most the direct threshold (n = 10) is not phased.
        assert self._phases(8, 10, 5) == 0

    def test_phase_bound_grows_with_t(self):
        few = self._phases(10 ** 6, 100, 10)
        many = self._phases(10 ** 6, 100, 90)
        assert many > few


class TestByzantineBounds:
    def test_committee(self):
        assert bounds.committee_query_bound(1000, 10, 2) == 500

    def test_committee_counts_whole_blocks(self):
        # 128 blocks of 64 bits; a peer serves ceil(128 * 13 / 40) = 42
        # committees, not ceil(8192 * 13 / 40) = 2663 bits' worth.
        assert bounds.committee_query_bound(8192, 40, 6, 64) == 42 * 64
        # Uneven blocks: 4500 bits in 150 blocks of 30.
        assert bounds.committee_query_bound(4500, 15, 2, 30) == 50 * 30
        # A block larger than the input is one block of ell bits.
        assert bounds.committee_query_bound(10, 5, 1, 64) == 10

    def test_committee_rejects_majority(self):
        with pytest.raises(ValueError):
            bounds.committee_query_bound(1000, 10, 5)

    def test_majority_lower_bounds(self):
        assert bounds.byzantine_majority_lower_bound(1000) == 500
        assert bounds.deterministic_majority_lower_bound(1000) == 1000

    def test_naive(self):
        assert bounds.naive_query_bound(123) == 123

    def test_two_cycle_combines_segment_and_trees(self):
        # The paper's formula, one segment plus n / tau tree nodes, and
        # the fallback allowance on top.
        value = bounds.segment_cycles_query_bound(1024, 64, 8, tau=4,
                                                  base_segments=4)
        assert value - bounds.FALLBACK_SEGMENTS * 256 == 256 + 16

    def test_two_cycle_allows_one_fallback_segment(self):
        assert bounds.FALLBACK_SEGMENTS == 1
        assert bounds.segment_cycles_query_bound(
            1024, 64, 8, tau=4, base_segments=4) == 256 + 256 + 16

    def test_multi_cycle_positive(self):
        assert bounds.segment_cycles_query_bound(
            1024, 64, 8, tau=4, base_segments=8, later_cycles=3) > 0

    def test_multi_cycle_trees_per_later_cycle(self):
        # s = 8: cycles 2, 3 and 4 each walk at most n / tau tree nodes.
        value = bounds.segment_cycles_query_bound(
            1024, 64, 8, tau=4, base_segments=8, later_cycles=3)
        assert value - bounds.FALLBACK_SEGMENTS * 128 == 128 + 3 * 16
        assert value == 2 * 128 + 3 * 16

    def test_randomized_fooling_floor(self):
        assert bounds.randomized_fooling_floor(64, 256) == 0.75
        assert bounds.randomized_fooling_floor(300, 256) == 0.0


class TestOracleBounds:
    def test_baseline_total(self):
        assert bounds.odc_baseline_query_bound(5, 100, 16) == 5 * 100 * 16

    def test_download_scales_inverse_in_nodes(self):
        small = bounds.odc_download_query_bound(5, 0, 100, 16, 10, 1)
        big = bounds.odc_download_query_bound(5, 0, 100, 16, 100, 1)
        # Each of the 100 values has a committee of 2t + 1 = 3 nodes,
        # so a node serves on 30 of them at n = 10 and 3 at n = 100.
        assert small == 5 * 30 * 16
        assert big == 5 * 3 * 16

    def test_download_beats_baseline_for_moderate_t(self):
        baseline = bounds.odc_baseline_query_bound(5, 100, 16)
        download = bounds.odc_download_query_bound(4, 1, 100, 16, 20, 4)
        assert download < baseline

    def test_an_equivocating_feed_is_read_whole(self):
        assert bounds.odc_download_query_bound(0, 3, 100, 16, 20, 4) == \
            bounds.odc_baseline_query_bound(3, 100, 16)

