"""Unit tests for assignment functions (incl. the Claim-1 properties)."""

from collections import Counter

import pytest

from repro.core.assignment import (
    balanced_partition,
    committee_for,
    committees_of_peer,
    digit_owner,
    distribute_evenly,
    round_robin_indices,
)


class TestRoundRobin:
    def test_indices_match_owner(self):
        for pid in range(4):
            for index in round_robin_indices(pid, 50, 4):
                assert index % 4 == pid

    def test_indices_partition_input(self):
        everything = sorted(
            index for pid in range(4)
            for index in round_robin_indices(pid, 50, 4))
        assert everything == list(range(50))


class TestDigitOwner:
    def test_phase_one_is_round_robin(self):
        assert all(digit_owner(i, 1, 7) == i % 7 for i in range(100))

    def test_phase_two_is_second_digit(self):
        assert [digit_owner(i, 2, 3) for i in (0, 3, 6, 9)] == [0, 1, 2, 0]

    def test_globality_is_trivial(self):
        # Same function for every caller: no per-peer state involved.
        assert digit_owner(123, 4, 5) == digit_owner(123, 4, 5)

    def test_per_phase_split_is_even_within_pattern_class(self):
        # The bits owned by peer 2 in phase 1 split evenly by phase-2
        # owner — the "reassign evenly" property Claim 4 needs.
        n = 4
        phase1_class = [i for i in range(256) if digit_owner(i, 1, n) == 2]
        loads = [0] * n
        for index in phase1_class:
            loads[digit_owner(index, 2, n)] += 1
        assert max(loads) - min(loads) <= 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            digit_owner(-1, 1, 4)
        with pytest.raises(ValueError):
            digit_owner(0, 0, 4)


class TestDistributeEvenly:
    def test_sorted_round_robin(self):
        assert distribute_evenly([10, 3, 7], 2) == {3: 0, 7: 1, 10: 0}

    def test_globality(self):
        # Two peers reassigning the same set agree on every owner.
        indices = {5, 17, 2, 99, 42}
        assert distribute_evenly(indices, 7) == distribute_evenly(
            sorted(indices), 7)

    def test_balance(self):
        assignment = distribute_evenly(range(103), 10)
        assert max(Counter(assignment.values()).values()) == 11

    def test_duplicates_collapsed(self):
        assert distribute_evenly([1, 1, 2], 2) == {1: 0, 2: 1}

    def test_empty_set(self):
        assert distribute_evenly([], 3) == {}


class TestBalancedPartition:
    def test_covers_input_contiguously(self):
        bounds = balanced_partition(10, 3)
        assert bounds == [(0, 4), (4, 7), (7, 10)]

    def test_sizes_differ_by_at_most_one(self):
        for ell, parts in ((100, 7), (13, 5), (5, 5)):
            sizes = [hi - lo for lo, hi in balanced_partition(ell, parts)]
            assert max(sizes) - min(sizes) <= 1
            assert sum(sizes) == ell

    def test_more_parts_than_bits_gives_empty_parts(self):
        bounds = balanced_partition(2, 4)
        assert sum(hi - lo for lo, hi in bounds) == 2


class TestCommittees:
    def test_size_and_membership(self):
        committee = committee_for(0, 5, 8)
        assert len(committee) == 5
        assert committee == [0, 1, 2, 3, 4]

    def test_round_robin_wraps(self):
        assert committee_for(1, 5, 8) == [5, 6, 7, 0, 1]

    def test_every_peer_load_is_balanced(self):
        n, size, blocks = 10, 5, 20
        loads = [len(committees_of_peer(pid, blocks, size, n))
                 for pid in range(n)]
        assert sum(loads) == blocks * size
        assert max(loads) - min(loads) <= 1

    def test_each_block_has_exactly_size_members(self):
        for block in range(12):
            assert len(set(committee_for(block, 7, 11))) == 7
