"""Property-based tests for assignment functions.

These pin down the two pillars of the crash protocols' analysis: the
globality that makes Claim 1 hold, and the balance that makes Claim 4's
``(t/n)**p`` decay work.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core.assignment import (
    balanced_partition,
    committee_for,
    digit_owner,
    distribute_evenly,
)


class TestDistributeEvenly:
    @given(st.sets(st.integers(min_value=0, max_value=10_000), max_size=80),
           st.integers(min_value=1, max_value=20))
    @settings(max_examples=200, deadline=None)
    def test_balance(self, indices, n):
        loads = Counter(distribute_evenly(indices, n).values())
        assert max(loads.values(), default=0) <= -(-len(indices) // n)

    @given(st.sets(st.integers(min_value=0, max_value=10_000), max_size=80),
           st.integers(min_value=1, max_value=20))
    @settings(max_examples=200, deadline=None)
    def test_globality_any_iteration_order(self, indices, n):
        forward = distribute_evenly(sorted(indices), n)
        backward = distribute_evenly(sorted(indices, reverse=True), n)
        assert forward == backward

    @given(st.sets(st.integers(min_value=0, max_value=1000), max_size=50),
           st.integers(min_value=1, max_value=10))
    @settings(max_examples=100, deadline=None)
    def test_covers_exactly_the_input(self, indices, n):
        assignment = distribute_evenly(indices, n)
        assert set(assignment) == set(indices)
        assert all(0 <= owner < n for owner in assignment.values())


class TestDigitAssignment:
    @given(st.integers(min_value=2, max_value=10),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=5000))
    @settings(max_examples=200, deadline=None)
    def test_owner_in_range(self, n, phase, index):
        assert 0 <= digit_owner(index, phase, n) < n

    @given(st.integers(min_value=2, max_value=8),
           st.integers(min_value=100, max_value=2000),
           st.data())
    @settings(max_examples=80, deadline=None)
    def test_surviving_class_splits_evenly(self, n, ell, data):
        # Claim 4's core: fix a phase-1 owner; the phase-2 digit splits
        # that class with loads differing by at most n (ceiling slop
        # over block boundaries).
        owner1 = data.draw(st.integers(min_value=0, max_value=n - 1))
        survivors = [index for index in range(ell)
                     if digit_owner(index, 1, n) == owner1]
        loads = [0] * n
        for index in survivors:
            loads[digit_owner(index, 2, n)] += 1
        assert max(loads) - min(loads) <= max(2, n // 2 + 1)


class TestPartitionAndCommittees:
    @given(st.integers(min_value=1, max_value=5000),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=200, deadline=None)
    def test_balanced_partition_invariants(self, ell, parts):
        bounds = balanced_partition(ell, parts)
        assert len(bounds) == parts
        assert bounds[0][0] == 0 and bounds[-1][1] == ell
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1

    @given(st.integers(min_value=0, max_value=500),
           st.integers(min_value=1, max_value=15),
           st.integers(min_value=1, max_value=31))
    @settings(max_examples=200, deadline=None)
    def test_committee_size_and_range(self, block, committee_size, n):
        committee = committee_for(block, min(committee_size, n), n)
        assert len(set(committee)) == min(committee_size, n)
        assert all(0 <= pid < n for pid in committee)
