"""Property-based tests for the analysis statistics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import gini_coefficient

loads = st.lists(st.integers(min_value=0, max_value=10 ** 6),
                 min_size=1, max_size=50)


class TestGiniProperties:
    @given(loads)
    @settings(max_examples=250, deadline=None)
    def test_bounded_in_unit_interval(self, values):
        assert 0.0 <= gini_coefficient(values) <= 1.0

    @given(loads, st.integers(min_value=1, max_value=100))
    @settings(max_examples=200, deadline=None)
    def test_scale_invariant(self, values, factor):
        scaled = [value * factor for value in values]
        assert gini_coefficient(scaled) == \
            pytest.approx(gini_coefficient(values))

    @given(loads)
    @settings(max_examples=200, deadline=None)
    def test_permutation_invariant(self, values):
        reordered = list(reversed(values))
        assert gini_coefficient(reordered) == \
            pytest.approx(gini_coefficient(values))

    @given(st.integers(min_value=1, max_value=1000),
           st.integers(min_value=2, max_value=50))
    @settings(max_examples=200, deadline=None)
    def test_equal_loads_are_zero(self, value, count):
        assert gini_coefficient([value] * count) == \
            pytest.approx(0.0)

    @given(loads)
    @settings(max_examples=200, deadline=None)
    def test_replication_invariant_direction(self, values):
        # Duplicating the whole population does not increase inequality.
        doubled = values + values
        assert gini_coefficient(doubled) <= \
            gini_coefficient(values) + 1e-9
