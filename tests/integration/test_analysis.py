"""Tests for the post-run analysis utilities."""

import pytest

from repro.analysis import gini_coefficient, query_load_balance
from repro.adversary import ComposedAdversary, CrashAdversary, \
    UniformRandomDelay
from repro.protocols import BalancedDownloadPeer, CrashMultiDownloadPeer
from repro.sim import run_download


class TestGini:
    def test_even_distribution_is_zero(self):
        assert gini_coefficient([5, 5, 5, 5]) == pytest.approx(0.0)

    def test_one_pays_all_approaches_one(self):
        value = gini_coefficient([0] * 99 + [100])
        assert value > 0.9

    def test_known_value(self):
        assert gini_coefficient([1, 3]) == pytest.approx(0.25)

    def test_all_zero_is_zero(self):
        assert gini_coefficient([0, 0]) == 0.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gini_coefficient([])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gini_coefficient([1, -1])


class TestLoadBalance:
    def test_balanced_protocol_is_balanced(self):
        result = run_download(n=8, ell=512,
                              peer_factory=BalancedDownloadPeer.factory(),
                              seed=1)
        stats = query_load_balance(result)
        assert stats.balanced
        assert stats.gini == pytest.approx(0.0)
        assert stats.mean == 64

    def test_crash_shifts_load_visibly(self):
        adversary = ComposedAdversary(
            faults=CrashAdversary(crash_fraction=0.5),
            latency=UniformRandomDelay())
        result = run_download(n=8, ell=1024,
                              peer_factory=CrashMultiDownloadPeer.factory(),
                              adversary=adversary, seed=2)
        stats = query_load_balance(result)
        assert stats.maximum >= stats.minimum
        assert 0.0 <= stats.gini < 0.5  # load stays broadly shared
