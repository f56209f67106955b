"""End-to-end tests for both ODC pipelines and the ODD guarantee.

:class:`TestE9` is the paper's E9 (Theorems 4.1/4.2): both pipelines
meet ODD, and each honest node's query bits are held to the
:mod:`repro.core.bounds` ODC statements.
"""

import pytest

from repro.core import bounds
from repro.oracle import (
    EquivocatingFeed,
    make_setup,
    odd_satisfied,
    run_baseline_odc,
    run_download_odc,
    violating_cells,
)
from repro.oracle.numeric import max_value, median


def standard_setup(**overrides):
    config = dict(nodes=9, node_fault_bound=2, feed_count=5,
                  corrupt_feeds=2, cells=4, value_bits=16, noise_bound=3,
                  seed=11)
    config.update(overrides)
    return make_setup(**config)


class TestSetup:
    def test_partitions_nodes(self):
        setup = standard_setup()
        assert len(setup.byzantine_nodes) == 2
        assert len(setup.honest_nodes) == 7

    def test_honest_feed_majority_enforced(self):
        with pytest.raises(ValueError, match="honest feed majority"):
            standard_setup(feed_count=4, corrupt_feeds=2)

    def test_honest_node_majority_enforced(self):
        with pytest.raises(ValueError, match="honest node majority"):
            standard_setup(nodes=4, node_fault_bound=2)

    def test_honest_range_brackets_truth(self):
        setup = standard_setup()
        for cell in range(setup.cells):
            low, high = setup.honest_range_of(cell)
            assert low <= setup.truth[cell] + 3
            assert high >= setup.truth[cell] - 3

    def test_seed_deterministic(self):
        assert standard_setup().truth == standard_setup().truth


class TestBaselinePipeline:
    def test_odd_satisfied(self):
        setup = standard_setup()
        outcome = run_baseline_odc(setup)
        assert odd_satisfied(setup, outcome.finalized)
        assert violating_cells(setup, outcome.finalized) == []

    def test_per_node_cost_formula(self):
        setup = standard_setup()
        outcome = run_baseline_odc(setup)
        expected = len(setup.feeds) * setup.cells * setup.value_bits
        assert outcome.max_honest_node_query_bits == expected

    def test_survives_equivocating_feeds(self):
        setup = standard_setup(equivocate=True)
        outcome = run_baseline_odc(setup)
        assert odd_satisfied(setup, outcome.finalized)


class TestDownloadPipeline:
    def test_odd_satisfied_default_protocol(self):
        setup = standard_setup()
        outcome = run_download_odc(setup, seed=3)
        assert odd_satisfied(setup, outcome.finalized)

    def test_queries_cheaper_than_baseline_at_scale(self):
        setup = standard_setup(nodes=15, node_fault_bound=2, cells=8)
        baseline = run_baseline_odc(setup)
        download = run_download_odc(setup, seed=4)
        assert download.max_honest_node_query_bits \
            < baseline.max_honest_node_query_bits

    def test_without_byzantine_nodes(self):
        setup = standard_setup(node_fault_bound=0)
        outcome = run_download_odc(setup, seed=5)
        assert odd_satisfied(setup, outcome.finalized)

    def test_honest_feed_downloads_exact(self):
        # The Download guarantee: honest nodes learn honest feeds
        # exactly, so their reports' medians agree with a direct
        # computation over the honest feeds' vectors.
        setup = standard_setup(corrupt_feeds=0, node_fault_bound=0,
                               feed_count=3)
        outcome = run_download_odc(setup, seed=6)
        for cell in range(setup.cells):
            direct = median([feed.read(0, cell) for feed in setup.feeds])
            assert outcome.finalized[cell] == direct

    def test_synchronous_mode(self):
        setup = standard_setup()
        outcome = run_download_odc(setup, asynchronous=False, seed=7)
        assert odd_satisfied(setup, outcome.finalized)


class TestOddChecker:
    def test_rejects_none(self):
        setup = standard_setup()
        assert not odd_satisfied(setup, None)

    def test_rejects_wrong_length(self):
        setup = standard_setup()
        assert not odd_satisfied(setup, [1])

    def test_detects_out_of_range_cell(self):
        setup = standard_setup()
        good = run_baseline_odc(setup).finalized
        bad = list(good)
        bad[0] = max_value(setup.value_bits)
        assert violating_cells(setup, bad) == [0]


def download_statement(setup):
    """:func:`bounds.odc_download_query_bound` for ``setup``'s feeds."""
    equivocating = sum(isinstance(feed, EquivocatingFeed)
                       for feed in setup.feeds)
    return bounds.odc_download_query_bound(
        len(setup.feeds) - equivocating, equivocating, setup.cells,
        setup.value_bits, setup.nodes, setup.node_fault_bound)


class TestE9:
    @pytest.mark.parametrize("nodes, download_bits", [
        (5, 1920), (9, 1280), (15, 896), (25, 704)])
    def test_node_scaling_meets_the_statements_exactly(self, nodes,
                                                       download_bits):
        # 5 feeds x 24 cells x 16 bits, t = 2, two corrupt feeds of
        # which one equivocates: the baseline pays every feed whole at
        # every n, the download pipeline its committee share.
        setup = make_setup(nodes=nodes, node_fault_bound=2, feed_count=5,
                           corrupt_feeds=2, cells=24, value_bits=16,
                           noise_bound=3, seed=91)
        baseline = run_baseline_odc(setup)
        download = run_download_odc(setup, seed=92)
        assert odd_satisfied(setup, baseline.finalized)
        assert odd_satisfied(setup, download.finalized)
        assert baseline.max_honest_node_query_bits == \
            bounds.odc_baseline_query_bound(5, 24, 16) == 1920
        assert download.max_honest_node_query_bits == \
            download_statement(setup) == download_bits

    @pytest.mark.parametrize("node_fault_bound, corrupt_feeds, bits", [
        (0, 0, 80), (0, 2, 80), (3, 0, 240), (3, 2, 256)])
    def test_adversarial_battery_within_the_statement(
            self, node_fault_bound, corrupt_feeds, bits):
        # At t = 0 a one-member committee accepts its single report, so
        # the equivocating feed costs nothing: 80 bits against a
        # statement of 128.  The other cases meet it exactly.
        setup = make_setup(nodes=13, node_fault_bound=node_fault_bound,
                           feed_count=5, corrupt_feeds=corrupt_feeds,
                           cells=4, value_bits=16, noise_bound=2, seed=93)
        download = run_download_odc(setup, seed=94)
        assert odd_satisfied(setup, download.finalized)
        assert download.max_honest_node_query_bits == bits
        assert bits <= download_statement(setup)
