"""The Oracle Data Delivery (ODD) problem: setup and acceptance check.

ODD (Section 4): the on-chain component must publish, for every cell
``j``, a value inside the *honest range* — between the smallest and
largest value reported by honest data sources for ``j`` — no matter
what the Byzantine feeds and Byzantine oracle nodes do.

:func:`make_setup` builds a complete synthetic oracle deployment
(ground truth, noisy honest feeds, adversarial feeds, a Byzantine node
set) from a seed; :func:`odd_satisfied` is the acceptance test both ODC
pipelines are judged by.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.oracle.feeds import (
    CorruptFeed,
    EquivocatingFeed,
    Feed,
    HonestFeed,
    honest_range,
)
from repro.oracle.numeric import max_value
from repro.util.rng import SplittableRNG
from repro.util.validation import check_nonnegative, check_positive


@dataclass
class OracleSetup:
    """One concrete oracle deployment."""

    nodes: int
    node_fault_bound: int
    byzantine_nodes: set[int]
    feeds: list[Feed]
    cells: int
    value_bits: int
    truth: list[int]

    @property
    def honest_nodes(self) -> list[int]:
        return [pid for pid in range(self.nodes)
                if pid not in self.byzantine_nodes]

    def honest_range_of(self, cell: int) -> tuple[int, int]:
        return honest_range(self.feeds, cell)


def make_setup(*, nodes: int, node_fault_bound: int, feed_count: int,
               corrupt_feeds: int, cells: int, value_bits: int = 16,
               noise_bound: int = 2, equivocate: bool = True,
               seed: int = 0) -> OracleSetup:
    """Build a synthetic deployment.

    Honest feeds observe a common ground truth with ``noise_bound``
    jitter.  Corrupt feeds report the truth pushed to the far end of
    the value range (the lie that drags a naive average the furthest);
    when ``equivocate`` is set, half of them instead answer each reader
    differently (maximum-confusion mode).
    """
    check_positive("nodes", nodes)
    check_nonnegative("node_fault_bound", node_fault_bound)
    check_positive("feed_count", feed_count)
    check_nonnegative("corrupt_feeds", corrupt_feeds)
    if 2 * corrupt_feeds >= feed_count:
        # Median aggregation needs an honest majority of feeds.
        raise ValueError(
            f"need an honest feed majority: {corrupt_feeds} corrupt "
            f"of {feed_count}")
    if 2 * node_fault_bound >= nodes:
        raise ValueError(
            f"need an honest node majority: t={node_fault_bound}, "
            f"n={nodes}")
    rng = SplittableRNG(seed)
    ceiling = max_value(value_bits)
    truth = [rng.randint(ceiling // 4, 3 * ceiling // 4)
             for _ in range(cells)]

    feeds: list[Feed] = []
    for feed_id in range(feed_count - corrupt_feeds):
        feeds.append(HonestFeed(feed_id, truth, value_bits,
                                noise_bound=noise_bound,
                                rng=rng.split(f"feed-{feed_id}")))
    for slot in range(corrupt_feeds):
        feed_id = feed_count - corrupt_feeds + slot
        lie = [ceiling if cell % 2 == 0 else 0 for cell in range(cells)]
        if equivocate and slot % 2 == 1:
            per_reader = {pid: [rng.split(f"eq-{feed_id}-{pid}")
                                .randint(0, ceiling) for _ in range(cells)]
                          for pid in range(nodes)}
            feeds.append(EquivocatingFeed(feed_id, per_reader, lie,
                                          value_bits))
        else:
            feeds.append(CorruptFeed(feed_id, lie, value_bits))

    byzantine_nodes = set(rng.sample(range(nodes), node_fault_bound))
    return OracleSetup(nodes=nodes, node_fault_bound=node_fault_bound,
                       byzantine_nodes=byzantine_nodes, feeds=feeds,
                       cells=cells, value_bits=value_bits, truth=truth)


@dataclass
class ODCOutcome:
    """Result of one ODC pipeline (baseline or Download-based)."""

    pipeline: str
    finalized: Optional[list[int]]
    total_query_bits: int
    max_honest_node_query_bits: int
    per_node_query_bits: dict[int, int] = field(default_factory=dict)
    details: dict = field(default_factory=dict)


def odd_satisfied(setup: OracleSetup, finalized: Sequence[int]) -> bool:
    """True iff every published value sits in its honest range."""
    if finalized is None or len(finalized) != setup.cells:
        return False
    for cell, value in enumerate(finalized):
        low, high = setup.honest_range_of(cell)
        if not low <= value <= high:
            return False
    return True


def violating_cells(setup: OracleSetup,
                    finalized: Sequence[int]) -> list[int]:
    """Cells whose published value escaped the honest range."""
    bad = []
    for cell, value in enumerate(finalized):
        low, high = setup.honest_range_of(cell)
        if not low <= value <= high:
            bad.append(cell)
    return bad
