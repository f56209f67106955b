"""Blockchain-oracle application of the Download protocols (Section 4).

The pipeline: off-chain *feeds* (:mod:`~repro.oracle.feeds`) hold
numeric vectors; the oracle network collects them — either the classic
way (every node reads every feed,
:mod:`~repro.oracle.odc_baseline`) or via one DR-model Download per
feed (:mod:`~repro.oracle.odc_download`, Theorem 4.2) — and a
quorum-median contract (:mod:`~repro.oracle.chain`) publishes the
result.  :mod:`~repro.oracle.odd` defines the honest-range acceptance
criterion both pipelines are judged by.
"""

from repro.oracle.chain import AggregationContract, Block, Chain
from repro.oracle.feeds import (
    CorruptFeed,
    EquivocatingFeed,
    Feed,
    HonestFeed,
    honest_range,
    in_honest_range,
)
from repro.oracle.numeric import (
    cell_bounds,
    decode_values,
    encode_values,
    max_value,
    median,
)
from repro.oracle.odc_baseline import run_baseline_odc
from repro.oracle.odc_download import run_download_odc
from repro.oracle.odd import (
    ODCOutcome,
    OracleSetup,
    make_setup,
    odd_satisfied,
    violating_cells,
)

__all__ = [
    "AggregationContract",
    "Block",
    "Chain",
    "CorruptFeed",
    "EquivocatingFeed",
    "Feed",
    "HonestFeed",
    "ODCOutcome",
    "OracleSetup",
    "cell_bounds",
    "decode_values",
    "encode_values",
    "honest_range",
    "in_honest_range",
    "make_setup",
    "max_value",
    "median",
    "odd_satisfied",
    "run_baseline_odc",
    "run_download_odc",
    "violating_cells",
]
