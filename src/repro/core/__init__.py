"""Core building blocks of the paper's protocols.

- :mod:`~repro.core.assignment` — balanced index assignments and the
  global reassignment rule behind Claim 1;
- :mod:`~repro.core.segments` — flat and doubling segment partitions;
- :mod:`~repro.core.frequent` — tau-frequent string bookkeeping;
- :mod:`~repro.core.decision_tree` — Protocol 3 (BuildTree/Determine);
- :mod:`~repro.core.bounds` — the paper's stated complexity bounds as
  executable yardsticks.
"""

from repro.core.assignment import (
    balanced_partition,
    committee_for,
    committees_of_peer,
    distribute_evenly,
    round_robin_indices,
)
from repro.core.decision_tree import (
    Inner,
    Leaf,
    Node,
    build_tree,
    contains,
    depth,
    determine,
    determine_via_peer,
    first_separating_index,
    internal_count,
    leaves,
)
from repro.core.frequent import FrequencyTable
from repro.core.segments import (
    HierarchicalSegmentation,
    Segmentation,
    largest_power_of_two_at_most,
)

__all__ = [
    "FrequencyTable",
    "HierarchicalSegmentation",
    "Inner",
    "Leaf",
    "Node",
    "Segmentation",
    "balanced_partition",
    "build_tree",
    "committee_for",
    "committees_of_peer",
    "contains",
    "depth",
    "determine",
    "determine_via_peer",
    "distribute_evenly",
    "first_separating_index",
    "internal_count",
    "largest_power_of_two_at_most",
    "leaves",
    "round_robin_indices",
]
