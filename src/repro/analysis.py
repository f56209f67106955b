"""Post-run analysis utilities.

Helpers that turn a :class:`~repro.sim.runner.RunResult` into the
per-peer load-balance statistics of the E15 ablation.  Pure functions
over results — no simulator state involved.  (Aggregating seeds is
:func:`repro.experiments.run_experiment`'s job.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.sim.runner import RunResult


@dataclass(frozen=True)
class LoadBalance:
    """Distribution statistics of per-peer query loads."""

    minimum: int
    maximum: int
    mean: float
    spread: int          # max - min
    gini: float          # 0 = perfectly even, -> 1 = one peer pays all

    @property
    def balanced(self) -> bool:
        """True when no peer carries more than one extra bit."""
        return self.spread <= 1


def gini_coefficient(values: Sequence[float]) -> float:
    """Standard Gini coefficient of a non-negative sample."""
    if not values:
        raise ValueError("gini of an empty sample")
    if any(value < 0 for value in values):
        raise ValueError("gini requires non-negative values")
    total = sum(values)
    if total == 0:
        return 0.0
    ordered = sorted(values)
    count = len(ordered)
    cumulative = sum((2 * (rank + 1) - count - 1) * value
                     for rank, value in enumerate(ordered))
    return cumulative / (count * total)


def query_load_balance(result: RunResult) -> LoadBalance:
    """Load-balance statistics of the honest peers' query bits."""
    loads = [result.report.per_peer_query_bits[pid]
             for pid in sorted(result.honest)]
    if not loads:
        raise ValueError("no honest peers in the result")
    return LoadBalance(
        minimum=min(loads),
        maximum=max(loads),
        mean=sum(loads) / len(loads),
        spread=max(loads) - min(loads),
        gini=gini_coefficient(loads),
    )
