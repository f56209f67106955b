"""E15: the paper's max-based Q hides no hot spot.

The paper measures the *maximum* per-peer query count, a choice that
"gives priority to a balanced load of queries over the nonfaulty
peers" (Section 1.2).  E15 makes the balance visible: the spread and
Gini coefficient of the honest peers' query bits, one run per protocol.
It has no paper bound and is a property of a single run, so it is a
test here rather than a row of the claim table.
"""

from typing import Sequence

import pytest

from repro.experiments import ExperimentSpec
from repro.sim import run_download


def gini_coefficient(values: Sequence[float]) -> float:
    """Standard Gini coefficient of a non-negative sample: 0 is a
    perfectly even load, 1 is one peer paying everything."""
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


def honest_loads(spec: ExperimentSpec, seed: int) -> list:
    """Each honest peer's query bits in one run of ``spec``."""
    result = run_download(n=spec.n, ell=spec.ell,
                          peer_factory=spec.peer_factory(),
                          adversary=spec.build_adversary(), t=spec.t,
                          seed=seed)
    assert result.download_correct
    return [result.report.per_peer_query_bits[pid]
            for pid in sorted(result.honest)]


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
        loads = honest_loads(ExperimentSpec("balanced", 8, 512), seed=1)
        assert set(loads) == {64}

    def test_crash_shifts_load_visibly(self):
        loads = honest_loads(ExperimentSpec(
            "crash-multi", 8, 1024, fault_model="crash", beta=0.5), seed=2)
        assert 0.0 <= gini_coefficient(loads) < 0.5  # broadly shared


#: E15's runs (n=16, ell=4096, seed 151): protocol, parameters, fault
#: model, beta, and whether every honest peer must pay the same.
SCENARIOS = [
    ("balanced", {}, "none", 0.0, True),
    ("crash-multi", {}, "none", 0.0, True),
    ("crash-multi", {}, "crash", 0.5, False),
    ("byz-committee", {"block_size": 16}, "byzantine", 0.25, False),
    ("byz-two-cycle", {"num_segments": 4, "tau": 2}, "none", 0.0, False),
    ("naive", {}, "byzantine", 0.5, True),
]


class TestMaxBasedQHidesNoHotSpot:
    @pytest.mark.parametrize(
        "protocol, params, fault_model, beta, even", SCENARIOS,
        ids=[f"{protocol}-{fault_model}" for protocol, _, fault_model, *_
             in SCENARIOS])
    def test_load_is_shared(self, protocol, params, fault_model, beta,
                            even):
        loads = honest_loads(ExperimentSpec(
            protocol, 16, 4096, fault_model=fault_model, beta=beta,
            protocol_params=params), seed=151)
        if even:
            assert max(loads) == min(loads)
        # Nobody hides a hot spot behind the mean.
        assert gini_coefficient(loads) <= 0.35
