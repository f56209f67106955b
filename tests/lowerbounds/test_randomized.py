"""Tests for Theorem 3.2's witness, the ``("byzantine",
"majority-simulation")`` entry of the adversary table."""

import pytest

from repro.core.bounds import randomized_fooling_floor
from repro.experiments import ExperimentSpec
from repro.experiments.claims import SIGNIFICANCE, binomial_lower_tail
from repro.sim import run_download
from repro.util.rng import SplittableRNG


def witness(protocol, n, ell, **fields):
    return ExperimentSpec(protocol, n, ell, fault_model="byzantine",
                          beta=0.5, strategy="majority-simulation", **fields)


def attack(spec, repeat):
    """One run of ``spec``: (its adversary, its result)."""
    adversary = spec.build_adversary()
    result = run_download(n=spec.n, ell=spec.ell,
                          peer_factory=spec.peer_factory(),
                          adversary=adversary, t=spec.t,
                          seed=spec.seed_for(repeat))
    return adversary, result


def fooled(result) -> bool:
    """The victim, pid 0, terminated with a wrong output."""
    output = result.outputs[0]
    return output is not None and output != result.data


class TestAgainstTwoCycle:
    @pytest.fixture(scope="class")
    def runs(self):
        spec = witness("byz-two-cycle", 12, 256,
                       protocol_params={"num_segments": 4, "tau": 1})
        return [attack(spec, repeat) for repeat in range(20)]

    def test_fooled_exactly_when_the_target_is_unqueried(self, runs):
        for adversary, result in runs:
            assert fooled(result) == (
                adversary.target not in result.queried_indices.get(0, ()))

    def test_fooling_rate_meets_theoretical_floor(self, runs):
        # Thm 3.2: the victim is fooled unless it happens to query the
        # uniformly drawn target — probability mean_Q / ell.
        mean_q = sum(len(result.queried_indices.get(0, ()))
                     for _, result in runs) / len(runs)
        floor = randomized_fooling_floor(mean_q, 256)
        hits = sum(fooled(result) for _, result in runs)
        assert binomial_lower_tail(hits, len(runs), floor) >= SIGNIFICANCE

    def test_fooling_happens_at_all(self, runs):
        assert any(fooled(result) for _, result in runs)

    def test_mean_queries_well_below_ell(self, runs):
        total = sum(len(result.queried_indices.get(0, ()))
                    for _, result in runs)
        assert total / len(runs) < 256 / 2

    def test_target_is_rarely_queried(self, runs):
        queried = sum(adversary.target in result.queried_indices.get(0, ())
                      for adversary, result in runs)
        assert queried <= len(runs) / 2

    def test_no_abandonment_in_majority_regime(self, runs):
        # t >= n/2 means the corrupted set satisfies every victim wait;
        # the victim terminates before the withheld peers are released.
        assert all(result.statuses[0].terminated for _, result in runs)


class TestAgainstNaive:
    def test_naive_is_never_fooled(self):
        spec = witness("naive", 8, 64)
        for repeat in range(5):
            adversary, result = attack(spec, repeat)
            assert not fooled(result)
            assert adversary.target in result.queried_indices[0]
            assert result.report.query_complexity == 64


class TestTheEntry:
    def test_the_target_comes_from_the_adversarys_own_stream(self):
        # Not from a peer's coins: two victims drawing different coins
        # at one seed face the same flipped bit.
        seed = 5
        expected = SplittableRNG(seed).split("adversary").randrange(256)
        for protocol in ("naive", "byz-two-cycle"):
            spec = witness(protocol, 12, 256)
            adversary = spec.build_adversary()
            run_download(n=12, ell=256, peer_factory=spec.peer_factory(),
                         adversary=adversary, t=spec.t, seed=seed)
            assert adversary.target == expected

    def test_the_cast_is_victim_zero_and_the_t_highest_pids(self):
        adversary = witness("naive", 12, 256).build_adversary()
        assert adversary.corrupted == set(range(6, 12))
        assert adversary.silenced == set(range(1, 6))

    @pytest.mark.parametrize("fields", [
        dict(backend="sync", network="synchronous"),
        dict(backend="net"),
        dict(network="synchronous"),
    ], ids=["sync", "net", "unit-latency-sim"])
    def test_hosts_without_withholding_refuse_it(self, fields):
        with pytest.raises(ValueError, match="sets its own latencies"):
            witness("naive", 12, 256, **fields)
