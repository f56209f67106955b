"""Adversary fuzzing: protocols vs thousands of generated environments.

Hypothesis draws only the *seed*; :mod:`repro.tournament.fuzzing`
(formerly ``repro.fuzz``) expands it into a full adversary (latency
shape x fault plan) within the model.  Any failure here is a genuine
counterexample to an upper-bound theorem, reproducible from the
printed seed.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.tournament import random_adversary, random_source_faults
from repro.protocols import (
    ByzCommitteeDownloadPeer,
    CrashMultiDownloadPeer,
    CrossValidateDownloadPeer,
    NaiveDownloadPeer,
    majority_decode,
)
from repro.sim import run_download
from repro.sim.source import parse_faults
from repro.util.bitarrays import BitArray
from repro.util.rng import SplittableRNG

FUZZ_SETTINGS = dict(max_examples=20, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

seeds = st.integers(min_value=0, max_value=10 ** 9)


class TestFuzzedCrashEnvironments:
    @given(seeds)
    @settings(**FUZZ_SETTINGS)
    def test_crash_multi_survives_any_generated_crash_world(self, seed):
        adversary, t, plan = random_adversary(
            seed, n=8, fault_model="crash", beta_cap=0.75)
        result = run_download(n=8, ell=200,
                              peer_factory=CrashMultiDownloadPeer.factory(),
                              adversary=adversary, t=t, seed=seed)
        assert result.download_correct, plan

    @given(seeds)
    @settings(**FUZZ_SETTINGS)
    def test_naive_survives_everything(self, seed):
        adversary, t, plan = random_adversary(
            seed, n=6, fault_model="crash", beta_cap=0.8)
        result = run_download(n=6, ell=120,
                              peer_factory=NaiveDownloadPeer.factory(),
                              adversary=adversary, t=t, seed=seed)
        assert result.download_correct, plan


class TestFuzzedByzantineEnvironments:
    @given(seeds)
    @settings(**FUZZ_SETTINGS)
    def test_committee_survives_any_generated_minority_corruption(
            self, seed):
        adversary, t, plan = random_adversary(
            seed, n=9, fault_model="byzantine", beta_cap=0.44)
        result = run_download(
            n=9, ell=180,
            peer_factory=ByzCommitteeDownloadPeer.factory(block_size=4),
            adversary=adversary, t=t, seed=seed)
        assert result.download_correct, plan


class TestFuzzedSourceEnvironments:
    """Cross-validation vs generated faulty-source worlds.

    The correctness claim under test: with ``q = 2f + 1`` sources
    queried per digit and at most ``f`` of them faulty, majority
    decode always recovers the truth.  Lying endpoints contribute at
    most ``f`` wrong votes — short of the ``f + 1`` majority —
    and withholding/slow endpoints only delay, never block (the
    honest ``f + 1`` suffice to decode).
    """

    K, F = 5, 2  # q = 2f + 1 = 5 = k: every endpoint queried

    def test_thousands_of_fuzzed_plans_decode_correctly(self):
        """Decode-level sweep: thousands of generated fault plans,
        votes assembled directly from the endpoint views (the pure-
        function core of what the full simulation exercises below)."""
        q = 2 * self.F + 1
        for seed in range(2000):
            plan = random_source_faults(seed, k=self.K, f_cap=self.F)
            faults = parse_faults(plan.specs, self.K)
            rng = SplittableRNG(seed).split("fuzz-views")
            data = BitArray.random(32, rng.split("input"))
            views = [fault.build_view(data, rng.split(f"source-{sid}"))
                     for sid, fault in enumerate(faults)]
            # A query at fuzzed virtual time tq: pre-onset endpoints
            # answer the truth, withholding ones (worst case) not at
            # all, the rest from their possibly-corrupt view.
            tq = (seed % 23) * 0.5
            for index in (0, 13, 31):
                votes = []
                for sid, fault in enumerate(faults):
                    if tq < fault.onset:
                        votes.append(data[index])
                    elif not fault.withholding:
                        votes.append(views[sid][index])
                assert majority_decode(votes, q) == data[index], (
                    f"seed={seed} index={index} plan={plan}")

    @given(seeds)
    @settings(**FUZZ_SETTINGS)
    def test_cross_validate_survives_any_generated_source_world(
            self, seed):
        plan = random_source_faults(seed, k=self.K, f_cap=self.F)
        result = run_download(
            n=4, ell=96,
            peer_factory=CrossValidateDownloadPeer.factory(
                q=2 * self.F + 1),
            seed=seed, sources=self.K, source_faults=plan.specs)
        assert result.download_correct, plan

    @given(seeds)
    @settings(**FUZZ_SETTINGS)
    def test_sync_cross_validate_survives_any_generated_source_world(
            self, seed):
        from repro.sync import hosted_factory, run_sync_download
        plan = random_source_faults(seed, k=self.K, f_cap=self.F)
        result = run_sync_download(
            n=4, ell=96,
            peer_factory=hosted_factory(CrossValidateDownloadPeer,
                                        q=2 * self.F + 1),
            seed=seed, sources=self.K, source_faults=plan.specs)
        assert result.download_correct, plan


class TestGeneratorProperties:
    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_same_seed_same_plan(self, seed):
        _, t1, plan1 = random_adversary(seed, n=10, fault_model="crash",
                                        beta_cap=0.5)
        _, t2, plan2 = random_adversary(seed, n=10, fault_model="crash",
                                        beta_cap=0.5)
        assert (t1, plan1) == (t2, plan2)

    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_budget_respected(self, seed):
        _, t, plan = random_adversary(seed, n=12, fault_model="byzantine",
                                      beta_cap=0.4)
        assert plan.fault_count <= int(0.4 * 12)

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_none_model_has_no_faults(self, seed):
        _, t, plan = random_adversary(seed, n=8, fault_model="none",
                                      beta_cap=0.5)
        assert t == 0 and plan.fault_count == 0

    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_same_seed_same_source_plan(self, seed):
        plan1 = random_source_faults(seed, k=7, f_cap=3)
        plan2 = random_source_faults(seed, k=7, f_cap=3)
        assert plan1 == plan2

    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_source_budget_respected_and_specs_parse(self, seed):
        plan = random_source_faults(seed, k=7, f_cap=3)
        assert plan.fault_count <= 3
        assert len(plan.specs) == 7
        faults = parse_faults(plan.specs, 7)
        honest = [sid for sid in range(7) if sid not in plan.faulty]
        for sid in honest:
            assert faults[sid].kind == "honest"
