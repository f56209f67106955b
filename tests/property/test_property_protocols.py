"""Property-based end-to-end protocol tests.

Hypothesis drives the *configuration* space (n, ell, fault plan, seed);
each drawn case runs a full simulation and asserts the Download
guarantee.  Sizes stay small so the suite remains fast — the point is
coverage of odd corner configurations (n=3, ell=1, t=n-1, crash on the
first send...), not scale.
"""

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.adversary import (
    ByzantineAdversary,
    ComposedAdversary,
    CrashAdversary,
    CrashAfterSends,
    CrashAtTime,
    EquivocateStrategy,
    SilentStrategy,
    UniformRandomDelay,
    WrongBitsStrategy,
)
from repro.core.bounds import committee_query_bound, crash_multi_query_bound
from repro.protocols import (
    ByzCommitteeDownloadPeer,
    CrashMultiDownloadPeer,
    CrashOneDownloadPeer,
)
from repro.sim import run_download

COMMON = dict(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])


@st.composite
def crash_multi_configs(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    ell = draw(st.integers(min_value=1, max_value=400))
    t = draw(st.integers(min_value=0, max_value=n - 1))
    crash_count = draw(st.integers(min_value=0, max_value=t))
    victims = draw(st.permutations(range(n))) [:crash_count]
    specs = {}
    for victim in victims:
        if draw(st.booleans()):
            specs[victim] = CrashAtTime(draw(st.floats(
                min_value=0.0, max_value=10.0, allow_nan=False)))
        else:
            specs[victim] = CrashAfterSends(draw(
                st.integers(min_value=0, max_value=3 * n)))
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    return n, ell, t, specs, seed


class TestCrashMultiProperty:
    @given(crash_multi_configs())
    @settings(**COMMON)
    def test_download_correct_under_arbitrary_crash_plans(self, config):
        n, ell, t, specs, seed = config
        adversary = ComposedAdversary(
            faults=CrashAdversary(crashes=specs),
            latency=UniformRandomDelay())
        result = run_download(
            n=n, ell=ell, t=t,
            peer_factory=CrashMultiDownloadPeer.factory(),
            adversary=adversary, seed=seed)
        assert result.download_correct
        assert result.report.query_complexity <= crash_multi_query_bound(
            ell, n, t)


@st.composite
def crash_one_configs(draw):
    n = draw(st.integers(min_value=3, max_value=9))
    ell = draw(st.integers(min_value=1, max_value=300))
    crash = draw(st.booleans())
    spec = {}
    if crash:
        victim = draw(st.integers(min_value=0, max_value=n - 1))
        spec[victim] = CrashAfterSends(draw(
            st.integers(min_value=0, max_value=2 * n)))
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    return n, ell, spec, seed


class TestCrashOneProperty:
    @given(crash_one_configs())
    @settings(**COMMON)
    def test_download_correct_with_at_most_one_crash(self, config):
        n, ell, spec, seed = config
        adversary = ComposedAdversary(
            faults=CrashAdversary(crashes=spec) if spec
            else CrashAdversary(crashes={}),
            latency=UniformRandomDelay())
        result = run_download(
            n=n, ell=ell, t=1,
            peer_factory=CrashOneDownloadPeer.factory(),
            adversary=adversary, seed=seed)
        assert result.download_correct


@st.composite
def committee_configs(draw):
    n = draw(st.integers(min_value=3, max_value=11))
    t = draw(st.integers(min_value=0, max_value=(n - 1) // 2))
    ell = draw(st.integers(min_value=1, max_value=200))
    corrupted = set(draw(st.permutations(range(n)))[:t])
    strategy = draw(st.sampled_from(
        [SilentStrategy, WrongBitsStrategy, EquivocateStrategy]))
    block_size = draw(st.integers(min_value=1, max_value=max(1, ell)))
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    return n, t, ell, corrupted, strategy, block_size, seed


class TestCommitteeProperty:
    @given(committee_configs())
    @settings(**COMMON)
    def test_download_correct_under_arbitrary_minority_corruption(
            self, config):
        n, t, ell, corrupted, strategy, block_size, seed = config
        if corrupted:
            adversary = ComposedAdversary(
                faults=ByzantineAdversary(
                    corrupted=corrupted,
                    strategy_factory=lambda pid: strategy()),
                latency=UniformRandomDelay())
        else:
            adversary = UniformRandomDelay()
        result = run_download(
            n=n, t=t, ell=ell,
            peer_factory=ByzCommitteeDownloadPeer.factory(
                block_size=block_size),
            adversary=adversary, seed=seed)
        assert result.download_correct

    @given(n=st.integers(min_value=3, max_value=24),
           t=st.integers(min_value=0, max_value=11),
           ell=st.integers(min_value=1, max_value=600),
           block_size=st.integers(min_value=1, max_value=80))
    @example(n=40, t=6, ell=8192, block_size=64)  # E1's committee row
    @settings(**COMMON)
    def test_fault_free_query_bits_within_the_bound(self, n, t, ell,
                                                    block_size):
        t = min(t, (n - 1) // 2)
        result = run_download(
            n=n, t=t, ell=ell,
            peer_factory=ByzCommitteeDownloadPeer.factory(
                block_size=block_size),
            seed=n + ell)
        assert result.report.query_complexity <= committee_query_bound(
            ell, n, t, block_size)
