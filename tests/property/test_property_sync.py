"""Property-based tests for the synchronous engine and protocols,
against the simulator's adversaries."""

import math

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.adversary import (ByzantineAdversary, CrashAdversary,
                             CrashAfterSends, PerPeerStrategy)
from repro.core.assignment import committee_for, round_robin_indices
from repro.experiments.spec import BYZANTINE_STRATEGIES
from repro.protocols import ByzCommitteeDownloadPeer
from repro.protocols.balanced import ShareMessage
from repro.sync import (
    SyncCrashPeer,
    SyncPeer,
    hosted_factory,
    run_sync_download,
)
from repro.util.bitarrays import BitArray

SYNC_SETTINGS = dict(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def crash_factory(pid, config, rng):
    return SyncCrashPeer(pid, config, rng)


@st.composite
def crash_plans(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    ell = draw(st.integers(min_value=1, max_value=300))
    t = draw(st.integers(min_value=0, max_value=n - 1))
    victim_count = draw(st.integers(min_value=0, max_value=t))
    victims = draw(st.permutations(range(n)))[:victim_count]
    # A crash anywhere in the first six rounds' broadcasts (n - 1 sends
    # each), or never.
    plan = {victim: draw(st.integers(min_value=0, max_value=6 * (n - 1)))
            for victim in victims}
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    return n, ell, t, plan, seed


def crashing(plan):
    return CrashAdversary(crashes={pid: CrashAfterSends(count)
                                   for pid, count in plan.items()})


class TestSyncCrashProperty:
    @given(crash_plans())
    @settings(**SYNC_SETTINGS)
    def test_survivors_always_learn_everything(self, case):
        n, ell, t, plan, seed = case
        result = run_sync_download(
            n=n, ell=ell, t=t, peer_factory=crash_factory,
            adversary=crashing(plan), seed=seed)
        for pid in result.honest:
            assert result.outputs[pid] == result.data, \
                (pid, plan, seed)

    @given(crash_plans())
    @settings(**SYNC_SETTINGS)
    def test_rounds_bounded_by_crashes_plus_constant(self, case):
        n, ell, t, plan, seed = case
        result = run_sync_download(
            n=n, ell=ell, t=t, peer_factory=crash_factory,
            adversary=crashing(plan), seed=seed)
        assert result.rounds <= len(plan) + 6


class EntryByEntryCrashPeer(SyncPeer):
    """:class:`SyncCrashPeer` as it was before it kept a byte working
    array: a list of optional bits, learned and shared one ``dict``
    entry at a time.  The reference the run-based peer must equal."""

    def __init__(self, pid, config, rng):
        super().__init__(pid, config, rng)
        self.bits = [None] * config.ell
        self._fresh = {}

    def _learn(self, values):
        for index, bit in values.items():
            if self.bits[index] is None:
                self._fresh[index] = self.bits[index] = bit

    def _share_fresh(self):
        self.broadcast(ShareMessage(sender=self.pid,
                                    values=dict(self._fresh)))
        self._fresh = {}

    def round(self, round_no, inbox):
        spoke_last_round = set()
        for message in inbox:
            if isinstance(message, ShareMessage):
                self._learn(message.values)
                spoke_last_round.add(message.sender)
        if round_no == 1:
            self._learn(self.query(round_robin_indices(self.pid, self.ell,
                                                       self.n)))
            self._share_fresh()
            return
        if None not in self.bits:
            self.broadcast(ShareMessage(
                sender=self.pid, values=dict(enumerate(self.bits))))
            self.finish(BitArray.from_bits(self.bits))
            return
        alive = sorted(spoke_last_round | {self.pid})
        unknown = [index for index, bit in enumerate(self.bits)
                   if bit is None]
        self._learn(self.query(
            [index for slot, index in enumerate(unknown)
             if alive[slot % len(alive)] == self.pid]))
        self._share_fresh()
        if None not in self.bits:
            self.finish(BitArray.from_bits(self.bits))


class TestSyncCrashEqualsItsEntryByEntryAncestor:
    @given(crash_plans())
    @settings(**SYNC_SETTINGS)
    def test_same_q_m_message_bits_rounds_and_outputs(self, case):
        n, ell, t, plan, seed = case
        runs, refs = (run_sync_download(
            n=n, ell=ell, t=t, peer_factory=factory,
            adversary=crashing(plan), seed=seed)
            for factory in (crash_factory, EntryByEntryCrashPeer))
        for field in ("rounds", "outputs", "query_complexity",
                      "total_query_bits", "per_peer_query_bits",
                      "message_complexity", "message_bits",
                      "per_peer_messages", "events_processed"):
            assert getattr(runs, field) == getattr(refs, field), field


@st.composite
def committee_cases(draw):
    n = draw(st.integers(min_value=3, max_value=11))
    t = draw(st.integers(min_value=0, max_value=(n - 1) // 2))
    ell = draw(st.integers(min_value=1, max_value=200))
    corrupted = set(draw(st.permutations(range(n)))[:t])
    strategy = draw(st.sampled_from(list(BYZANTINE_STRATEGIES.values())))
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    return n, t, ell, corrupted, strategy, seed


class TestSyncCommitteeProperty:
    @given(committee_cases())
    @settings(**SYNC_SETTINGS)
    def test_committee_correct_under_arbitrary_minority(self, case):
        n, t, ell, corrupted, strategy, seed = case
        adversary = ByzantineAdversary(
            corrupted=corrupted, strategy_factory=PerPeerStrategy(strategy))
        block_size = max(1, ell // 8)
        result = run_sync_download(
            n=n, t=t, ell=ell,
            peer_factory=hosted_factory(ByzCommitteeDownloadPeer,
                                        block_size=block_size),
            adversary=adversary, seed=seed)
        assert result.download_correct, (corrupted, strategy, seed)
        # Two rounds, unless every honest peer sits on every committee
        # (always so at n = 2t + 1): each then read all of X itself in
        # round 1 and has no report to wait for.
        honest = set(range(n)) - corrupted
        reads_everything = all(
            honest <= set(committee_for(block, 2 * t + 1, n))
            for block in range(math.ceil(ell / block_size)))
        assert result.rounds == (1 if reads_everything else 2)
