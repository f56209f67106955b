"""Tests for the Theorem 3.1 construction."""

import pytest

from repro.experiments.backends.lowerbound import (
    majority_split,
    run_deterministic_construction,
)
from repro.protocols import ByzCommitteeDownloadPeer, NaiveDownloadPeer
from tests.lowerbounds.accounting import (
    unqueried_bits,
    victim_views_identical,
)


class TestMajoritySplit:
    def test_roles_partition_peers(self):
        victim, corrupted, silenced = majority_split(11)
        assert victim == 0
        assert victim not in corrupted and victim not in silenced
        assert corrupted | silenced | {victim} == set(range(11))
        assert not corrupted & silenced

    def test_corrupted_is_a_majority(self):
        for n in (4, 7, 10, 13):
            _, corrupted, _ = majority_split(n)
            assert 2 * len(corrupted) >= n

    def test_victim_waits_satisfiable(self):
        # |F| + victim >= n - t for t = |F|.
        for n in (4, 9, 16):
            _, corrupted, _ = majority_split(n)
            assert len(corrupted) + 1 >= n - len(corrupted)


class TestConstructionAgainstCommittee:
    def run_it(self, seed=0):
        return run_deterministic_construction(
            peer_factory=ByzCommitteeDownloadPeer.factory(block_size=16),
            n=10, ell=256, claimed_t=2, seed=seed)

    def test_sub_ell_protocol_is_fooled(self):
        outcome = self.run_it()
        assert outcome.fooled
        assert outcome.victim_queries < outcome.ell

    def test_target_bit_was_never_queried(self):
        outcome = self.run_it()
        assert outcome.target_bit in unqueried_bits(
            outcome.discovery, outcome.victim, outcome.ell)

    def test_victim_views_indistinguishable(self):
        outcome = self.run_it()
        assert victim_views_identical(outcome.discovery, outcome.attack,
                                      outcome.victim)

    def test_victim_output_wrong_exactly_at_target(self):
        outcome = self.run_it()
        output = outcome.attack.outputs[outcome.victim]
        assert output[outcome.target_bit] == 0  # real input has 1 there
        wrong = [bit for bit in range(outcome.ell)
                 if output[bit] != outcome.attack.data[bit]]
        assert wrong == [outcome.target_bit]

    def test_attack_terminates_before_withheld_release(self):
        outcome = self.run_it()
        assert outcome.attack.statuses[outcome.victim].terminated


class TestConstructionAgainstNaive:
    def test_naive_respects_bound_and_survives(self):
        outcome = run_deterministic_construction(
            peer_factory=NaiveDownloadPeer.factory(),
            n=8, ell=128, claimed_t=4, seed=0)
        assert not outcome.fooled
        assert outcome.respects_bound
        assert outcome.victim_queries == 128
        assert outcome.target_bit is None
