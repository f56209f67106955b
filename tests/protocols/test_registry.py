"""Tests for the protocol registry."""

import pytest

from repro.protocols import all_protocols, get, protocols_for
from repro.protocols.registry import ProtocolEntry


class TestLookup:
    def test_all_protocols_listed(self):
        names = {entry.name for entry in all_protocols()}
        assert names == {
            "naive", "balanced", "crash-one", "crash-multi",
            "crash-multi-fast", "one-round", "byz-committee",
            "byz-two-cycle", "byz-multi-cycle", "cross-validate",
            "cross-validate-escalate"}

    def test_get_returns_entry(self):
        entry = get("crash-multi")
        assert entry.peer_class.protocol_name == "crash-multi"

    def test_get_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="crash-multi"):
            get("totally-unknown")

    @pytest.mark.parametrize("entry", all_protocols(),
                             ids=lambda entry: entry.name)
    def test_query_bound_at_default_parameters(self, entry):
        for n, t, ell in ((40, 6, 4096), (9, 2, 256), (16, 0, 1024)):
            bound = entry.query_bound(ell, n, t, {}, 1)
            assert isinstance(bound, (int, float)) and bound > 0

    def test_factory_binds_parameters(self):
        factory = get("byz-committee").factory(block_size=8)
        assert factory.params == {"block_size": 8}


class TestSupports:
    def test_byzantine_majority_only_peer_independent(self):
        # Beyond beta = 1/2 only the protocols with no peer-to-peer
        # dependence survive: naive and the multi-source validators.
        entries = protocols_for(fault_model="byzantine", beta=0.6)
        assert [entry.name for entry in entries] == [
            "cross-validate", "cross-validate-escalate", "naive"]

    def test_byzantine_minority_includes_committee_and_randomized(self):
        names = {entry.name
                 for entry in protocols_for(fault_model="byzantine",
                                            beta=0.3)}
        assert {"byz-committee", "byz-two-cycle", "byz-multi-cycle",
                "naive"} <= names

    def test_crash_majority_includes_crash_multi(self):
        names = {entry.name
                 for entry in protocols_for(fault_model="crash", beta=0.7)}
        assert "crash-multi" in names
        assert "byz-committee" not in names

    def test_byzantine_tolerant_protocols_count_for_crash(self):
        names = {entry.name
                 for entry in protocols_for(fault_model="crash", beta=0.3)}
        assert "byz-committee" in names

    def test_fault_free_includes_everything(self):
        assert len(protocols_for(fault_model="none", beta=0.0)) == \
            len(all_protocols())

    def test_exclude_naive(self):
        entries = protocols_for(fault_model="byzantine", beta=0.6,
                                include_naive=False)
        assert [entry.name for entry in entries] == [
            "cross-validate", "cross-validate-escalate"]

    @pytest.mark.parametrize("beta", [0.15, 0.6])
    def test_dynamic_corruption_answers_as_byzantine(self, beta):
        # The dynamic budget is per cycle, and that is what the
        # protocols' thresholds absorb.
        for entry in all_protocols():
            assert entry.supports(fault_model="dynamic", beta=beta) == \
                entry.supports(fault_model="byzantine", beta=beta)

    def test_unknown_fault_model_rejected(self):
        entry = get("naive")
        with pytest.raises(ValueError):
            entry.supports(fault_model="cosmic-rays", beta=0.1)
