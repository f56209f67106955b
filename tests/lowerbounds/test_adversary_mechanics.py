"""Unit tests for the lower-bound adversary's moving parts."""

import pytest

from repro.adversary.lower_bound import MajoritySimulationAdversary, \
    _FakeSource
from repro.protocols import NaiveDownloadPeer
from repro.sim import Simulation
from repro.util.bitarrays import BitArray
from tests.lowerbounds.accounting import query_load_profile, unqueried_bits


class TestConfiguration:
    def test_overlapping_roles_rejected(self):
        with pytest.raises(ValueError, match="both corrupted and silenced"):
            MajoritySimulationAdversary(
                corrupted={1, 2}, silenced={2, 3},
                fake_input=BitArray.zeros(4))

    def test_fault_budget_is_corrupted_count(self):
        adversary = MajoritySimulationAdversary(
            corrupted={5, 6, 7}, silenced={1},
            fake_input=BitArray.zeros(4))
        assert adversary.fault_budget(8) == 3
        assert adversary.faulty_peers() == {5, 6, 7}


class TestFakeSource:
    def run_with_fake(self, fake_bits, real_bits):
        adversary = MajoritySimulationAdversary(
            corrupted={2, 3}, silenced={1},
            fake_input=BitArray.from_string(fake_bits))
        simulation = Simulation(
            n=4, data=real_bits, t=2,
            peer_factory=NaiveDownloadPeer.factory(),
            adversary=adversary, seed=1, allow_fault_overrun=True)
        return simulation.run()

    def test_corrupted_peers_see_the_fake_array(self):
        result = self.run_with_fake(fake_bits="0000", real_bits="1111")
        # Corrupted peers 2, 3 ran the naive protocol over the fake
        # source: their outputs are the fake world.
        assert result.outputs[2] == BitArray.from_string("0000")
        assert result.outputs[3] == BitArray.from_string("0000")

    def test_honest_peers_see_the_real_array(self):
        result = self.run_with_fake(fake_bits="0000", real_bits="1111")
        assert result.outputs[0] == BitArray.from_string("1111")

    def test_fake_queries_leave_no_trace_in_the_real_log(self):
        result = self.run_with_fake(fake_bits="0000", real_bits="1111")
        # Only honest peers appear in the real source's query log.
        assert set(result.queried_indices) <= {0, 1}


class TestSilencing:
    def test_silenced_messages_wait_for_quiescence(self):
        # With the naive protocol nobody needs anybody: the run ends
        # with the victim (and everyone) done, silenced or not.
        adversary = MajoritySimulationAdversary(
            corrupted={2, 3}, silenced={1},
            fake_input=BitArray.zeros(4))
        result = Simulation(
            n=4, data="1010", t=2,
            peer_factory=NaiveDownloadPeer.factory(),
            adversary=adversary, seed=1, allow_fault_overrun=True).run()
        assert result.statuses[0].terminated

    def test_silenced_peers_marked_non_essential(self):
        from repro.sim.process import Process
        adversary = MajoritySimulationAdversary(
            corrupted={2}, silenced={1}, fake_input=BitArray.zeros(2))
        processes = {pid: Process(f"p{pid}") for pid in range(3)}
        adversary.after_setup(processes)
        assert not processes[1].essential
        assert processes[0].essential


class TestAccountingHelpers:
    def test_unqueried_bits(self):
        result = Simulation(
            n=2, data="1010", peer_factory=NaiveDownloadPeer.factory(),
            seed=1).run()
        assert unqueried_bits(result, 0, 4) == []
        assert unqueried_bits(result, 99, 4) == [0, 1, 2, 3]

    def test_query_load_profile(self):
        result = Simulation(
            n=2, data="1010", peer_factory=NaiveDownloadPeer.factory(),
            seed=1).run()
        assert query_load_profile(result) == {0: 4, 1: 4}
