"""The paper's open problem, demonstrated: dynamic data breaks Download.

The paper closes with: "Getting rid of this [static-data] assumption
and solving the problem efficiently for dynamic data is left as an
open problem."  These tests *show why it is a problem* — with a source
whose bits change mid-execution, peers download inconsistent
snapshots and "correct output" stops being well-defined — and pin the
exact failure mode so future work against this repo has a target.
"""

import pytest

from repro.adversary import TargetedSlowdown, UniformRandomDelay
from repro.protocols import BalancedDownloadPeer, NaiveDownloadPeer
from repro.sim import Simulation


class TestMutableSource:
    def test_no_mutations_behaves_like_static(self):
        result = Simulation(
            n=4, data="10110011", peer_factory=NaiveDownloadPeer.factory(),
            mutations=[], seed=1).run()
        assert result.download_correct

    def test_mutation_applied_at_scheduled_time(self):
        holder = {}
        make_peer = NaiveDownloadPeer.factory()

        def capture(pid, env):
            holder["source"] = env.source
            return make_peer(pid, env)

        Simulation(n=2, data="0000", t=0, peer_factory=capture,
                   mutations=[(0.5, 3)], seed=1).run()
        assert holder["source"].applied_mutations == [(0.5, 3)]

    def test_invalid_mutation_index_rejected(self):
        with pytest.raises(ValueError):
            Simulation(n=2, data="00",
                       peer_factory=NaiveDownloadPeer.factory(),
                       mutations=[(1.0, 5)],
                       seed=1).run()


class TestOpenProblemDemonstration:
    def test_peers_download_inconsistent_snapshots(self):
        # Peer 0's queries land before the flip; peer 1 is slowed so
        # its queries land after.  Both run the (fault-free-correct!)
        # naive protocol; they still end up with different arrays —
        # the inconsistency the open problem is about.
        ell = 16
        flip_at = 5.0
        result = Simulation(
            n=2, data="0" * ell, t=0,
            peer_factory=NaiveDownloadPeer.factory(),
            # Slow queries take ~19-20 time units round trip, so the
            # source reads peer 1's query at ~9.5-10 — after the flip.
            adversary=TargetedSlowdown({1}, fast_delay=0.05,
                                       slow_delay=4 * flip_at),
            mutations=[(flip_at, 7)],
            seed=2).run()
        fast_view = result.outputs[0]
        slow_view = result.outputs[1]
        assert fast_view[7] == 0      # sampled before the flip
        assert slow_view[7] == 1      # sampled after the flip
        assert fast_view != slow_view

    def test_download_correct_is_ill_defined_under_mutation(self):
        # RunResult compares against the *initial* array; after a
        # mutation even the naive protocol can "fail" that comparison.
        ell = 8
        result = Simulation(
            n=2, data="0" * ell, t=0,
            peer_factory=NaiveDownloadPeer.factory(),
            adversary=TargetedSlowdown({0, 1}, fast_delay=6.0,
                                       slow_delay=8.0),
            mutations=[(1.0, 0)],
            seed=3).run()
        assert not result.download_correct

    def test_sharing_protocols_propagate_stale_bits(self):
        # Balanced download: fast peers (0, 1) read their slices before
        # the flip, slow peers (2, 3) after.  Slice exchange then bakes
        # *both* epochs into every final view — stale zeros from the
        # fast slices next to fresh ones from the slow slices.
        ell = 32
        result = Simulation(
            n=4, data="0" * ell, t=0,
            peer_factory=BalancedDownloadPeer.factory(),
            adversary=TargetedSlowdown({2, 3}, fast_delay=0.1,
                                       slow_delay=4.0),
            mutations=[(0.5, index) for index in range(ell)],
            seed=4).run()
        for pid in range(4):
            view = result.outputs[pid]
            fast_positions = [index for index in range(ell)
                              if index % 4 in (0, 1)]
            slow_positions = [index for index in range(ell)
                              if index % 4 in (2, 3)]
            assert all(view[index] == 0 for index in fast_positions), \
                "fast slices were read before the flip"
            assert all(view[index] == 1 for index in slow_positions), \
                "slow slices were read after the flip"
