"""The lockstep host: registry bodies driven in rounds.

Pins the three places where running an asynchronous body in lockstep
needed a decision (docs/MODEL.md, "Hosted bodies in lockstep"):
escalation is a second communication step, a withheld answer is never
delivered, and the body's own telemetry rides the round clock — the
first two stated by ``cross-validate-escalate``'s lockstep refinement
(``repro.sync.escalate``), not guessed by the host — and what the
mapping means for ``byz-committee`` and ``byz-two-cycle``, whose hand
ports the hosted bodies replaced.
"""

import pytest

from repro.adversary import CrashAdversary, CrashAfterSends
from repro.experiments import ExperimentSpec
from repro.obs.schema import validate_event
from repro.obs.telemetry import RecordingTelemetry, using
from repro.protocols import (
    BalancedDownloadPeer,
    ByzCommitteeDownloadPeer,
    ByzTwoCycleDownloadPeer,
    CrossValidateDownloadPeer,
    CrossValidateEscalateDownloadPeer,
    NaiveDownloadPeer,
)
from repro.sim.errors import ConfigurationError
from repro.sync import (
    LockstepEscalatePeer,
    LockstepHost,
    SyncConfig,
    SyncEngine,
    hosted_factory,
    run_sync_download,
)
from repro.util.rng import SplittableRNG


def escalate(**params):
    return hosted_factory(LockstepEscalatePeer, **params)


class UncountedCrashes(CrashAdversary):
    """Crashes that the engine does not count against ``t``.  A
    committee's ``t + 1`` rule falls short only when more than ``t`` of
    its members are faulty, and the engine refuses a plan over ``t``."""

    def faulty_peers(self):
        return set()


class TestEscalationIsASecondStep:
    def test_escalation_queries_wait_for_the_next_round(self):
        result = run_sync_download(
            n=4, ell=64, peer_factory=escalate(f=1),
            seed=2, sources=3, source_faults=("wrong-bits:1.0",))
        assert result.download_correct
        assert result.rounds == 2

    def test_chunk_follow_ups_are_not_a_step(self):
        # Chunking is not adaptive: naive's third 4096-bit request is
        # issued and answered in the round of the first.
        result = run_sync_download(
            n=2, ell=3 * 4096, peer_factory=hosted_factory(NaiveDownloadPeer),
            seed=3)
        assert result.download_correct
        assert result.rounds == 1

    @pytest.mark.parametrize("alert, chunks_escalated", [
        (False, {0: (0, 2), 1: (1, 2)}), (True, {0: (0, 1, 2), 1: (0, 1, 2)})])
    def test_two_rounds_however_many_chunks_escalate(self, alert,
                                                     chunks_escalated):
        # Three chunks; each peer's rotation meets the liar (endpoint
        # 0) in two of them.  Every chunk's optimistic queries share
        # round 1 and every escalation round 2 — and with ``alert`` a
        # peer's own disagreement hardens its unanimous chunk too.
        sizes = (4096, 4096, 5)
        result = run_sync_download(
            n=2, ell=sum(sizes), peer_factory=escalate(f=1, alert=alert),
            seed=4, sources=3, source_faults=("wrong-bits:1.0",))
        assert result.download_correct
        assert result.rounds == 2
        assert result.per_peer_query_bits == {
            pid: 2 * sum(sizes) + sum(sizes[chunk] for chunk in escalated)
            for pid, escalated in chunks_escalated.items()}

    def test_the_unrefined_body_has_no_second_step(self):
        # What the refinement adds: the shared body, hosted as it is,
        # escalates inside the round that answered it.
        result = run_sync_download(
            n=4, ell=64,
            peer_factory=hosted_factory(CrossValidateEscalateDownloadPeer,
                                        f=1),
            seed=2, sources=3, source_faults=("wrong-bits:1.0",))
        assert result.download_correct
        assert result.rounds == 1

    def test_the_backend_hosts_the_refinement(self):
        from repro.experiments import execute_repeat
        record = execute_repeat(ExperimentSpec(
            backend="sync", network="synchronous",
            protocol="cross-validate-escalate", n=2, ell=2 * 4096 + 5,
            sources=3, source_faults=("wrong-bits:1.0",),
            protocol_params={"f": 1}), 0)
        assert record.correct and record.rounds == 2


class TestAlert:
    def alert(self, **kwargs):
        return run_sync_download(
            n=6, ell=32, peer_factory=escalate(f=1, alert=True),
            sources=3, **kwargs)

    def test_silence_is_trusted_after_the_diameter(self):
        # All unanimous, nobody alerts: everyone holds its votes for
        # the ring's three rounds, and the hold is not a stall.
        result = self.alert(seed=5, topology="ring")
        assert result.download_correct
        assert result.rounds == 1 + 3
        assert result.message_complexity == 0
        assert result.query_complexity == 2 * 32

    def test_the_window_is_held_once_not_per_chunk(self):
        result = run_sync_download(
            n=6, ell=2 * 4096 + 5, peer_factory=escalate(f=1, alert=True),
            seed=5, sources=3, topology="ring")
        assert result.download_correct
        assert result.rounds == 1 + 3

    def test_window_is_one_round_on_the_complete_graph(self):
        assert self.alert(seed=5).rounds == 2

    def test_an_alert_heard_in_the_window_escalates_in_that_round(self):
        # Peers 1 and 4 never touch the liar (endpoint 0) themselves;
        # their neighbours' alerts arrive at the round-2 boundary and
        # they escalate right there: the alert was the communication
        # step.
        result = self.alert(seed=6, topology="ring",
                            source_faults=("wrong-bits:1.0",))
        assert result.download_correct
        assert result.rounds == 2
        assert set(result.per_peer_query_bits.values()) == {3 * 32}

    def test_alert_is_a_sync_only_param(self):
        fields = dict(protocol="cross-validate-escalate", n=4, ell=32,
                      sources=3, protocol_params={"f": 1, "alert": True})
        ExperimentSpec(backend="sync", network="synchronous", **fields)
        with pytest.raises(ValueError, match=r"no net params \['alert'\]; "
                                             r"accepted: \['f'\]"):
            ExperimentSpec(backend="net", **fields)


class TestWithheldAnswersNeverArrive:
    """Synchrony has no "later": a run no decode can finish ends through
    the stall detector as an incorrect record, Q charged."""

    @pytest.mark.parametrize("protocol_class, sources", [
        (NaiveDownloadPeer, 1), (CrossValidateDownloadPeer, 3)])
    def test_all_withhold_ends_as_an_incorrect_record(self, protocol_class,
                                                      sources):
        result = run_sync_download(
            n=3, ell=48, peer_factory=hosted_factory(protocol_class),
            seed=7, sources=sources,
            source_faults=("withhold",) * sources)
        assert not result.download_correct
        assert set(result.outputs.values()) == {None}
        assert result.rounds <= SyncEngine.STALL_LIMIT + 1
        assert result.query_complexity == sources * 48

    def test_a_withheld_minority_is_outvoted_in_round_one(self):
        result = run_sync_download(
            n=3, ell=48,
            peer_factory=hosted_factory(CrossValidateDownloadPeer, q=3),
            seed=8, sources=3, source_faults=("withhold",))
        assert result.download_correct
        assert result.rounds == 1

    @pytest.mark.parametrize("alert", [False, True])
    def test_a_withheld_optimistic_vote_is_a_disagreement(self, alert):
        # k=3, f=1, endpoint 0 withholds: inside the budget.  Peer 1's
        # optimistic pair (1, 2) never meets it; the others miss a vote,
        # escalate in round 2 and decode from the two honest answers.
        result = run_sync_download(
            n=4, ell=64, peer_factory=escalate(f=1, alert=alert),
            seed=2, sources=3, source_faults=("withhold",))
        assert result.download_correct
        assert result.rounds == 2
        assert result.per_peer_query_bits == {
            0: 192, 1: 192 if alert else 128, 2: 192, 3: 192}

    def test_a_withheld_escalation_vote_is_outvoted(self):
        # k=5, f=2: a liar among the optimistic three forces the
        # escalation, a withholder among the last two cannot stop the
        # three honest votes from being a majority of five.
        result = run_sync_download(
            n=4, ell=64, peer_factory=escalate(f=2), seed=2, sources=5,
            source_faults=("withhold", "wrong-bits:1.0"))
        assert result.download_correct
        assert result.rounds == 2

    def test_escalate_with_no_vote_at_all_stalls_too(self):
        # (The parent's lockstep port died of a KeyError here.)
        result = run_sync_download(
            n=3, ell=48, peer_factory=escalate(f=1), seed=7, sources=3,
            source_faults=("withhold",) * 3)
        assert not result.download_correct
        assert set(result.outputs.values()) == {None}
        assert result.rounds <= SyncEngine.STALL_LIMIT + 1
        assert result.query_complexity == 2 * 48


class TestCommitteeAndTwoRound:
    def committee(self, **params):
        return hosted_factory(ByzCommitteeDownloadPeer, **params)

    def test_committees_of_everyone_leave_nothing_to_wait_for(self):
        # n = 2t + 1: every peer sits on every committee, read all of
        # X itself in round 1 and terminates there.
        result = run_sync_download(n=9, ell=90, t=4, seed=1,
                                   peer_factory=self.committee(block_size=9))
        assert result.download_correct
        assert result.rounds == 1
        assert set(result.per_peer_query_bits.values()) == {90}
        # One peer short of that, somebody waits for a report.
        result = run_sync_download(n=9, ell=90, t=3, seed=1,
                                   peer_factory=self.committee(block_size=9))
        assert result.download_correct
        assert result.rounds == 2

    def test_a_majority_is_the_bodys_error_and_the_specs(self):
        with pytest.raises(ConfigurationError, match="2t < n"):
            run_sync_download(n=8, ell=16, t=4, seed=1,
                              peer_factory=self.committee())
        with pytest.raises(ValueError, match="2t < n"):
            ExperimentSpec(backend="sync", network="synchronous",
                           protocol="byz-committee", n=8, ell=16,
                           fault_model="byzantine", beta=0.5)

    def test_give_up_time_counts_rounds(self):
        # Two silent round-1 crashes against t = 1 leave block 0's
        # committee {0, 1, 2} one report short of t + 1, for good.
        def run(**params):
            return run_sync_download(
                n=5, ell=16, t=1, seed=1,
                peer_factory=self.committee(block_size=4, **params),
                adversary=UncountedCrashes(crashes={
                    0: CrashAfterSends(0), 1: CrashAfterSends(0)}))
        stalled = run()
        assert not stalled.download_correct
        assert stalled.rounds <= 1 + SyncEngine.STALL_LIMIT
        # The wait until round 3 is deliberate silence, not a stall;
        # there the survivors read the unsettled blocks themselves.
        gave_up = run(give_up_time=3)
        assert gave_up.download_correct
        assert gave_up.rounds == 3
        assert gave_up.per_peer_query_bits == {2: 12, 3: 16, 4: 12}

    def test_the_spec_takes_what_the_one_constructor_takes(self):
        fields = dict(backend="sync", network="synchronous", n=5, ell=16)
        ExperimentSpec(protocol="byz-committee", protocol_params={
            "block_size": 4, "give_up_time": 3}, **fields)
        ExperimentSpec(protocol="byz-two-cycle", protocol_params={
            "num_segments": 2, "tau": 1}, **fields)
        with pytest.raises(ValueError, match="no sync params"):
            ExperimentSpec(protocol="byz-two-cycle",
                           protocol_params={"block_size": 4}, **fields)

    def test_two_cycle_parameters_are_the_bodys_own_choice(self):
        # The deleted port defaulted to (num_segments, tau) = (4, 2)
        # whatever n, t and ell.  At n 9, t 2 that is tau <= t — the
        # corrupted peers alone can vouch for a string — where the
        # paper's case analysis says: too small to sample, read it all.
        def run(n, ell, t):
            return run_sync_download(
                n=n, ell=ell, t=t, seed=41,
                peer_factory=hosted_factory(ByzTwoCycleDownloadPeer))
        small = run(9, 240, 2)
        assert small.download_correct
        assert (small.rounds, small.query_complexity,
                small.message_complexity) == (1, 240, 0)
        # Large enough to sample: 4 segments, tau = 6 > t.
        large = run(64, 8192, 6)
        assert large.download_correct
        assert large.rounds == 2
        assert 8192 // 4 <= large.query_complexity < 8192 // 2


class TestEventStream:
    def record(self, protocol_class, **kwargs):
        recording = RecordingTelemetry()
        with using(recording):
            result = run_sync_download(
                peer_factory=hosted_factory(protocol_class,
                                            **kwargs.pop("params", {})),
                **kwargs)
        return result, recording

    def test_body_events_ride_the_round_clock(self):
        result, recording = self.record(
            LockstepEscalatePeer, params={"f": 1}, n=3,
            ell=16, seed=9, sources=3, source_faults=("wrong-bits:1.0",))
        assert result.rounds == 2
        for event in recording.events:
            validate_event(event)
        assert {event["t"] for event in recording.events_of("cycle")} == {1.0}
        phases = recording.events_of("phase")
        assert {event["name"] for event in phases} == {"escalate:[0,16)"}
        assert {event["t"] for event in phases} == {1.0}
        assert recording.events_of("source_disagreement")
        # Escalation queries are charged where they are answered.
        assert sorted({event["t"]
                       for event in recording.events_of("query")}) == [1.0,
                                                                       2.0]

    @pytest.mark.parametrize("protocol_class, params, phases", [
        (ByzCommitteeDownloadPeer, {"block_size": 8},
         {"report", "collect"}),
        (ByzTwoCycleDownloadPeer, {"num_segments": 2, "tau": 1},
         {"sample", "determine"})])
    def test_committee_and_two_round_streams_are_the_bodys(
            self, protocol_class, params, phases):
        result, recording = self.record(protocol_class, params=params,
                                        n=5, ell=32, t=1, seed=3)
        assert result.rounds == 2
        for event in recording.events:
            validate_event(event)
        (header,) = recording.events_of("run_header")
        assert header["protocol"] == protocol_class.protocol_name
        # Both cycles open in round 1: the body enters its second as
        # soon as it has broadcast, and parks there until round 2.
        assert {(event["t"], event["cycle"])
                for event in recording.events_of("cycle")} == {(1.0, 1),
                                                               (1.0, 2)}
        assert {event["name"]
                for event in recording.events_of("phase")} == phases
        assert sorted(event["peer"] for event in
                      recording.events_of("terminate")) == [0, 1, 2, 3, 4]
        assert {event["t"]
                for event in recording.events_of("terminate")} == {2.0}

    def test_one_terminate_per_peer_and_the_header_names_the_protocol(self):
        _, recording = self.record(BalancedDownloadPeer, n=4, ell=32,
                                   seed=10)
        (header,) = recording.events_of("run_header")
        assert header["protocol"] == "balanced"
        terminated = [event["peer"]
                      for event in recording.events_of("terminate")]
        assert sorted(terminated) == [0, 1, 2, 3]


class TestHostIsASyncPeer:
    def test_constructor_errors_surface_from_the_run(self):
        # The protocol object is built in round 1, once the engine has
        # attached the source whose ``k`` its constructor checks.
        with pytest.raises(ValueError, match="q=4 must be in"):
            run_sync_download(
                n=2, ell=8, seed=1, sources=3,
                peer_factory=hosted_factory(CrossValidateDownloadPeer, q=4))

    def test_label_and_liveness_before_round_one(self):
        host = LockstepHost(0, SyncConfig(n=2, t=0, ell=8),
                            SplittableRNG(0), NaiveDownloadPeer.factory())
        assert host.protocol_label == "naive" and not host.done

    def test_the_engine_can_crash_it_mid_broadcast(self):
        result = run_sync_download(
            n=4, ell=40, t=1, seed=11,
            peer_factory=hosted_factory(BalancedDownloadPeer),
            adversary=CrashAdversary(crashes={1: CrashAfterSends(2)}))
        # Peer 1 kept two of its three round-1 sends: 0 and 2 finish.
        assert result.outputs[0] is not None
        assert result.outputs[2] is not None
        assert result.outputs[3] is None
