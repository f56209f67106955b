"""White-box tests for Algorithm 2's reactive machinery."""

import pytest

from repro.adversary import (
    ComposedAdversary,
    CrashAdversary,
    CrashAfterSends,
    TargetedSlowdown,
    UniformRandomDelay,
)
from repro.obs.telemetry import RecordingTelemetry, using
from repro.protocols import CrashMultiDownloadPeer
from repro.protocols.crash_multi import (
    DataRequest,
    DataResponse,
    FullArray,
    MissingRequest,
    MissingResponse,
)
from repro.sim import Simulation, run_download

from tests.conftest import assert_download_correct


class TestRequestService:
    def test_future_phase_requests_are_deferred_not_dropped(self):
        # A fast peer's phase-2 request reaches a peer still in phase 1;
        # the response must come once the receiver advances, so the run
        # still completes (deadlock would mean the request was lost).
        adversary = ComposedAdversary(
            faults=CrashAdversary(crash_fraction=0.4),
            latency=TargetedSlowdown({0, 1}))
        result = run_download(n=10, ell=500,
                              peer_factory=CrashMultiDownloadPeer.factory(),
                              adversary=adversary, seed=1)
        assert_download_correct(result)

    def test_empty_requests_still_count_as_heard(self):
        # With t=0 everyone knows their whole slice after phase 1 and
        # all phase-1 requests are non-trivial, but with a tiny input
        # some peers own no bits: their requests are empty yet must be
        # answered so the requester reaches n - t heard.
        result = run_download(n=8, ell=4, t=0,
                              peer_factory=CrashMultiDownloadPeer.factory(),
                              seed=2)
        assert_download_correct(result)

    def test_full_array_short_circuits_every_wait(self):
        # One peer terminates fast and broadcasts FullArray; peers
        # crashed-into-silence cannot block the rest.
        crashes = {pid: CrashAfterSends(0) for pid in range(1, 5)}
        adversary = ComposedAdversary(
            faults=CrashAdversary(crashes=crashes),
            latency=UniformRandomDelay())
        with using(RecordingTelemetry()) as recording:
            result = run_download(
                n=10, ell=300, peer_factory=CrashMultiDownloadPeer.factory(),
                adversary=adversary, seed=3)
        assert_download_correct(result)
        # Every survivor terminated; the record shows FullArray traffic.
        sends = [event for event in recording.events_of("send")
                 if event["type"] == "FullArray"]
        assert len(sends) >= (10 - 4) * 9


class TestMessageFlowShapes:
    def test_fault_free_single_phase_message_types(self):
        with using(RecordingTelemetry()) as recording:
            result = run_download(
                n=6, ell=120, t=0,
                peer_factory=CrashMultiDownloadPeer.factory(), seed=4)
        assert_download_correct(result)
        kinds = {event["type"] for event in recording.events_of("send")}
        assert kinds == {"DataRequest", "DataResponse", "MissingRequest",
                         "MissingResponse", "FullArray"}

    def test_phase_count_grows_with_crash_fraction(self):
        # White-box via a subclass hook: record the highest phase any
        # peer actually entered, and compare across crash fractions.
        def max_phase_for(beta, seed):
            phases = []

            class Watching(CrashMultiDownloadPeer):
                def _enter(self, phase, stage):
                    phases.append(phase)
                    super()._enter(phase, stage)

            adversary = ComposedAdversary(
                faults=CrashAdversary(crash_fraction=beta),
                latency=UniformRandomDelay())
            result = run_download(n=16, ell=4096,
                                  peer_factory=Watching.factory(),
                                  adversary=adversary, seed=seed)
            assert result.download_correct
            return max(phases)

        assert max_phase_for(0.75, 6) > max_phase_for(0.1, 6)


class TestResponseCompleteness:
    def test_honest_responses_are_complete_in_digit_phases(self):
        # With the digit assignment every honest responder can fully
        # answer every request (the strengthened Claim 1); verify that
        # no incomplete DataResponse is ever sent by an honest peer in
        # a fault-free run, capturing the message objects via a
        # subclass hook.
        seen = []

        class Watching(CrashMultiDownloadPeer):
            def deliver(self, message):
                if isinstance(message, DataResponse):
                    seen.append(message)
                super().deliver(message)

        result = run_download(n=6, ell=360, t=0,
                              peer_factory=Watching.factory(), seed=5)
        assert result.download_correct
        assert seen and all(message.complete for message in seen)
