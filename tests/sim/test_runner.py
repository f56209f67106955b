"""Unit tests for the Simulation façade and RunResult."""

import pytest

from repro.obs.telemetry import RecordingTelemetry, get_backend, using
from repro.protocols import BalancedDownloadPeer, NaiveDownloadPeer
from repro.sim import ConfigurationError, Simulation, run_download
from repro.util.bitarrays import BitArray


class TestConfiguration:
    def test_requires_data_or_ell(self):
        with pytest.raises(ConfigurationError, match="data= or ell="):
            Simulation(n=4, peer_factory=NaiveDownloadPeer.factory())

    def test_data_and_ell_must_agree(self):
        with pytest.raises(ConfigurationError, match="disagrees"):
            Simulation(n=4, data="1010", ell=8,
                       peer_factory=NaiveDownloadPeer.factory())

    def test_accepts_list_data(self):
        sim = Simulation(n=2, data=[1, 0, 1],
                         peer_factory=NaiveDownloadPeer.factory())
        assert sim.ell == 3

    def test_accepts_bitarray_data_and_copies_it(self):
        data = BitArray.from_string("101")
        sim = Simulation(n=2, data=data,
                         peer_factory=NaiveDownloadPeer.factory())
        data[0] = 0
        assert sim.data[0] == 1

    def test_random_data_is_seed_deterministic(self):
        first = Simulation(n=2, ell=64, seed=9,
                           peer_factory=NaiveDownloadPeer.factory())
        second = Simulation(n=2, ell=64, seed=9,
                            peer_factory=NaiveDownloadPeer.factory())
        assert first.data == second.data

    def test_empty_input_rejected(self):
        with pytest.raises(Exception):
            Simulation(n=2, data="", peer_factory=NaiveDownloadPeer.factory())

    def test_t_must_be_below_n(self):
        with pytest.raises(ConfigurationError):
            Simulation(n=4, ell=8, t=4,
                       peer_factory=NaiveDownloadPeer.factory())

    def test_adversary_overrun_rejected_by_default(self):
        from repro.adversary import CrashAdversary
        with pytest.raises(ConfigurationError, match="plans"):
            Simulation(n=4, ell=8, t=1,
                       peer_factory=NaiveDownloadPeer.factory(),
                       adversary=CrashAdversary(
                           crashes={0: None, 1: None})).run()

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError):
            Simulation(n=0, ell=8, peer_factory=NaiveDownloadPeer.factory())


class TestRunResult:
    def test_download_correct_true_case(self):
        result = run_download(n=3, ell=32,
                              peer_factory=NaiveDownloadPeer.factory(),
                              seed=1)
        assert result.download_correct
        assert result.wrong_peers() == []

    def test_output_of_unterminated_peer_raises(self):
        result = run_download(n=3, ell=32,
                              peer_factory=NaiveDownloadPeer.factory(),
                              seed=1)
        with pytest.raises(KeyError):
            result.output_of(99)

    def test_honest_and_faulty_partition(self):
        result = run_download(n=4, ell=16,
                              peer_factory=NaiveDownloadPeer.factory(),
                              seed=1)
        assert result.honest == {0, 1, 2, 3}
        assert result.faulty == set()

    def test_queried_indices_populated(self):
        result = run_download(n=2, ell=16,
                              peer_factory=NaiveDownloadPeer.factory(),
                              seed=1)
        assert result.queried_indices[0] == set(range(16))

    def test_queried_indices_defaults_to_empty_dict(self):
        # Regression: the field was annotated dict[...] but defaulted
        # to None, so a RunResult built without it crashed any
        # `.get(...)` consumer (e.g. lowerbounds accounting).
        def minimal_result():
            from repro.sim.metrics import ComplexityReport
            from repro.sim.runner import RunResult
            return RunResult(
                data=BitArray.from_string("101"), outputs={}, statuses={},
                report=ComplexityReport(
                    query_complexity=0, total_query_bits=0,
                    message_complexity=0, message_bits=0,
                    time_complexity=0.0),
                honest=set(), faulty=set(), events_processed=0,
                elapsed_virtual_time=0.0)

        result = minimal_result()
        assert result.queried_indices == {}
        assert result.queried_indices.get(0, set()) == set()
        # The default must be a fresh dict per instance, never shared.
        result.queried_indices[0] = {1}
        assert minimal_result().queried_indices == {}

    def test_trace_disabled_by_default(self):
        # The result carries no event record; only an installed
        # telemetry backend sees the run's events.
        result = run_download(n=2, ell=8,
                              peer_factory=NaiveDownloadPeer.factory(),
                              seed=1)
        assert not hasattr(result, "trace")
        assert not get_backend().enabled

    def test_trace_records_terminations(self):
        with using(RecordingTelemetry()) as recording:
            run_download(n=2, ell=8,
                         peer_factory=NaiveDownloadPeer.factory(), seed=1)
        assert sorted(event["peer"] for event in
                      recording.events_of("terminate")) == [0, 1]

    def test_events_processed_positive(self):
        result = run_download(n=2, ell=8,
                              peer_factory=NaiveDownloadPeer.factory(),
                              seed=1)
        assert result.events_processed > 0


class TestDeterminism:
    def test_identical_runs_are_bit_identical(self):
        def run_once():
            return run_download(n=5, ell=128,
                                peer_factory=BalancedDownloadPeer.factory(),
                                seed=42)

        first, second = run_once(), run_once()
        assert first.report.query_complexity == second.report.query_complexity
        assert first.report.message_complexity == \
            second.report.message_complexity
        assert first.elapsed_virtual_time == second.elapsed_virtual_time
        assert first.outputs == second.outputs

    def test_different_seed_different_data(self):
        a = run_download(n=3, ell=64,
                         peer_factory=NaiveDownloadPeer.factory(), seed=1)
        b = run_download(n=3, ell=64,
                         peer_factory=NaiveDownloadPeer.factory(), seed=2)
        assert a.data != b.data
