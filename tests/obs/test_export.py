"""Unit tests for export assembly: run and sweep streams."""

from repro.obs.export import export_run, run_events, sweep_events
from repro.obs.schema import SCHEMA_VERSION, read_events, validate_event
from repro.obs.telemetry import RecordingTelemetry, using
from repro.protocols import CrashMultiDownloadPeer, NaiveDownloadPeer
from repro.adversary import CrashAdversary
from repro.sim import run_download


def run_crash_case():
    return run_download(
        n=6, ell=128, t=2, seed=11,
        peer_factory=CrashMultiDownloadPeer.factory(),
        adversary=CrashAdversary(crash_fraction=0.34))


class TestRunEvents:
    def test_live_recording_round_trips(self, tmp_path):
        recording = RecordingTelemetry()
        with using(recording):
            result = run_crash_case()
        events = run_events(recording, result)
        assert events[0]["event"] == "run_header"
        assert events[-1]["event"] == "run_summary"
        # Counters land just before the summary, not after it.
        counter_positions = [index for index, entry in enumerate(events)
                             if entry["event"] == "counter"]
        assert counter_positions
        assert max(counter_positions) == len(events) - 2

        path = tmp_path / "run.jsonl"
        assert export_run(path, recording, result) == len(events)
        loaded = read_events(path)
        assert [entry["event"] for entry in loaded] == \
            [entry["event"] for entry in events]

    def test_summary_synthesized_when_recording_lacks_one(self):
        result = run_crash_case()
        recording = RecordingTelemetry()  # installed *after* the run
        recording.emit("crash", {"t": 1.0, "peer": 0})
        events = run_events(recording, result)
        assert events[-1]["event"] == "run_summary"
        assert events[-1]["correct"] is True

    def test_per_peer_query_counters_present(self):
        recording = RecordingTelemetry()
        with using(recording):
            run_download(n=4, ell=64, seed=3,
                         peer_factory=NaiveDownloadPeer.factory())
        # The source maintains a per-peer "queries" request counter
        # alongside the bit-weighted query events.
        assert recording.counter_value("queries", peer=0) == 1
        bits = sum(entry["bits"] for entry in recording.events_of("query")
                   if entry["peer"] == 0)
        assert bits == 64


class TestSweepEvents:
    def header(self):
        return {"event": "sweep_header", "schema": SCHEMA_VERSION,
                "points": 2, "repeats": 3}

    def test_summary_synthesized_from_counters(self):
        recording = RecordingTelemetry()
        recording.add("tasks_total", 6, {})
        recording.add("tasks_done", 5, {})
        recording.add("tasks_failed", 1, {})
        recording.add("tasks_retried", 2, {})
        events = sweep_events(recording, header=self.header(), wall_s=1.5)
        for entry in events:
            validate_event(entry)
        assert events[0]["event"] == "sweep_header"
        summary = events[-1]
        assert summary["event"] == "sweep_summary"
        assert summary["tasks_done"] == 5
        assert summary["tasks_failed"] == 1
        assert summary["tasks_retried"] == 2
        assert summary["cache_hits"] == 0
        assert summary["wall_s"] == 1.5

    def test_stale_envelopes_in_body_are_dropped(self):
        recording = RecordingTelemetry()
        recording.emit("sweep_header", {"schema": SCHEMA_VERSION,
                                        "points": 1, "repeats": 1})
        recording.emit("task_done", {"index": 0})
        events = sweep_events(recording, header=self.header())
        kinds = [entry["event"] for entry in events]
        assert kinds.count("sweep_header") == 1
        assert kinds.count("sweep_summary") == 1
        assert "task_done" in kinds
