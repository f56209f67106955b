"""End-to-end tests for `--telemetry` exports and the `repro trace` CLI."""

import io

import pytest

from repro.adversary import (
    ByzantineAdversary,
    ComposedAdversary,
    CrashAdversary,
    CrashAfterSends,
    CrashAtTime,
    SilentStrategy,
    UniformRandomDelay,
)
from repro.cli import main
from repro.obs.schema import read_events
from repro.obs.telemetry import RecordingTelemetry, using
from repro.obs.trace_cli import (
    diff_streams,
    folded_stacks,
    phase_histogram,
    render_summary,
    render_timeline,
)
from repro.protocols import (
    BalancedDownloadPeer,
    ByzCommitteeDownloadPeer,
    CrashMultiDownloadPeer,
    NaiveDownloadPeer,
)
from repro.sim import BudgetExceeded, Simulation, run_download

RUN_ARGS = ["run", "--protocol", "crash-multi", "--n", "8", "--ell", "256",
            "--fault-model", "crash", "--beta", "0.5", "--seed", "7"]


@pytest.fixture(scope="module")
def export(tmp_path_factory):
    path = tmp_path_factory.mktemp("telemetry") / "run.jsonl"
    code = main(RUN_ARGS + ["--telemetry", str(path)], out=io.StringIO())
    assert code == 0
    return path


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def recorded(**kwargs):
    """The event record of one ``run_download`` under a recording."""
    with using(RecordingTelemetry()) as recording:
        run_download(**kwargs)
    return recording.events


def rows(timeline):
    """A rendered timeline's rows (legend dropped), keyed by peer."""
    return {int(line.split("|")[0].split()[1]): line
            for line in timeline.splitlines()[1:]}


def per_peer_block(summary):
    """``render_summary``'s per-peer query bits, keyed by peer."""
    block = summary.split("per-peer query bits:\n")[1].split("\n\n")[0]
    return {int(line.split()[1]): int(line.split()[2])
            for line in block.splitlines()}


#: Four balanced peers, fault-free: every peer sends, receives, ends.
BALANCED = dict(n=4, ell=64, peer_factory=BalancedDownloadPeer.factory(),
                seed=1)


class TestExportShape:
    def test_bracketed_by_header_and_summary(self, export):
        events = read_events(export)
        assert events[0]["event"] == "run_header"
        assert events[0]["protocol"] == "crash-multi"
        assert events[-1]["event"] == "run_summary"
        assert events[-1]["correct"] is True

    def test_contains_the_query_timeline(self, export):
        events = read_events(export)
        kinds = {entry["event"] for entry in events}
        assert {"query", "send", "deliver", "phase", "cycle", "crash",
                "terminate", "wake", "proc_start"} <= kinds


class TestSummary:
    def test_summary_reports_run_and_phases(self, export):
        code, text = run_cli(["trace", "summary", str(export)])
        assert code == 0
        assert "protocol=crash-multi" in text
        assert "correct=True" in text
        assert "per-phase queries:" in text
        assert "adversary" in text

    def test_phase_attribution_by_replay(self, export):
        histogram = phase_histogram(read_events(export))
        # crash-multi queries exactly once per peer, in phase 1 stage 1.
        assert set(histogram) == {"p1/s1"}
        count, bits = histogram["p1/s1"]
        assert count == 8 and bits == 256

    def test_summary_of_empty_stream(self):
        assert render_summary([]) == "(empty export)"

    def test_per_peer_query_bits_for_every_peer(self):
        loads = per_peer_block(render_summary(recorded(**BALANCED)))
        assert loads == {pid: 16 for pid in range(4)}

    def test_per_peer_block_matches_the_report(self):
        # Peer 0 crashes before its first send: the block lists the
        # three honest survivors, with the report's loads.
        adversary = ComposedAdversary(
            faults=CrashAdversary(crashes={0: CrashAfterSends(0)}),
            latency=UniformRandomDelay())
        with using(RecordingTelemetry()) as recording:
            result = run_download(
                n=4, ell=400, peer_factory=CrashMultiDownloadPeer.factory(),
                adversary=adversary, seed=4)
        assert result.download_correct
        loads = per_peer_block(render_summary(recording.events))
        assert loads == dict(result.report.per_peer_query_bits)
        assert sorted(loads) == [1, 2, 3]

    def test_summary_digests_net_transport_events(self):
        # A net-backend export has no run_header/run_summary envelope;
        # the summary must still digest the transport events instead
        # of claiming the export is empty.
        events = [
            {"event": "net_connect", "t": 0.1, "proc": "peer-0:src0",
             "addr": "/tmp/src.sock"},
            {"event": "net_proxy_drop", "t": 0.2, "link": "src",
             "direction": "c2s"},
            {"event": "net_proxy_drop", "t": 0.3, "link": "src",
             "direction": "s2c"},
            {"event": "net_retry", "t": 0.4, "proc": "peer-0",
             "rid": "p0:1", "attempt": 2},
        ]
        text = render_summary(events)
        assert text.startswith("net        : ")
        assert "1 connect" in text
        assert "2 proxy_drop" in text
        assert "1 retry" in text


class TestTimeline:
    def test_timeline_rows_and_roles(self, export):
        code, text = run_cli(["trace", "timeline", str(export),
                              "--width", "40"])
        assert code == 0
        lines = text.splitlines()
        assert len(lines) == 9  # legend + 8 peers
        assert sum(1 for line in lines if line.endswith(" crash")) == 4
        assert sum(1 for line in lines if line.endswith(" ok")) == 4

    def test_peer_filter(self, export):
        events = read_events(export)
        text = render_timeline(events, peers=[0, 7])
        assert len(text.splitlines()) == 3

    def test_has_one_row_per_peer(self):
        assert sorted(rows(render_timeline(recorded(**BALANCED)))) == \
            [0, 1, 2, 3]

    def test_marks_terminations(self):
        text = render_timeline(recorded(**BALANCED))
        assert all("#" in row for row in rows(text).values())

    def test_marks_crashes(self):
        adversary = ComposedAdversary(
            faults=CrashAdversary(crashes={2: CrashAtTime(1.0)}),
            latency=UniformRandomDelay())
        text = render_timeline(recorded(
            **dict(BALANCED, peer_factory=CrashMultiDownloadPeer.factory(),
                   adversary=adversary)))
        crashed = rows(text)[2]
        assert "X" in crashed
        assert crashed.endswith(" crash")

    @pytest.mark.parametrize("width", [3, 30])
    def test_custom_width(self, width):
        text = render_timeline(recorded(**BALANCED), width=width)
        for row in rows(text).values():
            assert row.count("|") == 2
            assert len(row.split("|")[1]) == width

    def test_byzantine_role_shown(self):
        adversary = ComposedAdversary(
            faults=ByzantineAdversary(
                corrupted={1}, strategy_factory=lambda pid: SilentStrategy()),
            latency=UniformRandomDelay())
        text = render_timeline(recorded(
            n=5, ell=50, seed=1, adversary=adversary,
            peer_factory=ByzCommitteeDownloadPeer.factory(block_size=10)))
        roles = {pid: row.split()[-1] for pid, row in rows(text).items()}
        assert roles == {0: "ok", 1: "byz", 2: "ok", 3: "ok", 4: "ok"}

    def test_ok_role_for_honest(self):
        text = render_timeline(recorded(
            n=3, ell=12, peer_factory=NaiveDownloadPeer.factory(), seed=2))
        assert all(row.endswith(" ok") for row in rows(text).values())

    def test_timeline_with_no_messages(self):
        text = render_timeline(recorded(
            n=2, ell=4, peer_factory=NaiveDownloadPeer.factory(), seed=3))
        assert all("+" not in row for row in rows(text).values())
        assert all("#" in row for row in rows(text).values())

    def test_the_source_is_never_a_row(self):
        # A run stopped early has no run_summary, so the rows come from
        # the events, where a source response's ``src`` is the source.
        with using(RecordingTelemetry()) as recording:
            with pytest.raises(BudgetExceeded):
                Simulation(n=3, ell=16, seed=1,
                           peer_factory=NaiveDownloadPeer.factory()
                           ).run(max_events=4)
        assert not recording.events_of("run_summary")
        assert sorted(rows(render_timeline(recording.events))) == [0, 1, 2]


class TestDiff:
    def test_identical_runs_diff_clean(self, export, tmp_path):
        other = tmp_path / "again.jsonl"
        assert main(RUN_ARGS + ["--telemetry", str(other)],
                    out=io.StringIO()) == 0
        code, text = run_cli(["trace", "diff", str(export), str(other)])
        assert code == 0
        assert text.startswith("identical")

    def test_divergence_found_and_exit_code_set(self, export, tmp_path):
        other = tmp_path / "seed9.jsonl"
        argv = [arg if arg != "7" else "9" for arg in RUN_ARGS]
        main(argv + ["--telemetry", str(other)], out=io.StringIO())
        code, text = run_cli(["trace", "diff", str(export), str(other)])
        assert code == 1
        assert "divergence" in text

    def test_wall_clock_fields_ignored(self):
        a = [{"event": "span_end", "name": "x", "wall_ms": 1.0}]
        b = [{"event": "span_end", "name": "x", "wall_ms": 99.0}]
        identical, _ = diff_streams(a, b)
        assert identical


class TestFlame:
    def test_folded_file_written(self, export, tmp_path):
        target = tmp_path / "run.folded"
        code, text = run_cli(["trace", "flame", str(export),
                              "--out", str(target)])
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert stack.startswith("crash-multi;peer-")
            assert int(weight) > 0

    def test_event_weighting(self, export):
        events = read_events(export)
        by_bits = folded_stacks(events, weight="bits")
        by_events = folded_stacks(events, weight="events")
        assert set(by_bits) == set(by_events)
        query_stacks = [stack for stack in by_events
                        if stack.endswith(";query")]
        assert all(by_events[stack] == 1 for stack in query_stacks)

    def test_unknown_weight_rejected(self):
        with pytest.raises(ValueError):
            folded_stacks([], weight="calories")


class TestSweepExport:
    def test_sweep_telemetry_round_trips(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        code, _ = run_cli([
            "sweep", "--protocol", "crash-multi", "--fault-model", "crash",
            "--beta", "0.5", "--n", "6", "--ell", "64", "--repeats", "1",
            "--axis", "beta", "--values", "0.1,0.3", "--no-cache",
            "--telemetry", str(path)])
        assert code == 0
        events = read_events(path)
        assert events[0]["event"] == "sweep_header"
        assert events[0]["points"] == 2
        summary = events[-1]
        assert summary["event"] == "sweep_summary"
        assert summary["tasks_done"] == 2
        assert summary["tasks_failed"] == 0
        # workers=1 runs in-process, so the runs' own events are there.
        assert any(entry["event"] == "run_summary" for entry in events)
