"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestList:
    def test_lists_every_protocol(self):
        code, output = run_cli("list")
        assert code == 0
        for name in ("naive", "crash-multi", "byz-committee",
                     "byz-two-cycle"):
            assert name in output


class TestRun:
    def test_fault_free_run(self):
        code, output = run_cli("run", "--protocol", "balanced",
                               "--n", "4", "--ell", "64")
        assert code == 0
        assert "correct    : True" in output
        assert "Q=16" in output

    def test_crash_run(self):
        code, output = run_cli("run", "--protocol", "crash-multi",
                               "--n", "8", "--ell", "200",
                               "--fault-model", "crash", "--beta", "0.5",
                               "--seed", "3")
        assert code == 0
        assert "correct    : True" in output

    def test_byzantine_run_with_strategy(self):
        code, output = run_cli("run", "--protocol", "byz-committee",
                               "--n", "9", "--ell", "90",
                               "--block-size", "9",
                               "--fault-model", "byzantine",
                               "--beta", "0.3", "--strategy", "equivocate")
        assert code == 0
        assert "correct    : True" in output

    def test_dynamic_run(self):
        code, output = run_cli("run", "--protocol", "byz-committee",
                               "--n", "9", "--ell", "90",
                               "--block-size", "9",
                               "--fault-model", "dynamic", "--beta", "0.2")
        assert code == 0
        assert "correct    : True" in output

    def test_synchronous_flag(self):
        code, output = run_cli("run", "--protocol", "naive",
                               "--n", "3", "--ell", "30", "--synchronous")
        assert code == 0
        assert "Q=30" in output

    def test_randomized_protocol_parameters(self):
        code, output = run_cli("run", "--protocol", "byz-two-cycle",
                               "--n", "30", "--ell", "600",
                               "--segments", "3", "--tau", "2")
        assert code == 0
        assert "correct    : True" in output

    def test_unknown_protocol_raises(self):
        with pytest.raises(KeyError):
            run_cli("run", "--protocol", "definitely-not-real")

    @pytest.mark.parametrize("argv, faulty, complexity", [
        ("--protocol balanced --n 6 --ell 96", [],
         "Q=16 bits/peer (total 96), M=30 msgs (33600 bits), T=1.66"),
        ("--protocol crash-multi --n 8 --ell 200 --fault-model crash "
         "--beta 0.5", [0, 2, 4, 6],
         "Q=57 bits/peer (total 202), M=204 msgs (243696 bits), T=6.58"),
        ("--protocol byz-committee --n 9 --ell 90 --block-size 9 "
         "--fault-model byzantine --beta 0.3 --strategy equivocate", [1, 2],
         "Q=54 bits/peer (total 342), M=304 msgs (31920 bits), T=1.79"),
        ("--protocol byz-committee --n 9 --ell 90 --block-size 9 "
         "--fault-model dynamic --beta 0.2", [],
         "Q=36 bits/peer (total 270), M=240 msgs (25200 bits), T=1.54"),
    ], ids=["none", "crash", "byzantine", "dynamic"])
    def test_the_run_is_the_specs(self, argv, faulty, complexity):
        # The adversary and factory are ``ExperimentSpec``'s; the
        # numbers are the ones the hand-built pair printed.
        code, output = run_cli("run", *argv.split(), "--seed", "5")
        assert code == 0
        assert f"faulty set : {faulty}\n" in output
        assert f"complexity : {complexity}\n" in output

    def test_a_fault_model_needs_a_fault_fraction(self):
        with pytest.raises(ValueError, match="beta > 0"):
            run_cli("run", "--protocol", "naive", "--fault-model", "crash")


class TestLowerBound:
    def test_lower_bound_command(self):
        code, output = run_cli("lower-bound", "--n", "10", "--ell", "100")
        assert code == 0
        assert "victim fooled  : True" in output


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--protocol", "naive",
                                       "--strategy", "nope"])


class TestSweep:
    def test_sweep_prints_table(self):
        code, output = run_cli("sweep", "--protocol", "crash-multi",
                               "--n", "8", "--ell", "200",
                               "--fault-model", "crash", "--beta", "0.5",
                               "--repeats", "1",
                               "--axis", "beta", "--values", "0.25,0.5")
        assert code == 0
        assert "mean Q" in output
        assert "0.25" in output and "0.5" in output

    def test_sweep_persists_json_and_markdown(self, tmp_path):
        json_path = tmp_path / "out.json"
        md_path = tmp_path / "report.md"
        code, output = run_cli(
            "sweep", "--protocol", "balanced", "--n", "4", "--ell", "64",
            "--repeats", "1", "--axis", "n", "--values", "4,8",
            "--json-out", str(json_path), "--markdown-out", str(md_path))
        assert code == 0
        from repro.persistence import load_outcomes
        outcomes = load_outcomes(json_path)
        assert [outcome.spec.n for outcome in outcomes] == [4, 8]
        report = md_path.read_text()
        assert report.startswith("# Experiment report")
        assert "balanced n sweep" in report

    def test_sweep_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            run_cli("sweep", "--protocol", "naive", "--axis", "flavor",
                    "--values", "1")

    def test_sweep_rejects_empty_values(self):
        with pytest.raises(ValueError, match="at least one"):
            run_cli("sweep", "--protocol", "naive", "--axis", "n",
                    "--values", " ")

    def test_sweep_topology_axis(self):
        code, output = run_cli(
            "sweep", "--protocol", "balanced", "--n", "4", "--ell", "64",
            "--repeats", "1", "--axis", "topology",
            "--values", "complete,star", "--no-cache")
        assert code == 0
        assert "complete" in output and "star" in output


class TestRetryFlags:
    @pytest.mark.parametrize("argv", [
        ("sweep", "--protocol", "naive", "--no-cache"), ("tournament",)])
    def test_negative_max_retries_exits_with_the_same_message(self, argv):
        with pytest.raises(SystemExit) as caught:
            run_cli(*argv, "--max-retries", "-1")
        assert caught.value.code == "--max-retries must be >= 0"


class TestTopologyRun:
    def test_run_accepts_topology(self):
        code, output = run_cli("run", "--protocol", "balanced",
                               "--n", "4", "--ell", "64",
                               "--topology", "star")
        assert code == 0
        assert "correct    : True" in output

    def test_run_rejects_infeasible_topology(self):
        with pytest.raises(ValueError, match="ring"):
            run_cli("run", "--protocol", "balanced", "--n", "2",
                    "--ell", "64", "--topology", "ring")


class TestTournament:
    def test_mini_league_reports_and_exports(self, tmp_path):
        jsonl_path = tmp_path / "league.jsonl"
        json_path = tmp_path / "league.json"
        code, output = run_cli(
            "tournament", "--adversaries", "none,byz-wrong-bits",
            "--protocols", "naive,balanced",
            "--topologies", "complete,star",
            "--n", "5", "--ell", "32", "--repeats", "2",
            "--jsonl-out", str(jsonl_path), "--json-out", str(json_path))
        assert code == 0  # violations are findings, not failures
        assert "adversary league (strongest opponent first)" in output
        assert "byz-wrong-bits beats balanced" in output
        import json
        lines = jsonl_path.read_text().splitlines()
        assert len(lines) == 8
        payload = json.loads(json_path.read_text())
        assert payload["kind"] == "tournament"
        assert payload["violations"] >= 1

    def test_fail_on_violation_gates_the_exit_code(self):
        code, _ = run_cli(
            "tournament", "--adversaries", "byz-wrong-bits",
            "--protocols", "balanced", "--topologies", "complete",
            "--n", "5", "--ell", "32", "--repeats", "1",
            "--fail-on-violation")
        assert code == 1

    def test_journal_resume_round_trip(self, tmp_path):
        journal = tmp_path / "league-journal.jsonl"
        argv = ("tournament", "--adversaries", "none",
                "--protocols", "naive", "--topologies", "complete",
                "--n", "4", "--ell", "32", "--repeats", "2",
                "--journal", str(journal))
        code, output = run_cli(*argv)
        assert code == 0
        assert "0 replayed / 2 appended" in output
        code, output = run_cli(*argv)
        assert code == 0
        assert "2 replayed / 0 appended" in output
