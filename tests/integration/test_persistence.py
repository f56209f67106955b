"""Tests for JSON persistence of runs and outcomes."""

import json

import pytest

from repro.experiments import ExperimentSpec, run_experiment
from repro.persistence import (
    SCHEMA_VERSION,
    load_outcomes,
    outcome_from_dict,
    outcome_to_dict,
    report_from_dict,
    report_to_dict,
    save_outcomes,
    summarize_run,
)
from repro.protocols import BalancedDownloadPeer
from repro.sim import run_download


def small_run():
    return run_download(n=4, ell=64,
                        peer_factory=BalancedDownloadPeer.factory(), seed=1)


class TestReportRoundTrip:
    def test_round_trip_preserves_every_field(self):
        report = small_run().report
        restored = report_from_dict(report_to_dict(report))
        assert restored == report

    def test_dict_is_json_serializable(self):
        json.dumps(report_to_dict(small_run().report))


class TestRunSummary:
    def test_summary_carries_the_measurements(self):
        result = small_run()
        summary = summarize_run(result)
        assert summary["schema"] == SCHEMA_VERSION
        assert summary["download_correct"] is True
        assert summary["ell"] == 64
        assert summary["report"]["query_complexity"] == 16
        json.dumps(summary)

    def test_summary_drops_bulky_payloads(self):
        summary = summarize_run(small_run())
        assert "outputs" not in summary
        assert "trace" not in summary


class TestOutcomePersistence:
    def outcome(self):
        return run_experiment(ExperimentSpec(
            protocol="balanced", n=4, ell=64, repeats=2))

    def test_round_trip(self):
        outcome = self.outcome()
        assert outcome_from_dict(outcome_to_dict(outcome)) == outcome

    def test_save_and_load(self, tmp_path):
        outcomes = [self.outcome()]
        path = tmp_path / "outcomes.json"
        save_outcomes(outcomes, path)
        assert load_outcomes(path) == outcomes

    def test_file_is_stable_json(self, tmp_path):
        path = tmp_path / "outcomes.json"
        save_outcomes([self.outcome()], path)
        save_again = tmp_path / "again.json"
        save_outcomes([self.outcome()], save_again)
        assert path.read_text() == save_again.read_text()

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 999, "outcomes": []}))
        with pytest.raises(ValueError, match="schema"):
            load_outcomes(path)

    @pytest.mark.parametrize("field, value", [
        ("runs", "two"), ("correct_runs", None), ("failed_runs", True),
        ("mean_query_complexity", "x"), ("max_query_complexity", -5),
    ])
    def test_ill_typed_measurement_names_the_field(self, tmp_path,
                                                   field, value):
        path = tmp_path / "outcomes.json"
        save_outcomes([self.outcome()], path)
        payload = json.loads(path.read_text())
        payload["outcomes"][0][field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=field):
            load_outcomes(path)

    def test_more_settled_runs_than_runs_rejected(self):
        stored = outcome_to_dict(self.outcome())
        stored["failed_runs"] = 1  # 2 correct + 1 failed > 2 runs
        with pytest.raises(ValueError, match="runs"):
            outcome_from_dict(stored)

    def test_optional_fields_keep_their_defaults(self):
        # Files written before the resilience layer / round measure.
        stored = outcome_to_dict(self.outcome())
        for later in ("failed_runs", "failures", "mean_round_complexity"):
            del stored[later]
        assert outcome_from_dict(stored) == self.outcome()
