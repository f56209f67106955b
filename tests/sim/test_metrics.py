"""Unit tests for complexity accounting."""

import pytest

from repro.sim.metrics import MetricsCollector


class TestQueryAccounting:
    def test_queries_accumulate_per_peer(self):
        metrics = MetricsCollector()
        metrics.record_query(0, 10)
        metrics.record_query(0, 5)
        metrics.record_query(1, 3)
        per_peer = metrics.report(honest=[0, 1]).per_peer_query_bits
        assert per_peer == {0: 15, 1: 3}

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            MetricsCollector().record_query(0, -1)

    def test_unqueried_peer_reads_zero(self):
        per_peer = MetricsCollector().report(honest=[9]).per_peer_query_bits
        assert per_peer == {9: 0}

    def test_queried_bits_of_has_no_in_repo_callers(self):
        # Deprecated in PR 4, removed on schedule (2026.10): the
        # accessor is gone and nothing in the library mentions it.
        import pathlib

        import repro
        assert not hasattr(MetricsCollector, "queried_bits_of")
        root = pathlib.Path(repro.__file__).resolve().parent
        offenders = [
            str(path.relative_to(root))
            for path in sorted(root.rglob("*.py"))
            if "queried_bits_of" in path.read_text(encoding="utf-8")]
        assert offenders == []


class TestReport:
    def build(self):
        metrics = MetricsCollector()
        for pid, bits in ((0, 100), (1, 200), (2, 999)):
            metrics.record_query(pid, bits)
        for pid in (0, 1, 2):
            metrics.record_start(pid, 0.0)
            metrics.record_message(pid, 64)
        metrics.record_termination(0, 5.0)
        metrics.record_termination(1, 7.0)
        metrics.record_termination(2, 100.0)
        return metrics

    def test_query_complexity_is_max_over_honest(self):
        report = self.build().report(honest=[0, 1])
        assert report.query_complexity == 200

    def test_faulty_peers_excluded_everywhere(self):
        report = self.build().report(honest=[0, 1])
        assert report.total_query_bits == 300
        assert report.message_complexity == 2
        assert report.time_complexity == 7.0

    def test_time_spans_start_to_last_termination(self):
        metrics = self.build()
        metrics.record_start(1, 2.0)
        report = metrics.report(honest=[0, 1])
        assert report.time_complexity == 7.0  # min start still 0.0

    def test_empty_honest_set(self):
        report = self.build().report(honest=[])
        assert report.query_complexity == 0
        assert report.time_complexity == 0.0

    def test_per_peer_breakdowns(self):
        report = self.build().report(honest=[0, 2])
        assert report.per_peer_query_bits == {0: 100, 2: 999}
        assert report.per_peer_messages == {0: 1, 2: 1}

    def test_str_is_readable(self):
        text = str(self.build().report(honest=[0, 1, 2]))
        assert "Q=999" in text and "M=3" in text
