"""Tests for the markdown report generator."""

import pytest

from repro.experiments import ExperimentSpec, sweep_experiment
from repro.reporting import (
    markdown_table,
    render_report,
    render_sweep,
)


def small_sweep():
    spec = ExperimentSpec(protocol="crash-multi", n=6, ell=120,
                          fault_model="crash", beta=0.5, repeats=1)
    return sweep_experiment(spec, axis="beta", values=[0.25, 0.5])


class TestMarkdownTable:
    def test_structure(self):
        table = markdown_table(["a", "bb"], [[1, 2.5], [30, True]])
        lines = table.splitlines()
        assert lines[0].startswith("| a")
        assert set(lines[1]) <= {"|", "-"}
        assert "2.50" in lines[2]
        assert "yes" in lines[3]

    def test_column_alignment(self):
        table = markdown_table(["col"], [[1], [100]])
        lines = table.splitlines()
        assert len(lines[2]) == len(lines[3])

    def test_empty_rows_render_header_only(self):
        table = markdown_table(["x"], [])
        assert len(table.splitlines()) == 2


class TestRenderSweep:
    def test_contains_axis_values_and_context(self):
        text = render_sweep(small_sweep(), axis="beta",
                            title="Beta sweep")
        assert "## Beta sweep" in text
        assert "0.25" in text and "0.5" in text
        assert "protocol `crash-multi`" in text

    def test_bound_column(self):
        outcomes = small_sweep()
        text = render_sweep(
            outcomes, axis="beta", title="With bound",
            bound=lambda spec: spec.ell / (spec.n - spec.t))
        assert "Q/bound" in text

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            render_sweep([], axis="beta", title="x")

    def test_deterministic(self):
        outcomes = small_sweep()
        first = render_sweep(outcomes, axis="beta", title="t")
        second = render_sweep(outcomes, axis="beta", title="t")
        assert first == second


class TestRenderReport:
    def test_assembles_sections(self):
        report = render_report(["## A\n\ncontent", "## B\n\nmore"],
                               title="My campaign")
        assert report.startswith("# My campaign\n")
        assert "## A" in report and "## B" in report
        assert report.endswith("\n")

    def test_end_to_end_with_persistence(self, tmp_path):
        from repro.persistence import load_outcomes, save_outcomes
        outcomes = small_sweep()
        path = tmp_path / "sweep.json"
        save_outcomes(outcomes, path)
        restored = load_outcomes(path)
        assert render_sweep(restored, axis="beta", title="t") \
            == render_sweep(outcomes, axis="beta", title="t")
