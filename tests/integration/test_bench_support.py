"""Unit tests for the benchmark harness's shared machinery."""

import sys
import pathlib

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))

from benchmarks.support import (  # noqa: E402
    Row,
    byzantine_setup,
    crash_setup,
    measure,
    print_table,
)
from repro.adversary import ComposedAdversary, UniformRandomDelay  # noqa: E402
from repro.protocols import NaiveDownloadPeer  # noqa: E402


class TestRow:
    def test_cell_formats_floats(self):
        row = Row("x", {"a": 1.23456, "b": 7, "c": "text"})
        assert row.cell("a") == "1.23"
        assert row.cell("b") == "7"
        assert row.cell("c") == "text"

    def test_missing_cell_is_empty(self):
        assert Row("x").cell("nope") == ""


class TestPrintTable:
    def test_renders_all_rows_and_columns(self, capsys):
        print_table("demo", ["q", "ok"],
                    [Row("first", {"q": 10, "ok": "3/3"}),
                     Row("second", {"q": 2.5, "ok": "1/3"})])
        output = capsys.readouterr().out
        assert "=== demo ===" in output
        assert "first" in output and "second" in output
        assert "2.50" in output and "3/3" in output

    def test_columns_aligned(self, capsys):
        print_table("demo", ["value"],
                    [Row("a", {"value": 1}), Row("bb", {"value": 100})])
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if "|" in line]
        assert len({len(line) for line in lines}) == 1


class TestSetups:
    def test_crash_setup_zero_beta_is_latency_only(self):
        assert isinstance(crash_setup(0.0), UniformRandomDelay)

    def test_crash_setup_composes_faults(self):
        assert isinstance(crash_setup(0.5), ComposedAdversary)

    def test_byzantine_setup_zero_beta_is_latency_only(self):
        assert isinstance(byzantine_setup(0.0), UniformRandomDelay)


class TestMeasure:
    def test_averages_over_repeats(self):
        measured = measure(n=4, ell=64,
                           peer_factory=NaiveDownloadPeer.factory(),
                           seed=1, repeats=3)
        assert measured["runs"] == 3
        assert measured["correct"] == 3
        assert measured["Q"] == 64
        assert measured["Q_max"] == 64

    def test_distinct_seeds_per_repeat(self):
        # Repeats must not silently rerun the same seed: with random
        # input data the total events can differ across repeats under
        # an async adversary; at minimum the call must not crash and
        # must honour the repeat count.
        measured = measure(n=4, ell=64,
                           peer_factory=NaiveDownloadPeer.factory(),
                           adversary=UniformRandomDelay(), seed=2,
                           repeats=2)
        assert measured["runs"] == 2
