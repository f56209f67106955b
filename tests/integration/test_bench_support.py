"""Unit tests for the benchmark scripts' shared table rendering."""

import sys
import pathlib

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))

from benchmarks.support import Row, print_table  # noqa: E402


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

