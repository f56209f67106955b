"""The tournament league: cells, rankings, exemplars, journal resume.

The fixture league is deterministic and small: 2 adversaries x
2 protocols x 2 topologies x 2 repeats at n=5, ell=32.  With two
static Byzantine corruptions the unhardened ``balanced`` protocol
downloads *wrong* on every seed, so the league always captures
violation exemplars — and every exemplar must replay.
"""

import dataclasses

import pytest

from repro.execution import CODE_VERSION, RetryPolicy
from repro.execution.retry import TaskFailure
from repro.experiments import ExperimentSpec, execute_repeat
from repro.tournament import (
    TournamentConfig,
    cell_spec,
    get_adversary,
    render_league,
    run_tournament,
)

CONFIG = TournamentConfig(
    protocols=("naive", "balanced"),
    adversaries=("none", "byz-wrong-bits"),
    topologies=("complete", "ring"),
    n=5, ell=32, repeats=2, base_seed=0)


@pytest.fixture(scope="module")
def league():
    return run_tournament(CONFIG)


class TestCellSpec:
    def test_cell_is_an_ordinary_spec(self):
        spec = cell_spec(CONFIG, get_adversary("byz-wrong-bits"),
                         "balanced", "ring")
        assert spec == ExperimentSpec(
            protocol="balanced", n=5, ell=32, fault_model="byzantine",
            beta=0.4, strategy="wrong-bits", repeats=2, base_seed=0,
            topology="ring")

    def test_empty_axes_fail_loudly(self):
        for broken in (TournamentConfig(protocols=()),
                       TournamentConfig(topologies=()),
                       TournamentConfig(adversaries=("no-such",))):
            with pytest.raises((ValueError, KeyError)):
                run_tournament(broken)


class TestLeague:
    def test_grid_is_complete(self, league):
        keys = {(c.adversary, c.protocol, c.topology)
                for c in league.cells}
        assert len(league.cells) == 8
        assert keys == {(a, p, t)
                        for a in ("none", "byz-wrong-bits")
                        for p in ("naive", "balanced")
                        for t in ("complete", "ring")}

    def test_success_rates_and_medians(self, league):
        for cell in league.cells:
            assert cell.outcome.runs == 2
            if cell.adversary == "none" or cell.protocol == "naive":
                assert cell.success_rate == 1.0
                assert cell.violation is None
            else:  # byz-wrong-bits vs balanced: wrong on every seed
                assert cell.success_rate == 0.0
            if cell.outcome.failed_runs == 0:
                assert cell.median_queries > 0
                assert cell.median_time > 0

    def test_topology_changes_messages_not_queries(self, league):
        by_key = {(c.adversary, c.protocol, c.topology): c
                  for c in league.cells}
        complete = by_key[("none", "balanced", "complete")]
        ring = by_key[("none", "balanced", "ring")]
        assert ring.median_queries == complete.median_queries
        assert ring.median_messages > complete.median_messages

    def test_rankings_are_ordered_and_deterministic(self, league):
        adversaries = league.adversary_ranking()
        assert [name for name, _ in adversaries] == \
            ["byz-wrong-bits", "none"]
        rates = [rate for _, rate in adversaries]
        assert rates == sorted(rates)  # strongest (lowest) first
        protocols = league.protocol_ranking()
        assert [name for name, _ in protocols] == ["naive", "balanced"]
        assert [rate for _, rate in protocols] == \
            sorted((rate for _, rate in protocols), reverse=True)

    def test_violation_exemplars_replay(self, league):
        violations = league.violations()
        assert len(violations) == 2  # byz vs balanced, both topologies
        for cell in violations:
            exemplar = cell.violation
            assert exemplar.seed == cell.spec.seed_for(exemplar.repeat)
            record = execute_repeat(cell.spec, exemplar.repeat)
            assert not record.correct  # the break reproduces


def _ring_repeat_one_always_fails(payload):
    spec, repeat = payload
    if spec.topology == "ring" and repeat == 1:
        raise RuntimeError("boom")
    return execute_repeat(spec, repeat)


class TestFailedRepeats:
    def test_a_failure_is_named_after_its_repeat(self, monkeypatch):
        # The league's fourth task overall; the record says which
        # repeat of its cell it was, as sweeps and served jobs do.
        monkeypatch.setattr("repro.execution.parallel._spec_repeat_task",
                            _ring_repeat_one_always_fails)
        complete, ring = run_tournament(TournamentConfig(
            protocols=("naive",), adversaries=("none",),
            topologies=("complete", "ring"), n=5, ell=32, repeats=2,
            policy=RetryPolicy(max_attempts=2, base_delay=0.0,
                               jitter=0.0))).cells
        assert complete.outcome.failures == ()
        assert ring.outcome.failures == (TaskFailure(
            task="repeat-1", error_type="RuntimeError", message="boom",
            attempts=2),)
        assert ring.success_rate == 0.5 and ring.violation is None


class TestJournalResume:
    def test_second_run_replays_everything(self, tmp_path):
        path = str(tmp_path / "league.jsonl")
        config = TournamentConfig(
            protocols=("naive",), adversaries=("none",),
            topologies=("complete", "ring"), n=5, ell=32, repeats=2,
            base_seed=0, journal_path=path)
        first = run_tournament(config)
        assert first.journal_stats["appended"] == 4
        assert first.journal_stats["replayed"] == 0
        second = run_tournament(config)
        assert second.journal_stats["appended"] == 0
        assert second.journal_stats["replayed"] == 4
        assert [(c.success_rate, c.median_queries, c.median_messages)
                for c in first.cells] == \
            [(c.success_rate, c.median_queries, c.median_messages)
             for c in second.cells]


#: What the commit before the league moved onto the engine's sweep plan
#: wrote for this league (journal) and printed for it (report).
PARENT_LEAGUE = TournamentConfig(
    protocols=("naive",), adversaries=("none",),
    topologies=("complete", "ring"), n=4, ell=32, repeats=2, base_seed=0)
PARENT_LEAGUE_JOURNAL = """\
{"key": "e31aacc0bdcc2b680274e917c19dd9660d5e56cbbc9528655ddbcbc3dc16aabe", "record": {"correct": true, "messages": 0, "queries": 32, "time": 0.7711233532541508}, "repeat": 0, "salt": "2026.10.1", "schema": 1}
{"key": "e31aacc0bdcc2b680274e917c19dd9660d5e56cbbc9528655ddbcbc3dc16aabe", "record": {"correct": true, "messages": 0, "queries": 32, "time": 0.9016067252748275}, "repeat": 1, "salt": "2026.10.1", "schema": 1}
{"key": "f666926830bc2869f15580331113ea8b23858cf208ddc6658c9deff1da4fb08b", "record": {"correct": true, "messages": 0, "queries": 32, "time": 0.8186946238240093}, "repeat": 0, "salt": "2026.10.1", "schema": 1}
{"key": "f666926830bc2869f15580331113ea8b23858cf208ddc6658c9deff1da4fb08b", "record": {"correct": true, "messages": 0, "queries": 32, "time": 0.9937174693802754}, "repeat": 1, "salt": "2026.10.1", "schema": 1}
"""
PARENT_LEAGUE_REPORT = """\
adversary league (strongest opponent first)
----------------------------------------------
 1. none                     protocols score 100.0% against it

protocol ranking (most robust first)
----------------------------------------------
 1. naive                    mean success 100.0%

cells
----------------------------------------------
adversary | protocol | topology |    ok |    med Q |    med M |    med T
none      | naive    | complete |   2/2 |       32 |        0 |     0.84
none      | naive    | ring     |   2/2 |       32 |        0 |     0.91

violations: none"""


class TestParentWrittenJournal:
    def test_a_league_interrupted_at_the_parent_resumes_here(
            self, tmp_path):
        assert CODE_VERSION == "2026.10.1"  # else re-record the fixture
        path = tmp_path / "league.jsonl"
        lines = PARENT_LEAGUE_JOURNAL.splitlines(True)
        path.write_text("".join(lines[:3]), encoding="utf-8")
        result = run_tournament(dataclasses.replace(
            PARENT_LEAGUE, journal_path=str(path)))
        assert result.journal_stats == {"appended": 1, "replayed": 3,
                                        "corrupt": 0}
        # The one line owed is the line the parent wrote, and the
        # report reads the same.
        assert path.read_text(encoding="utf-8") == PARENT_LEAGUE_JOURNAL
        assert render_league(result) == PARENT_LEAGUE_REPORT
