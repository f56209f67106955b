"""Three executors, one plan — checked differentially.

``ParallelRunner.run_many``, the league's rows-via-the-runner and the
``JobQueue`` all drive :class:`repro.execution.plan.SweepPlan`; what
differs is only how the owed tasks get executed.  Hypothesis draws a
small sweep and a starting state — some points pre-cached, a journal
cut after k records, a torn journal line, a corrupt cache entry — and
each front door finishes it from its own copy of that state.  They must
agree on the outcomes, on the journal lines (as a multiset: completion
order is the executor's business) and on every cache entry's bytes.

The cross-door test then passes one journal from door to door: a
league interrupted mid-run is finished by a served job, whose journal
finishes a sweep, and the league reads the result back without
executing anything.
"""

import asyncio
import shutil
import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.execution import ParallelRunner, ResultCache, SweepJournal
from repro.experiments import ExperimentSpec, aggregate_outcome
from repro.obs import RecordingTelemetry, using
from repro.service.jobs import JobRequest, job_key
from repro.service.queue import JobQueue
from repro.service.store import JobStore
from repro.tournament import (TournamentConfig, cell_spec, get_adversary,
                              run_tournament)

COMMON = dict(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])

TORN = '{"key": "3f9a", "record": {"correct": tr\n'


@st.composite
def scenarios(draw):
    """A sweep request plus the on-disk state its run starts from."""
    base = ExperimentSpec(
        protocol=draw(st.sampled_from(["naive", "balanced"])), n=4,
        ell=draw(st.sampled_from([16, 32])),
        repeats=draw(st.integers(min_value=1, max_value=3)),
        base_seed=draw(st.integers(min_value=0, max_value=3)))
    axis = draw(st.sampled_from([None, "base_seed", "ell"]))
    values = ()
    if axis is not None:
        # Repeated values are legal: two points, one spec identity.
        values = tuple(draw(st.lists(
            st.sampled_from([16, 24, 32] if axis == "ell" else [0, 1, 2]),
            min_size=1, max_size=3)))
    request = JobRequest(spec=base, axis=axis, values=values)
    indices = st.integers(min_value=0,
                          max_value=len(request.points()) - 1)
    return dict(
        request=request,
        cached=draw(st.sets(indices)),
        corrupt=draw(st.none() | indices),
        cut=draw(st.integers(min_value=0,
                             max_value=request.total_tasks)),
        torn=draw(st.booleans()))


def entries(cache_dir: Path) -> dict:
    return ({path.name: path.read_bytes()
             for path in cache_dir.iterdir()}
            if cache_dir.is_dir() else {})


def lines(journal_path: Path) -> list:
    return journal_path.read_text(encoding="utf-8").splitlines(True)


def seed_state(root: Path, journal_path: Path, scenario, reference):
    """Write the drawn starting state; returns the cache directory."""
    points = scenario["request"].points()
    names = [ResultCache(root).path_for(point).name for point in points]
    cache_dir = root / "cache"
    cache_dir.mkdir(parents=True)
    for index in scenario["cached"]:
        (cache_dir / names[index]).write_bytes(
            reference["entries"][names[index]])
    if scenario["corrupt"] is not None:
        (cache_dir / names[scenario["corrupt"]]).write_bytes(b'{"schema"')
    kept = reference["lines"][:scenario["cut"]]
    journal_path.parent.mkdir(parents=True, exist_ok=True)
    journal_path.write_text(
        "".join(kept) + (TORN if scenario["torn"] else ""),
        encoding="utf-8")
    return cache_dir


def serve(store_root: Path, request: JobRequest, cache):
    """One job through a fresh queue: (job, outcomes, queue stats)."""
    async def main():
        queue = JobQueue(JobStore(store_root), pool=1, cache=cache)
        await queue.start()
        try:
            job, _ = queue.submit(request)
            async for _seq, _entry in queue.stream(job.id):
                pass
            return job, queue.result(job.id), queue.stats
        finally:
            await queue.close()
    return asyncio.run(asyncio.wait_for(main(), 60))


@settings(**COMMON)
@given(scenario=scenarios())
def test_three_executors_one_plan(scenario):
    request = scenario["request"]
    points = request.points()
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        # The uninterrupted run: every line and entry there is to have.
        full_cache = ResultCache(root / "full" / "cache")
        full_journal = SweepJournal(root / "full" / "j.jsonl")
        reference = dict(outcomes=ParallelRunner(
            cache=full_cache, journal=full_journal).run_many(points))
        reference["entries"] = entries(full_cache.directory)
        reference["lines"] = lines(full_journal.path)
        assert len(reference["lines"]) == request.total_tasks

        # Door 1: run_many.
        journal = SweepJournal(root / "sweep" / "j.jsonl")
        cache = ResultCache(seed_state(root / "sweep", journal.path,
                                       scenario, reference))
        # A point starts as a hit iff its entry is there and intact.
        names = [cache.path_for(point).name for point in points]
        seeded = entries(cache.directory)
        hits = {index for index, name in enumerate(names)
                if seeded.get(name) == reference["entries"][name]}
        swept = ParallelRunner(cache=cache,
                               journal=journal).run_many(points)
        sweep_state = (Counter(lines(journal.path)),
                       entries(cache.directory), cache.stats)

        # Door 2: the league's way — the settled plan and its rows.
        journal = SweepJournal(root / "rows" / "j.jsonl")
        cache = ResultCache(seed_state(root / "rows", journal.path,
                                       scenario, reference))
        plan = ParallelRunner(cache=cache, journal=journal).settle(points)
        rowed = plan.outcomes()
        assert plan.cache_hits == len(hits)
        for index, point in enumerate(points):
            if index not in hits:
                assert aggregate_outcome(
                    point, plan.rows(index)) == rowed[index]
        rows_state = (Counter(lines(journal.path)),
                      entries(cache.directory), cache.stats)

        # Door 3: a served job.
        store = JobStore(root / "svc")
        journal_path = store.journal_for(job_key(request)).path
        cache = ResultCache(seed_state(root / "served", journal_path,
                                       scenario, reference))
        job, served, stats = serve(store.root, request, cache)
        served_state = (Counter(lines(journal_path)),
                        entries(cache.directory), cache.stats)

        assert swept == rowed == served == reference["outcomes"]
        assert sweep_state == rows_state == served_state
        assert sweep_state[1] == reference["entries"]
        assert job.state == "done" and job.done == job.total
        assert (stats.cache_hits, stats.journal_replayed,
                stats.tasks_executed) == (plan.cache_hits, plan.replayed,
                                          len(plan.tasks))


LEAGUE = dict(protocols=("naive",), adversaries=("none",),
              topologies=("complete", "ring"), n=4, ell=32, repeats=3)


def test_a_journal_started_by_one_door_is_finished_by_another(tmp_path):
    """league → served job → sweep → league, one journal, and no door
    re-executes a repeat an earlier one checkpointed."""
    league_path = tmp_path / "league.jsonl"
    config = TournamentConfig(journal_path=str(league_path), **LEAGUE)
    cells = [cell_spec(config, get_adversary("none"), "naive", topology)
             for topology in LEAGUE["topologies"]]
    request = JobRequest(spec=cells[0], axis="topology",
                         values=LEAGUE["topologies"])
    assert request.points() == cells
    first = run_tournament(config)
    assert first.journal_stats == {"appended": 6, "replayed": 0,
                                   "corrupt": 0}
    written = lines(league_path)

    # The league died after two repeats; a served job finishes it.
    store = JobStore(tmp_path / "svc")
    served_path = store.journal_for(job_key(request)).path
    served_path.parent.mkdir(parents=True)
    served_path.write_text("".join(written[:2]), encoding="utf-8")
    job, served, stats = serve(store.root, request, None)
    assert (stats.journal_replayed, stats.tasks_executed) == (2, 4)
    assert Counter(lines(served_path)) == Counter(written)

    # The server died one repeat short; a sweep finishes it.
    sweep_journal = SweepJournal(tmp_path / "sweep.jsonl")
    sweep_journal.path.write_text("".join(lines(served_path)[:5]),
                                  encoding="utf-8")
    recording = RecordingTelemetry()
    with using(recording):
        swept = ParallelRunner(journal=sweep_journal).run_many(cells)
    assert sweep_journal.stats.as_dict() == {
        "appended": 1, "replayed": 5, "corrupt": 0}
    assert recording.counter_value("tasks_done") == 1
    assert Counter(lines(sweep_journal.path)) == Counter(written)

    # And the league reads the sweep's journal back whole.
    shutil.copy(sweep_journal.path, league_path)
    recording = RecordingTelemetry()
    with using(recording):
        again = run_tournament(config)
    assert again.journal_stats == {"appended": 0, "replayed": 6,
                                   "corrupt": 0}
    assert recording.counter_value("tasks_done") == 0
    assert again.cells == first.cells
    assert served == swept == [cell.outcome for cell in first.cells]


def test_a_fully_cached_job_reads_no_journal_and_reports_its_hits(
        tmp_path):
    """The plan's two rules, seen from the door that used to break
    them: all points cached ⇒ no ``journal_replay``; every hit is a
    ``cache_hit`` event and a ``cache_hits`` count."""
    request = JobRequest(
        spec=ExperimentSpec(protocol="naive", n=4, ell=32, repeats=2),
        axis="base_seed", values=(1, 2, 3))
    cache = ResultCache(tmp_path / "cache")
    ParallelRunner(cache=cache).run_many(request.points())
    recording = RecordingTelemetry()
    with using(recording):
        job, _outcomes, stats = serve(tmp_path / "svc", request, cache)
    assert job.state == "done" and stats.tasks_executed == 0
    assert recording.events_of("journal_replay") == []
    assert [entry["index"] for entry
            in recording.events_of("cache_hit")] == [0, 1, 2]
    assert recording.counter_value("cache_hits") == 3 == stats.cache_hits
    started, = recording.events_of("job_started")
    assert (started["tasks"], started["replayed"],
            started["cache_hits"]) == (0, 0, 3)
