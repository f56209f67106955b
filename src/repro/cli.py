"""Command-line interface: run DR-model downloads from a shell.

Usage (installed as ``python -m repro``)::

    python -m repro list
    python -m repro run --protocol crash-multi --n 16 --ell 4096 \
        --fault-model crash --beta 0.5 --seed 7
    python -m repro run --protocol byz-committee --n 9 --ell 270 \
        --fault-model byzantine --beta 0.33 --strategy equivocate \
        --param block_size=9
    python -m repro sweep --protocol byz-committee --backend lowerbound \
        --n 10 --ell 200 --param claimed_t=2 --param block_size=10 \
        --repeats 3
    python -m repro sweep --protocol crash-multi --fault-model crash \
        --beta 0.5 --axis beta --values 0.1,0.3,0.5,0.7 \
        --workers 4 --markdown-out report.md
    python -m repro sweep --protocol byz-committee --backend sync \
        --workers 4 --resume --telemetry out.jsonl
    python -m repro run --protocol crash-multi --fault-model crash \
        --beta 0.5 --telemetry run.jsonl
    python -m repro trace summary run.jsonl
    python -m repro serve --port 8321 --pool 4
    python -m repro submit --protocol crash-multi --fault-model crash \
        --beta 0.5 --axis beta --values 0.1,0.3,0.5 --wait
    python -m repro status && python -m repro result <job-id>

``run``, ``sweep`` and ``submit`` read one flag set into one
:class:`~repro.experiments.ExperimentSpec` (:func:`spec_from_args`);
a protocol's parameters pass by constructor name through ``--param``,
and the backend rejects a key its class does not take.

``--telemetry out.jsonl`` records every schema event the run (or
sweep) emits — the query timeline, adversary decisions, scheduler
wakes — to a JSONL export (see docs/OBSERVABILITY.md); the ``trace``
subcommand family (``summary``/``timeline``/``diff``/``flame``)
inspects such exports.

Sweeps run through the parallel experiment engine: ``--workers N``
fans repeats and points over N processes (results are identical at any
worker count), previously computed points are reused from the on-disk
result cache (disable with ``--no-cache``; relocate with
``--cache-dir`` or ``$REPRO_CACHE_DIR``).  The engine is
fault-tolerant: every repeat runs under a retry policy
(``--max-retries``, ``--task-timeout``), failed repeats degrade into
the report instead of aborting the sweep (``--strict`` restores
fail-fast), and ``--resume`` checkpoints completed repeats to a
journal so an interrupted sweep picks up where it stopped.

``serve`` runs the same engine as a long-lived job server (HTTP API,
SSE progress, live dashboard, content-addressed dedup, journal-backed
restart); ``submit``/``status``/``result``/``cancel`` are its clients,
addressed via ``--server`` or ``$REPRO_SERVER`` — the operator guide
is docs/SERVICE.md.  Each subsystem registers its own subcommands
(``service/cli.py``, ``tournament/cli.py``, ``obs/trace_cli.py``).

The CLI is a thin veneer over the library; every option maps one-to-one
onto a constructor argument documented in the API.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
from typing import Optional, Sequence, get_type_hints

from repro.experiments.backends import all_backends
from repro.experiments.spec import _FAULT_MODELS, ADVERSARIES, ExperimentSpec
from repro.protocols import all_protocols
from repro.sim import run_download

#: Every ``--strategy`` name; which fault model or backend takes which
#: is the spec's check.
_STRATEGIES = sorted({name for _, name in ADVERSARIES})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed Download in the DR model — simulator CLI")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available protocols") \
        .set_defaults(handler=_command_list)

    # No spec-reading command takes a prefix for a flag: `--source-f`
    # must not read as `--source-faults`.
    run = subparsers.add_parser("run", help="run one download",
                                allow_abbrev=False)
    add_spec_arguments(run)
    run.add_argument("--profile", action="store_true",
                     help="profile the run with cProfile and print the pstats "
                          "top table to stderr (also: REPRO_PROFILE=1)")
    run.add_argument("--telemetry", metavar="PATH", default=None,
                     help="record the run's telemetry events to this JSONL "
                          "file (inspect with `repro trace`)")
    run.set_defaults(handler=_command_run)

    sweep = subparsers.add_parser(
        "sweep", help="sweep one experiment axis and print/persist a "
                      "report", allow_abbrev=False)
    add_spec_arguments(sweep)
    add_sweep_arguments(sweep)
    sweep.add_argument("--json-out", default=None,
                       help="persist outcomes to this JSON file")
    sweep.add_argument("--markdown-out", default=None,
                       help="write a markdown report here")
    sweep.add_argument("--workers", type=int, default=1,
                       help="processes to fan repeats/points over (1 = "
                            "in-process serial)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="recompute every point instead of reusing the "
                            "on-disk result cache")
    sweep.add_argument("--cache-dir", default=None,
                       help="result cache directory (default: "
                            "$REPRO_CACHE_DIR or ~/.cache/repro)")
    sweep.add_argument("--resume", action="store_true",
                       help="checkpoint completed repeats to a journal next "
                            "to the result cache and replay it on restart, so "
                            "an interrupted sweep resumes instead of "
                            "restarting")
    add_retry_arguments(sweep)
    sweep.add_argument("--strict", action="store_true",
                       help="abort on the first repeat that fails every retry "
                            "instead of reporting partial results")
    sweep.add_argument("--profile", action="store_true",
                       help="profile the sweep with cProfile and print the "
                            "pstats top table to stderr (in-process work only "
                            "— profile with --workers 1; also: "
                            "REPRO_PROFILE=1)")
    sweep.add_argument("--telemetry", metavar="PATH", default=None,
                       help="record the sweep's telemetry events (task "
                            "outcomes, cache hits, and — with --workers 1 — "
                            "every in-process run's events) to this JSONL "
                            "file")
    sweep.add_argument("--progress", action="store_true",
                       help="paint a live progress line to stderr "
                            "(done/failed/retried, cache hits, ETA)")
    sweep.set_defaults(handler=_command_sweep)

    from repro.obs.trace_cli import attach_trace_parser
    from repro.service.cli import attach_service_parser
    from repro.tournament.cli import attach_tournament_parser
    attach_tournament_parser(subparsers)
    attach_service_parser(subparsers)
    attach_trace_parser(subparsers)
    return parser


def add_spec_arguments(parser) -> None:
    """The flags naming one experiment, shared by `run`, `sweep` and
    `submit`; :func:`spec_from_args` reads them."""
    parser.add_argument("--protocol", required=True,
                        help="protocol name (see `repro list`)")
    parser.add_argument("--n", type=int, default=16, help="number of peers")
    parser.add_argument("--ell", type=int, default=4096,
                        help="input length in bits")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--fault-model", choices=_FAULT_MODELS, default="none")
    parser.add_argument("--beta", type=float, default=0.0,
                        help="fault fraction")
    parser.add_argument("--strategy", choices=_STRATEGIES,
                        default=ExperimentSpec.strategy,
                        help="adversary strategy (per fault model; "
                             "default %(default)s)")
    parser.add_argument("--synchronous", action="store_true",
                        help="unit latencies instead of the asynchronous "
                             "adversary (synchrony *emulated* inside the "
                             "async kernel; for round-native lockstep "
                             "execution use `sweep --backend sync`)")
    parser.add_argument("--sources", type=int, default=1,
                        help="number of external source endpoints (default 1: "
                             "the paper's trusted source)")
    parser.add_argument("--source-faults", default=None,
                        help="comma-separated per-endpoint fault specs, "
                             "kind[:param][@onset] — honest, "
                             "wrong-bits[:rate], stale[:rate], withhold, "
                             "slow[:factor]; unlisted endpoints are honest")
    parser.add_argument("--topology", default="complete",
                        help="peer-to-peer connectivity: complete (the "
                             "paper's model; default), ring, star, expander, "
                             "or random-dregular[:d]. Sparse graphs route "
                             "peer messages hop-by-hop (queries stay direct, "
                             "so Q is unchanged); sweepable via --axis "
                             "topology")
    parser.add_argument("--param", action="append", type=_param,
                        default=[], metavar="KEY=VALUE",
                        help="a protocol parameter by its constructor name, "
                             "repeatable; VALUE is read as JSON, else kept as "
                             "a string (block_size=9, num_segments=4, tau=3, "
                             "q=3, decode=majority, f=1; claimed_t on backend "
                             "lowerbound)")


def add_sweep_arguments(parser) -> None:
    """The flags of a repeated, swept experiment, shared by `sweep` and
    `submit`."""
    parser.add_argument("--backend", choices=sorted(all_backends()),
                        default="sim",
                        help="execution engine: 'sim' is the asynchronous "
                             "discrete-event simulator; 'sync' is the "
                             "round-native lockstep engine whose time measure "
                             "is an exact round count (this is NOT `run "
                             "--synchronous`, which merely pins unit "
                             "latencies inside the async kernel); "
                             "'lowerbound' runs Theorem 3.1's two-execution "
                             "construction; 'net' runs real "
                             "peers over Unix sockets behind the chaos proxy "
                             "(see --proxy-faults; time is wall clock)")
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--axis", default=None,
                        help="spec field to sweep (e.g. beta, n, ell); omit "
                             "together with --values to run the single "
                             "configured point")
    parser.add_argument("--values", default=None,
                        help="comma-separated axis values")
    parser.add_argument("--proxy-faults", default=None,
                        help="backend=net only: comma-separated chaos-proxy "
                             "fault specs, kind[:param] — drop[:rate], "
                             "dup[:rate], delay[:seconds], reorder[:rate], "
                             "disconnect[:rate]. Seeded per run; shakes the "
                             "wire without changing the experiment's seeds")


def add_retry_arguments(parser) -> None:
    """``--max-retries`` / ``--task-timeout``, read by
    :func:`retry_policy_for`."""
    parser.add_argument("--max-retries", type=int, default=2,
                        help="retries per repeat after the first attempt "
                             "(default 2; 0 disables)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        help="per-repeat wall-clock budget in seconds "
                             "(stalled repeats are killed and retried)")


def _param(raw: str) -> tuple:
    """``KEY=VALUE`` -> ``(KEY, VALUE)``, ``VALUE`` read as JSON when
    it parses (``tau=3`` is an int, ``decode=majority`` a string)."""
    key, equals, value = raw.partition("=")
    if not equals or not key:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {raw!r}")
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value


def split_commas(raw: Optional[str]) -> tuple:
    """``a, b,,c`` -> ``('a', 'b', 'c')``; ``None`` -> ``()``."""
    return tuple(part.strip() for part in (raw or "").split(",")
                 if part.strip())


def spec_from_args(args) -> ExperimentSpec:
    """The one place an :class:`ExperimentSpec` is built from argv."""
    backend = getattr(args, "backend", "sim")
    return ExperimentSpec(
        protocol=args.protocol, n=args.n, ell=args.ell,
        fault_model=args.fault_model, beta=args.beta,
        strategy=args.strategy,
        # backend="sync" *is* the synchronous model; `--synchronous`
        # on the async kernel is its unit-latency emulation (see
        # docs/MODEL.md).
        network=("synchronous" if args.synchronous or backend == "sync"
                 else "asynchronous"),
        protocol_params=dict(args.param),
        repeats=getattr(args, "repeats", 1), base_seed=args.seed,
        backend=backend, sources=args.sources,
        source_faults=split_commas(args.source_faults),
        proxy_faults=split_commas(getattr(args, "proxy_faults", None)),
        topology=args.topology)


def parse_axis_values(axis: str, raw: str) -> list:
    """Comma list -> values typed as the spec field ``axis`` is: an
    ``int`` or ``float`` field parses, a ``tuple`` field takes each
    value as a one-entry tuple, anything else stays a string."""
    kinds = get_type_hints(ExperimentSpec)
    if axis not in kinds:
        raise ValueError(f"unknown sweep axis {axis!r}")
    if axis == "protocol_params":
        raise ValueError("protocol_params is not a sweep axis: give "
                         "each parameter set its own run (--param)")
    parts = split_commas(raw)
    if not parts:
        raise ValueError("--values must name at least one value")
    parse = {int: int, float: float,
             tuple: lambda part: (part,)}.get(kinds[axis], str)
    return [parse(part) for part in parts]


def axis_values(args) -> Optional[list]:
    """The typed ``--values`` of ``--axis``; ``None`` runs the single
    configured point."""
    if (args.axis is None) != (args.values is None):
        raise SystemExit("--axis and --values must be given together")
    return (None if args.axis is None
            else parse_axis_values(args.axis, args.values))


def retry_policy_for(args):
    """The ``--max-retries`` / ``--task-timeout`` pair as a policy."""
    from repro.execution import RetryPolicy
    if args.max_retries < 0:
        raise SystemExit("--max-retries must be >= 0")
    return RetryPolicy(max_attempts=args.max_retries + 1,
                       task_timeout=args.task_timeout)


@contextlib.contextmanager
def _instrumented(args, label: str):
    """Profile the command under ``--profile``, record its telemetry
    events under ``--telemetry`` and paint ``--progress``; yields the
    recording (``None`` without ``--telemetry``)."""
    from repro.obs import ProgressTracker, RecordingTelemetry, using
    from repro.profiling import maybe_profile, profile_enabled
    recording = RecordingTelemetry() if args.telemetry else None
    tracker = (ProgressTracker(forward=recording)
               if getattr(args, "progress", False) else None)
    backend = tracker if tracker is not None else recording
    with maybe_profile(profile_enabled(args.profile or None), label=label):
        with (contextlib.nullcontext() if backend is None
              else using(backend)):
            yield recording
    if tracker is not None:
        tracker.close()


def _command_list(args, out) -> int:
    for entry in all_protocols():
        print(f"{entry.name:18} {entry.description}", file=out)
    return 0


def _command_run(args, out) -> int:
    spec = spec_from_args(args)
    # The run is the spec's, but for the seed: `run --seed` is the
    # simulator's seed itself, not a base that `seed_for` derives from.
    with _instrumented(args, f"run {args.protocol}") as recording:
        result = run_download(n=spec.n, ell=spec.ell,
                              peer_factory=spec.peer_factory(),
                              adversary=spec.build_adversary(),
                              t=spec.t, seed=args.seed,
                              sources=spec.sources,
                              source_faults=spec.source_faults,
                              topology=spec.topology)
    if recording is not None:
        from repro.obs import export_run
        count = export_run(args.telemetry, recording, result)
        print(f"telemetry  : {count} events -> {args.telemetry}", file=out)
    print(f"protocol   : {args.protocol}", file=out)
    print(f"setup      : n={args.n}, ell={args.ell}, "
          f"fault={args.fault_model}, beta={args.beta}, "
          f"seed={args.seed}", file=out)
    print(f"faulty set : {sorted(result.faulty)}", file=out)
    print(f"correct    : {result.download_correct}", file=out)
    print(f"complexity : {result.report}", file=out)
    return 0 if result.download_correct else 1


def _command_sweep(args, out) -> int:
    import time

    from repro.experiments import (outcomes_table, run_experiment,
                                   sweep_experiment)
    from repro.execution import (ResultCache, SweepJournal,
                                 default_cache_dir)
    spec = spec_from_args(args)
    values = axis_values(args)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    journal = None
    if args.resume:
        journal_dir = (cache.directory if cache is not None
                       else (Path(args.cache_dir) if args.cache_dir
                             else default_cache_dir()))
        journal = SweepJournal(journal_dir / "journal.jsonl")
    policy = retry_policy_for(args)
    started = time.monotonic()
    label = (f"sweep {args.protocol} over {args.axis}" if args.axis
             else f"sweep {args.protocol} (single point)")
    with _instrumented(args, label) as recording:
        if values is None:
            outcomes = [run_experiment(spec, workers=args.workers,
                                       cache=cache, journal=journal,
                                       policy=policy, strict=args.strict)]
        else:
            outcomes = sweep_experiment(spec, axis=args.axis, values=values,
                                        workers=args.workers, cache=cache,
                                        journal=journal, policy=policy,
                                        strict=args.strict)
    if recording is not None:
        from repro.obs import sweep_events, write_events
        from repro.obs.schema import SCHEMA_VERSION
        header = {"event": "sweep_header", "schema": SCHEMA_VERSION,
                  "points": len(outcomes), "repeats": args.repeats,
                  "workers": args.workers, "protocol": args.protocol}
        if values is not None:
            header["axis"] = args.axis
            header["values"] = values
        count = write_events(args.telemetry, sweep_events(
            recording, header=header,
            wall_s=time.monotonic() - started))
        print(f"telemetry  : {count} events -> {args.telemetry}", file=out)
    print(outcomes_table(outcomes, axis=args.axis), file=out)
    if cache is not None:
        print(f"cache      : {cache.stats} in {cache.directory}",
              file=out)
    if journal is not None:
        print(f"journal    : {journal.stats} in {journal.path}",
              file=out)
    failed = sum(outcome.failed_runs for outcome in outcomes)
    if failed:
        print(f"degraded   : {failed} repeat(s) failed every retry",
              file=out)
        for outcome in outcomes:
            label_axis = args.axis or "protocol"
            for failure in outcome.failures:
                print(f"  {outcome.spec.protocol}"
                      f"[{getattr(outcome.spec, label_axis)}] {failure}",
                      file=out)
    if args.json_out:
        from repro.persistence import save_outcomes
        save_outcomes(outcomes, args.json_out)
        print(f"outcomes written to {args.json_out}", file=out)
    if args.markdown_out:
        from repro.reporting import render_report, render_sweep
        section = render_sweep(
            outcomes, axis=args.axis or "protocol",
            title=(f"{args.protocol} {args.axis} sweep" if args.axis
                   else f"{args.protocol} ({args.backend})"))
        Path(args.markdown_out).write_text(render_report([section]),
                                           encoding="utf-8")
        print(f"report written to {args.markdown_out}", file=out)
    every_ok = all(outcome.success_rate == 1.0 for outcome in outcomes)
    return 0 if every_ok else 1


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.handler(args, out if out is not None else sys.stdout)
