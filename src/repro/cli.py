"""Command-line interface: run DR-model downloads from a shell.

Usage (installed as ``python -m repro``)::

    python -m repro list
    python -m repro run --protocol crash-multi --n 16 --ell 4096 \
        --fault-model crash --beta 0.5 --seed 7
    python -m repro run --protocol byz-committee --n 9 --ell 270 \
        --fault-model byzantine --beta 0.33 --strategy equivocate
    python -m repro lower-bound --n 10 --ell 200 --claimed-t 2 --repeats 3
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
is docs/SERVICE.md.

The CLI is a thin veneer over the library; every option maps one-to-one
onto a constructor argument documented in the API.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments.spec import _STRATEGIES
from repro.protocols import all_protocols
from repro.sim import run_download


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed Download in the DR model — simulator CLI")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available protocols")

    run_parser = subparsers.add_parser("run", help="run one download")
    run_parser.add_argument("--protocol", required=True,
                            help="protocol name (see `repro list`)")
    run_parser.add_argument("--n", type=int, default=16,
                            help="number of peers")
    run_parser.add_argument("--ell", type=int, default=4096,
                            help="input length in bits")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--fault-model",
                            choices=["none", "crash", "byzantine",
                                     "dynamic"],
                            default="none")
    run_parser.add_argument("--beta", type=float, default=0.0,
                            help="fault fraction")
    run_parser.add_argument("--strategy", choices=sorted(_STRATEGIES),
                            default="wrong-bits",
                            help="Byzantine corruption strategy")
    run_parser.add_argument("--synchronous", action="store_true",
                            help="unit latencies instead of the "
                                 "asynchronous adversary (synchrony "
                                 "*emulated* inside the async kernel; "
                                 "for round-native lockstep execution "
                                 "use `sweep --backend sync`)")
    run_parser.add_argument("--block-size", type=int, default=None,
                            help="committee protocol block size")
    run_parser.add_argument("--segments", type=int, default=None,
                            help="randomized protocols: segment count")
    run_parser.add_argument("--tau", type=int, default=None,
                            help="randomized protocols: frequency "
                                 "threshold")
    _add_source_arguments(run_parser)
    _add_topology_argument(run_parser)
    run_parser.add_argument("--profile", action="store_true",
                            help="profile the run with cProfile and "
                                 "print the pstats top table to stderr "
                                 "(also: REPRO_PROFILE=1)")
    run_parser.add_argument("--telemetry", metavar="PATH", default=None,
                            help="record the run's telemetry events to "
                                 "this JSONL file (inspect with "
                                 "`repro trace`)")

    lb_parser = subparsers.add_parser(
        "lower-bound",
        help="run the Theorem 3.1 witness adversary against the "
             "committee protocol (through the 'lowerbound' execution "
             "backend)")
    lb_parser.add_argument("--n", type=int, default=10)
    lb_parser.add_argument("--ell", type=int, default=200)
    lb_parser.add_argument("--seed", type=int, default=0)
    lb_parser.add_argument("--claimed-t", type=int, default=2,
                           help="fault budget the victim protocol is "
                                "told (the construction corrupts a "
                                "majority regardless)")
    lb_parser.add_argument("--block-size", type=int, default=None,
                           help="committee protocol block size "
                                "(default: max(1, ell // 20))")
    lb_parser.add_argument("--repeats", type=int, default=1,
                           help="independent attack executions; the "
                                "fooled-rate aggregates over them")
    lb_parser.add_argument("--workers", type=int, default=1,
                           help="processes to fan repeats over "
                                "(1 = in-process serial)")
    lb_parser.add_argument("--telemetry", metavar="PATH", default=None,
                           help="record the attack executions' telemetry "
                                "events to this JSONL file")

    sweep_parser = subparsers.add_parser(
        "sweep", help="sweep one experiment axis and print/persist a "
                      "report")
    sweep_parser.add_argument("--protocol", required=True)
    sweep_parser.add_argument("--n", type=int, default=16)
    sweep_parser.add_argument("--ell", type=int, default=4096)
    sweep_parser.add_argument("--fault-model",
                              choices=["none", "crash", "byzantine",
                                       "dynamic"],
                              default="none")
    sweep_parser.add_argument("--beta", type=float, default=0.0)
    sweep_parser.add_argument("--strategy",
                              choices=sorted(_STRATEGIES) +
                              ["deterministic", "randomized"],
                              default=None,
                              help="Byzantine corruption strategy "
                                   "(sim/sync backends; default "
                                   "wrong-bits) or which construction "
                                   "to run (lowerbound backend; default "
                                   "deterministic)")
    sweep_parser.add_argument("--backend",
                              choices=["sim", "sync", "lowerbound",
                                       "net"],
                              default="sim",
                              help="execution engine: 'sim' is the "
                                   "asynchronous discrete-event "
                                   "simulator; 'sync' is the "
                                   "round-native lockstep engine whose "
                                   "time measure is an exact round "
                                   "count (this is NOT `run "
                                   "--synchronous`, which merely pins "
                                   "unit latencies inside the async "
                                   "kernel); 'lowerbound' runs the "
                                   "Theorem 3.1/3.2 adversarial "
                                   "constructions; 'net' runs real "
                                   "peers over Unix sockets behind the "
                                   "chaos proxy (see --proxy-faults; "
                                   "time is wall clock)")
    sweep_parser.add_argument("--repeats", type=int, default=2)
    sweep_parser.add_argument("--seed", type=int, default=0)
    _add_source_arguments(sweep_parser)
    _add_topology_argument(sweep_parser)
    sweep_parser.add_argument("--axis", default=None,
                              help="spec field to sweep (e.g. beta, n, "
                                   "ell); omit together with --values "
                                   "to run the single configured point")
    sweep_parser.add_argument("--values", default=None,
                              help="comma-separated axis values")
    sweep_parser.add_argument("--json-out", default=None,
                              help="persist outcomes to this JSON file")
    sweep_parser.add_argument("--markdown-out", default=None,
                              help="write a markdown report here")
    sweep_parser.add_argument("--workers", type=int, default=1,
                              help="processes to fan repeats/points "
                                   "over (1 = in-process serial)")
    sweep_parser.add_argument("--no-cache", action="store_true",
                              help="recompute every point instead of "
                                   "reusing the on-disk result cache")
    sweep_parser.add_argument("--cache-dir", default=None,
                              help="result cache directory (default: "
                                   "$REPRO_CACHE_DIR or ~/.cache/repro)")
    sweep_parser.add_argument("--resume", action="store_true",
                              help="checkpoint completed repeats to a "
                                   "journal next to the result cache and "
                                   "replay it on restart, so an "
                                   "interrupted sweep resumes instead of "
                                   "restarting")
    sweep_parser.add_argument("--max-retries", type=int, default=2,
                              help="retries per repeat after the first "
                                   "attempt (default 2; 0 disables)")
    sweep_parser.add_argument("--task-timeout", type=float, default=None,
                              help="per-repeat wall-clock budget in "
                                   "seconds (stalled repeats are killed "
                                   "and retried)")
    sweep_parser.add_argument("--strict", action="store_true",
                              help="abort on the first repeat that fails "
                                   "every retry instead of reporting "
                                   "partial results")
    sweep_parser.add_argument("--profile", action="store_true",
                              help="profile the sweep with cProfile and "
                                   "print the pstats top table to stderr "
                                   "(in-process work only — profile with "
                                   "--workers 1; also: REPRO_PROFILE=1)")
    sweep_parser.add_argument("--telemetry", metavar="PATH", default=None,
                              help="record the sweep's telemetry events "
                                   "(task outcomes, cache hits, and — "
                                   "with --workers 1 — every in-process "
                                   "run's events) to this JSONL file")
    sweep_parser.add_argument("--proxy-faults", default=None,
                              help="backend=net only: comma-separated "
                                   "chaos-proxy fault specs, "
                                   "kind[:param] — drop[:rate], "
                                   "dup[:rate], delay[:seconds], "
                                   "reorder[:rate], disconnect[:rate]. "
                                   "Seeded per run; shakes the wire "
                                   "without changing the experiment's "
                                   "seeds")
    sweep_parser.add_argument("--progress", action="store_true",
                              help="paint a live progress line to stderr "
                                   "(done/failed/retried, cache hits, "
                                   "ETA)")

    tournament_parser = subparsers.add_parser(
        "tournament",
        help="cross every registered adversary against every protocol "
             "on every topology and print the ranked league table")
    tournament_parser.add_argument("--protocols", default=None,
                                   help="comma-separated protocol "
                                        "line-up (default: naive,"
                                        "balanced,crash-multi,"
                                        "byz-committee)")
    tournament_parser.add_argument("--adversaries", default=None,
                                   help="comma-separated roster subset "
                                        "(default: every registered "
                                        "adversary)")
    tournament_parser.add_argument("--topologies", default=None,
                                   help="comma-separated topology specs "
                                        "(default: complete,ring,"
                                        "expander)")
    tournament_parser.add_argument("--n", type=int, default=8)
    tournament_parser.add_argument("--ell", type=int, default=256)
    tournament_parser.add_argument("--repeats", type=int, default=3)
    tournament_parser.add_argument("--seed", type=int, default=0)
    tournament_parser.add_argument("--workers", type=int, default=1,
                                   help="processes to fan the league's "
                                        "repeats over")
    tournament_parser.add_argument("--resume", action="store_true",
                                   help="checkpoint completed repeats "
                                        "to a journal next to the "
                                        "result cache and replay it on "
                                        "restart")
    tournament_parser.add_argument("--journal", default=None,
                                   help="explicit journal path "
                                        "(implies --resume)")
    tournament_parser.add_argument("--max-retries", type=int, default=2,
                                   help="retries per repeat after the "
                                        "first attempt")
    tournament_parser.add_argument("--task-timeout", type=float,
                                   default=None,
                                   help="per-repeat wall-clock budget "
                                        "in seconds")
    tournament_parser.add_argument("--jsonl-out", default=None,
                                   help="write one JSON line per league "
                                        "cell here")
    tournament_parser.add_argument("--json-out", default=None,
                                   help="write the dashboard-shaped "
                                        "league summary (rankings + "
                                        "cells) here")
    tournament_parser.add_argument("--fail-on-violation",
                                   action="store_true",
                                   help="exit 1 when any cell captured "
                                        "a wrong download (default: "
                                        "violations are reported "
                                        "findings, exit 0)")

    serve_parser = subparsers.add_parser(
        "serve", help="run the download-as-a-service job API "
                      "(docs/SERVICE.md)")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8321,
                              help="listen port; 0 picks a free one "
                                   "(pair with --port-file so scripts "
                                   "can find it)")
    serve_parser.add_argument("--port-file", default=None,
                              help="write the bound port here once "
                                   "listening")
    serve_parser.add_argument("--data-dir", default=None,
                              help="job store root (default: "
                                   "$REPRO_SERVICE_DIR or "
                                   "~/.cache/repro/service); jobs in it "
                                   "resume on restart")
    serve_parser.add_argument("--pool", type=int, default=2,
                              help="workers in the one shared pool all "
                                   "jobs multiplex over")
    serve_parser.add_argument("--pool-mode", choices=["thread", "process"],
                              default="thread",
                              help="'process' buys CPU parallelism at "
                                   "fork cost")
    serve_parser.add_argument("--no-cache", action="store_true",
                              help="disable the content-addressed result "
                                   "cache (dedup of in-flight jobs still "
                                   "applies)")
    serve_parser.add_argument("--cache-dir", default=None,
                              help="share a result cache outside the "
                                   "data dir (e.g. with `repro sweep`)")

    submit_parser = subparsers.add_parser(
        "submit", help="submit a job to a running `repro serve`")
    submit_parser.add_argument("--protocol", required=True)
    submit_parser.add_argument("--n", type=int, default=16)
    submit_parser.add_argument("--ell", type=int, default=4096)
    submit_parser.add_argument("--fault-model",
                               choices=["none", "crash", "byzantine",
                                        "dynamic"],
                               default="none")
    submit_parser.add_argument("--beta", type=float, default=0.0)
    submit_parser.add_argument("--strategy",
                               choices=sorted(_STRATEGIES), default=None)
    submit_parser.add_argument("--backend",
                               choices=["sim", "sync", "net"],
                               default="sim")
    submit_parser.add_argument("--repeats", type=int, default=2)
    submit_parser.add_argument("--seed", type=int, default=0)
    _add_source_arguments(submit_parser)
    _add_topology_argument(submit_parser)
    submit_parser.add_argument("--proxy-faults", default=None,
                               help="backend=net chaos-proxy fault specs "
                                    "(see `repro sweep --proxy-faults`)")
    submit_parser.add_argument("--axis", default=None,
                               help="spec field to sweep server-side")
    submit_parser.add_argument("--values", default=None,
                               help="comma-separated axis values")
    submit_parser.add_argument("--priority", type=int, default=10,
                               help="lower runs first; equal priorities "
                                    "are served round-robin")
    submit_parser.add_argument("--client", default=None,
                               help="submitter label (display only; "
                                    "default $USER)")
    submit_parser.add_argument("--wait", action="store_true",
                               help="block until the job finishes and "
                                    "print its result table")
    submit_parser.add_argument("--follow", action="store_true",
                               help="stream the job's SSE events while "
                                    "waiting (implies --wait)")

    status_parser = subparsers.add_parser(
        "status", help="show one job (or, with no id, every job)")
    status_parser.add_argument("job", nargs="?", default=None)

    result_parser = subparsers.add_parser(
        "result", help="fetch a finished job's outcomes")
    result_parser.add_argument("job")
    result_parser.add_argument("--json-out", default=None,
                               help="persist outcomes to this JSON file "
                                    "(same format as `sweep --json-out`)")

    cancel_parser = subparsers.add_parser(
        "cancel", help="cancel a pending/running job (idempotent)")
    cancel_parser.add_argument("job")

    for client_parser in (submit_parser, status_parser, result_parser,
                          cancel_parser):
        client_parser.add_argument(
            "--server", default=None,
            help="server base URL (default: $REPRO_SERVER or "
                 "http://127.0.0.1:8321)")

    from repro.obs.trace_cli import attach_trace_parser
    attach_trace_parser(subparsers)
    return parser


def _add_source_arguments(parser) -> None:
    """Multi-source knobs, shared by `run` and `sweep`."""
    parser.add_argument("--sources", type=int, default=1,
                        help="number of external source endpoints "
                             "(default 1: the paper's trusted source)")
    parser.add_argument("--source-faults", default=None,
                        help="comma-separated per-endpoint fault specs, "
                             "kind[:param][@onset] — honest, "
                             "wrong-bits[:rate], stale[:rate], "
                             "withhold, slow[:factor]; unlisted "
                             "endpoints are honest")
    parser.add_argument("--q", type=int, default=None,
                        help="cross-validate: sources queried per "
                             "digit (default: all of them)")
    parser.add_argument("--decode", choices=["majority", "threshold"],
                        default=None,
                        help="cross-validate: vote decode rule")
    parser.add_argument("--threshold", type=int, default=None,
                        help="cross-validate: vote count for "
                             "--decode threshold")
    parser.add_argument("--source-f", type=int, default=None,
                        help="cross-validate-escalate: source-fault "
                             "budget f (queries f+1, escalates to "
                             "2f+1)")


def _add_topology_argument(parser) -> None:
    parser.add_argument("--topology", default="complete",
                        help="peer-to-peer connectivity: complete "
                             "(the paper's model; default), ring, star, "
                             "expander, or random-dregular[:d]. Sparse "
                             "graphs route peer messages hop-by-hop "
                             "(queries stay direct, so Q is unchanged); "
                             "sweepable via --axis topology")


def _source_faults_for(args) -> tuple:
    if not getattr(args, "source_faults", None):
        return ()
    return tuple(part.strip() for part in args.source_faults.split(",")
                 if part.strip())


def _proxy_faults_for(args) -> tuple:
    if not getattr(args, "proxy_faults", None):
        return ()
    return tuple(part.strip() for part in args.proxy_faults.split(",")
                 if part.strip())


def _source_params_for(args) -> dict:
    params = {}
    if getattr(args, "q", None) is not None:
        params["q"] = args.q
    if getattr(args, "decode", None) is not None:
        params["decode"] = args.decode
    if getattr(args, "threshold", None) is not None:
        params["threshold"] = args.threshold
    if getattr(args, "source_f", None) is not None:
        params["f"] = args.source_f
    return params


def _command_list(out) -> int:
    for entry in all_protocols():
        print(f"{entry.name:18} {entry.description}", file=out)
    return 0


def _command_run(args, out) -> int:
    import contextlib

    from repro.experiments import ExperimentSpec
    from repro.profiling import maybe_profile, profile_enabled
    params = _source_params_for(args)
    if args.block_size is not None:
        params["block_size"] = args.block_size
    if args.segments is not None:
        key = ("base_segments" if args.protocol == "byz-multi-cycle"
               else "num_segments")
        params[key] = args.segments
    if args.tau is not None:
        params["tau"] = args.tau
    # The run is the spec's, but for the seed: `run --seed` is the
    # simulator's seed itself, not a base that `seed_for` derives from.
    spec = ExperimentSpec(
        protocol=args.protocol, n=args.n, ell=args.ell,
        fault_model=args.fault_model, beta=args.beta,
        strategy=args.strategy,
        network="synchronous" if args.synchronous else "asynchronous",
        protocol_params=params, sources=args.sources,
        source_faults=_source_faults_for(args), topology=args.topology)
    recording = None
    context = contextlib.nullcontext()
    if args.telemetry:
        from repro.obs import RecordingTelemetry, using
        recording = RecordingTelemetry()
        context = using(recording)
    with maybe_profile(profile_enabled(args.profile or None),
                       label=f"run {args.protocol}"):
        with context:
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


def _command_lower_bound(args, out) -> int:
    import contextlib
    import time

    from repro.experiments import ExperimentSpec, run_experiment
    block_size = (args.block_size if args.block_size is not None
                  else max(1, args.ell // 20))
    spec = ExperimentSpec(
        protocol="byz-committee", n=args.n, ell=args.ell,
        strategy="deterministic",
        protocol_params={"block_size": block_size,
                         "claimed_t": args.claimed_t},
        repeats=args.repeats, base_seed=args.seed, backend="lowerbound")
    recording = None
    context = contextlib.nullcontext()
    if args.telemetry:
        from repro.obs import RecordingTelemetry, using
        recording = RecordingTelemetry()
        context = using(recording)
    started = time.monotonic()
    with context:
        outcome = run_experiment(spec, workers=args.workers)
    if recording is not None:
        from repro.obs import sweep_events, write_events
        from repro.obs.schema import SCHEMA_VERSION
        header = {"event": "sweep_header", "schema": SCHEMA_VERSION,
                  "points": 1, "repeats": args.repeats,
                  "workers": args.workers, "protocol": spec.protocol}
        count = write_events(args.telemetry, sweep_events(
            recording, header=header, wall_s=time.monotonic() - started))
        print(f"telemetry  : {count} events -> {args.telemetry}", file=out)
    fooled = outcome.failed_runs == 0 and outcome.success_rate == 1.0
    print(f"victim queried : {outcome.mean_query_complexity:.0f}/"
          f"{args.ell} bits", file=out)
    print(f"fooled repeats : {outcome.correct_runs}/{outcome.runs}",
          file=out)
    print(f"victim fooled  : {fooled}", file=out)
    return 0


def _parse_axis_values(axis: str, raw: str) -> list:
    """Comma list -> typed values matching the spec field."""
    parts = [part.strip() for part in raw.split(",") if part.strip()]
    if not parts:
        raise ValueError("--values must name at least one value")
    if axis in ("n", "ell", "repeats", "base_seed", "sources"):
        return [int(part) for part in parts]
    if axis == "beta":
        return [float(part) for part in parts]
    return parts


def _retry_policy_for(args):
    """The ``--max-retries`` / ``--task-timeout`` pair as a policy."""
    from repro.execution import RetryPolicy
    if args.max_retries < 0:
        raise SystemExit("--max-retries must be >= 0")
    return RetryPolicy(max_attempts=args.max_retries + 1,
                       task_timeout=args.task_timeout)


def _command_sweep(args, out) -> int:
    from repro.experiments import (ExperimentSpec, outcomes_table,
                                   run_experiment, sweep_experiment)
    from repro.execution import (ResultCache, SweepJournal,
                                 default_cache_dir)
    if (args.axis is None) != (args.values is None):
        raise SystemExit("--axis and --values must be given together")
    strategy = args.strategy or ("deterministic"
                                 if args.backend == "lowerbound"
                                 else "wrong-bits")
    # backend="sync" *is* the synchronous model, so the network field
    # follows it; `run --synchronous` stays the async kernel's
    # unit-latency emulation (see docs/MODEL.md).
    network = ("synchronous" if args.backend == "sync"
               else "asynchronous")
    spec = ExperimentSpec(
        protocol=args.protocol, n=args.n, ell=args.ell,
        fault_model=args.fault_model, beta=args.beta,
        strategy=strategy, network=network,
        protocol_params=_source_params_for(args),
        repeats=args.repeats, base_seed=args.seed, backend=args.backend,
        sources=args.sources, source_faults=_source_faults_for(args),
        proxy_faults=_proxy_faults_for(args), topology=args.topology)
    values = (None if args.axis is None
              else _parse_axis_values(args.axis, args.values))
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    journal = None
    if args.resume:
        journal_dir = (cache.directory if cache is not None
                       else (Path(args.cache_dir) if args.cache_dir
                             else default_cache_dir()))
        journal = SweepJournal(journal_dir / "journal.jsonl")
    policy = _retry_policy_for(args)
    import contextlib
    import time

    from repro.profiling import maybe_profile, profile_enabled
    recording = None
    progress = None
    context = contextlib.nullcontext()
    if args.telemetry or args.progress:
        from repro.obs import ProgressTracker, RecordingTelemetry, using
        recording = RecordingTelemetry() if args.telemetry else None
        backend = (ProgressTracker(forward=recording) if args.progress
                   else recording)
        progress = backend if args.progress else None
        context = using(backend)
    started = time.monotonic()
    label = (f"sweep {args.protocol} over {args.axis}" if args.axis
             else f"sweep {args.protocol} (single point)")
    with maybe_profile(profile_enabled(args.profile or None), label=label):
        with context:
            if values is None:
                outcomes = [run_experiment(spec, workers=args.workers,
                                           cache=cache, journal=journal,
                                           policy=policy,
                                           strict=args.strict)]
            else:
                outcomes = sweep_experiment(spec, axis=args.axis,
                                            values=values,
                                            workers=args.workers,
                                            cache=cache,
                                            journal=journal, policy=policy,
                                            strict=args.strict)
    if progress is not None:
        progress.close()
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


def _command_tournament(args, out) -> int:
    import json

    from repro.execution import default_cache_dir
    from repro.tournament import (TournamentConfig, league_dashboard_payload,
                                  league_jsonl_lines, render_league,
                                  run_tournament)

    def split(raw):
        return tuple(part.strip() for part in raw.split(",")
                     if part.strip())

    policy = _retry_policy_for(args)
    journal_path = args.journal
    if journal_path is None and args.resume:
        journal_path = str(default_cache_dir() / "tournament.jsonl")
    config = TournamentConfig(
        protocols=(split(args.protocols) if args.protocols
                   else TournamentConfig.protocols),
        adversaries=split(args.adversaries) if args.adversaries else (),
        topologies=(split(args.topologies) if args.topologies
                    else TournamentConfig.topologies),
        n=args.n, ell=args.ell, repeats=args.repeats,
        base_seed=args.seed, workers=args.workers,
        journal_path=journal_path, policy=policy)
    result = run_tournament(config)
    print(render_league(result), file=out)
    if result.journal_stats is not None:
        print(f"\njournal    : {result.journal_stats['replayed']} "
              f"replayed / {result.journal_stats['appended']} appended "
              f"in {journal_path}", file=out)
    if args.jsonl_out:
        with open(args.jsonl_out, "w", encoding="utf-8") as handle:
            for line in league_jsonl_lines(result):
                handle.write(line + "\n")
        print(f"cells written to {args.jsonl_out}", file=out)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(league_dashboard_payload(result), handle,
                      indent=2, sort_keys=True)
        print(f"league summary written to {args.json_out}", file=out)
    # Violations are findings, not failures — the league's job is to
    # surface them.  --fail-on-violation turns the run into a gate.
    if args.fail_on_violation and result.violations():
        return 1
    return 0


def _service_url(args) -> str:
    import os
    return (args.server or os.environ.get("REPRO_SERVER")
            or "http://127.0.0.1:8321")


def _service_client(args):
    from repro.service import ServiceClient
    return ServiceClient(_service_url(args))


def _print_job(job: dict, out) -> None:
    progress = f"{job['done']}/{job['total']}"
    correct = "—" if job.get("correct") is None else job["correct"]
    print(f"{job['id']}  {job['state']:<9} {progress:>9}  "
          f"prio={job['priority']:<3} subs={job['submissions']:<2} "
          f"correct={correct}  client={job['client']}", file=out)


def _command_serve(args, out) -> int:
    import asyncio
    import os

    from repro.service import run_server
    data_dir = (args.data_dir or os.environ.get("REPRO_SERVICE_DIR")
                or Path.home() / ".cache" / "repro" / "service")
    cache = (False if args.no_cache
             else (args.cache_dir if args.cache_dir else True))
    try:
        asyncio.run(run_server(
            data_dir, host=args.host, port=args.port, pool=args.pool,
            pool_mode=args.pool_mode, cache=cache,
            port_file=args.port_file,
            log=lambda message: print(message, file=out, flush=True)))
    except KeyboardInterrupt:
        pass
    return 0


def _command_submit(args, out) -> int:
    import getpass
    import json

    from repro.execution.cache import spec_fields
    from repro.experiments import ExperimentSpec, outcomes_table
    from repro.persistence import outcome_from_dict
    if (args.axis is None) != (args.values is None):
        raise SystemExit("--axis and --values must be given together")
    network = ("synchronous" if args.backend == "sync"
               else "asynchronous")
    spec = ExperimentSpec(
        protocol=args.protocol, n=args.n, ell=args.ell,
        fault_model=args.fault_model, beta=args.beta,
        strategy=args.strategy or "wrong-bits", network=network,
        protocol_params=_source_params_for(args),
        repeats=args.repeats, base_seed=args.seed, backend=args.backend,
        sources=args.sources, source_faults=_source_faults_for(args),
        proxy_faults=_proxy_faults_for(args), topology=args.topology)
    values = (() if args.axis is None
              else _parse_axis_values(args.axis, args.values))
    client = _service_client(args)
    job = client.submit(spec_fields(spec), axis=args.axis,
                        values=values, priority=args.priority,
                        client=args.client or getpass.getuser())
    verb = "submitted" if job["created"] else "coalesced into"
    print(f"{verb} job {job['id']} ({job['state']}, "
          f"{job['total']} tasks) at {_service_url(args)}", file=out)
    if not (args.wait or args.follow):
        return 0
    if args.follow:
        for entry in client.stream(job["id"]):
            print(json.dumps(entry, sort_keys=True), file=out)
    final = client.wait(job["id"])
    if final["state"] != "done":
        print(f"job {job['id']} ended {final['state']}: "
              f"{final.get('error') or ''}", file=out)
        return 1
    payload = client.result(job["id"])
    outcomes = [outcome_from_dict(entry) for entry in payload["outcomes"]]
    print(outcomes_table(outcomes, axis=args.axis), file=out)
    return 0 if final["correct"] else 1


def _command_status(args, out) -> int:
    client = _service_client(args)
    if args.job is None:
        jobs = client.jobs()
        if not jobs:
            print("no jobs", file=out)
            return 0
        for job in jobs:
            _print_job(job, out)
        return 0
    _print_job(client.status(args.job), out)
    return 0


def _command_result(args, out) -> int:
    from repro.experiments import outcomes_table
    from repro.persistence import outcome_from_dict, save_outcomes
    client = _service_client(args)
    payload = client.result(args.job)
    outcomes = [outcome_from_dict(entry) for entry in payload["outcomes"]]
    print(outcomes_table(outcomes), file=out)
    if args.json_out:
        save_outcomes(outcomes, args.json_out)
        print(f"outcomes written to {args.json_out}", file=out)
    return 0 if payload["correct"] else 1


def _command_cancel(args, out) -> int:
    job = _service_client(args).cancel(args.job)
    print(f"job {job['id']} is now {job['state']}", file=out)
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _command_list(out)
    if args.command == "run":
        return _command_run(args, out)
    if args.command == "lower-bound":
        return _command_lower_bound(args, out)
    if args.command == "sweep":
        return _command_sweep(args, out)
    if args.command == "tournament":
        return _command_tournament(args, out)
    if args.command == "serve":
        return _command_serve(args, out)
    if args.command in ("submit", "status", "result", "cancel"):
        from repro.service.client import ServiceError
        handler = {"submit": _command_submit, "status": _command_status,
                   "result": _command_result,
                   "cancel": _command_cancel}[args.command]
        try:
            return handler(args, out)
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except BrokenPipeError:
            # Our own stdout closed early (`repro status | head`);
            # the conventional quiet exit, not a server problem.  Point
            # stdout at devnull so the interpreter's exit flush doesn't
            # raise a second, unraisable EPIPE.
            import os
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
        except (ConnectionError, OSError) as exc:
            print(f"error: cannot reach {_service_url(args)}: {exc}",
                  file=sys.stderr)
            return 1
    if args.command == "trace":
        from repro.obs.trace_cli import run_trace_command
        return run_trace_command(args, out)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover
