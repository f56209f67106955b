#!/usr/bin/env python3
"""Reproduce the paper's evaluation: every claim of the claim table.

Runs every row of :data:`repro.experiments.claims.CLAIMS` (Table 1 and
one experiment per theorem) and prints each claim as a markdown table:
measured Q next to its ``core/bounds.py`` bound, with a verdict per row,
the findings marked, and the claim's cross-row shape statements.
EXPERIMENTS.md holds this output verbatim.  Exits non-zero when an
unmarked row or a shape statement does not hold, or when a marked
finding starts to hold.

Run:  python examples/reproduce_paper.py [--workers 4] [--no-cache]
          [--resume] [--max-retries N] [--task-timeout S] [--profile]
          [--telemetry out.jsonl]

Every row's repeats go through one parallel-engine call over the whole
table: ``--workers`` fans them over a process pool (the output is
byte-identical at any worker count); by default outcomes land in the
on-disk result cache, so a second run executes nothing.  The engine
retries transient failures (``--max-retries``), kills and retries
stalled repeats (``--task-timeout``), and with ``--resume`` checkpoints
every completed repeat to a journal so an interrupted reproduction
picks up where it stopped.

``--telemetry out.jsonl`` records the reproduction's telemetry stream
(engine task outcomes, cache hits and, with ``--workers 1``, every
simulator run's events) for ``repro trace`` (see
docs/OBSERVABILITY.md).  ``--profile`` (or ``REPRO_PROFILE=1``) wraps
the run in cProfile and prints the pstats top table to stderr — use
``--workers 1`` so the simulator work stays in this process.
"""

import argparse
import contextlib
import sys
import time

from repro.execution import (ParallelRunner, RetryPolicy, resolve_cache,
                             resolve_journal)
from repro.experiments.claims import run_claims


def main(*, workers: int = 1, cache=None, journal=None,
         policy=None) -> int:
    """Print the claim table; returns the number of statements off it."""
    runner = ParallelRunner(workers=workers, cache=resolve_cache(cache),
                            journal=resolve_journal(journal), policy=policy)
    text, failures = run_claims(runner)
    print(text)
    return failures


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=1,
                        help="processes to fan experiment repeats over")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute instead of reusing the on-disk "
                             "result cache")
    parser.add_argument("--resume", action="store_true",
                        help="checkpoint completed repeats to the "
                             "default journal and replay it on restart")
    parser.add_argument("--max-retries", type=int, default=2,
                        help="retries per repeat after the first attempt "
                             "(default 2; 0 disables)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        help="per-repeat wall-clock budget in seconds")
    parser.add_argument("--profile", action="store_true",
                        help="profile the reproduction with cProfile "
                             "(also: REPRO_PROFILE=1)")
    parser.add_argument("--telemetry", metavar="PATH", default=None,
                        help="record the reproduction's telemetry events "
                             "to this JSONL file (inspect with "
                             "`repro trace`)")
    cli_args = parser.parse_args()

    from repro.profiling import maybe_profile, profile_enabled
    recording = None
    context = contextlib.nullcontext()
    if cli_args.telemetry:
        from repro.obs import RecordingTelemetry, using
        recording = RecordingTelemetry()
        context = using(recording)
    started = time.monotonic()
    with maybe_profile(profile_enabled(cli_args.profile or None),
                       label="reproduce_paper"):
        with context:
            failures = main(
                workers=cli_args.workers,
                cache=None if cli_args.no_cache else True,
                journal=True if cli_args.resume else None,
                policy=RetryPolicy(max_attempts=cli_args.max_retries + 1,
                                   task_timeout=cli_args.task_timeout))
    if recording is not None:
        from repro.obs import sweep_events, write_events
        from repro.obs.schema import SCHEMA_VERSION
        # Each engine task (one repeat of one row) is a "point" of the
        # table; a fully cached table executes none.
        header = {"event": "sweep_header", "schema": SCHEMA_VERSION,
                  "points": int(recording.counter_value("tasks_total")),
                  "repeats": 1, "workers": cli_args.workers}
        count = write_events(cli_args.telemetry, sweep_events(
            recording, header=header,
            wall_s=time.monotonic() - started))
        print(f"telemetry: {count} events -> {cli_args.telemetry}",
              file=sys.stderr)
    sys.exit(1 if failures else 0)
