"""One workload, in a subprocess of its own.

The harness starts ``python -m bench.worker`` once per workload run (and
again for each extra set-up sample), so peak RSS is the workload's own
and no workload warms another's caches.  The last line of stdout is one
JSON object; everything above it is for a human.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import sys
import time
from pathlib import Path
from statistics import median

from bench.contract import load_contract, metric_table, quiet_decile
from bench.tracing import (SpanRecorder, calibrate, fold_profile,
                           peak_rss_mb)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() when the harness started us; "
                             "set-up time counts from there")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    calib_s = calibrate()
    # Imported here, not at the top: the import of the whole program is
    # part of the set-up time being measured, after the calibration.
    from bench.workloads import WORKLOADS

    tracer = SpanRecorder()
    workload = WORKLOADS[args.workload](args.seed, args.run_dir, tracer,
                                        tiny=args.tiny)
    result = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "work_unit": workload.work_unit,
              "host": {"calib_s": calib_s,
                       "loadavg1": os.getloadavg()[0]}}
    workload.setup()
    try:
        workload.op(-1)  # the untimed warm-up op, charged to set-up
        result["setup_s"] = time.time() - args.spawned_at
        measured = None
        if args.trace and not args.setup_only:
            measured = _traced_phases(workload, args.tiny)
        elif not args.setup_only:
            measured = workload.run(0, seconds=args.seconds,
                                    ops=1 if args.tiny else None)
    finally:
        workload.teardown()
    # Reported after teardown: only then is the server's CPU known.
    if measured is not None and args.trace:
        result.update(_layer_report(workload, *measured, result["host"]))
    elif measured is not None:
        result.update(_end_to_end(measured, result["setup_s"]))
    print(json.dumps(result))
    return 0


def _end_to_end(run, setup_s: float) -> dict:
    samples = run.samples
    ops = len(samples)
    metrics = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}
    medians = {}
    if ops:
        columns = {
            "op_p10_s": [sample.seconds for sample in samples],
            "work_per_s": [sample.work / sample.seconds
                           for sample in samples],
            "cpu_s_per_op": [sample.cpu for sample in samples],
        }
        # The decile on the good side, never a mean and never the single
        # best: see ``quiet_decile``.  The medians go beside them for
        # the reader; the distance between the two is the host's noise.
        for name, values in columns.items():
            metrics[name] = quiet_decile(values, name == "work_per_s")
            medians[name] = median(values)
    return {"attempted": ops + len(run.failures),
            "failed": len(run.failures), "failures": run.failures[:20],
            "samples": ops, "metrics": metrics, "medians": medians}


def _traced_phases(workload, tiny: bool):
    """The same kind of ops three times over: untraced for reference,
    with spans on, and (in-process workloads only) under ``cProfile``.
    Span seconds come from the middle phase, so the profiler's cost per
    call is not in them; self-time shares come from the last.  Fixed op
    counts, so every count metric repeats exactly for a given seed."""
    ops = max(1, workload.trace_ops // 20) if tiny else workload.trace_ops
    reference = workload.run(0, ops=ops)
    workload.counts.clear()
    workload.tracer.enabled = True
    try:
        traced = workload.run(ops, ops=ops)
    finally:
        workload.tracer.enabled = False
    if not workload.in_process:
        return [reference, traced], None
    counts = workload.counts.copy()  # the profiled ops are not counted
    profile = cProfile.Profile()
    profile.enable()
    try:
        profiled = workload.run(2 * ops, ops=ops)
    finally:
        profile.disable()
        workload.counts = counts
    return [reference, traced, profiled], fold_profile(profile)


def _layer_report(workload, phases: list, shares, host: dict) -> dict:
    reference, traced, slowest = phases[0], phases[1], phases[-1]
    declared = metric_table(load_contract(), "per_layer", workload.name)
    # Every declared name is reported on every workload; a layer this
    # workload never enters reads 0 (no time, no work, probe not run).
    values = dict.fromkeys(declared, 0.0)
    values.update(workload.layer_values(reference, traced))
    if shares is None:
        shares = workload.profile_shares
    for name in declared:
        layer, _, suffix = name.rpartition(".")
        if suffix == "self_share":
            values[name] = shares.get(layer, 0.0)
    failures = [failure for run in phases for failure in run.failures]
    if reference.samples and slowest.samples:
        values["trace.overhead_ratio"] = (
            median(sample.seconds for sample in slowest.samples)
            / median(sample.seconds for sample in reference.samples))
    values["host.calib_s"] = host["calib_s"]
    values["host.loadavg1"] = host["loadavg1"]
    spans_path = workload.run_dir / f"spans-{workload.name}.jsonl"
    workload.tracer.write_jsonl(spans_path)
    attempted = len(failures) + sum(len(run.samples) for run in phases)
    return {"attempted": attempted, "failed": len(failures),
            "failures": failures[:20], "samples": len(traced.samples),
            "metrics": values, "spans": workload.tracer.totals(),
            "spans_file": str(spans_path)}


if __name__ == "__main__":
    sys.exit(main())
