"""Service load benchmark: hundreds of concurrent clients, one pool.

This is the ``repro serve`` evidence file.  Each *arm* boots a fresh
server subprocess (stdlib transport, thread pool) and fires N
concurrent clients at it from a thread pool of size N — every client
is a real HTTP actor: POST the job, drain its SSE stream to
completion, GET the result.  Client latency is submit-to-result,
including every HTTP round trip.  Arms:

- ``c24_sim_mixed`` (quick) — 24 clients over 6 distinct specs: the
  CI-sized smoke arm.
- ``c120_sim_identical`` — 120 clients submitting the *same* spec:
  the dedup acceptance arm.  Verified, not just measured: exactly one
  submission creates the job, engine executions equal one job's task
  count, and all 120 result payloads are byte-identical.
- ``c120_sim_mixed`` — 120 clients over 12 distinct specs (10-way
  coalescing): the throughput/fairness arm.
- ``c120_sync_mixed`` — the same shape on the lockstep sync backend,
  proving the service is backend-agnostic under load.

Each arm records throughput (jobs/s over the whole burst), latency
percentiles (p50/p95/p99), and the server's own dedup/cache counters.
Results go to ``BENCH_SERVICE.json`` at the repo root, bench_kernel
style: ``current`` (+ ``_quick``) sections and ``--check`` gating.

Usage::

    python benchmarks/bench_service.py                  # full + print
    python benchmarks/bench_service.py --quick          # CI-sized arm
    python benchmarks/bench_service.py --write          # update current
    python benchmarks/bench_service.py --quick --check  # CI smoke gate
    python benchmarks/bench_service.py --table          # E18 markdown
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_SERVICE.json"
SRC = str(REPO_ROOT / "src")

#: Regression tolerance for ``--check`` latency comparisons.
DEFAULT_TOLERANCE = 0.50

#: Worker threads in the one shared pool every arm's jobs multiplex
#: over (the point of the bench: many clients, few workers).
POOL = 4

#: The per-job experiment: small and fast, so the bench measures the
#: *service* (scheduling, dedup, HTTP, SSE), not the simulator.
BASE_SPEC = {"protocol": "naive", "n": 4, "ell": 64, "repeats": 2}
SYNC_SPEC = {"protocol": "crash-multi", "n": 4, "ell": 64, "repeats": 2,
             "backend": "sync", "network": "synchronous",
             "fault_model": "crash", "beta": 0.25}

QUICK_ARMS = ["c24_sim_mixed"]
FULL_ARMS = QUICK_ARMS + ["c120_sim_identical", "c120_sim_mixed",
                          "c120_sync_mixed"]

ARM_CONFIG = {
    "c24_sim_mixed": {"clients": 24, "distinct": 6, "spec": BASE_SPEC},
    "c120_sim_identical": {"clients": 120, "distinct": 1,
                           "spec": BASE_SPEC},
    "c120_sim_mixed": {"clients": 120, "distinct": 12,
                       "spec": BASE_SPEC},
    "c120_sync_mixed": {"clients": 120, "distinct": 12,
                        "spec": SYNC_SPEC},
}


def _percentile(sorted_values: list[float], fraction: float) -> float:
    index = min(int(len(sorted_values) * fraction),
                len(sorted_values) - 1)
    return sorted_values[index]


def _boot_server(data_dir: Path, port_file: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--port-file", str(port_file), "--data-dir", str(data_dir),
         "--pool", str(POOL)],
        stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT, env=env)
    deadline = time.monotonic() + 30
    while not (port_file.exists() and port_file.read_text().strip()):
        if process.poll() is not None:
            raise RuntimeError("bench server died during startup")
        if time.monotonic() > deadline:
            process.kill()
            raise TimeoutError("bench server never published its port")
        time.sleep(0.05)
    return process, int(port_file.read_text().strip())


def run_arm(name: str) -> dict:
    """Boot a server, fire the arm's client burst, tear down."""
    from repro.service import ServiceClient

    config = ARM_CONFIG[name]
    clients, distinct = config["clients"], config["distinct"]

    def spec_for(index: int) -> dict:
        # Distinct specs differ by seed: same cost, different identity.
        return dict(config["spec"], base_seed=index % distinct)

    with tempfile.TemporaryDirectory(prefix="bench-service-") as tmp:
        tmp_path = Path(tmp)
        process, port = _boot_server(tmp_path / "data",
                                     tmp_path / "port.txt")
        base_url = f"http://127.0.0.1:{port}"
        try:
            def one_client(index: int) -> tuple[float, str, str]:
                client = ServiceClient(base_url, timeout=120.0)
                started = time.perf_counter()
                job = client.submit(spec_for(index),
                                    client=f"bench-{index}")
                final = client.wait(job["id"], timeout=300.0)
                if final["state"] != "done" or not final["correct"]:
                    raise RuntimeError(
                        f"client {index}: job ended "
                        f"{final['state']}/{final['correct']}")
                payload = client.result(job["id"])
                latency = time.perf_counter() - started
                fingerprint = json.dumps(payload["outcomes"],
                                         sort_keys=True)
                return latency, job["id"], fingerprint

            burst_start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=clients) as pool:
                results = list(pool.map(one_client, range(clients)))
            burst_wall = time.perf_counter() - burst_start

            stats = ServiceClient(base_url).stats()["stats"]
        finally:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()

    latencies = sorted(latency for latency, _job, _fp in results)
    job_ids = {job for _latency, job, _fp in results}
    per_job_fingerprints: dict[str, set] = {}
    for _latency, job, fingerprint in results:
        per_job_fingerprints.setdefault(job, set()).add(fingerprint)
    expected_tasks = distinct * config["spec"]["repeats"]
    return {
        "clients": clients,
        "distinct_specs": distinct,
        "backend": config["spec"].get("backend", "sim"),
        "pool": POOL,
        "wall_seconds": round(burst_wall, 4),
        "throughput_rps": round(clients / burst_wall, 2),
        "p50_s": round(_percentile(latencies, 0.50), 4),
        "p95_s": round(_percentile(latencies, 0.95), 4),
        "p99_s": round(_percentile(latencies, 0.99), 4),
        "mean_s": round(statistics.fmean(latencies), 4),
        "dedup_hit_rate": round(stats["dedup_hits"]
                                / max(stats["submitted"], 1), 4),
        "server_stats": stats,
        # -- the verified dedup contract --------------------------------
        "dedup_verified": {
            # N submissions named exactly `distinct` jobs...
            "distinct_jobs": len(job_ids) == distinct,
            # ...the engine executed each job once...
            "single_execution":
                stats["tasks_executed"] == expected_tasks,
            # ...and every coalesced client read an identical result.
            "identical_results": all(
                len(fingerprints) == 1
                for fingerprints in per_job_fingerprints.values()),
        },
    }


def measure(quick: bool) -> dict:
    arms = {}
    for name in (QUICK_ARMS if quick else FULL_ARMS):
        print(f"  running {name} ...", flush=True)
        arms[name] = run_arm(name)
    return {
        "quick": quick,
        "python": sys.version.split()[0],
        "config": {"pool": POOL, "spec": BASE_SPEC},
        "arms": arms,
    }


def _print_report(result: dict) -> None:
    print(f"== bench_service ({'quick' if result['quick'] else 'full'}) ==")
    for name, arm in result["arms"].items():
        verified = all(arm["dedup_verified"].values())
        print(f"  {name:<20} {arm['clients']:>4} clients  "
              f"{arm['throughput_rps']:>7.1f} jobs/s  "
              f"p50={arm['p50_s']:.3f}s p95={arm['p95_s']:.3f}s "
              f"p99={arm['p99_s']:.3f}s  "
              f"dedup={arm['dedup_hit_rate']:.0%} "
              f"{'VERIFIED' if verified else 'DEDUP-BROKEN'}")


def render_table(result: dict) -> str:
    """The E18 markdown table (EXPERIMENTS.md embeds this output)."""
    lines = [
        "| arm | clients | distinct specs | backend | throughput "
        "(jobs/s) | p50 (s) | p95 (s) | p99 (s) | dedup rate | "
        "dedup verified |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for name, arm in result["arms"].items():
        verified = all(arm["dedup_verified"].values())
        lines.append(
            f"| {name} | {arm['clients']} | {arm['distinct_specs']} "
            f"| {arm['backend']} | {arm['throughput_rps']} "
            f"| {arm['p50_s']} | {arm['p95_s']} | {arm['p99_s']} "
            f"| {arm['dedup_hit_rate']:.0%} "
            f"| {'yes' if verified else 'NO'} |")
    return "\n".join(lines)


def _check(result: dict, reference: dict, tolerance: float) -> list[str]:
    failures = []
    for name, arm in result["arms"].items():
        for contract, held in arm["dedup_verified"].items():
            if not held:
                failures.append(f"arm {name}: dedup contract "
                                f"{contract!r} violated")
        ref = (reference.get("arms") or {}).get(name)
        if ref and arm["p95_s"] > ref["p95_s"] * (1.0 + tolerance):
            failures.append(
                f"arm {name}: p95 {arm['p95_s']:.3f}s vs reference "
                f"{ref['p95_s']:.3f}s (> {tolerance:.0%} slower)")
        if arm["throughput_rps"] <= 0:
            failures.append(f"arm {name}: throughput is zero")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="service load benchmark (see module docstring)")
    parser.add_argument("--quick", action="store_true",
                        help="the 24-client arm only (CI-sized)")
    parser.add_argument("--write", action="store_true",
                        help="update the `current` section of "
                             "BENCH_SERVICE.json")
    parser.add_argument("--as-baseline", action="store_true",
                        help="store this measurement as `baseline` "
                             "instead")
    parser.add_argument("--check", action="store_true",
                        help="fail (exit 1) if any dedup contract is "
                             "violated or p95 regresses >tolerance vs "
                             "the checked-in `current`")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="relative p95 slowdown allowed by --check "
                             f"(default {DEFAULT_TOLERANCE}; latency "
                             "is noisier than wall-clock compute, so "
                             "this gate is looser than bench_kernel's)")
    parser.add_argument("--table", action="store_true",
                        help="print the E18 markdown table and exit "
                             "(reads the stored `current` section; "
                             "measures if absent)")
    parser.add_argument("--json", type=Path, default=RESULT_PATH,
                        help="result file (default: repo-root "
                             "BENCH_SERVICE.json)")
    args = parser.parse_args(argv)

    if SRC not in sys.path:
        sys.path.insert(0, SRC)

    stored: dict = {}
    if args.json.exists():
        stored = json.loads(args.json.read_text(encoding="utf-8"))

    if args.table:
        reference = stored.get("current") or stored.get("current_quick")
        if not reference:
            reference = measure(args.quick)
        print(render_table(reference))
        return 0

    result = measure(args.quick)
    reference_key = "current_quick" if args.quick else "current"
    baseline_key = "baseline_quick" if args.quick else "baseline"
    _print_report(result)

    if args.check:
        reference = stored.get(reference_key, {})
        failures = _check(result, reference, args.tolerance)
        if failures:
            print("SERVICE GATE FAILURE:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"service check ok (dedup contracts hold, p95 within "
              f"{args.tolerance:.0%} of {reference_key})")

    if args.write or args.as_baseline:
        key = baseline_key if args.as_baseline else reference_key
        stored[key] = result
        args.json.write_text(
            json.dumps(stored, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"{key} written to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
