"""Six-figure-n gate benchmark: byz-committee downloads at n = 10^3..10^5.

Each *arm* is one seeded byz-committee run (``ell = 4096``,
``block_size = 128``, ``t = 3`` — committees of 7 over 32 blocks) at
``n`` in {10^3, 10^4, 10^5}: ``n1e3``, ``n1e4``, ``n1e5``.  Fault-free
with unit latencies every broadcast collapses to two pid spans, so
this is the span-broadcast + committee-board path at its best case —
and the sizes the pytest battery does not reach.

``BENCH_SCALE.json`` pins, per arm, the *accounting record* (Q/T/M,
event counts, a digest of the queried sets) and the host numbers
(``wall_seconds``, ``peak_rss_mb``).  The records were pinned while
the simulator still had two engines (the per-peer one and the opt-in
batched one this is now) and both produced them byte for byte, so
``--check`` comparing a fresh record with the pinned one still
enforces equality with the deleted engine.  ``--write`` therefore
re-pins the host numbers only and refuses a record that moved.  The
two-engine measurements themselves are kept under
``retired_baseline`` as the before-numbers.

Every arm runs in its own subprocess so ``peak_rss_mb``
(``getrusage(RUSAGE_SELF).ru_maxrss``) is an honest per-arm figure and
no arm warms another's allocator.

Usage::

    python benchmarks/bench_scale.py                 # all arms + print
    python benchmarks/bench_scale.py --quick         # n=10^3 only
    python benchmarks/bench_scale.py --write         # re-pin host numbers
    python benchmarks/bench_scale.py --quick --check # CI perf-smoke:
        # record must equal the pin; wall-clock within 30% of it
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_SCALE.json"

#: Regression tolerance for ``--check`` wall-clock comparisons
#: (mirrors bench_kernel's perf-smoke gate).
DEFAULT_TOLERANCE = 0.30

#: The one protocol shape every arm runs (see module docstring).
ELL = 4096
BLOCK_SIZE = 128
T = 3
SEED = 101
MAX_EVENTS = 50_000_000

ARMS = {"n1e3": 1_000, "n1e4": 10_000, "n1e5": 100_000}
QUICK_ARMS = ["n1e3"]


def _queried_sha(queried: dict) -> str:
    parts = [f"{pid}:{','.join(map(str, sorted(indices)))}"
             for pid, indices in sorted(queried.items())]
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()


def run_arm(name: str) -> dict:
    """Execute one arm in this process and return its row."""
    import resource

    from repro.protocols.byz_committee import ByzCommitteeDownloadPeer
    from repro.sim import run_download

    n = ARMS[name]
    start = time.perf_counter()
    result = run_download(
        n=n, ell=ELL,
        peer_factory=ByzCommitteeDownloadPeer.factory(block_size=BLOCK_SIZE),
        t=T, seed=SEED, max_events=MAX_EVENTS)
    wall = time.perf_counter() - start
    if not result.download_correct:
        raise RuntimeError(f"arm {name}: incorrect download — "
                           f"refusing to time it")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "n": n,
        "wall_seconds": round(wall, 4),
        "peak_rss_mb": round(rss_kb / 1024.0, 1),
        "record": {
            "correct": True,
            "query_complexity": result.report.query_complexity,
            "total_query_bits": result.report.total_query_bits,
            "message_complexity": result.report.message_complexity,
            "message_bits": result.report.message_bits,
            "time_complexity": repr(result.report.time_complexity),
            "elapsed_virtual_time": repr(result.elapsed_virtual_time),
            "events_processed": result.events_processed,
            "queried_sha": _queried_sha(result.queried_indices),
        },
    }


def _run_arm_subprocess(name: str) -> dict:
    """Run one arm in a fresh interpreter (honest peak-RSS, no shared
    allocator warm-up) and parse its JSON row."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--arm", name],
        capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"arm {name} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def measure(quick: bool) -> dict:
    arms = {}
    for name in (QUICK_ARMS if quick else ARMS):
        print(f"  running {name} ...", flush=True)
        arms[name] = _run_arm_subprocess(name)
    return arms


def _print_report(arms: dict, pinned: dict) -> None:
    print("== bench_scale ==")
    for name, arm in arms.items():
        record = arm["record"]
        same = record == (pinned.get(name) or {}).get("record")
        print(f"  {name:<5} n={arm['n']:>6}  "
              f"{arm['wall_seconds']:>8.2f} s  "
              f"{arm['peak_rss_mb']:>7.1f} MB  "
              f"Q={record['query_complexity']} "
              f"M={record['message_complexity']} "
              f"events={record['events_processed']}  "
              f"record {'= pin' if same else 'DIVERGED from pin'}")


def _check(arms: dict, pinned: dict, tolerance=None) -> list[str]:
    """Failures of ``arms`` against their pins: a record that moved,
    and (given a ``tolerance``) a wall-clock that regressed."""
    failures = []
    for name, arm in arms.items():
        pin = pinned.get(name)
        if not pin:
            failures.append(f"arm {name}: nothing pinned")
            continue
        if arm["record"] != pin["record"]:
            moved = sorted(key for key in pin["record"]
                           if arm["record"].get(key) != pin["record"][key])
            failures.append(f"arm {name}: accounting record diverged "
                            f"from the pin in {moved}")
        if tolerance is not None and \
                arm["wall_seconds"] > pin["wall_seconds"] * (1.0 + tolerance):
            failures.append(
                f"arm {name}: {arm['wall_seconds']:.2f} s vs pinned "
                f"{pin['wall_seconds']:.2f} s (> {tolerance:.0%} slower)")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="six-figure-n gate benchmark (see module docstring)")
    parser.add_argument("--quick", action="store_true",
                        help="n=10^3 arm only (CI-sized)")
    parser.add_argument("--write", action="store_true",
                        help="re-pin wall_seconds / peak_rss_mb of the "
                             "measured arms in BENCH_SCALE.json (records "
                             "are never rewritten)")
    parser.add_argument("--check", action="store_true",
                        help="fail (exit 1) if an arm's record differs "
                             "from its pin or it runs >tolerance slower")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="relative slowdown allowed by --check "
                             f"(default {DEFAULT_TOLERANCE})")
    parser.add_argument("--json", type=Path, default=RESULT_PATH,
                        help="result file (default: repo-root "
                             "BENCH_SCALE.json)")
    parser.add_argument("--arm", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.arm:
        # Subprocess mode: run one arm, print its row as JSON.
        print(json.dumps(run_arm(args.arm)))
        return 0

    stored = json.loads(args.json.read_text(encoding="utf-8"))
    pinned = stored["arms"]
    arms = measure(args.quick)
    _print_report(arms, pinned)

    if args.check or args.write:
        # --write gates on the records too: only host numbers move.
        failures = _check(arms, pinned,
                          args.tolerance if args.check else None)
        if failures:
            print("SCALE GATE FAILURE:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        if args.check:
            print(f"scale check ok (records equal the pins, every arm "
                  f"within {args.tolerance:.0%} of its pinned wall-clock)")

    if args.write:
        for name, arm in arms.items():
            pinned[name]["wall_seconds"] = arm["wall_seconds"]
            pinned[name]["peak_rss_mb"] = arm["peak_rss_mb"]
        stored["python"] = sys.version.split()[0]
        args.json.write_text(
            json.dumps(stored, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"host numbers of {', '.join(arms)} re-pinned in {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
