"""``python -m bench compare A.json B.json``: apply the bounds.

``A`` and ``B`` are run sets written by ``python -m bench --runs N --out``
(end-to-end runs, traced runs, or both in one file).  One row per
(workload, end-to-end metric) gives both medians, the wider of the two
run-to-run spreads, the bound from ``BENCHMARK.json`` and a verdict:

- ``regressed``  — B's median is worse than A's by more than the bound,
  or B failed a larger share of its ops;
- ``unresolved`` — the spread is wider than the bound, so "no worse"
  cannot be claimed (unless every run of B beats every run of A);
- ``ok``         — otherwise.

Traced runs are matched by (workload, seed) and every exact metric
(unit ``count`` or ``vtime``) must be identical.  Exit status is
non-zero on any regression or count mismatch.
"""

from __future__ import annotations

import argparse
import json
from collections import defaultdict
from pathlib import Path
from statistics import median

from bench.contract import load_contract, spread, workload_names

#: Units whose values are simulated statistics or exact tallies: equal
#: seeds must give equal values, on one commit or across a pure speed PR.
EXACT_UNITS = ("count", "vtime")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench compare",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    contract = load_contract()
    runs_a = json.loads(args.a.read_text())["runs"]
    runs_b = json.loads(args.b.read_text())["runs"]

    bad = 0
    print(f"{'workload':<15} {'metric':<13} {'n':>5} {'median A':>12} "
          f"{'median B':>12} {'B vs A':>8} {'spread':>7} {'bound':>6}  verdict")
    for workload in workload_names(contract):
        side_a = _end_to_end(runs_a, workload)
        side_b = _end_to_end(runs_b, workload)
        if not (side_a and side_b):
            continue
        for metric in contract["end_to_end"]:
            row = judge([run["metrics"][metric["name"]]["value"]
                         for run in side_a],
                        [run["metrics"][metric["name"]]["value"]
                         for run in side_b], metric)
            bad += row["verdict"] == "regressed"
            print(f"{workload:<15} {metric['name']:<13} "
                  f"{len(side_a):>2}/{len(side_b):<2} {row['a']:>12.6g} "
                  f"{row['b']:>12.6g} {row['worse']:>+8.1%} "
                  f"{row['spread']:>7.1%} {metric['bound']:>6.0%}  "
                  f"{row['verdict']}")
        share_a, share_b = _failed_share(side_a), _failed_share(side_b)
        verdict = "regressed" if share_b > share_a else "ok"
        bad += verdict == "regressed"
        print(f"{workload:<15} {'failed_share':<13} "
              f"{len(side_a):>2}/{len(side_b):<2} {share_a:>12.6g} "
              f"{share_b:>12.6g} {'':>8} {'':>7} {'any':>6}  {verdict}")
    mismatches = exact_mismatches(runs_a, runs_b)
    for line in mismatches:
        print(f"count mismatch: {line}")
    print(f"{bad} regressed, {len(mismatches)} count mismatches")
    return 1 if bad or mismatches else 0


def _end_to_end(runs: list, workload: str) -> list:
    return [run for run in runs
            if run["workload"] == workload and not run["trace"]]


def _failed_share(runs: list) -> float:
    return (sum(run["failed"] for run in runs)
            / sum(run["attempted"] for run in runs))


def judge(a: list, b: list, metric: dict) -> dict:
    """Verdict for one (workload, metric) pair; ``worse`` is B's median
    relative to A's, signed so that positive is worse."""
    med_a, med_b = median(a), median(b)
    higher_is_better = metric["better"] == "higher"
    worse = (med_a - med_b if higher_is_better else med_b - med_a) / med_a
    width = max(spread(a), spread(b))
    if higher_is_better:
        b_always_better = min(b) > max(a)
    else:
        b_always_better = max(b) < min(a)
    if worse > metric["bound"]:
        verdict = "regressed"
    elif width > metric["bound"] and not b_always_better:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {"a": med_a, "b": med_b, "worse": worse, "spread": width,
            "verdict": verdict}


def exact_mismatches(runs_a: list, runs_b: list) -> list:
    """Exact metrics that differ between traced runs of equal
    (workload, seed) — within one file as well as across the two."""
    seen: dict = defaultdict(dict)
    lines = []
    for label, runs in (("A", runs_a), ("B", runs_b)):
        for run in runs:
            if not run["trace"]:
                continue
            key = (run["workload"], run["seed"])
            for name, entry in run["metrics"].items():
                if entry["unit"] not in EXACT_UNITS:
                    continue
                first = seen[key].setdefault(name, (label, entry["value"]))
                if first[1] != entry["value"]:
                    lines.append(f"{key[0]} seed {key[1]} {name}: "
                                 f"{first[0]}={first[1]} "
                                 f"{label}={entry['value']}")
    return lines
