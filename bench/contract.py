"""The benchmark contract and the few helpers every module shares.

``BENCHMARK.json`` at the repository root is the single source of
truth for the workloads the driver judges and for metric names, units,
directions and bounds; ``ungated.json`` beside this file declares, in
the same shapes, the workloads that are run by hand only (and the
per-layer metrics only they report).  Nothing in ``bench/`` repeats
either.  A name the code emits but neither declares is an error, not a
silent extra column.
"""

from __future__ import annotations

import json
import random
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONTRACT_PATH = ROOT / "BENCHMARK.json"
UNGATED_PATH = Path(__file__).resolve().parent / "ungated.json"

#: Load-generator width: pool workers, client threads, server pool.
#: Pinned (not ``os.cpu_count()``) so an op is the same op on any box.
NPROC = 2

#: Default ``--seed``; pinned so an argument-free run repeats exactly.
DEFAULT_SEED = 20250930

#: Fewest timed ops a run may report a decile over.
MIN_OPS = 10

#: Ops per phase of the traced run (``serve_closed``: jobs).
TRACE_OPS = 3
TRACE_JOBS = 200


def load_contract() -> dict:
    """``BENCHMARK.json``, plus ``ungated.json`` under ``"ungated"``."""
    contract = json.loads(CONTRACT_PATH.read_text(encoding="utf-8"))
    contract["ungated"] = json.loads(UNGATED_PATH.read_text(encoding="utf-8"))
    return contract


def workload_names(contract: dict, gated_only: bool = False) -> list[str]:
    entries = contract["workloads"]
    if not gated_only:
        entries = entries + contract["ungated"]["workloads"]
    return [entry["name"] for entry in entries]


def metric_table(contract: dict, section: str,
                 workload: str = "") -> dict[str, dict]:
    """``name -> declaration`` for ``end_to_end`` or ``per_layer``.  A
    workload the driver judges reports exactly the names of
    ``BENCHMARK.json``; an ungated one adds the ungated per-layer names."""
    entries = contract[section]
    if (section == "per_layer"
            and workload not in workload_names(contract, gated_only=True)):
        entries = entries + contract["ungated"]["per_layer"]
    return {entry["name"]: entry for entry in entries}


def with_units(values: dict, declared: dict[str, dict]) -> dict:
    """Attach declared units; the name sets must match exactly."""
    if set(values) != set(declared):
        missing = sorted(set(declared) - set(values))
        extra = sorted(set(values) - set(declared))
        raise ValueError(f"metric names drifted from BENCHMARK.json: "
                         f"missing {missing}, undeclared {extra}")
    return {name: {"value": values[name], "unit": declared[name]["unit"]}
            for name in declared}


def derive(seed: int, *labels) -> int:
    """A 31-bit sub-seed of ``seed`` for ``labels`` (stable across
    processes: string seeding hashes with SHA-512, not ``hash()``)."""
    key = ":".join(str(part) for part in (seed, *labels))
    return random.Random(key).getrandbits(31)


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (not interpolated, so a
    reported tail is always a latency that actually happened)."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, int(len(ordered) * fraction))
    return ordered[rank]


#: Share of a run's samples on the good side of a reported timing.
QUIET_SHARE = 0.10


def quiet_decile(values, higher_is_better: bool = False) -> float:
    """The decile on the *good* side of ``values``: the lowest of times,
    the highest of rates.  Every reported timing is this, not the
    median.  The host's noise is one-sided — neighbours only ever add
    time — and comes in bursts that can cover most of a run, so the
    median of a run follows the host; the good decile needs only a tenth
    of the samples to have run undisturbed, and a real slowdown of the
    program moves it exactly as far as it moves the median."""
    if higher_is_better:
        return -percentile([-value for value in values], QUIET_SHARE)
    return percentile(values, QUIET_SHARE)


def spread(values) -> float:
    """Inter-quartile distance as a share of the median — the
    steadiness measure the acceptance check applies to ten runs."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0
