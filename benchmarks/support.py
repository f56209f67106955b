"""Shared machinery for the benchmark harness.

The ablation benches average seeded simulator runs through
:func:`measure`, which in turn routes through the parallel experiment
engine (:func:`repro.execution.run_tasks`): set
``REPRO_BENCH_WORKERS=4`` (or pass ``workers=``) and the per-repeat
runs of every measurement fan out over a process pool.  Results are identical at any worker count — each
repeat receives a pristine pickled copy of the adversary and factory,
whether it runs in-process or in a worker.

Long campaigns inherit the engine's resilience layer:
``REPRO_BENCH_RETRIES`` (default 2) retries transiently-failing runs,
and ``REPRO_BENCH_TASK_TIMEOUT`` (seconds; unset disables) kills and
retries stalled ones.  Retried runs are bit-identical to first-try
runs (tasks are pure and re-seeded from their payload), so the
resilience knobs never change a measured number — a bench either
reports the same result or fails loudly after the retry budget.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.adversary import (
    ByzantineAdversary,
    ComposedAdversary,
    CrashAdversary,
    PerPeerStrategy,
    UniformRandomDelay,
    WrongBitsStrategy,
)
from repro.execution import RetryPolicy, run_tasks
from repro.profiling import maybe_profile
from repro.sim import run_download

#: Default worker count for every bench measurement; override per call
#: with ``measure(..., workers=N)`` or globally via the environment.
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))

#: Default retry/timeout policy for every bench measurement; override
#: per call with ``measure(..., policy=...)`` or via the environment.
BENCH_POLICY = RetryPolicy(
    max_attempts=1 + int(os.environ.get("REPRO_BENCH_RETRIES", "2")),
    task_timeout=(float(os.environ["REPRO_BENCH_TASK_TIMEOUT"])
                  if os.environ.get("REPRO_BENCH_TASK_TIMEOUT") else None))


@dataclass
class Row:
    """One row of a regenerated table."""

    label: str
    values: dict = field(default_factory=dict)

    def cell(self, key: str) -> str:
        value = self.values.get(key, "")
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)


def print_table(title: str, columns: list[str], rows: Iterable[Row]) -> None:
    """Print a fixed-width table (the bench's human-readable artifact)."""
    rows = list(rows)
    widths = {column: max([len(column)]
                          + [len(row.cell(column)) for row in rows])
              for column in columns}
    label_width = max([5] + [len(row.label) for row in rows])
    print(f"\n=== {title} ===")
    header = " | ".join([" " * label_width]
                        + [column.rjust(widths[column])
                           for column in columns])
    print(header)
    print("-" * len(header))
    for row in rows:
        print(" | ".join([row.label.ljust(label_width)]
                         + [row.cell(column).rjust(widths[column])
                            for column in columns]))


def crash_setup(beta: float, *, mode: str = "mid_broadcast"):
    """Asynchronous network + beta-fraction crashes."""
    if beta <= 0:
        return UniformRandomDelay()
    return ComposedAdversary(
        faults=CrashAdversary(crash_fraction=beta, mode=mode),
        latency=UniformRandomDelay())


def byzantine_setup(beta: float, strategy_factory=None):
    """Asynchronous network + beta-fraction Byzantine corruption."""
    if beta <= 0:
        return UniformRandomDelay()
    return ComposedAdversary(
        faults=ByzantineAdversary(
            fraction=beta,
            strategy_factory=strategy_factory
            or PerPeerStrategy(WrongBitsStrategy)),
        latency=UniformRandomDelay())


def _measure_one(payload: dict) -> tuple:
    """One seeded run, reduced to the numbers ``measure`` aggregates.

    Module-level so it pickles into the engine's worker processes.
    """
    result = run_download(**payload)
    return (result.report.query_complexity,
            result.report.message_complexity,
            result.report.time_complexity,
            bool(result.download_correct))


def measure(*, n: int, ell: int, peer_factory, adversary=None,
            t: Optional[int] = None, seed: int = 0, repeats: int = 1,
            workers: Optional[int] = None,
            policy: Optional[RetryPolicy] = None, **kwargs) -> dict:
    """Run ``repeats`` seeded simulations; average the complexity
    measures and verify correctness (fallback-free benches require it).

    ``workers`` (default :data:`BENCH_WORKERS`) fans the repeats over
    the parallel experiment engine; each repeat gets a pristine copy of
    the adversary and factory regardless of worker count, so serial and
    parallel measurements agree exactly.  ``policy`` (default
    :data:`BENCH_POLICY`) retries transient worker faults; a repeat
    that fails every attempt raises — benches never report partial
    numbers.
    """
    workers = BENCH_WORKERS if workers is None else workers
    policy = BENCH_POLICY if policy is None else policy
    payloads = [dict(n=n, ell=ell, peer_factory=peer_factory,
                     adversary=adversary, t=t,
                     seed=seed + 1000 * repeat, **kwargs)
                for repeat in range(repeats)]
    # REPRO_PROFILE=1 profiles the in-process repeats (worker-pool
    # repeats run outside this process and are not captured).
    with maybe_profile(label=f"measure n={n} ell={ell}"):
        measured = run_tasks(_measure_one, payloads, workers=workers,
                             policy=policy,
                             task_seeds=[payload["seed"]
                                         for payload in payloads])
    queries = [entry[0] for entry in measured]
    messages = [entry[1] for entry in measured]
    times = [entry[2] for entry in measured]
    count = len(queries)
    return {
        "Q": sum(queries) / count,
        "Q_max": max(queries),
        "M": sum(messages) / count,
        "T": sum(times) / count,
        "correct": sum(entry[3] for entry in measured),
        "runs": count,
    }
