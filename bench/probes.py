"""Layer probes: fixed batteries against one public entry point each.

A probe times a layer in isolation, so a change to that layer has a
number of its own beside the workload it should move.  Each runs only
in the traced run of the workload whose layer it isolates (see
``Workload.layer_values``) and reports the median over a few repeats.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from statistics import median

from repro.execution import (ResultCache, SweepJournal, run_tasks,
                             spec_cache_key)
from repro.experiments import (ExperimentSpec, execute_repeat,
                               run_experiment, sweep_experiment)
from repro.net import run_net_download
from repro.sim import Kernel
from repro.topology import Router, build_topology
from repro.util.bitarrays import BitArray

from bench.contract import NPROC, derive

#: The tiny, execution-is-negligible spec the cache, journal and
#: service measurements are built from.
SMALL_SPEC = {"protocol": "naive", "n": 4, "ell": 64, "repeats": 2}


def timed(call, repeats: int = 5) -> float:
    """Median wall seconds of ``call()`` over ``repeats`` calls."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return median(samples)


def bitarray_bulk(seed: int, ell: int = 65536) -> dict:
    rng = random.Random(derive(seed, "bits"))
    bits = [rng.getrandbits(1) for _ in range(ell)]
    array = BitArray.from_bits(bits)
    indices = list(range(0, ell, 3))
    text = array.segment(0, ell)

    def battery() -> None:
        BitArray.from_bits(bits)
        array.segment(0, ell)
        BitArray(ell).set_segment(0, text)
        array.get_many(indices)
        array.count_ones()
        array.to_bits()

    return {"util.bitarray_bulk_s": timed(battery)}


def kernel_throughput(ticks: int = 100_000) -> dict:
    def spin() -> None:
        kernel = Kernel()
        remaining = [ticks]

        def tick() -> None:
            remaining[0] -= 1
            if remaining[0] > 0:
                kernel.schedule(1.0, tick)

        kernel.schedule(1.0, tick)
        kernel.run(max_events=ticks + 10)

    return {"sim.kernel_events_per_s": ticks / timed(spin, repeats=3)}


def topology_build(graphs, seed: int) -> dict:
    def build() -> None:
        for name, n in graphs:
            build_topology(name, n, seed)

    return {"topology.build_s": timed(build)}


def router_tables(graphs, seed: int) -> dict:
    """Every per-destination BFS table of each graph, built once (the
    tables are cached per ``Router``, so a repeat needs a new one)."""
    tables = 0
    start = time.perf_counter()
    for name, n in graphs:
        router = Router(build_topology(name, n, seed), seed)
        for destination in range(n):
            router.next_hop((destination + 1) % n, destination)
        tables += n
    return {"topology.router_build_s": time.perf_counter() - start,
            "topology.router_tables": tables}


def net_transport(seed: int, *, n: int, ell: int) -> dict:
    """The counters ``RepeatRecord`` drops: one fault-free run straight
    through ``run_net_download``, then one under a lossy proxy (whose
    wall time is backoff sleeps, so it is a diagnostic only)."""
    clean = run_net_download(n=n, ell=ell, protocol="balanced", seed=seed)
    start = time.perf_counter()
    chaos = run_net_download(n=8, ell=ell, protocol="balanced", seed=seed,
                             proxy_faults=("drop:0.1", "dup:0.1"))
    chaos_wall = time.perf_counter() - start
    if not (clean.correct and chaos.correct):
        raise RuntimeError("net probe produced an incorrect download")
    return {"net.retries": clean.retries,
            "net.requests_served": clean.requests_served,
            "net.chaos_run_s": chaos_wall,
            "net.chaos_retries": chaos.retries}


def spec_build(seed: int, count: int = 1000) -> dict:
    def build() -> None:
        for index in range(count):
            ExperimentSpec(base_seed=seed + index, **SMALL_SPEC)

    return {"experiments.spec_build_s": timed(build)}


def cache_key(seed: int, count: int = 1000) -> dict:
    specs = [ExperimentSpec(base_seed=seed + index, **SMALL_SPEC)
             for index in range(count)]

    def keys() -> None:
        for spec in specs:
            spec_cache_key(spec)

    return {"execution.cache_key_s": timed(keys)}


def _small_outcomes(seed: int, count: int):
    specs = [ExperimentSpec(base_seed=seed + index, **SMALL_SPEC)
             for index in range(count)]
    return specs, [run_experiment(spec) for spec in specs]


def cache_hit(directory: Path, seed: int, count: int = 64) -> dict:
    specs, outcomes = _small_outcomes(seed, count)
    cache = ResultCache(directory / "probe-hit")
    for spec, outcome in zip(specs, outcomes):
        cache.put(spec, outcome)
    hits = []
    for spec in specs:
        start = time.perf_counter()
        found = cache.get(spec)
        hits.append(time.perf_counter() - start)
        if found is None:
            raise RuntimeError("cache probe missed an entry it stored")
    return {"execution.cache_get_hit_s": median(hits)}


def cache_miss_put(directory: Path, seed: int, count: int = 64) -> dict:
    specs, outcomes = _small_outcomes(seed, count)
    cache = ResultCache(directory / "probe-put")
    misses, puts = [], []
    for spec, outcome in zip(specs, outcomes):
        start = time.perf_counter()
        found = cache.get(spec)
        middle = time.perf_counter()
        cache.put(spec, outcome)
        puts.append(time.perf_counter() - middle)
        misses.append(middle - start)
        if found is not None:
            raise RuntimeError("cache probe hit in an empty cache")
    return {"execution.cache_get_miss_s": median(misses),
            "execution.cache_put_s": median(puts)}


def journal(directory: Path, seed: int, points: int = 16) -> dict:
    spec = ExperimentSpec(base_seed=seed, **SMALL_SPEC)
    record = execute_repeat(spec, 0)
    log = SweepJournal(directory / "probe-append.jsonl")
    appends = []
    for repeat in range(64):
        start = time.perf_counter()
        log.record(spec, repeat, record)
        appends.append(time.perf_counter() - start)
    # Replay: the second pass over a finished journaled sweep executes
    # nothing and re-aggregates every point from the file.
    path = directory / "probe-replay.jsonl"
    values = [seed + index for index in range(points)]
    first = sweep_experiment(spec, axis="base_seed", values=values,
                             journal=path)
    start = time.perf_counter()
    again = sweep_experiment(spec, axis="base_seed", values=values,
                             journal=path)
    replay = time.perf_counter() - start
    if first != again:
        raise RuntimeError("journal replay changed an outcome")
    return {"execution.journal_append_s": median(appends),
            "execution.journal_replay_s": replay}


def _noop(payload):
    return payload


def pool(tasks: int = 200) -> dict:
    """``run_tasks`` returns early on an empty list and stays serial on
    one payload, so two no-ops is the smallest call that pays for a
    pool; the per-task cost is the slope from there to ``tasks``."""
    spinup = timed(lambda: run_tasks(_noop, range(2), workers=NPROC),
                   repeats=3)
    loaded = timed(lambda: run_tasks(_noop, range(tasks), workers=NPROC),
                   repeats=3)
    return {"execution.pool_spinup_s": spinup,
            "execution.task_overhead_s": (loaded - spinup) / (tasks - 2)}
