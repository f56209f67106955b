"""Measurement instruments owned by the benchmark.

Everything here observes the program from outside: a span recorder the
workloads wrap around public calls, a ``cProfile`` fold that bins self
time by ``src/repro/`` package, and the CPU / RSS clocks.  Nothing is
installed into ``repro`` itself — spans inside the program are a later
change.
"""

from __future__ import annotations

import itertools
import json
import os
import pstats
import resource
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

_TICKS = os.sysconf("SC_CLK_TCK")

#: ``sim`` files reported as layers of their own next to the package.
_SIM_FILES = {"scheduler.py": "sim.scheduler", "calqueue.py": "sim.scheduler",
              "network.py": "sim.network",
              "source.py": "sim.source", "sourceset.py": "sim.source"}


class SpanRecorder:
    """In-memory spans: name, start, end, parent span, op id.

    Disabled (the default, and the state of every end-to-end run) a
    span is one attribute test.  Enabled, spans are kept in a list and
    written out as JSONL only when the run ends.  Parent and op id are
    tracked per thread, so the two ``serve_closed`` clients nest
    correctly.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, op=None):
        if not self.enabled:
            yield
            return
        local = self._local
        stack = local.__dict__.setdefault("stack", [])
        if op is not None:
            local.op = op
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append({
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "op": getattr(local, "op", None)})

    def totals(self) -> dict[str, dict]:
        """``name -> {count, total_s, self_s}``; self time is a span's
        duration minus what its child spans cover."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        out: dict[str, dict] = {}
        for span in self.spans:
            duration = span["end"] - span["start"]
            row = out.setdefault(span["name"],
                                 {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - covered[span["id"]]
        return out

    def durations(self, name: str) -> list[float]:
        return [span["end"] - span["start"] for span in self.spans
                if span["name"] == name]

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def layer_of(filename: str) -> str:
    """The ``src/repro/`` package a profiled function belongs to.

    Anything outside the package (stdlib, builtins, ``bench/`` itself)
    folds into ``other`` — it still counts toward the total, so shares
    are shares of the whole traced section.
    """
    _, found, tail = filename.replace(os.sep, "/").rpartition("/src/repro/")
    if not found:
        return "other"
    package, _, rest = tail.partition("/")
    if not rest:
        return "repro"  # top-level modules: cli, persistence, ...
    if package == "sim":
        return _SIM_FILES.get(rest, "sim")
    return package


def fold_profile(profile) -> dict[str, float]:
    """Share of ``cProfile`` self time per layer.

    Self time of code outside the package — ``random.shuffle`` under the
    router, ``heapq`` under the scheduler, ``json`` under the cache — is
    charged to the package functions that called it, in proportion to
    the time spent on behalf of each caller, walking up until a package
    frame is found.  Only what nothing in the package called (the
    benchmark's own loop) stays in ``other``.  ``sim`` includes its
    sub-layers as well as reporting them separately.
    """
    stats = pstats.Stats(profile).stats
    by_layer: dict[str, float] = defaultdict(float)

    def charge(function, seconds: float, depth: int) -> None:
        layer = layer_of(function[0])
        callers = stats[function][4] if function in stats else {}
        on_behalf = sum(row[2] for row in callers.values())
        if layer != "other" or not on_behalf or depth > 32:
            by_layer[layer] += seconds
            return
        for caller, row in callers.items():
            if row[2]:
                charge(caller, seconds * row[2] / on_behalf, depth + 1)

    for function, row in stats.items():
        charge(function, row[2], 0)
    for layer in list(by_layer):
        if layer.startswith("sim."):
            by_layer["sim"] += by_layer[layer]
    total = sum(row[2] for row in stats.values())
    if not total:
        return {}
    return {layer: seconds / total for layer, seconds in by_layer.items()}


def clock() -> tuple[float, float]:
    """``(wall, cpu)``: CPU is user+sys of this process *and* of every
    child it has already waited for (pool workers are reaped inside the
    call that used them, so a timed op sees their cost)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (time.perf_counter(),
            time.process_time() + children.ru_utime + children.ru_stime)


def live_cpu(pid: int) -> float:
    """user+sys CPU so far of a child that is still running (the job
    server), from ``/proc``; 0.0 where ``/proc`` is not available."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    fields = stat.rsplit(")", 1)[1].split()
    # utime, stime, cutime, cstime are fields 14-17 of the full line.
    return sum(int(fields[index]) for index in (11, 12, 13, 14)) / _TICKS


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def calibrate() -> float:
    """Seconds for a fixed pure-python spin: says how fast and how busy
    the host is right now, independently of any repository code."""
    start = time.perf_counter()
    total = 0
    for index in range(1_000_000):
        total += index * index % 7
    return time.perf_counter() - start
