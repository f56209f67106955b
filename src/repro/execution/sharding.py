"""Sharded execution of message-free protocol runs.

A protocol whose peers never exchange peer-to-peer messages (each peer
talks only to the external source — ``peer_to_peer = False`` on the
peer class) couples its peers *only* through global parameters: the
input array, the seed, and the per-peer RNG/latency streams.  All of
those are pure functions of ``(seed, pid)``, so one run over ``n``
peers equals the disjoint union of runs over any partition of the pid
space — *bit-for-bit*, not just statistically:

- the input array derives from ``seed`` alone (every shard rebuilds
  the same bits);
- peer RNG streams split off ``rng.split(f"peer-{pid}")`` — untouched
  by which other peers exist;
- adversary latency streams are drawn per ``(pid, request)`` counter,
  so the draw sequence a peer sees is independent of its co-residents;
- complexity measures decompose: ``Q`` is a max over peers, totals are
  sums, ``T`` is a max (all peers start at 0 under the supported
  adversaries).

:func:`run_sharded` exploits this to split a six-figure ``n`` over
worker processes via the same
:func:`~repro.execution.parallel.run_tasks` machinery the experiment
engine uses (retry policy, pool-rebuild fault tolerance included).
Protocols that message (``peer_to_peer = True``) are rejected at the
door: their peers couple through the network, and a shard would raise
``unknown destination peer`` on the first cross-shard send anyway.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.execution.parallel import run_tasks
from repro.sim.errors import ConfigurationError
from repro.sim.metrics import ComplexityReport
from repro.sim.runner import RunResult, Simulation
from repro.sim.scheduler import DEFAULT_MAX_EVENTS

__all__ = ["merge_results", "run_sharded", "shard_pids"]


def shard_pids(n: int, shards: int) -> list[range]:
    """Split ``0..n-1`` into ``shards`` contiguous, near-even ranges."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    shards = min(shards, n)
    per = math.ceil(n / shards)
    return [range(lo, min(n, lo + per)) for lo in range(0, n, per)]


def _run_shard(payload: dict) -> RunResult:
    """Worker: one shard's :class:`Simulation` (module-level so the
    pool can pickle it)."""
    kwargs = dict(payload["kwargs"])
    simulation = Simulation(peer_subset=payload["subset"], **kwargs)
    return simulation.run(max_events=payload["max_events"])


def merge_results(parts: Sequence[RunResult]) -> RunResult:
    """Fold per-shard results into the whole-run result.

    Shard-local measures recombine exactly: maxima over peers (``Q``,
    ``T``) are maxima of shard maxima, totals are sums, and the
    per-peer dicts are disjoint unions.
    """
    if not parts:
        raise ValueError("merge_results needs at least one shard result")
    outputs: dict = {}
    statuses: dict = {}
    queried: dict = {}
    queried_by_source: dict = {}
    honest: set[int] = set()
    faulty: set[int] = set()
    per_query: dict[int, int] = {}
    per_msgs: dict[int, int] = {}
    for part in parts:
        outputs.update(part.outputs)
        statuses.update(part.statuses)
        queried.update(part.queried_indices)
        queried_by_source.update(part.queried_by_source)
        honest |= part.honest
        faulty |= part.faulty
        per_query.update(part.report.per_peer_query_bits)
        per_msgs.update(part.report.per_peer_messages)
    report = ComplexityReport(
        query_complexity=max(
            (part.report.query_complexity for part in parts), default=0),
        total_query_bits=sum(part.report.total_query_bits
                             for part in parts),
        message_complexity=sum(part.report.message_complexity
                               for part in parts),
        message_bits=sum(part.report.message_bits for part in parts),
        time_complexity=max(part.report.time_complexity for part in parts),
        per_peer_query_bits=per_query,
        per_peer_messages=per_msgs,
    )
    return RunResult(
        data=parts[0].data,
        outputs=outputs,
        statuses=statuses,
        report=report,
        honest=honest,
        faulty=faulty,
        events_processed=sum(part.events_processed for part in parts),
        elapsed_virtual_time=max(part.elapsed_virtual_time
                                 for part in parts),
        queried_indices=queried,
        queried_by_source=queried_by_source,
    )


def run_sharded(*, n: int, peer_factory, shards: int, workers: int = 1,
                ell: Optional[int] = None, data=None,
                t: Optional[int] = None, adversary=None, seed: int = 0,
                sources: int = 1, source_faults=(),
                max_events: int = DEFAULT_MAX_EVENTS) -> RunResult:
    """Run one message-free download split over ``shards`` pid ranges.

    Each shard is a full :class:`Simulation` restricted to its pid
    subset (``peer_subset=``) with untouched global parameters, so the
    merged result is bit-identical to the unsharded run — pinned by
    ``tests/integration/test_determinism.py``.  ``workers > 1``
    distributes shards over a process pool.
    """
    protocol_class = getattr(peer_factory, "protocol_class", None)
    if protocol_class is None or getattr(protocol_class, "peer_to_peer",
                                         True):
        name = getattr(protocol_class, "protocol_name", peer_factory)
        raise ConfigurationError(
            f"run_sharded needs a message-free protocol "
            f"(peer_to_peer = False); {name!r} exchanges peer messages "
            f"and cannot be split across shards")
    kwargs = dict(n=n, peer_factory=peer_factory, ell=ell, data=data,
                  t=t, adversary=adversary, seed=seed, sources=sources,
                  source_faults=source_faults)
    payloads = [{"kwargs": kwargs, "subset": list(subset),
                 "max_events": max_events}
                for subset in shard_pids(n, shards)]
    parts = run_tasks(_run_shard, payloads, workers=workers)
    return merge_results(parts)
