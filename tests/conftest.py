"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_cache(tmp_path_factory):
    """Point the experiment result cache at a per-session temp dir.

    Keeps the suite from reading or writing the developer's real
    ``~/.cache/repro`` (e.g. via CLI sweeps, which cache by default).
    """
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(
        tmp_path_factory.mktemp("result-cache"))
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous

from repro.adversary import (
    ByzantineAdversary,
    ComposedAdversary,
    CrashAdversary,
    UniformRandomDelay,
)
from repro.sim import run_download
from repro.util.rng import SplittableRNG


@pytest.fixture
def rng() -> SplittableRNG:
    """A fresh seeded RNG per test."""
    return SplittableRNG(20250706)


def crash_async_adversary(fraction: float, *, mode: str = "mid_broadcast"):
    """Crash + asynchronous-delay adversary used across protocol tests."""
    return ComposedAdversary(
        faults=CrashAdversary(crash_fraction=fraction, mode=mode),
        latency=UniformRandomDelay())


def byzantine_async_adversary(fraction: float, strategy_factory):
    """Byzantine + asynchronous-delay adversary."""
    return ComposedAdversary(
        faults=ByzantineAdversary(fraction=fraction,
                                  strategy_factory=strategy_factory),
        latency=UniformRandomDelay())


def assert_download_correct(result, context: str = "") -> None:
    """Fail with a readable message naming the wrong peers."""
    if not result.download_correct:
        wrong = result.wrong_peers()
        raise AssertionError(
            f"download failed{' (' + context + ')' if context else ''}: "
            f"wrong/unterminated honest peers {wrong}; "
            f"faulty set {sorted(result.faulty)}")


def full_record(result) -> dict:
    """Everything a run reports, for equality checks between two ways
    of executing the same configuration."""
    return {
        "correct": bool(result.download_correct),
        "query_complexity": result.report.query_complexity,
        "total_query_bits": result.report.total_query_bits,
        "message_complexity": result.report.message_complexity,
        "message_bits": result.report.message_bits,
        "time_complexity": repr(result.report.time_complexity),
        "per_peer_query_bits": dict(result.report.per_peer_query_bits),
        "per_peer_messages": dict(result.report.per_peer_messages),
        "elapsed_virtual_time": repr(result.elapsed_virtual_time),
        "events_processed": result.events_processed,
        "honest": sorted(result.honest),
        "faulty": sorted(result.faulty),
        "statuses": dict(result.statuses),
        "outputs": {pid: (None if output is None
                          else output.segment(0, len(output)))
                    for pid, output in result.outputs.items()},
        "queried": {pid: sorted(indices)
                    for pid, indices in result.queried_indices.items()},
    }


__all__ = [
    "assert_download_correct",
    "byzantine_async_adversary",
    "crash_async_adversary",
    "full_record",
    "run_download",
]
