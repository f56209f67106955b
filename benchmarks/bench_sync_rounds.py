"""E16 — round complexity in the native synchronous model.

The synchronous papers report *round* counts; the lockstep engine
measures them exactly.  This bench regenerates the round/query
trade-off across the synchronous protocols under the rushing
adversary — the strongest scheduler the synchronous model allows.

Every case runs through :func:`repro.execution.run_tasks`, so
``REPRO_BENCH_WORKERS=4`` fans the cases over a process pool (payloads
name the registry protocol; adversary objects pickle as-is).
"""

from repro.execution import run_tasks
from repro.experiments.backends.sync import sync_peer_factory
from repro.sync import (
    RoundCrashAdversary,
    RushingEchoAdversary,
    SilentSyncAdversary,
    fraction_corrupted,
    run_sync_download,
)

from benchmarks.support import BENCH_POLICY, BENCH_WORKERS, Row, print_table

N = 40
ELL = 4000


def _run_sync_case(payload: dict) -> dict:
    """One lockstep run, reduced to table cells.

    Module-level (and protocols referenced by registry name, resolved
    the way ``backend="sync"`` resolves them) so the payload pickles
    into the engine's worker processes.
    """
    result = run_sync_download(
        n=payload["n"], ell=payload["ell"], t=payload["t"],
        peer_factory=sync_peer_factory(payload["protocol"],
                                       payload["params"]),
        adversary=payload["adversary"], seed=payload["seed"])
    return {"rounds": result.rounds,
            "Q": result.query_complexity,
            "M": result.message_complexity,
            "correct": result.download_correct}


def _rows():
    # beta=0.3: the regime where sampling beats 2t+1 replication.
    corrupted = fraction_corrupted(N, 0.3, seed=161)
    cases = [
        ("naive (1 round)", "naive", {}, 0, None),
        ("balanced (fault-free)", "balanced", {}, 0, None),
        ("committee [3]", "byz-committee", {"block_size": 40}, 12,
         RushingEchoAdversary(corrupted=corrupted, seed=161)),
        ("2-round Protocol 4", "byz-two-cycle",
         {"num_segments": 4, "tau": 2}, 12,
         RushingEchoAdversary(corrupted=corrupted, seed=161)),
        ("2-round (silent byz)", "byz-two-cycle",
         {"num_segments": 4, "tau": 2}, 12,
         SilentSyncAdversary(corrupted=corrupted)),
        ("sync-crash (4 crashes)", "crash-multi", {}, 4,
         RoundCrashAdversary({pid: (pid, 2) for pid in range(1, 5)})),
    ]
    payloads = [dict(n=N, ell=ELL, t=t, protocol=protocol, params=params,
                     adversary=adversary, seed=162)
                for _, protocol, params, t, adversary in cases]
    measured = run_tasks(_run_sync_case, payloads, workers=BENCH_WORKERS,
                         policy=BENCH_POLICY,
                         task_seeds=[payload["seed"]
                                     for payload in payloads])
    return [Row(label, values)
            for (label, *_), values in zip(cases, measured)]


def bench_sync_round_complexity(benchmark):
    rows = benchmark.pedantic(_rows, rounds=1, iterations=1)
    print_table(f"E16 synchronous round complexity (n={N}, ell={ELL})",
                ["rounds", "Q", "M", "correct"], rows)
    by_label = {row.label: row.values for row in rows}
    for row in rows:
        benchmark.extra_info[row.label] = row.values
        assert row.values["correct"], row.label
    # The round/query trade-off, exactly as the papers state it:
    assert by_label["naive (1 round)"]["rounds"] == 1
    assert by_label["naive (1 round)"]["Q"] == ELL
    assert by_label["balanced (fault-free)"]["rounds"] == 2
    assert by_label["committee [3]"]["rounds"] == 2
    assert by_label["2-round Protocol 4"]["rounds"] == 2
    # Sampling beats committees on queries at this beta in 2 rounds.
    assert by_label["2-round Protocol 4"]["Q"] \
        < by_label["committee [3]"]["Q"]
