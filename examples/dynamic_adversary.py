#!/usr/bin/env python3
"""Dynamic Byzantine corruption — the moving-target adversary.

The target paper's companion model lets the corrupted set *change from
cycle to cycle*: over a multi-cycle protocol the union of
ever-corrupted peers can exceed any static fault budget.  This example
runs the multi-cycle randomized download against that adversary, shows
the union outgrowing the per-cycle budget, and renders the run's event
record as an ASCII timeline so you can watch the cycles breathe.

Run:  python examples/dynamic_adversary.py
"""

from repro.adversary import ComposedAdversary, UniformRandomDelay
from repro.adversary.dynamic import DynamicByzantineAdversary
from repro.obs.telemetry import RecordingTelemetry, using
from repro.obs.trace_cli import render_summary, render_timeline
from repro.protocols import ByzMultiCycleDownloadPeer
from repro.sim import run_download


def main() -> None:
    n, ell, beta = 24, 4096, 0.2
    core = DynamicByzantineAdversary(fraction=beta)
    with using(RecordingTelemetry()) as recording:
        result = run_download(
            n=n, ell=ell, t=int(beta * n), seed=11,
            peer_factory=ByzMultiCycleDownloadPeer.factory(base_segments=4,
                                                           tau=2),
            adversary=ComposedAdversary(faults=core,
                                        latency=UniformRandomDelay()))

    union = core.union_corrupted()
    print(f"per-cycle corruption budget : {int(beta * n)} of {n} peers")
    print(f"cycles observed             : {sorted(core.cycles_seen)}")
    print(f"union of corrupted peers    : {len(union)} "
          f"({sorted(union)})")
    print(f"download correct            : {result.download_correct}")
    print(f"complexity                  : {result.report}")
    assert result.download_correct
    assert len(union) >= int(beta * n)

    print("\n--- run timeline ---")
    print(render_timeline(recording.events, width=64))
    print("\n--- run summary ---")
    print(render_summary(recording.events))
    print("\nNo peer is ever *identified* as corrupt — the "
          "tau-frequency filter and the decision trees\nsimply price "
          "every lie at one source query, so a moving culprit set "
          "buys the adversary nothing.")


if __name__ == "__main__":
    main()
