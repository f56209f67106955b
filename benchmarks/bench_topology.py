"""Topology degradation benchmark: what sparse graphs cost Q/T/M.

The ROADMAP's open question — what happens to the paper's complexity
measures when broadcast costs real hops — answered as data, on two
levels:

- **end-to-end arms** (``e2e_n{64,256}_{topology}``): one seeded
  fault-free ``balanced`` download per topology.  Q must be *bit-equal*
  across topologies (queries go to the source, not the peer graph);
  M and T degrade with the routed path lengths.  ``balanced`` floods
  ``n`` broadcasts, so its ring arm is Θ(n²·diameter) hop events —
  the n=256 arm runs in full mode only, and n=1024 end-to-end on a
  ring (~10^8 hop events) is out of reach by design; the broadcast
  arms below carry the curve to 1024.
- **broadcast arms** (``bcast_n{64,256,1024}_{topology}``): one peer
  broadcasts once, every peer then completes naively.  Isolates the
  network layer's degradation — M per broadcast and the delivery span
  — at sizes where a full cooperative download on a ring is
  infeasible.

Results go to ``BENCH_TOPOLOGY.json`` at the repo root,
bench_kernel-style (``current`` / ``current_quick`` sections).
``--check`` enforces the *semantic* gates — Q equal across
topologies, M strictly ordered complete < expander < ring — and a
>30% wall-clock regression versus the checked-in section.

Usage::

    python benchmarks/bench_topology.py                 # all arms
    python benchmarks/bench_topology.py --quick         # CI-sized
    python benchmarks/bench_topology.py --write         # pin `current`
    python benchmarks/bench_topology.py --quick --check # CI gate
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_TOPOLOGY.json"

#: Regression tolerance for ``--check`` wall-clock comparisons
#: (mirrors bench_kernel's perf-smoke gate).
DEFAULT_TOLERANCE = 0.30

#: Absolute wall-clock slack added on top of the relative tolerance:
#: millisecond-scale arms are pure scheduler noise at 30%.
WALL_SLACK_SECONDS = 0.1

TOPOLOGIES = ("complete", "ring", "expander")
SEED = 271

E2E_QUICK_NS = (64,)
E2E_FULL_NS = (64, 256)
BCAST_QUICK_NS = (64, 256)
BCAST_FULL_NS = (64, 256, 1024)


def _e2e_arm(n: int, topology: str) -> dict:
    """One fault-free balanced download; the full Q/T/M record."""
    from repro.protocols import BalancedDownloadPeer
    from repro.sim import run_download

    start = time.perf_counter()
    result = run_download(
        n=n, ell=2 * n, peer_factory=BalancedDownloadPeer.factory(),
        seed=SEED, topology=topology)
    wall = time.perf_counter() - start
    assert result.download_correct
    report = result.report
    return {
        "n": n, "topology": topology,
        "query_complexity": report.query_complexity,
        "message_complexity": report.message_complexity,
        "time_complexity": report.time_complexity,
        "events_processed": result.events_processed,
        "wall_seconds": round(wall, 4),
    }


def _make_probe_peer():
    """Peer 0 broadcasts its slice once; everyone completes naively.

    M is then *exactly* the cost of one routed broadcast — the
    network-layer degradation signal, uncontaminated by protocol
    cooperation patterns.
    """
    from repro.protocols.balanced import ShareMessage
    from repro.protocols.base import DownloadPeer

    class _BroadcastProbePeer(DownloadPeer):
        protocol_name = "bench-broadcast-probe"

        def body(self):
            self.begin_cycle()
            slice_size = min(self.ell, 32)
            if self.pid == 0:
                values = yield from self.query_bits(range(slice_size))
                self.learn_many(values)
                self.broadcast(ShareMessage(sender=self.pid,
                                            values=values))
            else:
                yield self.wait_for_messages(
                    ShareMessage, 1, description="the probe broadcast")
                for message in self.inbox.of_type(ShareMessage):
                    self.learn_many(message.values)
            self.begin_cycle()
            rest = yield from self.query_bits(
                range(0 if self.pid == 0 else slice_size, self.ell))
            self.learn_many(rest)
            self.finish_with_working()

    return _BroadcastProbePeer


def _bcast_arm(n: int, topology: str) -> dict:
    """One routed broadcast at size ``n``; M isolates the relay cost."""
    from repro.sim import run_download

    start = time.perf_counter()
    result = run_download(
        n=n, ell=64, peer_factory=_make_probe_peer().factory(),
        seed=SEED, topology=topology)
    wall = time.perf_counter() - start
    assert result.download_correct
    report = result.report
    return {
        "n": n, "topology": topology,
        "query_complexity": report.query_complexity,
        "message_complexity": report.message_complexity,
        "time_complexity": report.time_complexity,
        "events_processed": result.events_processed,
        "wall_seconds": round(wall, 4),
    }


def measure(quick: bool) -> dict:
    arms: dict[str, dict] = {}
    for n in (E2E_QUICK_NS if quick else E2E_FULL_NS):
        for topology in TOPOLOGIES:
            arms[f"e2e_n{n}_{topology}"] = _e2e_arm(n, topology)
    for n in (BCAST_QUICK_NS if quick else BCAST_FULL_NS):
        for topology in TOPOLOGIES:
            arms[f"bcast_n{n}_{topology}"] = _bcast_arm(n, topology)
    return arms


def _groups(result: dict):
    """(kind, n) -> topology -> arm record, for the semantic gates."""
    grouped: dict[tuple, dict] = {}
    for name, record in result.items():
        kind = name.split("_", 1)[0]
        grouped.setdefault((kind, record["n"]), {})[
            record["topology"]] = record
    return grouped


def semantic_failures(result: dict) -> list[str]:
    """The topology contract, checked on every measured group:

    Q identical across topologies (source queries never route through
    the peer graph), M strictly ordered complete < expander < ring
    (M counts every relay hop; the ring's linear diameter dominates
    the expander's logarithmic one), and T no better than complete on
    any sparse graph.
    """
    failures = []
    for (kind, n), records in _groups(result).items():
        if set(records) != set(TOPOLOGIES):
            continue
        label = f"{kind} n={n}"
        q = {t: records[t]["query_complexity"] for t in TOPOLOGIES}
        if len(set(q.values())) != 1:
            failures.append(f"{label}: Q differs across topologies: {q}")
        m = {t: records[t]["message_complexity"] for t in TOPOLOGIES}
        if not m["complete"] < m["expander"] < m["ring"]:
            failures.append(f"{label}: M not ordered "
                            f"complete < expander < ring: {m}")
        t_complete = records["complete"]["time_complexity"]
        for topology in ("ring", "expander"):
            if records[topology]["time_complexity"] < t_complete:
                failures.append(
                    f"{label}: T on {topology} beats complete "
                    f"({records[topology]['time_complexity']:.3f} < "
                    f"{t_complete:.3f})")
    return failures


def _check(result: dict, reference: dict, tolerance: float) -> list[str]:
    failures = semantic_failures(result)
    for name, record in result.items():
        ref = reference.get(name)
        if ref is None:
            continue
        for field in ("query_complexity", "message_complexity"):
            if record[field] != ref[field]:
                failures.append(
                    f"{name}: {field} {record[field]} != pinned "
                    f"{ref[field]} (seeded runs must reproduce)")
        if record["wall_seconds"] > \
                ref["wall_seconds"] * (1.0 + tolerance) + \
                WALL_SLACK_SECONDS:
            failures.append(
                f"{name}: {record['wall_seconds']:.2f} s vs pinned "
                f"{ref['wall_seconds']:.2f} s (> {tolerance:.0%} slower)")
    return failures


def _print_report(result: dict) -> None:
    header = (f"{'arm':<22} {'Q':>8} {'M':>10} {'T':>9} "
              f"{'events':>10} {'wall s':>8}")
    print(header)
    print("-" * len(header))
    for name, record in result.items():
        print(f"{name:<22} {record['query_complexity']:>8} "
              f"{record['message_complexity']:>10} "
              f"{record['time_complexity']:>9.3f} "
              f"{record['events_processed']:>10} "
              f"{record['wall_seconds']:>8.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="topology degradation benchmark (see module doc)")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized subset (drops the n=256 e2e and "
                             "n=1024 broadcast arms)")
    parser.add_argument("--write", action="store_true",
                        help="update the matching section of "
                             "BENCH_TOPOLOGY.json")
    parser.add_argument("--check", action="store_true",
                        help="fail (exit 1) if a semantic gate breaks, "
                             "a pinned Q/M diverges, or any arm "
                             "regresses >tolerance vs the checked-in "
                             "section")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="relative slowdown allowed by --check "
                             f"(default {DEFAULT_TOLERANCE})")
    parser.add_argument("--json", type=Path, default=RESULT_PATH,
                        help="result file (default: repo-root "
                             "BENCH_TOPOLOGY.json)")
    args = parser.parse_args(argv)

    stored: dict = {}
    if args.json.exists():
        stored = json.loads(args.json.read_text(encoding="utf-8"))

    result = measure(args.quick)
    reference_key = "current_quick" if args.quick else "current"
    _print_report(result)

    if args.check:
        reference = stored.get(reference_key)
        if not reference:
            print(f"--check: no {reference_key!r} section in {args.json}; "
                  f"run with --write first", file=sys.stderr)
            return 2
        failures = _check(result, reference, args.tolerance)
        if failures:
            print("TOPOLOGY GATE FAILURE:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"topology check ok (Q equal, M ordered, every arm "
              f"within {args.tolerance:.0%} of {reference_key})")

    if args.write:
        stored[reference_key] = result
        args.json.write_text(
            json.dumps(stored, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"{reference_key} written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    raise SystemExit(main())
