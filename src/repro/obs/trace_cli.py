"""The ``repro trace`` subcommand family: inspect exported runs.

Four views over a ``--telemetry`` JSONL export:

- ``repro trace summary run.jsonl`` — the run header, the complexity
  totals, a per-phase query histogram (query events attributed to the
  protocol phase the peer was in when it queried), and the adversary's
  decision counts;
- ``repro trace timeline run.jsonl`` — a Gantt-style text timeline,
  one row per peer on a virtual-time grid;
- ``repro trace diff a.jsonl b.jsonl`` — first divergence between two
  exports (wall-clock fields ignored), for golden-trace debugging;
- ``repro trace flame run.jsonl`` — a folded-stack file
  (``frame;frame;frame weight``) consumable by standard flamegraph
  tools, written via :mod:`repro.profiling`.

Every renderer is a pure function of the event list, so the doc tests
exercise them directly.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Optional, Sequence

from repro.obs import schema
from repro.obs.schema import WALL_CLOCK_FIELDS
from repro.sim.messages import SOURCE_ID

__all__ = [
    "attach_trace_parser",
    "diff_streams",
    "folded_stacks",
    "phase_histogram",
    "render_summary",
    "render_timeline",
    "run_trace_command",
]


# -- phase attribution ---------------------------------------------------------


def _phase_of(events: Sequence[dict]):
    """Yield ``(event, phase_name)`` for every query event, attributing
    each query to the emitting peer's most recent phase (or cycle) —
    the replay that makes "which peer spent which query in which phase"
    answerable even though the source knows nothing about phases."""
    current: dict[int, str] = {}
    for entry in events:
        kind = entry.get("event")
        if kind == "cycle":
            current[entry["peer"]] = f"cycle-{entry['cycle']}"
        elif kind == "phase":
            current[entry["peer"]] = entry["name"]
        elif kind == "query":
            yield entry, current.get(entry["peer"], "start")


def phase_histogram(events: Sequence[dict]) -> dict[str, tuple[int, int]]:
    """Per-phase ``(query count, query bits)``, in first-seen order."""
    histogram: dict[str, list[int]] = {}
    for entry, phase in _phase_of(events):
        bucket = histogram.setdefault(phase, [0, 0])
        bucket[0] += 1
        bucket[1] += entry["bits"]
    return {phase: (count, bits)
            for phase, (count, bits) in histogram.items()}


# -- summary -------------------------------------------------------------------


def _find(events: Sequence[dict], kind: str) -> Optional[dict]:
    for entry in events:
        if entry.get("event") == kind:
            return entry
    return None


def render_summary(events: Sequence[dict]) -> str:
    """The ``repro trace summary`` text for one exported run."""
    lines = []
    header = _find(events, "run_header")
    if header is not None:
        setup = (f"n={header['n']} ell={header['ell']} "
                 f"t={header['t_budget']} seed={header['seed']}")
        if header.get("protocol"):
            setup = f"protocol={header['protocol']} " + setup
        if header.get("adversary"):
            setup += f" adversary={header['adversary']}"
        lines.append(f"run        : {setup}")
        if header.get("planned_faulty"):
            lines.append(f"planned    : faulty={header['planned_faulty']}")
    summary = _find(events, "run_summary")
    if summary is not None:
        lines.append(f"result     : correct={summary['correct']} "
                     f"Q={summary['query_complexity']} bits/peer "
                     f"(total {summary['total_query_bits']}) "
                     f"M={summary['message_complexity']} msgs "
                     f"({summary['message_bits']} bits) "
                     f"T={summary['time_complexity']:.2f}")
        lines.append(f"run shape  : {summary['events_processed']} kernel "
                     f"events, faulty={summary['faulty']}")
    histogram = phase_histogram(events)
    if histogram:
        lines.append("")
        lines.append("per-phase queries:")
        name_width = max(len(phase) for phase in histogram)
        peak = max(bits for _, bits in histogram.values())
        bar_unit = max(1, peak // 40)
        for phase, (count, bits) in histogram.items():
            bar = "#" * max(1 if bits else 0, bits // bar_unit)
            lines.append(f"  {phase.ljust(name_width)} "
                         f"{count:>5} queries {bits:>8} bits {bar}")
    decisions = Counter(entry["event"] for entry in events
                        if entry.get("event") in
                        ("withhold", "release", "corrupt", "transform",
                         "crash", "crash_send"))
    if decisions:
        lines.append("")
        lines.append("adversary  : " + ", ".join(
            f"{count} {kind}" for kind, count in sorted(decisions.items())))
    if summary is not None and summary.get("per_peer_query_bits"):
        per_peer = summary["per_peer_query_bits"]
        lines.append("")
        lines.append("per-peer query bits:")
        for pid in sorted(per_peer, key=lambda key: int(key)):
            lines.append(f"  peer {int(pid):>3} {per_peer[pid]:>8}")
    transport = Counter(entry["event"] for entry in events
                        if entry.get("event", "").startswith("net_"))
    if transport:
        if lines:
            lines.append("")
        lines.append("net        : " + ", ".join(
            f"{count} {kind.removeprefix('net_')}"
            for kind, count in sorted(transport.items())))
    return "\n".join(lines) if lines else "(empty export)"


# -- timeline ------------------------------------------------------------------

#: Timeline glyphs, in precedence order (later in the list wins a cell).
_TIMELINE_PRECEDENCE = [" ", ".", "+", "Q", "C", "#", "X"]


def render_timeline(events: Sequence[dict], *, width: int = 72,
                    peers: Optional[Sequence[int]] = None) -> str:
    """A Gantt-style per-peer text timeline of one exported run.

    Cell glyphs: ``Q`` queried the source, ``+`` sent, ``.`` received,
    ``C`` started a cycle, ``#`` terminated, ``X`` crashed.
    """
    summary = _find(events, "run_summary")
    if peers is None:
        if summary is not None:
            peers = sorted(int(pid) for pid in
                           list(summary["honest"]) + list(summary["faulty"]))
        else:
            seen: set[int] = set()
            for entry in events:
                for key in ("peer", "src", "dst"):
                    if key in entry:
                        seen.add(int(entry[key]))
            # A source response's ``src``; the source is never a row.
            seen.discard(SOURCE_ID)
            peers = sorted(seen)
    horizon = max((entry["t"] for entry in events if "t" in entry),
                  default=0.0) or 1e-9
    grid = {pid: [" "] * width for pid in peers}
    rank = {glyph: index
            for index, glyph in enumerate(_TIMELINE_PRECEDENCE)}

    def mark(pid: int, t: float, glyph: str) -> None:
        row = grid.get(pid)
        if row is None:
            return
        column = min(width - 1, int(t / horizon * width))
        if rank[glyph] >= rank[row[column]]:
            row[column] = glyph

    marks = {"query": ("peer", "Q"), "send": ("src", "+"),
             "deliver": ("dst", "."), "cycle": ("peer", "C"),
             "terminate": ("peer", "#"), "crash": ("peer", "X")}
    for entry in events:
        spec = marks.get(entry.get("event"))
        if spec is not None:
            mark(int(entry[spec[0]]), entry["t"], spec[1])

    faulty = (set(int(pid) for pid in summary["faulty"])
              if summary is not None else set())
    crashed = {int(entry["peer"]) for entry in events
               if entry.get("event") == "crash"}
    label_width = max((len(f"peer {pid}") for pid in peers), default=6)
    lines = [f"virtual time 0 .. {horizon:.2f}  "
             f"(Q query, + send, . deliver, C cycle, # terminate, X crash)"]
    for pid in peers:
        role = ("crash" if pid in crashed
                else "byz" if pid in faulty else "ok")
        lines.append(f"{f'peer {pid}'.ljust(label_width)} "
                     f"|{''.join(grid[pid])}| {role}")
    return "\n".join(lines)


# -- diff ----------------------------------------------------------------------


def _normalize(entry: dict) -> dict:
    """Strip nondeterministic (wall-clock) fields before comparison."""
    return {key: value for key, value in entry.items()
            if key not in WALL_CLOCK_FIELDS}


def diff_streams(events_a: Sequence[dict], events_b: Sequence[dict], *,
                 limit: int = 10) -> tuple[bool, str]:
    """Compare two exports; returns ``(identical, report text)``.

    Wall-clock fields are ignored (they differ between any two runs of
    anything); everything else — ordering included — must match.  The
    report shows up to ``limit`` divergent positions, which is exactly
    what golden-trace debugging needs: the *first* divergence names the
    event where two supposedly identical runs forked.
    """
    normalized_a = [_normalize(entry) for entry in events_a]
    normalized_b = [_normalize(entry) for entry in events_b]
    lines = []
    divergences = 0
    for index in range(max(len(normalized_a), len(normalized_b))):
        left = normalized_a[index] if index < len(normalized_a) else None
        right = normalized_b[index] if index < len(normalized_b) else None
        if left == right:
            continue
        divergences += 1
        if divergences <= limit:
            lines.append(f"event #{index}:")
            lines.append(f"  a: {left}")
            lines.append(f"  b: {right}")
    if divergences == 0:
        return True, (f"identical: {len(normalized_a)} events "
                      f"(wall-clock fields ignored)")
    if divergences > limit:
        lines.append(f"... {divergences - limit} more divergence(s)")
    lines.insert(0, f"{divergences} divergence(s) over "
                    f"{len(normalized_a)} vs {len(normalized_b)} events")
    return False, "\n".join(lines)


# -- flame ---------------------------------------------------------------------


def folded_stacks(events: Sequence[dict], *,
                  weight: str = "bits") -> dict[str, int]:
    """Aggregate the run into folded flamegraph stacks.

    Each query/send becomes a ``root;peer;phase;op`` stack weighted by
    its bit count (``weight="bits"``) or by 1 (``weight="events"``), so
    the rendered flame answers "where did the query/message budget go"
    across peers and phases.
    """
    if weight not in ("bits", "events"):
        raise ValueError(f"weight must be 'bits' or 'events', "
                         f"got {weight!r}")
    header = _find(events, "run_header")
    root = (header.get("protocol") if header else None) or "run"
    current: dict[int, str] = {}
    stacks: dict[str, int] = {}

    def bump(stack: str, amount: int) -> None:
        stacks[stack] = stacks.get(stack, 0) + amount

    for entry in events:
        kind = entry.get("event")
        if kind == "cycle":
            current[entry["peer"]] = f"cycle-{entry['cycle']}"
        elif kind == "phase":
            current[entry["peer"]] = entry["name"]
        elif kind == "query":
            peer = entry["peer"]
            phase = current.get(peer, "start")
            amount = entry["bits"] if weight == "bits" else 1
            bump(f"{root};peer-{peer};{phase};query", amount)
        elif kind == "send" and entry.get("honest", True):
            peer = entry["src"]
            phase = current.get(peer, "start")
            amount = entry["bits"] if weight == "bits" else 1
            bump(f"{root};peer-{peer};{phase};send:{entry['type']}", amount)
    return stacks


# -- CLI wiring ----------------------------------------------------------------


def attach_trace_parser(subparsers) -> None:
    """Add the ``trace`` subcommand family to the CLI parser."""
    trace = subparsers.add_parser(
        "trace", help="inspect a --telemetry JSONL export")
    trace.set_defaults(handler=run_trace_command)
    commands = trace.add_subparsers(dest="trace_command", required=True)

    summary = commands.add_parser(
        "summary", help="totals, per-phase query histogram, adversary "
                        "decision counts")
    summary.add_argument("export", help="JSONL file from --telemetry")

    timeline = commands.add_parser(
        "timeline", help="Gantt-style per-peer text timeline")
    timeline.add_argument("export")
    timeline.add_argument("--width", type=int, default=72,
                          help="grid width in characters")
    timeline.add_argument("--peers", default=None,
                          help="comma-separated peer IDs (default: all)")

    diff = commands.add_parser(
        "diff", help="first divergence between two exports "
                     "(wall-clock fields ignored); exit 1 if they "
                     "differ")
    diff.add_argument("export_a")
    diff.add_argument("export_b")
    diff.add_argument("--limit", type=int, default=10,
                      help="max divergences to print")

    flame = commands.add_parser(
        "flame", help="write a folded-stack file for flamegraph tools")
    flame.add_argument("export")
    flame.add_argument("--out", default=None,
                       help="output path (default: <export>.folded)")
    flame.add_argument("--weight", choices=["bits", "events"],
                       default="bits",
                       help="stack weight: query/message bits or "
                            "event counts")


def run_trace_command(args, out) -> int:
    """Dispatch one parsed ``repro trace ...`` invocation."""
    if args.trace_command == "diff":
        identical, report = diff_streams(
            schema.read_events(args.export_a),
            schema.read_events(args.export_b), limit=args.limit)
        print(report, file=out)
        return 0 if identical else 1
    events = schema.read_events(args.export)
    if args.trace_command == "summary":
        print(render_summary(events), file=out)
        return 0
    if args.trace_command == "timeline":
        peers = ([int(part) for part in args.peers.split(",") if part]
                 if args.peers else None)
        print(render_timeline(events, width=args.width, peers=peers),
              file=out)
        return 0
    if args.trace_command == "flame":
        from repro.profiling import write_folded
        target = Path(args.out) if args.out else \
            Path(args.export).with_suffix(".folded")
        count = write_folded(target,
                             folded_stacks(events, weight=args.weight))
        print(f"{count} stack(s) written to {target}", file=out)
        return 0
    raise AssertionError(
        f"unhandled trace command {args.trace_command}")  # pragma: no cover
