"""Golden-trace capture: canonical per-run records for fixed seeds.

The perf work on the simulation kernel (bulk bit ops, batched source
reads, cached message sizing, tuple-ordered event heap) is only
admissible if it is *behavior-preserving*: for a fixed configuration
and seed, a run must produce exactly the same downloaded array, charge
exactly the same query/message bits, process the same number of events,
and finish at the same virtual time.  This module freezes that contract
as data.

``CASES`` enumerates one representative configuration per protocol —
every registry protocol under its native fault model (plus dynamic and
equivocation variants), and the round-native synchronous protocols —
and :func:`capture_case` reduces a run to a JSON-stable record:

- all complexity measures (query, message, bits, virtual time);
- ``events_processed`` — pins the event *schedule*, not just totals;
- SHA-256 digests of the input array, every honest peer's output, and
  every peer's queried-index set (bit-exact, cheap to store).

``tests/golden/traces.json`` holds the records captured **before** the
optimization work.  ``tests/integration/test_golden_traces.py`` replays
every case and compares records field by field.  Regenerate only when a
change is *intended* to alter RNG consumption or accounting::

    PYTHONPATH=src python -m tests.golden.capture --write

and say so in the commit message (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

FIXTURE_PATH = Path(__file__).resolve().parent / "traces.json"

#: One entry per scenario.  ``engine`` selects the asynchronous event
#: kernel (via ExperimentSpec, so seeds match the experiment engine and
#: the PR-1 result cache) or the lockstep synchronous engine.
CASES: list[dict] = [
    # -- asynchronous kernel, one case per registry protocol ------------
    {"name": "naive-byz", "engine": "async", "protocol": "naive",
     "n": 6, "ell": 128, "fault_model": "byzantine", "beta": 0.34,
     "seed": 7},
    {"name": "balanced-faultfree", "engine": "async",
     "protocol": "balanced", "n": 8, "ell": 256, "fault_model": "none",
     "beta": 0.0, "seed": 11},
    {"name": "crash-one", "engine": "async", "protocol": "crash-one",
     "n": 8, "ell": 128, "fault_model": "crash", "beta": 0.125,
     "seed": 3},
    {"name": "crash-multi", "engine": "async", "protocol": "crash-multi",
     "n": 10, "ell": 512, "fault_model": "crash", "beta": 0.5, "seed": 5},
    {"name": "crash-multi-fast", "engine": "async",
     "protocol": "crash-multi-fast", "n": 10, "ell": 512,
     "fault_model": "crash", "beta": 0.3, "seed": 9},
    {"name": "one-round", "engine": "async", "protocol": "one-round",
     "n": 8, "ell": 256, "fault_model": "crash", "beta": 0.25, "seed": 2},
    {"name": "byz-committee", "engine": "async",
     "protocol": "byz-committee", "n": 10, "ell": 128,
     "fault_model": "byzantine", "beta": 0.2, "seed": 13},
    {"name": "byz-committee-blocks", "engine": "async",
     "protocol": "byz-committee", "n": 10, "ell": 256,
     "fault_model": "byzantine", "beta": 0.2, "seed": 13,
     "protocol_params": {"block_size": 16}},
    {"name": "byz-two-cycle", "engine": "async",
     "protocol": "byz-two-cycle", "n": 9, "ell": 256,
     "fault_model": "byzantine", "beta": 0.33, "seed": 17},
    {"name": "byz-two-cycle-equivocate", "engine": "async",
     "protocol": "byz-two-cycle", "n": 9, "ell": 256,
     "fault_model": "byzantine", "beta": 0.33, "seed": 17,
     "strategy": "equivocate"},
    {"name": "byz-multi-cycle", "engine": "async",
     "protocol": "byz-multi-cycle", "n": 9, "ell": 512,
     "fault_model": "byzantine", "beta": 0.33, "seed": 19},
    {"name": "byz-multi-cycle-dynamic", "engine": "async",
     "protocol": "byz-multi-cycle", "n": 9, "ell": 512,
     "fault_model": "dynamic", "beta": 0.33, "seed": 23},
    # The cycle body past its naive case (the four cases above are
    # naive at n=9): peers sample, report, and resolve decision trees
    # over several tau-frequent candidates.
    {"name": "byz-two-cycle-body", "engine": "async",
     "protocol": "byz-two-cycle", "n": 24, "ell": 512,
     "fault_model": "byzantine", "beta": 0.125, "seed": 89,
     "protocol_params": {"num_segments": 4, "tau": 2}},
    {"name": "byz-multi-cycle-body", "engine": "async",
     "protocol": "byz-multi-cycle", "n": 24, "ell": 512,
     "fault_model": "byzantine", "beta": 0.125, "seed": 97,
     "protocol_params": {"base_segments": 4, "tau": 2}},
    {"name": "crash-multi-sync-net", "engine": "async",
     "protocol": "crash-multi", "n": 10, "ell": 512,
     "fault_model": "crash", "beta": 0.5, "seed": 5,
     "network": "synchronous"},
    # -- multi-source cross-validation (k=3, one lying endpoint) --------
    {"name": "cross-validate-k3", "engine": "async",
     "protocol": "cross-validate", "n": 6, "ell": 256,
     "fault_model": "none", "beta": 0.0, "seed": 43,
     "protocol_params": {"q": 3}, "sources": 3,
     "source_faults": ["wrong-bits"]},
    {"name": "cross-validate-escalate-k3", "engine": "async",
     "protocol": "cross-validate-escalate", "n": 6, "ell": 256,
     "fault_model": "none", "beta": 0.0, "seed": 47,
     "protocol_params": {"f": 1}, "sources": 3,
     "source_faults": ["stale:0.25"]},
    # -- lockstep synchronous engine -----------------------------------
    {"name": "sync-naive", "engine": "sync", "peer": "naive",
     "n": 6, "ell": 128, "t": 0, "seed": 29},
    {"name": "sync-balanced", "engine": "sync", "peer": "balanced",
     "n": 8, "ell": 256, "t": 0, "seed": 31},
    {"name": "sync-committee", "engine": "sync", "peer": "committee",
     "n": 9, "ell": 128, "t": 2, "seed": 37},
    {"name": "sync-two-round", "engine": "sync", "peer": "two-round",
     "n": 9, "ell": 240, "t": 2, "seed": 41,
     "peer_params": {"num_segments": 4, "tau": 2}},
    {"name": "sync-cross-validate-k3", "engine": "sync",
     "peer": "cross-validate", "n": 6, "ell": 256, "t": 0, "seed": 53,
     "peer_params": {"q": 3}, "sources": 3,
     "source_faults": ["wrong-bits"]},
    {"name": "sync-cross-validate-escalate-k3", "engine": "sync",
     "peer": "cross-validate-escalate", "n": 6, "ell": 256, "t": 0,
     "seed": 59, "peer_params": {"f": 1}, "sources": 3,
     "source_faults": ["wrong-bits"]},
    # -- cooperative escalation alert over a routed (ring) broadcast ----
    # Peers whose f+1 rotated endpoints include the lying source see
    # disagreement and broadcast an EscalationAlert; unanimous peers
    # hold their output for diameter rounds, hear the relayed alert,
    # and escalate too.  Pins the alert path AND hop-by-hop relay.
    {"name": "sync-escalate-alert-ring", "engine": "sync",
     "peer": "cross-validate-escalate", "n": 6, "ell": 256, "t": 0,
     "seed": 61, "peer_params": {"f": 1, "alert": True}, "sources": 3,
     "source_faults": ["wrong-bits"], "topology": "ring"},
    # -- asynchronous kernel over routed topologies ---------------------
    # Every case with a "topology" runs under a recording telemetry
    # backend, and its record carries ``messages_sha``: a digest of
    # every send/deliver event in order, relay hops included (time,
    # endpoints, type, bits, honest, relay, hop).
    {"name": "routed-balanced-ring", "engine": "async",
     "protocol": "balanced", "n": 8, "ell": 128, "fault_model": "none",
     "beta": 0.0, "seed": 67, "topology": "ring"},
    {"name": "routed-balanced-expander", "engine": "async",
     "protocol": "balanced", "n": 16, "ell": 128, "fault_model": "none",
     "beta": 0.0, "seed": 71, "topology": "expander"},
    {"name": "routed-balanced-star", "engine": "async",
     "protocol": "balanced", "n": 8, "ell": 128, "fault_model": "none",
     "beta": 0.0, "seed": 73, "topology": "star"},
    # Every hop leaving peers 2 and 5 — their own sends and the hops
    # they relay — is withheld; a relay hop released at quiescence must
    # land at the hop's destination and continue its route from there.
    {"name": "routed-withhold-ring", "engine": "async",
     "protocol": "balanced", "n": 8, "ell": 128, "fault_model": "none",
     "beta": 0.0, "seed": 79, "topology": "ring",
     "withhold_from": [2, 5]},
    # One peer crashes mid-run: routes through it are severed (19 relay
    # arrivals die there) while finished relays keep forwarding (85).
    {"name": "routed-crash-one-ring", "engine": "async",
     "protocol": "crash-one", "n": 8, "ell": 128, "fault_model": "crash",
     "beta": 0.125, "seed": 3, "topology": "ring"},
    # Per-link FIFO and multi-packet latency on every relay hop.
    {"name": "routed-fifo-packetize-ring", "engine": "async",
     "protocol": "balanced", "n": 8, "ell": 128, "fault_model": "none",
     "beta": 0.0, "seed": 83, "topology": "ring", "fifo": True,
     "packetize": True, "message_size_limit": 16},
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _array_digest(array) -> str:
    """Digest of a BitArray's exact contents (wire-format string)."""
    return _sha(array.segment(0, len(array)))


def _queried_digest(queried: dict) -> str:
    """Digest of every peer's queried-index set, order-canonical."""
    parts = [f"{pid}:{','.join(map(str, sorted(indices)))}"
             for pid, indices in sorted(queried.items())]
    return _sha("|".join(parts))


def messages_digest(events) -> str:
    """Digest of a run's send/deliver events, in order."""
    return _sha("\n".join(
        f"{event['event']}|{event['t']!r}|{event['src']}|{event['dst']}|"
        f"{event['type']}|{event.get('bits')}|{event.get('honest')}|"
        f"{event.get('relay')}|{event.get('hop')}"
        for event in events if event["event"] in ("send", "deliver")))


def _withholding_adversary(peers):
    """UniformRandomDelay that withholds every hop leaving ``peers``
    until quiescence (then releases them all, the base policy)."""
    from repro.adversary.latency import UniformRandomDelay
    from repro.sim.network import WITHHOLD

    class WithholdFrom(UniformRandomDelay):
        def message_latency(self, sender, destination, message, now,
                            cycle):
            if sender in peers:
                return WITHHOLD
            return super().message_latency(sender, destination, message,
                                           now, cycle)

    return WithholdFrom()


def _capture_async(case: dict) -> dict:
    from repro.experiments import ExperimentSpec
    from repro.obs.telemetry import RecordingTelemetry, get_backend, using
    from repro.sim import run_download

    spec = ExperimentSpec(
        protocol=case["protocol"], n=case["n"], ell=case["ell"],
        fault_model=case["fault_model"], beta=case["beta"],
        strategy=case.get("strategy", "wrong-bits"),
        network=case.get("network", "asynchronous"),
        protocol_params=case.get("protocol_params", {}),
        base_seed=case["seed"],
        sources=case.get("sources", 1),
        source_faults=tuple(case.get("source_faults", ())),
        topology=case.get("topology", "complete"))
    routed = "topology" in case
    adversary = (_withholding_adversary(frozenset(case["withhold_from"]))
                 if "withhold_from" in case else spec.build_adversary())
    # A routed case records its events — into the caller's recording
    # when one is active, so this run does not shadow it.
    backend = get_backend()
    if routed and not isinstance(backend, RecordingTelemetry):
        backend = RecordingTelemetry()
    start = len(getattr(backend, "events", ()))
    with using(backend):
        result = run_download(
            n=spec.n, ell=spec.ell, peer_factory=spec.peer_factory(),
            adversary=adversary, t=spec.t,
            seed=spec.seed_for(0), sources=spec.sources,
            source_faults=spec.source_faults, topology=spec.topology,
            fifo=case.get("fifo", False),
            packetize=case.get("packetize", False),
            message_size_limit=case.get("message_size_limit"))
    outputs = {str(pid): _array_digest(result.outputs[pid])
               for pid in sorted(result.honest)
               if result.outputs[pid] is not None}
    record = {
        "correct": bool(result.download_correct),
        "query_complexity": result.report.query_complexity,
        "total_query_bits": result.report.total_query_bits,
        "message_complexity": result.report.message_complexity,
        "message_bits": result.report.message_bits,
        "time_complexity": repr(result.report.time_complexity),
        "elapsed_virtual_time": repr(result.elapsed_virtual_time),
        "events_processed": result.events_processed,
        "honest": sorted(result.honest),
        "data_sha": _array_digest(result.data),
        "outputs_sha": outputs,
        "queried_sha": _queried_digest(result.queried_indices),
    }
    if routed:
        record["messages_sha"] = messages_digest(backend.events[start:])
    return record


#: ``peer`` key of a sync case -> registry protocol name; the class
#: (lockstep-native, or the registry's on the lockstep host) is
#: resolved the way ``backend="sync"`` resolves it.
_SYNC_PEERS = {
    "naive": "naive",
    "balanced": "balanced",
    "committee": "byz-committee",
    "two-round": "byz-two-cycle",
    "cross-validate": "cross-validate",
    "cross-validate-escalate": "cross-validate-escalate",
}


def _capture_sync(case: dict) -> dict:
    from repro.experiments.backends.sync import sync_peer_factory
    from repro.sync.engine import run_sync_download

    result = run_sync_download(
        n=case["n"], ell=case["ell"], t=case["t"],
        peer_factory=sync_peer_factory(_SYNC_PEERS[case["peer"]],
                                       case.get("peer_params", {})),
        seed=case["seed"], sources=case.get("sources", 1),
        source_faults=tuple(case.get("source_faults", ())),
        topology=case.get("topology"))
    outputs = {str(pid): _array_digest(result.outputs[pid])
               for pid in sorted(result.honest)
               if result.outputs[pid] is not None}
    queried = {pid: indices
               for pid, indices in result.per_peer_query_bits.items()}
    return {
        "correct": bool(result.download_correct),
        "rounds": result.rounds,
        "query_complexity": result.query_complexity,
        "total_query_bits": result.total_query_bits,
        "message_complexity": result.message_complexity,
        "per_peer_query_bits": {str(pid): bits
                                for pid, bits in sorted(queried.items())},
        "data_sha": _array_digest(result.data),
        "outputs_sha": outputs,
    }


def capture_case(case: dict) -> dict:
    """Run one case and reduce it to its canonical golden record."""
    if case["engine"] == "async":
        return _capture_async(case)
    if case["engine"] == "sync":
        return _capture_sync(case)
    raise ValueError(f"unknown engine {case['engine']!r}")


def capture_all() -> dict[str, dict]:
    """Golden records for every case, keyed by case name."""
    records = {}
    for case in CASES:
        records[case["name"]] = capture_case(case)
    return records


def load_fixture() -> dict[str, dict]:
    """The checked-in golden records."""
    with FIXTURE_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)


def write_fixture(records: dict[str, dict]) -> None:
    FIXTURE_PATH.write_text(
        json.dumps(records, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


def main(argv=None) -> int:  # pragma: no cover - manual tool
    import argparse
    parser = argparse.ArgumentParser(
        description="capture / refresh golden trace fixtures")
    parser.add_argument("--write", action="store_true",
                        help="overwrite tests/golden/traces.json with "
                             "records captured from the current code")
    args = parser.parse_args(argv)
    records = capture_all()
    if args.write:
        write_fixture(records)
        print(f"wrote {len(records)} golden records to {FIXTURE_PATH}")
        return 0
    print(json.dumps(records, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover - manual tool
    raise SystemExit(main())
