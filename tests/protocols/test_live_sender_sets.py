""""Heard from k peers" waits read sender sets kept at delivery.

Algorithm 2 waits for ``n - t`` responses, Algorithm 1 for ``n - 1``
shares and ``n - 2`` probe replies, the randomized cycles for ``n - t``
reporters of the cycle before.  Each count needs only a set the handler grows as messages
land, so no wait predicate rescans or copies the inbox: a run with
``MessageLog.senders`` wrapped to count its calls reads none.  The sets
the handlers kept must still be exactly what the inbox says.
"""

import pytest

from repro.experiments import ExperimentSpec
from repro.protocols.byz_cycles import SegmentReport
from repro.protocols.crash_multi import MissingResponse
from repro.protocols.crash_one import ProbeReply, ShareValues
from repro.sim import Simulation
from repro.sim.peer import MessageLog

CASES = [
    {"protocol": "crash-one", "n": 12, "ell": 512,
     "fault_model": "crash", "beta": 0.09},
    {"protocol": "crash-multi", "n": 12, "ell": 512,
     "fault_model": "crash", "beta": 0.5},
    {"protocol": "crash-multi-fast", "n": 12, "ell": 512,
     "fault_model": "crash", "beta": 0.5},
    {"protocol": "byz-two-cycle", "n": 32, "ell": 1024,
     "fault_model": "byzantine", "beta": 0.1},
    {"protocol": "byz-multi-cycle", "n": 32, "ell": 1024,
     "fault_model": "byzantine", "beta": 0.1,
     "protocol_params": {"base_segments": 4, "tau": 2}},
]


def run_case(case, seed):
    """One run of ``case``; returns the result and the peers built."""
    spec = ExperimentSpec(base_seed=seed, **case)
    build, peers = spec.peer_factory(), []

    def factory(pid, env):
        peers.append(build(pid, env))
        return peers[-1]

    result = Simulation(n=spec.n, ell=spec.ell, peer_factory=factory,
                        adversary=spec.build_adversary(), t=spec.t,
                        seed=spec.seed_for(0)).run()
    assert result.download_correct
    return result, peers


def phase_senders(peer, message_type):
    """Per phase, the distinct senders of ``message_type`` in the inbox."""
    by_phase = {}
    for message in peer.inbox.of_type(message_type):
        by_phase.setdefault(message.phase, set()).add(message.sender)
    return by_phase


@pytest.mark.parametrize("case", CASES, ids=lambda case: case["protocol"])
@pytest.mark.parametrize("seed", [3, 4])
def test_no_wait_rescans_the_inbox(case, seed, monkeypatch):
    calls = []
    senders = MessageLog.senders

    def counting(log, *args, **kwargs):
        calls.append(args)
        return senders(log, *args, **kwargs)

    monkeypatch.setattr(MessageLog, "senders", counting)
    run_case(case, seed)
    assert calls == []


@pytest.mark.parametrize("case", CASES, ids=lambda case: case["protocol"])
def test_the_kept_sets_are_the_inbox_senders(case):
    _, peers = run_case(case, 5)
    for peer in peers:
        if case["protocol"] == "crash-one":
            for phase, heard in phase_senders(peer, ShareValues).items():
                assert peer._heard(phase) == heard | {peer.pid}
            for phase, heard in phase_senders(peer, ProbeReply).items():
                assert peer._probe_replies(phase) == len(heard)
        elif case["protocol"].startswith("byz-"):
            heard = [{peer.pid} for _ in peer._reporters]
            for message in peer.inbox.of_type(SegmentReport):
                cycle = peer.hierarchy.cycle_of[message.segment]
                heard[cycle - 1].add(message.sender)
            assert peer._reporters == heard
        else:
            assert peer._missing_responders == phase_senders(
                peer, MissingResponse)
