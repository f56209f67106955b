"""The size charged at send is the size of what gets delivered.

``Message.size_bits()`` is memoised on the (frozen) message, which is
only sound while nobody mutates a payload container after handing the
message to the network.  Each protocol family of the ``sim_dense``
benchmark workload and both multisource protocols run here with a hook
on every delivery that re-measures the message from scratch and
compares it with the size recorded when it was sent.

The same hook pins the payload type on the source → share path: every
source answer is a :class:`~repro.util.bitarrays.BitRun`, and so is the
bit map of every message an honest peer builds from answers or from its
working array (a Byzantine peer's flipped copy included).
"""

from collections import Counter

import pytest

from repro.experiments import ExperimentSpec, execute_repeat
from repro.protocols.board import CommitteeBoard
from repro.sim.messages import SourceResponse
from repro.sim.peer import Peer
from repro.util.bitarrays import BitRun

CASES = [
    {"protocol": "byz-committee", "n": 32, "ell": 256,
     "fault_model": "byzantine", "beta": 0.1,
     "protocol_params": {"block_size": 32}},
    {"protocol": "byz-two-cycle", "n": 32, "ell": 1024,
     "fault_model": "byzantine", "beta": 0.1},
    {"protocol": "crash-multi", "n": 12, "ell": 512,
     "fault_model": "crash", "beta": 0.5},
    {"protocol": "balanced", "n": 20, "ell": 256},
    {"protocol": "one-round", "n": 12, "ell": 512,
     "fault_model": "crash", "beta": 0.25},
    {"protocol": "crash-one", "n": 12, "ell": 512,
     "fault_model": "crash", "beta": 0.1},
    {"protocol": "cross-validate", "n": 8, "ell": 256, "sources": 3,
     "source_faults": ("wrong-bits:1.0",), "protocol_params": {"q": 3}},
    {"protocol": "cross-validate-escalate", "n": 8, "ell": 256,
     "sources": 3, "source_faults": ("wrong-bits:1.0",),
     "protocol_params": {"f": 1}},
]

#: Message type whose ``values`` each family forwards as it got them.
SHARES = {"crash-multi": "DataResponse", "balanced": "ShareMessage",
          "one-round": "OneRoundShare", "crash-one": "ShareValues"}


@pytest.mark.parametrize("case", CASES, ids=lambda case: case["protocol"])
def test_delivered_size_equals_charged_size(case, monkeypatch):
    delivered = Counter()
    deliver = Peer.deliver
    deliver_one = CommitteeBoard.deliver_one

    def check(message):
        if not isinstance(message, SourceResponse):
            # Peer messages are sized by Network.send before they
            # travel; source responses are never charged as messages.
            charged = vars(message)["_size_bits"]
            assert message.measure_bits() == charged, message
        assert message.size_bits() == message.measure_bits()
        name = type(message).__name__
        delivered[name] += 1
        if name in ("SourceResponse", SHARES.get(case["protocol"])):
            assert type(message.values) is BitRun, message

    def checking_deliver(self, message):
        check(message)
        deliver(self, message)

    def checking_deliver_one(self, message, pid):
        # A committee report to an owned peer goes to the board's
        # per-peer entry, never to ``Peer.deliver``.
        check(message)
        deliver_one(self, message, pid)

    monkeypatch.setattr(Peer, "deliver", checking_deliver)
    monkeypatch.setattr(CommitteeBoard, "deliver_one", checking_deliver_one)
    record = execute_repeat(ExperimentSpec(base_seed=12, **case), 0)
    assert record.correct
    assert delivered["SourceResponse"] > 0
    if case["protocol"] in SHARES:
        assert delivered[SHARES[case["protocol"]]] > 0
    assert (sum(delivered.values()) > delivered["SourceResponse"]) \
        == (record.messages > 0)
