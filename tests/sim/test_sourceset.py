"""Unit tests for the multi-source subsystem (SourceSet + faults)."""

import pytest

from repro.adversary.base import Adversary
from repro.sim.messages import SourceResponse
from repro.sim.metrics import MetricsCollector
from repro.sim.network import Network
from repro.sim.scheduler import Kernel
from repro.sim.source import (
    PerReaderViewFault,
    ViewFault,
    WrongBitsFault,
    parse_fault,
    parse_faults,
)
from repro.sim.sourceset import SourceSet
from repro.util.bitarrays import BitArray
from repro.util.rng import SplittableRNG


class StubReceiver:
    def __init__(self, pid):
        self.pid = pid
        self.received = []
        self.live = True

    def deliver(self, message):
        self.received.append(message)


def build(bits="10110100", *, k=1, faults=(), seed=0, receivers=1,
          mutations=()):
    kernel = Kernel()
    metrics = MetricsCollector()
    adversary = Adversary()
    network = Network(kernel, metrics, adversary)
    stubs = [StubReceiver(pid) for pid in range(receivers)]
    for stub in stubs:
        network.attach(stub)
    source = SourceSet(BitArray.from_string(bits), metrics, network,
                       adversary, k=k, faults=faults,
                       rng=SplittableRNG(seed), mutations=mutations)
    return kernel, metrics, source, stubs


class TestFaultGrammar:
    def test_parse_defaults(self):
        assert parse_fault("honest").kind == "honest"
        fault = parse_fault("wrong-bits")
        assert fault.kind == "wrong-bits" and fault.rate == 0.5
        assert parse_fault("stale").rate == 0.05
        assert parse_fault("withhold").withholding is True
        assert parse_fault("slow").latency_factor == 4.0

    def test_parse_params_and_onset(self):
        fault = parse_fault("wrong-bits:0.25@10")
        assert fault.rate == 0.25 and fault.onset == 10.0
        assert parse_fault("slow:2.5").latency_factor == 2.5
        assert parse_fault("withhold@3").onset == 3.0

    def test_instances_pass_through(self):
        fault = WrongBitsFault(0.1)
        assert parse_fault(fault) is fault

    @pytest.mark.parametrize("bad", [
        "nonsense", "wrong-bits:x", "honest:0.5", "withhold:1",
        "wrong-bits@-1", "wrong-bits:2.0", "slow:0.5", "stale:-0.1",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_fault(bad)

    def test_parse_faults_pads_with_honest(self):
        faults = parse_faults(("wrong-bits",), 3)
        assert [fault.kind for fault in faults] == \
            ["wrong-bits", "honest", "honest"]

    def test_parse_faults_rejects_overflow(self):
        with pytest.raises(ValueError):
            parse_faults(("honest", "honest"), 1)

    def test_describe_round_trips_through_parse(self):
        for spec in ("wrong-bits:0.25@10", "stale:0.1", "slow:2",
                     "withhold", "honest"):
            fault = parse_fault(spec)
            again = parse_fault(fault.describe())
            assert type(again) is type(fault)
            assert again.onset == fault.onset


class TestAccounting:
    def test_every_endpoint_request_is_charged(self):
        kernel, metrics, source, _ = build(k=3)
        for sid in range(3):
            source.request_bits_from(sid, 0, sid + 1, [0, 1])
        kernel.run()
        assert metrics.report(honest=[0]).per_peer_query_bits[0] == 6
        assert source.requests_served == 3

    def test_queried_by_source_breakdown(self):
        kernel, _, source, _ = build(k=2)
        source.request_bits_from(0, 0, 1, [0, 1])
        source.request_bits_from(1, 0, 2, [1, 2])
        kernel.run()
        assert source.queried_by_source == {(0, 0): {0, 1},
                                            (0, 1): {1, 2}}
        # The unioned view stays single-source compatible.
        assert source.queried_indices == {0: {0, 1, 2}}

    def test_out_of_range_endpoint_rejected(self):
        _, _, source, _ = build(k=2)
        with pytest.raises(ValueError):
            source.request_bits_from(2, 0, 1, [0])

    def test_request_bits_routes_to_endpoint_zero(self):
        kernel, _, source, stubs = build(k=2, faults=("honest",
                                                      "wrong-bits:1.0"))
        source.request_bits(0, 1, [0, 1, 2])
        kernel.run()
        response = stubs[0].received[0]
        assert isinstance(response, SourceResponse)
        assert response.values == {0: 1, 1: 0, 2: 1}  # truth, not the lie


class TestFaultBehaviours:
    def test_wrong_bits_full_rate_flips_everything(self):
        kernel, _, source, stubs = build(k=2,
                                         faults=("honest",
                                                 "wrong-bits:1.0"))
        source.request_bits_from(1, 0, 1, range(8))
        kernel.run()
        truth = [source.peek(index) for index in range(8)]
        answered = [stubs[0].received[0].values[index]
                    for index in range(8)]
        assert answered == [1 - bit for bit in truth]

    def test_stale_view_is_frozen_against_mutation(self):
        kernel, _, source, stubs = build(k=2, faults=("honest",
                                                      "stale:0"))
        # rate=0: the snapshot is exact, so only *mutations* diverge it.
        frozen = [source.peek_view(1, index) for index in range(8)]
        source.data[0] = 1 - source.data[0]
        source.request_bits_from(1, 0, 1, [0])
        kernel.run()
        assert stubs[0].received[0].values[0] == frozen[0]
        assert source.peek(0) != frozen[0]

    def test_withholding_endpoint_released_at_quiescence(self):
        kernel, _, source, stubs = build(k=2, faults=("honest",
                                                      "withhold"))
        source.request_bits_from(1, 0, 1, [0, 1])
        kernel.run()
        # The kernel compels withheld deliveries at quiescence, so the
        # (truthful) answer still arrives — withholding costs time,
        # never liveness.
        assert stubs[0].received[0].values == {0: 1, 1: 0}

    def test_slow_endpoint_multiplies_latency(self):
        kernel, _, source, stubs = build(k=2, faults=("honest",
                                                      "slow:4"))
        source.request_bits_from(0, 0, 1, [0])
        source.request_bits_from(1, 0, 2, [0])
        kernel.run()
        assert [resp.request_id for resp in stubs[0].received] == [1, 2]
        assert kernel.now > 0

    def test_onset_gates_the_fault(self):
        kernel, _, source, stubs = build(k=2,
                                         faults=("honest",
                                                 "wrong-bits:1.0@5"))
        source.request_bits_from(1, 0, 1, [0])  # t=0 < onset: honest
        kernel.run()
        assert stubs[0].received[0].values[0] == source.peek(0)

    def test_per_reader_view_equivocates(self):
        data = BitArray.from_string("0000")
        lie = BitArray.from_string("1111")
        fault = PerReaderViewFault({1: lie}, data)
        kernel = Kernel()
        metrics = MetricsCollector()
        adversary = Adversary()
        network = Network(kernel, metrics, adversary)
        stubs = [StubReceiver(0), StubReceiver(1)]
        for stub in stubs:
            network.attach(stub)
        source = SourceSet(data, metrics, network, adversary, k=1,
                           faults=(fault,))
        source.request_bits_from(0, 0, 1, [0])
        source.request_bits_from(0, 1, 2, [0])
        kernel.run()
        assert stubs[0].received[0].values[0] == 0
        assert stubs[1].received[0].values[0] == 1

    def test_view_fault_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build(bits="0000", k=1,
                  faults=(ViewFault(BitArray.from_string("01")),))


class TestHonestIdentity:
    def test_honest_sources_listing(self):
        _, _, source, _ = build(k=3, faults=("wrong-bits", "honest"))
        assert source.honest_sources() == [1, 2]
        view_fault_honest = ViewFault(BitArray.from_string("10110100"),
                                      honest=True)
        _, _, source2, _ = build(k=1, faults=(view_fault_honest,))
        assert source2.honest_sources() == [0]

    def test_mutable_truth_reaches_honest_but_not_stale(self):
        # A flip at t=0.4; queries at t=0.6.  The honest endpoint
        # answers the live (flipped) truth, the stale:0 endpoint keeps
        # serving its pure pre-mutation snapshot.
        kernel, _, source, stubs = build(
            "0000", k=2, faults=("honest", parse_fault("stale:0")),
            mutations=[(0.4, 2)])
        kernel.schedule(0.6,
                        lambda: source.request_bits_from(0, 0, 1, [2]))
        kernel.schedule(0.6,
                        lambda: source.request_bits_from(1, 0, 2, [2]))
        kernel.run()
        by_rid = {m.request_id: m.values for m in stubs[0].received}
        assert by_rid[1] == {2: 1}  # honest: sees the flip
        assert by_rid[2] == {2: 0}  # stale snapshot: frozen pre-flip
        assert source.applied_mutations == [(0.4, 2)]

    def test_mutation_index_validated(self):
        with pytest.raises(ValueError):
            build("0000", mutations=[(0.1, 99)])

    def test_k1_honest_matches_datasource_surface(self):
        kernel, metrics, source, stubs = build(k=1)
        source.request_bits(0, 1, [0, 2, 5])
        source.request_segment(0, 2, 1, 4)
        kernel.run()
        assert len(source) == 8
        assert source.requests_served == 2
        assert source.peek(0) == 1
        assert source.peek_segment(0, 4) == "1011"
        assert metrics.report(honest=[0]).per_peer_query_bits[0] == 6
        assert stubs[0].received[0].values == {0: 1, 2: 1, 5: 1}
