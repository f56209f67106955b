"""Unit tests for a mutable ``X``: the source's one read-time rule."""

import pytest

from repro.adversary.base import Adversary
from repro.protocols import NaiveDownloadPeer
from repro.sim import WITHHOLD, Simulation
from repro.sim.metrics import MetricsCollector
from repro.sim.network import Network
from repro.sim.scheduler import Kernel
from repro.sim.sourceset import SourceSet
from repro.util.bitarrays import BitArray


class StubReceiver:
    def __init__(self, pid):
        self.pid = pid
        self.received = []
        self.live = True

    def deliver(self, message):
        self.received.append(message)


def build(bits="0000", mutations=(), adversary=None, faults=()):
    kernel = Kernel()
    metrics = MetricsCollector()
    adversary = adversary or Adversary()
    network = Network(kernel, metrics, adversary)
    receiver = StubReceiver(0)
    network.attach(receiver)
    source = SourceSet(BitArray.from_string(bits), metrics, network,
                       adversary, faults=faults, mutations=mutations)
    return kernel, metrics, source, receiver


class TestReadAtArrival:
    def test_read_happens_at_half_latency(self):
        # Flip at 0.4; query round trip is 1.0, so the read at 0.5
        # sees the flipped value.
        kernel, _, source, receiver = build("0000", mutations=[(0.4, 2)])
        source.request_bits(0, 1, [2])
        kernel.run()
        (response,) = receiver.received
        assert response.values == {2: 1}

    def test_every_endpoint_of_a_set_reads_at_arrival(self):
        # The same rule behind source faults: the honest endpoints of a
        # set see a flip that lands while the query is in flight, the
        # stale one keeps its frozen pre-mutation snapshot.
        kernel, _, source, receiver = build(
            "0000", mutations=[(0.4, 2)],
            faults=("honest", "slow:1", "stale:0"))
        for sid in range(3):
            source.request_bits_from(sid, 0, sid, [2])
        kernel.run()
        assert {m.request_id: m.values for m in receiver.received} == {
            0: {2: 1}, 1: {2: 1}, 2: {2: 0}}

    def test_flip_after_read_invisible(self):
        kernel, _, source, receiver = build("0000", mutations=[(0.9, 2)])
        source.request_bits(0, 1, [2])
        kernel.run()
        (response,) = receiver.received
        assert response.values == {2: 0}

    def test_charging_still_at_request_time(self):
        kernel, metrics, source, _ = build("0000")
        source.request_bits(0, 1, [0, 1])
        assert metrics.report(honest=[0]).per_peer_query_bits[0] == 2  # before any delivery

    def test_applied_mutations_logged(self):
        kernel, _, source, _ = build("0000",
                                     mutations=[(0.5, 1), (0.25, 3)])
        kernel.run()
        assert source.applied_mutations == [(0.25, 3), (0.5, 1)]

    def test_flip_flips_back_on_second_mutation(self):
        kernel, _, source, _ = build("0000",
                                     mutations=[(0.1, 0), (0.2, 0)])
        kernel.run()
        assert source.peek(0) == 0

    def test_invalid_mutation_index_rejected(self):
        with pytest.raises(ValueError):
            build("0000", mutations=[(0.1, 9)])


class TestWithheldQueries:
    class WithholdingQueries(Adversary):
        def query_latency(self, pid, now):
            return WITHHOLD

    def test_withheld_query_snapshots_at_request(self):
        kernel, _, source, receiver = build(
            "0000", mutations=[(0.5, 1)],
            adversary=self.WithholdingQueries())
        source.request_bits(0, 1, [1])
        kernel.run()  # quiescence releases the parked response
        (response,) = receiver.received
        # Snapshot semantics for withheld queries: value from request
        # time (0), not from after the flip.
        assert response.values == {1: 0}

    def test_withheld_delivery_is_after_the_flip(self):
        # The parked response must have been *delivered* after the
        # mutation fired — otherwise the previous test would pass
        # trivially.  Quiescence release runs the flip first.
        kernel, _, source, receiver = build(
            "0000", mutations=[(0.5, 1)],
            adversary=self.WithholdingQueries())
        source.request_bits(0, 1, [1])
        kernel.run()
        assert kernel.now >= 0.5
        assert source.applied_mutations == [(0.5, 1)]
        assert source.peek(1) == 1          # the array really flipped
        assert receiver.received[0].values == {1: 0}  # snapshot held

    def test_withheld_charges_and_records_at_request_time(self):
        kernel, metrics, source, _ = build(
            "0000", adversary=self.WithholdingQueries())
        source.request_bits(0, 1, [0, 3])
        # Before any delivery: the query is already charged and logged.
        assert metrics.report(honest=[0]).per_peer_query_bits[0] == 2
        assert source.queried_indices[0] == {0, 3}
        kernel.run()

    def test_withheld_multi_index_snapshot_is_consistent(self):
        # Several indices, several flips between park and release: the
        # parked response is one coherent snapshot, not a mix.
        kernel, _, source, receiver = build(
            "0000", mutations=[(0.2, 0), (0.4, 2)],
            adversary=self.WithholdingQueries())
        source.request_bits(0, 1, [0, 1, 2])
        kernel.run()
        (response,) = receiver.received
        assert response.values == {0: 0, 1: 0, 2: 0}

    def test_withheld_end_to_end_download_uses_park_time_values(self):
        # Full simulation: queries are withheld and the data mutates
        # afterwards.  The source reads at park time, so every peer
        # still reconstructs the *original* array.
        result = Simulation(
            n=2, data="1100", peer_factory=NaiveDownloadPeer.factory(),
            mutations=[(5.0, 0), (5.0, 3)],
            adversary=self.WithholdingQueries(), seed=3).run()
        assert result.download_correct


class TestMutationsParameter:
    """`mutations=` on Simulation/run_download."""

    def test_mutations_alone_select_mutable_source(self):
        # A late flip (after all round-trips complete) leaves the
        # downloaded array equal to the original snapshot.
        result = Simulation(
            n=2, data="1100", peer_factory=NaiveDownloadPeer.factory(),
            mutations=[(100.0, 0)], seed=1).run()
        assert result.download_correct

    def test_mutations_compose_with_stale_source_fault(self):
        # Mutable X behind a source set: the honest majority tracks
        # the live truth while a stale:0 endpoint serves the frozen
        # pre-mutation snapshot; cross-validation still decodes.
        from repro.protocols import get
        from repro.sim import run_download
        result = run_download(
            n=3, ell=64, peer_factory=get("cross-validate").factory(q=3),
            seed=5, sources=3, source_faults=("stale:0",),
            mutations=[(50.0, 7)])
        assert result.download_correct

    @pytest.mark.parametrize("source_faults", [(), ("honest",)])
    def test_read_time_does_not_depend_on_source_faults(self,
                                                        source_faults):
        # Flip at 0.4, unit round trip: the read at 0.5 sees it.  The
        # run with an explicit honest endpoint used to read at request
        # time and download 0000.
        result = Simulation(
            n=1, data="0000", peer_factory=NaiveDownloadPeer.factory(),
            mutations=[(0.4, 2)], source_faults=source_faults).run()
        assert result.outputs[0] == BitArray.from_string("0010")
