"""The simulator's source: :class:`~repro.sim.source.SourceCore` plus
asynchronous transport.

Source-to-peer communication is asynchronous like everything else: a
query's response travels with an adversary-chosen latency (the
adversary may also withhold it until quiescence).  An active
``withhold`` fault withholds the answer the same way — the kernel
eventually compels release, so a withholding source costs time, never
liveness — and ``slow:factor`` multiplies the adversary's numeric
latency.  The whole set shares one metrics collector, so Q comparisons
against a single-source run stay honest.

**A mutable ``X``** (``mutations=``, the paper's closing open problem):
all the paper's protocols assume static data — two honest peers
querying the same position at different times must see the same bit.
Scheduled bit flips deliberately violate that, so the test suite can
*demonstrate* the failure mode.  One read-time rule, with or without
source faults: a query with a numeric latency is read *when it reaches
the source* — the request travels for half the round trip, the array
is read at arrival, the response travels back — and a withheld query
snapshots at request time.  Honest endpoints alias the live array;
stale/wrong-bits views are copies frozen at construction (flips only
run once the kernel does), so a ``stale:0`` endpoint is a pure
pre-mutation snapshot — the lagging replica of the open problem.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.sim.messages import SOURCE_ID, SourceResponse
from repro.sim.network import WITHHOLD
from repro.sim.source import SourceCore, SourceFault
from repro.util.bitarrays import BitArray
from repro.util.rng import SplittableRNG
from repro.util.validation import check_index, check_range


class SourceSet(SourceCore):
    """``k`` endpoints over one ground-truth array, answering through
    the simulated network.

    ``request_bits`` routes to endpoint 0, so single-source protocols
    run unchanged against a set; :meth:`request_bits_from` is for
    protocols that pick their endpoint.
    :class:`~repro.sim.metrics.MetricsCollector` is charged for
    **every** request — cross-validation's q-fold query cost is never
    hidden.
    """

    def __init__(self, data: BitArray, metrics, network, adversary, *,
                 k: Optional[int] = None,
                 faults: Sequence[Union[str, SourceFault]] = (),
                 rng: Optional[SplittableRNG] = None,
                 mutations: Sequence[tuple] = ()) -> None:
        super().__init__(data, k=k, faults=faults, rng=rng)
        self.metrics = metrics
        self.network = network
        self.adversary = adversary
        #: Resolved telemetry backend, or ``None`` when disabled (the
        #: runner wires this after construction).
        self.telemetry = None
        self.mutations = list(mutations)
        self.applied_mutations: list[tuple[float, int]] = []
        for time, index in self.mutations:
            check_index("mutation index", index, len(self.data))
            network.kernel.schedule(time,
                                    lambda i=index: self._flip(i),
                                    kind=f"mutate:{index}")

    def _flip(self, index: int) -> None:
        self.data[index] = 1 - self.data[index]
        self.applied_mutations.append((self.network.kernel.now, index))

    def __len__(self) -> int:
        return len(self.data)

    # -- querying -----------------------------------------------------------

    def request_bits(self, pid: int, request_id: int,
                     indices: Sequence[int]) -> None:
        """Single-source compatibility: query endpoint 0."""
        self.request_bits_from(0, pid, request_id, indices)

    def request_bits_from(self, source_id: int, pid: int, request_id: int,
                          indices: Sequence[int]) -> None:
        """Serve a query for ``indices`` from endpoint ``source_id``.

        The response is a single :class:`SourceResponse` delivered with
        adversary-chosen latency.
        """
        unique = self.charge(pid, source_id, indices)
        self.metrics.record_query(pid, len(unique))
        kernel = self.network.kernel
        now = kernel.now
        if self.telemetry is not None:
            event = {"t": now, "peer": pid, "bits": len(unique)}
            if self.k > 1:
                event["source"] = source_id
            self.telemetry.emit("query", event)
            self.telemetry.add("queries", 1, {"peer": pid})
        latency = self.adversary.query_latency(pid, now)
        fault = self.active_fault(source_id, now)
        if fault is not None:
            if fault.withholding:
                latency = WITHHOLD
            elif (fault.latency_factor != 1.0
                  and isinstance(latency, (int, float))):
                latency = latency * fault.latency_factor
        if self.mutations and isinstance(latency, (int, float)):
            half = latency / 2.0
            kernel.schedule(
                half, lambda: self._respond(source_id, pid, request_id,
                                            unique, half),
                kind=f"source-read:{pid}")
        else:
            self._respond(source_id, pid, request_id, unique, latency)

    def _respond(self, source_id: int, pid: int, request_id: int,
                 unique: Sequence[int], latency) -> None:
        """Read the array now and send the answer on its way."""
        values = self.read(source_id, pid, unique, self.network.kernel.now)
        self.network.deliver_direct(
            pid, SourceResponse(sender=SOURCE_ID, request_id=request_id,
                                values=values), latency)

    def request_segment(self, pid: int, request_id: int,
                        lo: int, hi: int) -> None:
        """Serve a segment query ``[lo, hi)`` (endpoint 0)."""
        check_range("segment query", lo, hi, len(self.data))
        self.request_bits(pid, request_id, range(lo, hi))

    # -- test/bench conveniences (no accounting side effects) ----------------

    def peek(self, index: int) -> int:
        """Read a truth bit without charging anyone (test helper)."""
        return self.data[index]

    def peek_segment(self, lo: int, hi: int) -> str:
        """Read a truth segment without charging anyone (test helper)."""
        return self.data.segment(lo, hi)

    def peek_view(self, source_id: int, index: int) -> int:
        """Read endpoint ``source_id``'s active view (test helper)."""
        return self._views[source_id][index]
