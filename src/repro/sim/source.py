"""The trusted external data source.

The source stores the ``ell``-bit input array ``X`` and answers
read-only queries ``Query(i) -> X[i]``.  Source-to-peer communication
is asynchronous like everything else: a query's response travels with
an adversary-chosen latency (the adversary may also withhold it until
quiescence).

Query accounting happens here and only here: the number of bits a peer
has queried is the number of distinct positions in all requests it has
issued (charged at request time — an in-flight query already counts, so
a peer cannot dodge the charge by crashing before the answer arrives).

The source is *trusted*: it never lies and never fails.  Byzantine
data sources exist only in the blockchain-oracle application layer
(:mod:`repro.oracle.feeds`), where each feed embeds its own honest or
corrupt :class:`DataSource`-like behaviour.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.sim.messages import SOURCE_ID, SourceResponse
from repro.sim.metrics import MetricsCollector
from repro.sim.network import Network
from repro.util.bitarrays import BitArray, canonical_indices, mask_to_set
from repro.util.validation import check_index, check_range


class DataSource:
    """Read-only bit array with per-peer query accounting."""

    def __init__(self, data: BitArray, metrics: MetricsCollector,
                 network: Network, adversary) -> None:
        self.data = data
        self.metrics = metrics
        self.network = network
        self.adversary = adversary
        self._requests_served = 0
        #: Which positions each peer has queried, as one bitmask per
        #: peer (bit ``i`` set = position ``i`` was queried).  Exposed
        #: as plain sets through :attr:`queried_indices`.
        self._queried_masks: dict[int, int] = {}
        #: Resolved telemetry backend, or ``None`` when disabled (the
        #: runner wires this after construction).
        self.telemetry = None

    def __len__(self) -> int:
        return len(self.data)

    @property
    def requests_served(self) -> int:
        """Total number of query requests answered so far."""
        return self._requests_served

    @property
    def queried_indices(self) -> dict[int, set[int]]:
        """Which positions each peer has queried (the lower-bound
        constructions pick their target bit outside this set).

        Materialized fresh from the per-peer bitmasks on each access;
        mutating the returned sets does not affect the accounting.
        """
        return {pid: mask_to_set(mask)
                for pid, mask in self._queried_masks.items()}

    def _record_query(self, pid: int, unique: Sequence[int],
                      mask: int) -> None:
        """Charge ``pid`` for one request covering ``unique``."""
        self.metrics.record_query(pid, len(unique))
        self._queried_masks[pid] = self._queried_masks.get(pid, 0) | mask
        self._requests_served += 1
        if self.telemetry is not None:
            self.telemetry.emit("query", {
                "t": self.network.kernel.now, "peer": pid,
                "bits": len(unique)})
            self.telemetry.add("queries", 1, {"peer": pid})

    # -- querying -----------------------------------------------------------

    def request_bits(self, pid: int, request_id: int,
                     indices: Sequence[int]) -> None:
        """Serve a query for the given bit ``indices`` from peer ``pid``.

        The response is a single :class:`SourceResponse` delivered with
        adversary-chosen latency.  Duplicate indices within one request
        are collapsed (and charged once); re-querying a bit across
        requests is charged again — the model counts queries, not
        distinct learned bits, and the protocols avoid re-queries
        themselves.
        """
        unique, mask = canonical_indices(indices, len(self.data))
        self._record_query(pid, unique, mask)
        values = dict(zip(unique, self.data.get_many(unique)))
        response = SourceResponse(sender=SOURCE_ID, request_id=request_id,
                                  values=values)
        latency = self.adversary.query_latency(pid, self.network.kernel.now)
        self.network.deliver_direct(pid, response, latency)

    def request_segment(self, pid: int, request_id: int,
                        lo: int, hi: int) -> None:
        """Serve a query for the contiguous segment ``[lo, hi)``."""
        check_range("segment query", lo, hi, len(self.data))
        self.request_bits(pid, request_id, range(lo, hi))

    #: A lone trusted source is a source set of one.  The attribute and
    #: the delegating method below give protocols one uniform querying
    #: surface (:class:`~repro.sim.sourceset.SourceSet` generalizes
    #: both), so cross-validation code with ``q = 1`` runs unchanged
    #: against the plain single source.
    k = 1

    def request_bits_from(self, source_id: int, pid: int, request_id: int,
                          indices: Sequence[int]) -> None:
        """Endpoint-addressed querying; a single source only has 0."""
        if source_id != 0:
            raise ValueError(f"single source has only endpoint 0, "
                             f"got {source_id}")
        self.request_bits(pid, request_id, indices)

    # -- test/bench conveniences (no accounting side effects) ----------------

    def peek(self, index: int) -> int:
        """Read a bit without charging anyone (test helper only)."""
        return self.data[index]

    def peek_segment(self, lo: int, hi: int) -> str:
        """Read a segment without charging anyone (test helper only)."""
        return self.data.segment(lo, hi)


class MutableDataSource(DataSource):
    """A source whose contents change *during* the execution.

    The paper's closing open problem: all its protocols assume static
    data — two honest peers querying the same position at different
    times must see the same bit.  This source deliberately violates
    that assumption (bit flips at scheduled virtual times) so the test
    suite can *demonstrate* the failure mode the open problem is about:
    peers download inconsistent snapshots, and "the" correct output
    stops being well-defined.

    Use via :func:`mutable_source_factory` as a ``source_factory`` for
    :class:`~repro.sim.runner.Simulation`.
    """

    def __init__(self, data, metrics, network, adversary, *,
                 mutations: Sequence[tuple[float, int]] = ()) -> None:
        super().__init__(data, metrics, network, adversary)
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

    def request_bits(self, pid: int, request_id: int, indices) -> None:
        """Read *when the query reaches the source*, not at send time.

        The static source snapshots values immediately (it makes no
        difference there); with mutable data the timing is the whole
        point: the request travels for half the round-trip latency,
        the array is read at arrival, and the response travels back.
        """
        unique, mask = canonical_indices(indices, len(self.data))
        self._record_query(pid, unique, mask)
        latency = self.adversary.query_latency(pid, self.network.kernel.now)
        if not isinstance(latency, (int, float)):
            # Withheld query: snapshot now, park the response.
            values = dict(zip(unique, self.data.get_many(unique)))
            response = SourceResponse(sender=SOURCE_ID,
                                      request_id=request_id, values=values)
            self.network.deliver_direct(pid, response, latency)
            return

        def read_and_respond() -> None:
            values = dict(zip(unique, self.data.get_many(unique)))
            response = SourceResponse(sender=SOURCE_ID,
                                      request_id=request_id, values=values)
            self.network.deliver_direct(pid, response, latency / 2.0)
        self.network.kernel.schedule(latency / 2.0, read_and_respond,
                                     kind=f"source-read:{pid}")


def mutable_source_factory(mutations: Sequence[tuple[float, int]]):
    """Build a ``source_factory`` that flips bits at scheduled times."""
    def make(data, metrics, network, adversary):
        return MutableDataSource(data, metrics, network, adversary,
                                 mutations=mutations)
    return make


def ground_truth(source: DataSource) -> BitArray:
    """Return an independent copy of the source array for verification."""
    return source.data.copy()


def indices_are_valid(source: DataSource, indices: Iterable[int]) -> bool:
    """True when every index is a legal query position."""
    length = len(source)
    return all(isinstance(i, int) and 0 <= i < length for i in indices)
