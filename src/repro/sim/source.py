"""The external data source: one query ledger, ``k`` endpoint views.

The source stores the ``ell``-bit input array ``X`` and answers
read-only queries ``Query(i) -> X[i]``.  The paper's source is single
and trusted; "Byzantine Resilient Computing with the Cloud" (arXiv
2309.16359, the same author team) relaxes exactly this: peers may query
``k`` external endpoints of which up to ``f`` return wrong, stale, or
no answers, and correctness must be recovered by cross-validating
answers across endpoints.

:class:`SourceCore` is that model with no transport in it — who is
charged what, and which array answers.  Every engine's source is this
class plus a way to carry the answer back: the simulator's
:class:`~repro.sim.sourceset.SourceSet` (adversary-chosen latency),
the lockstep :class:`~repro.sync.engine.SyncSource` (answered within
the round) and the socket :class:`~repro.net.server.SourceServer`
(idempotent request IDs).  This module imports only :mod:`repro.util`.

Query accounting happens here and only here: a peer is charged for the
distinct positions of each request at request time — an in-flight
query already counts, so a peer cannot dodge the charge by crashing
before the answer arrives — and **every request to every endpoint is
charged** (querying ``q`` sources per digit costs ``q`` times the
bits).

Every endpoint answers from its own *view* of the input array; the
view is determined by a pluggable per-source fault model
(:class:`SourceFault` subclasses).  Fault grammar (used by
:class:`~repro.experiments.ExperimentSpec`'s ``source_faults`` field,
the CLI, and the fuzzer) — one string per endpoint,
``kind[:param][@onset]``:

- ``honest`` — answers the live truth (the trusted baseline);
- ``wrong-bits[:rate]`` — a fixed lying view: each bit independently
  flipped with probability ``rate`` (default 0.5), seeded;
- ``stale[:rate]`` — a coherent lagging snapshot: the view is frozen
  at construction (later mutations of a mutable ``X`` are invisible to
  it) and a seeded ``rate`` fraction of positions additionally hold
  missed-update values (default 0.05);
- ``withhold`` — answers are withheld (how long is the engine's rule:
  until quiescence in the simulator, this round in lockstep, a fixed
  delay on sockets — it costs time, never liveness, never Q);
- ``slow[:factor]`` — answers arrive ``factor`` times later than the
  engine's normal latency (default 4.0).

``@onset`` delays the fault: before time ``onset`` (virtual time, or
the round number in lockstep) the endpoint behaves honestly (e.g.
``wrong-bits:0.5@10`` starts lying at ``t = 10``).
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Union

from repro.util.bitarrays import (BitArray, BitRun, MaskSets,
                                  canonical_indices)
from repro.util.rng import SplittableRNG
from repro.util.validation import check_positive


class SourceFault:
    """Per-endpoint fault model; the base class *is* the honest model.

    Subclasses override :meth:`build_view` (what the endpoint answers
    from once the fault is active) and/or the latency knobs
    (:attr:`withholding`, :attr:`latency_factor`).  Before ``onset``
    every endpoint answers the live truth at normal latency.
    """

    kind = "honest"
    #: When True, active-fault responses are withheld by the engine's
    #: rule (the simulator's kernel releases them at quiescence, so
    #: runs still terminate).
    withholding = False
    #: Numeric latencies are multiplied by this once the fault is
    #: active (1.0 = untouched: the multiply is then skipped entirely,
    #: so float identity is preserved bit-for-bit).
    latency_factor = 1.0

    def __init__(self, onset: float = 0.0) -> None:
        self.onset = float(onset)

    def build_view(self, data: BitArray, rng: SplittableRNG) -> BitArray:
        """The array this endpoint answers from while the fault is
        active.  The honest model returns ``data`` itself (sharing the
        reference, so mutations of a mutable ``X`` stay visible)."""
        return data

    def view_for(self, pid: int) -> Optional[BitArray]:
        """Per-reader view override (equivocating endpoints), or None
        to use the shared :meth:`build_view` array."""
        return None

    def describe(self) -> str:
        suffix = f"@{self.onset:g}" if self.onset else ""
        return f"{self.kind}{suffix}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SourceFault {self.describe()}>"


class WrongBitsFault(SourceFault):
    """A fixed lying view: each bit flipped independently with
    probability ``rate`` (seeded, so the lie is reproducible)."""

    kind = "wrong-bits"

    def __init__(self, rate: float = 0.5, onset: float = 0.0) -> None:
        super().__init__(onset)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"wrong-bits rate must be in [0, 1], "
                             f"got {rate}")
        self.rate = rate

    def build_view(self, data: BitArray, rng: SplittableRNG) -> BitArray:
        view = data.copy()
        for index in range(len(view)):
            if rng.random() < self.rate:
                view[index] = 1 - view[index]
        return view

    def describe(self) -> str:
        suffix = f"@{self.onset:g}" if self.onset else ""
        return f"{self.kind}:{self.rate:g}{suffix}"


class StaleFault(SourceFault):
    """A coherent lagging snapshot of a possibly-mutable ``X``.

    The view is frozen at construction time — mutations applied to the
    live array later (e.g. by a mutable-source schedule) never reach
    it — and a seeded ``rate`` fraction of positions additionally hold
    flipped "missed update" values, so staleness is observable even
    when the truth is static.
    """

    kind = "stale"

    def __init__(self, rate: float = 0.05, onset: float = 0.0) -> None:
        super().__init__(onset)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"stale rate must be in [0, 1], got {rate}")
        self.rate = rate

    def build_view(self, data: BitArray, rng: SplittableRNG) -> BitArray:
        view = data.copy()
        missed = max(1, round(self.rate * len(view))) if self.rate else 0
        for index in sorted(rng.sample(range(len(view)),
                                       min(missed, len(view)))):
            view[index] = 1 - view[index]
        return view

    def describe(self) -> str:
        suffix = f"@{self.onset:g}" if self.onset else ""
        return f"{self.kind}:{self.rate:g}{suffix}"


class WithholdFault(SourceFault):
    """Answers truthfully but withholds responses until quiescence."""

    kind = "withhold"
    withholding = True


class SlowFault(SourceFault):
    """Answers truthfully but ``factor`` times slower."""

    kind = "slow"

    def __init__(self, factor: float = 4.0, onset: float = 0.0) -> None:
        super().__init__(onset)
        if factor < 1.0:
            raise ValueError(f"slow factor must be >= 1, got {factor}")
        self.latency_factor = factor

    def describe(self) -> str:
        suffix = f"@{self.onset:g}" if self.onset else ""
        return f"{self.kind}:{self.latency_factor:g}{suffix}"


class ViewFault(SourceFault):
    """An endpoint answering from an explicit fixed array.

    The adapter the oracle layer uses: a feed's encoded value vector
    becomes the endpoint's view, so a Download protocol can run
    *against* a feed set through the standard source-set machinery.
    """

    kind = "view"

    def __init__(self, view: BitArray, *, honest: bool = False,
                 onset: float = 0.0) -> None:
        super().__init__(onset)
        self.view = view
        self.honest = honest

    def build_view(self, data: BitArray, rng: SplittableRNG) -> BitArray:
        if len(self.view) != len(data):
            raise ValueError(
                f"view has {len(self.view)} bits, input has {len(data)}")
        return self.view


class PerReaderViewFault(ViewFault):
    """An equivocating endpoint: each reader may see a different array
    (the nastiest feed behaviour in the paper's oracle model)."""

    kind = "equivocate"

    def __init__(self, per_reader: dict[int, BitArray], default: BitArray,
                 *, onset: float = 0.0) -> None:
        super().__init__(default, onset=onset)
        self.per_reader = dict(per_reader)

    def view_for(self, pid: int) -> Optional[BitArray]:
        return self.per_reader.get(pid)


_FAULT_KINDS = {
    "honest": SourceFault,
    "wrong-bits": WrongBitsFault,
    "stale": StaleFault,
    "withhold": WithholdFault,
    "slow": SlowFault,
}


def parse_fault(spec: Union[str, SourceFault]) -> SourceFault:
    """Parse one ``kind[:param][@onset]`` fault spec string.

    Ready :class:`SourceFault` instances pass through, so programmatic
    callers (the oracle layer, tests) can mix instances and strings.
    """
    if isinstance(spec, SourceFault):
        return spec
    text = str(spec).strip()
    onset = 0.0
    if "@" in text:
        text, _, onset_text = text.rpartition("@")
        try:
            onset = float(onset_text)
        except ValueError:
            raise ValueError(f"bad fault onset {onset_text!r} in {spec!r}")
        if onset < 0:
            raise ValueError(f"fault onset must be >= 0 in {spec!r}")
    kind, _, param = text.partition(":")
    kind = kind.strip()
    if kind not in _FAULT_KINDS:
        raise ValueError(f"unknown source fault {kind!r} in {spec!r}; "
                         f"known: {sorted(_FAULT_KINDS)}")
    cls = _FAULT_KINDS[kind]
    if not param:
        return cls(onset=onset)
    if kind in ("honest", "withhold"):
        raise ValueError(f"fault {kind!r} takes no parameter ({spec!r})")
    try:
        value = float(param)
    except ValueError:
        raise ValueError(f"bad fault parameter {param!r} in {spec!r}")
    return cls(value, onset=onset)


def parse_faults(specs: Sequence[Union[str, SourceFault]], k: int
                 ) -> list[SourceFault]:
    """Faults for ``k`` endpoints; unspecified endpoints are honest.

    ``specs[i]`` applies to endpoint ``i`` — the positional convention
    the spec layer, CLI, and fuzzer share.
    """
    if len(specs) > k:
        raise ValueError(f"{len(specs)} source faults for only {k} "
                         f"sources")
    faults = [parse_fault(spec) for spec in specs]
    faults.extend(SourceFault() for _ in range(k - len(faults)))
    return faults


class SourceCore:
    """``k`` endpoint views over one array, and the ledger of who
    queried what.

    An engine's source calls :meth:`charge` once per request (never
    for a replayed one), :meth:`active_fault` for the endpoint's
    latency rule and :meth:`read` for the answered bits; how and when
    the answer travels is the engine's business.
    """

    def __init__(self, data: BitArray, *, k: Optional[int] = None,
                 faults: Sequence[Union[str, SourceFault]] = (),
                 rng: Optional[SplittableRNG] = None) -> None:
        self.data = data
        self.k = check_positive(
            "sources", k if k is not None else max(1, len(faults)))
        self.faults = parse_faults(faults, self.k)
        #: Bits charged to each peer, over all its requests.
        self.query_bits: dict[int, int] = {}
        #: Requests charged so far, across all endpoints.
        self.requests_served = 0
        #: Which positions each peer has queried, as one bitmask per
        #: peer (bit ``i`` set = position ``i`` was queried), and per
        #: ``(peer, source)`` when there is more than one endpoint.
        self._queried_masks: dict[int, int] = {}
        self._per_source_masks: dict[tuple[int, int], int] = {}
        # Views come from stateless RNG splits labelled by endpoint, so
        # building them never perturbs any other stream (peer RNGs, the
        # input array) and every engine builds the same bits for the
        # same seed.  Honest endpoints alias ``data`` itself, so flips
        # of a mutable ``X`` reach them; stale/wrong-bits views are
        # copies frozen here.
        view_rng = rng if rng is not None else SplittableRNG(0)
        self._views = [
            fault.build_view(data, view_rng.split(f"source-{sid}"))
            for sid, fault in enumerate(self.faults)]

    # -- the ledger ---------------------------------------------------------

    def charge(self, pid: int, source_id: int,
               indices: Sequence[int]) -> Union[range, list[int]]:
        """Charge ``pid`` for one request to endpoint ``source_id`` and
        return its sorted distinct indices (a ``range`` when they are
        an arithmetic progression).

        Duplicates within a request are collapsed (and charged once);
        re-querying a bit across requests or endpoints is charged again
        — the model counts queries, not distinct learned bits.
        """
        if not 0 <= source_id < self.k:
            raise ValueError(f"source {source_id} out of range "
                             f"[0, {self.k})")
        unique, mask = canonical_indices(indices, len(self.data))
        self.query_bits[pid] = self.query_bits.get(pid, 0) + len(unique)
        self._queried_masks[pid] = self._queried_masks.get(pid, 0) | mask
        if self.k > 1:
            key = (pid, source_id)
            self._per_source_masks[key] = \
                self._per_source_masks.get(key, 0) | mask
        self.requests_served += 1
        return unique

    @property
    def queried_indices(self) -> Mapping[int, set[int]]:
        """Positions each peer queried, unioned over endpoints (the
        lower-bound constructions pick their target bit outside this
        set).  A snapshot of the bitmasks as they are now; a peer's set
        is expanded when it is first read."""
        return MaskSets(dict(self._queried_masks))

    @property
    def queried_by_source(self) -> Mapping[tuple[int, int], set[int]]:
        """Positions queried per ``(peer, source)`` pair."""
        if self.k == 1:
            return MaskSets({(pid, 0): mask for pid, mask
                             in self._queried_masks.items()})
        return MaskSets(dict(self._per_source_masks))

    def honest_sources(self) -> list[int]:
        """Endpoint IDs whose fault model is the honest baseline."""
        return [sid for sid, fault in enumerate(self.faults)
                if type(fault) is SourceFault
                or getattr(fault, "honest", False)]

    # -- the views ----------------------------------------------------------

    def active_fault(self, source_id: int,
                     now: float) -> Optional[SourceFault]:
        """Endpoint ``source_id``'s fault model once ``now`` has
        reached its onset, else ``None`` (it still behaves honestly)."""
        fault = self.faults[source_id]
        return fault if now >= fault.onset else None

    def read(self, source_id: int, pid: int,
             unique: Union[range, Sequence[int]], now: float) -> BitRun:
        """What endpoint ``source_id`` answers ``pid`` at time ``now``:
        the live truth before the fault's onset, the reader's own view
        or the endpoint's standing view after it.  ``unique`` is what
        :meth:`charge` returned.  Charges nothing."""
        fault = self.active_fault(source_id, now)
        if fault is None:
            view = self.data
        else:
            view = fault.view_for(pid)
            if view is None:
                view = self._views[source_id]
        if isinstance(unique, range):
            return BitRun(unique, view.read_range(unique))
        return BitRun(unique, bytes(view.get_many(unique)))
