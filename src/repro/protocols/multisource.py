"""Cross-validation Download protocols for multi-source runs.

With ``k`` external sources of which up to ``f`` may be faulty
(:mod:`repro.sim.sourceset`), a single query no longer establishes a
bit.  These protocols buy back correctness by querying ``q`` sources
per digit and decoding the vote multiset (:mod:`repro.protocols.
decode`) — the Q-vs-trust tradeoff: ``q`` times the query bits for
tolerance of ``f = (q - 1) // 2`` faulty sources.

- :class:`CrossValidateDownloadPeer` (``cross-validate``) — query a
  fixed ``q`` sources per chunk and decode every position by strict
  majority (or an explicit threshold).  A position decodes as soon as
  one value holds a majority *of q*, so slow or withholding endpoints
  cost nothing once enough honest answers arrived.
- :class:`CrossValidateEscalateDownloadPeer`
  (``cross-validate-escalate``) — the optimistic variant: query only
  ``f + 1`` sources first (any agreement among ``f + 1`` includes at
  least one honest answer **only if all f+1 agree**); on unanimity
  accept, on disagreement emit a ``source_disagreement`` event and
  escalate the chunk to ``2f + 1`` sources with majority decode.
  Fault-free cost is ``(f + 1) * ell`` instead of ``(2f + 1) * ell``.

Both are per-peer independent (no peer-to-peer messages), so like the
naive protocol they tolerate any peer-fault fraction below 1 — the
interesting adversary here sits behind the source API, not among the
peers.  Source rotation (peer ``p`` queries endpoints ``(p + j) mod
k``) spreads load across the set instead of hammering endpoint 0.

Termination under source faults that defeat the decoder (more faulty
sources than ``q`` covers) is still guaranteed: once every queried
endpoint has answered (withheld answers are compelled at quiescence),
undecided positions fall back deterministically to the lowest-numbered
responding source — the run then *terminates incorrectly*, which the
harness reports as such, rather than deadlocking.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.protocols.base import DownloadPeer
from repro.protocols.decode import (
    majority_decode,
    majority_threshold,
    threshold_decode,
)
from repro.sim.peer import SimEnv
from repro.util.bitarrays import UNKNOWN, BitRun, fill_unknown

#: Upper bound on bits per source request (mirrors the naive peer).
_CHUNK = 4096

_DECODE_RULES = ("majority", "threshold")

#: Most endpoints a chunk may be asked of: the tally counts a
#: position's one-votes in one byte.
_MAX_Q = 255


class _Tally:
    """The votes on one chunk, a byte column per answer.

    ``answers`` holds ``(endpoint, bits)`` in arrival order and
    ``ones`` their sum as little-endian integers, i.e. byte ``i`` of
    ``ones`` is the number of one-votes on position ``span[i]``.  Every
    answer covers the whole chunk or (a withholding lockstep endpoint)
    nothing, so all positions have heard the same endpoints.
    """

    def __init__(self, lo: int, hi: int) -> None:
        self.span = range(lo, hi)
        self.answers: list[tuple[int, bytes]] = []
        self.ones = 0

    def add(self, sid: int, answer: BitRun) -> None:
        if not answer:
            return
        if answer.indices != self.span:
            raise ValueError(f"endpoint {sid} answered {answer.indices!r} "
                             f"for chunk {self.span!r}")
        self.answers.append((sid, answer.bits))
        self.ones += int.from_bytes(answer.bits, "little")


class CrossValidateDownloadPeer(DownloadPeer):
    """Query ``q`` sources per chunk; decode positions by vote.

    Parameters:
        q: sources queried per chunk (default: all ``k`` available).
        decode: ``"majority"`` (strict majority of q) or
            ``"threshold"`` (unique value with >= ``threshold`` votes).
        threshold: vote count for ``decode="threshold"`` (default: the
            majority threshold ``q // 2 + 1``).
    """

    protocol_name = "cross-validate"
    peer_to_peer = False  # source-only: shardable (see execution.sharding)

    def __init__(self, pid: int, env: SimEnv,
                 q: Optional[int] = None, decode: str = "majority",
                 threshold: Optional[int] = None) -> None:
        super().__init__(pid, env)
        if decode not in _DECODE_RULES:
            raise ValueError(f"decode must be one of {_DECODE_RULES}, "
                             f"got {decode!r}")
        k = self.source_count
        self.q = q if q is not None else k
        if not 1 <= self.q <= min(k, _MAX_Q):
            raise ValueError(f"q={self.q} must be in "
                             f"[1, min(k={k}, {_MAX_Q})]")
        self.decode = decode
        self.threshold = (threshold if threshold is not None
                          else majority_threshold(self.q))
        if not 1 <= self.threshold <= self.q:
            raise ValueError(f"threshold={self.threshold} must be in "
                             f"[1, q={self.q}]")
        #: (rule's name, answers in) -> translate table, one-vote count
        #: -> decoded bit or UNKNOWN.
        self._verdict_tables: dict[tuple[str, int], bytes] = {}

    def _decode(self, votes: list[int]) -> Optional[int]:
        if self.decode == "majority":
            return majority_decode(votes, self.q)
        return threshold_decode(votes, self.threshold)

    def _verdicts(self, tally: _Tally, rule: Callable) -> bytes:
        """``rule`` applied to every position's votes at once: a 0/1
        byte where it decodes and ``UNKNOWN`` where it returns None."""
        heard = len(tally.answers)
        key = rule.__name__, heard
        table = self._verdict_tables.get(key)
        if table is None:
            decoded = (rule([1] * ones + [0] * (heard - ones))
                       for ones in range(heard + 1))
            table = bytes(UNKNOWN if bit is None else bit for bit in decoded
                          ).ljust(256, bytes((UNKNOWN,)))
            self._verdict_tables[key] = table
        return tally.ones.to_bytes(len(tally.span), "little").translate(table)

    def _note_disagreements(self, tally: _Tally, verdicts: bytes) -> None:
        """One ``source_disagreement`` event per undecided position,
        its votes in arrival order."""
        telemetry = self.env.telemetry
        if telemetry is None:
            return
        offset = verdicts.find(UNKNOWN)
        while offset != -1:
            telemetry.emit("source_disagreement", {
                "t": self.env.kernel.now, "peer": self.pid,
                "index": tally.span[offset],
                "votes": [bits[offset] for _, bits in tally.answers]})
            offset = verdicts.find(UNKNOWN, offset + 1)

    def _learn_settled(self, tally: _Tally, verdicts: bytes) -> None:
        """Learn the chunk.  A position still undecided with every
        answer in is one where the sources defeated the decode rule:
        record the disagreement and take the lowest-numbered
        responder's bit, so the run terminates (incorrectly, which the
        harness will report)."""
        if UNKNOWN in verdicts:
            self._note_disagreements(tally, verdicts)
            _, fallback = min(tally.answers)
            verdicts = fill_unknown(verdicts, fallback)
        self.learn_many(BitRun(tally.span, verdicts))

    def _chunk_sources(self, chunk_no: int) -> list[int]:
        """The ``q`` endpoints this peer queries for chunk ``chunk_no``
        — rotation by peer id spreads load over the whole set."""
        k = self.source_count
        return [(self.pid + chunk_no + j) % k for j in range(self.q)]

    def _ask(self, tally: _Tally, sources: list[int]) -> dict[int, int]:
        """Query ``sources`` for the tally's chunk; request id ->
        endpoint."""
        return {self.start_query(tally.span, source=sid): sid
                for sid in sources}

    def _absorb(self, pending: dict[int, int], tally: _Tally) -> bool:
        """Move every answer that has arrived from ``pending`` into the
        tally; True when there was one."""
        ready = [rid for rid in pending if self.response_ready(rid)]
        for rid in ready:
            tally.add(pending.pop(rid), self.take_response(rid))
        return bool(ready)

    def _resolve_chunk(self, lo: int, hi: int,
                       chunk_no: int) -> Iterator:
        """Query ``q`` sources for ``[lo, hi)``; learn decoded bits.

        Decodes eagerly: the chunk completes as soon as every position
        has a decode, even with responses still in flight (a withheld
        endpoint cannot stall a ``q >= 2f + 1`` honest majority).  A
        position keeps its first decode whatever arrives later.
        """
        tally = _Tally(lo, hi)
        pending = self._ask(tally, self._chunk_sources(chunk_no))
        decided = bytes((UNKNOWN,)) * (hi - lo)
        while True:
            if self._absorb(pending, tally):
                decided = fill_unknown(
                    decided, self._verdicts(tally, self._decode))
            if UNKNOWN not in decided or not pending:
                break
            yield self.wait_until(
                lambda: any(rid in self._source_responses
                            for rid in pending),
                f"votes for chunk [{lo}, {hi})")
        self._learn_settled(tally, decided)

    def _chunks(self) -> list[Iterator]:
        """One resolver per chunk, in array order; none has started."""
        return [self._resolve_chunk(lo, min(self.ell, lo + _CHUNK), chunk_no)
                for chunk_no, lo in enumerate(range(0, self.ell, _CHUNK))]

    def body(self) -> Iterator:
        self.begin_cycle()
        for chunk in self._chunks():
            yield from chunk
        self.finish_with_working()


class CrossValidateEscalateDownloadPeer(CrossValidateDownloadPeer):
    """Optimistic cross-validation: ``f + 1`` sources, escalate on
    disagreement to ``2f + 1`` with majority decode.

    Parameters:
        f: source-fault budget (default 0: a single trusted source).
    """

    protocol_name = "cross-validate-escalate"

    def __init__(self, pid: int, env: SimEnv, f: int = 0) -> None:
        k = env.source.k
        if f < 0:
            raise ValueError(f"f must be >= 0, got {f}")
        if 2 * f + 1 > k:
            raise ValueError(f"escalation needs 2f + 1 <= k sources, "
                             f"got f={f}, k={k}")
        super().__init__(pid, env, q=2 * f + 1, decode="majority")
        self.f = f

    def _escalation_sources(self, chunk_no: int) -> tuple[list[int],
                                                          list[int]]:
        """(optimistic f+1 endpoints, escalation-only f endpoints)."""
        chosen = self._chunk_sources(chunk_no)
        return chosen[:self.f + 1], chosen[self.f + 1:]

    def _unanimous(self, votes: list[int]) -> Optional[int]:
        """The bit all ``f + 1`` optimistic endpoints gave, else None
        (a missing vote is a disagreement)."""
        return threshold_decode(votes, self.f + 1)

    # The four steps below are where a model that knows more than "every
    # answer arrives eventually" says so; the lockstep refinement
    # (repro.sync.escalate) overrides them, nothing else does.

    def _gather(self, pending: dict[int, int], absorb, what: str) -> Iterator:
        """Wait out every answer in ``pending``, absorbing them as they
        come (a round model knows at once which ones never will)."""
        while pending:
            yield self.wait_until(
                lambda: any(rid in self._source_responses
                            for rid in pending), what)
            absorb()

    def _on_disagreement(self) -> None:
        """Step taken once a chunk's optimistic votes disagree, before
        it escalates (nothing here; a cooperative variant tells the
        other peers)."""

    def _on_unanimous(self) -> Iterator:
        """Step taken once a chunk's optimistic votes all agree;
        returns True to escalate the chunk anyway (never here; a
        cooperative variant first waits for the other peers' word)."""
        yield from ()
        return False

    def _second_step(self) -> Iterator:
        """Step between the ``escalate:`` marker and the escalation
        queries, which react to answers (nothing to wait for under
        continuous time; a round model lets the round end first)."""
        yield from ()

    def _resolve_chunk(self, lo: int, hi: int,
                       chunk_no: int) -> Iterator:
        first, extra = self._escalation_sources(chunk_no)
        tally = _Tally(lo, hi)
        pending = self._ask(tally, first)

        def absorb() -> bool:
            """Tally what has arrived; True once the chunk has a vote."""
            self._absorb(pending, tally)
            return bool(tally.answers)

        yield from self._gather(
            pending, absorb, f"optimistic votes for chunk [{lo}, {hi})")
        verdicts = self._verdicts(tally, self._unanimous)
        if UNKNOWN in verdicts:
            self._note_disagreements(tally, verdicts)
            self._on_disagreement()
        elif not (yield from self._on_unanimous()):
            self.learn_many(BitRun(tally.span, verdicts))
            return
        self.note_phase(f"escalate:[{lo},{hi})")
        yield from self._second_step()
        # Escalate: the remaining f endpoints bring the chunk to the
        # full 2f + 1 votes; decode by strict majority of 2f + 1.
        pending = self._ask(tally, extra)
        yield from self._gather(
            pending, absorb, f"escalated votes for chunk [{lo}, {hi})")
        self._learn_settled(tally, self._verdicts(tally, self._decode))
