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

from typing import Iterator, Optional

from repro.protocols.base import DownloadPeer
from repro.protocols.decode import (
    majority_decode,
    majority_threshold,
    threshold_decode,
)
from repro.sim.peer import SimEnv

#: Upper bound on bits per source request (mirrors the naive peer).
_CHUNK = 4096

_DECODE_RULES = ("majority", "threshold")


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
        if not 1 <= self.q <= k:
            raise ValueError(f"q={self.q} must be in [1, k={k}]")
        self.decode = decode
        self.threshold = (threshold if threshold is not None
                          else majority_threshold(self.q))
        if not 1 <= self.threshold <= self.q:
            raise ValueError(f"threshold={self.threshold} must be in "
                             f"[1, q={self.q}]")

    def _decode(self, votes: list[int]) -> Optional[int]:
        if self.decode == "majority":
            return majority_decode(votes, self.q)
        return threshold_decode(votes, self.threshold)

    def _note_disagreement(self, index: int, votes: list[int]) -> None:
        telemetry = self.env.telemetry
        if telemetry is not None:
            telemetry.emit("source_disagreement", {
                "t": self.env.kernel.now, "peer": self.pid,
                "index": index, "votes": list(votes)})

    def _chunk_sources(self, chunk_no: int) -> list[int]:
        """The ``q`` endpoints this peer queries for chunk ``chunk_no``
        — rotation by peer id spreads load over the whole set."""
        k = self.source_count
        return [(self.pid + chunk_no + j) % k for j in range(self.q)]

    def _resolve_chunk(self, lo: int, hi: int,
                       chunk_no: int) -> Iterator:
        """Query ``q`` sources for ``[lo, hi)``; learn decoded bits.

        Decodes eagerly: the chunk completes as soon as every position
        has a decode, even with responses still in flight (a withheld
        endpoint cannot stall a ``q >= 2f + 1`` honest majority).
        """
        pending = {self.start_query(range(lo, hi), source=sid): sid
                   for sid in self._chunk_sources(chunk_no)}
        votes: dict[int, list[int]] = {index: []
                                       for index in range(lo, hi)}
        fallback: dict[int, tuple[int, int]] = {}
        decided: dict[int, int] = {}
        while True:
            ready = [rid for rid in pending if self.response_ready(rid)]
            for rid in ready:
                sid = pending.pop(rid)
                for index, bit in self.take_response(rid).items():
                    votes[index].append(bit)
                    best = fallback.get(index)
                    if best is None or sid < best[0]:
                        fallback[index] = (sid, bit)
            if ready:
                for index in range(lo, hi):
                    if index in decided:
                        continue
                    bit = self._decode(votes[index])
                    if bit is not None:
                        decided[index] = bit
            if len(decided) == hi - lo or not pending:
                break
            yield self.wait_until(
                lambda: any(rid in self._source_responses
                            for rid in pending),
                f"votes for chunk [{lo}, {hi})")
        for index in range(lo, hi):
            if index in decided:
                continue
            # Undecided with all answers in: the sources defeated the
            # decode rule.  Record the disagreement and take the
            # lowest-numbered responder's bit so the run terminates
            # (incorrectly, which the harness will report).
            self._note_disagreement(index, votes[index])
            decided[index] = fallback[index][1]
        self.learn_many(decided)

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
        pending = {self.start_query(range(lo, hi), source=sid): sid
                   for sid in first}
        votes: dict[int, list[int]] = {index: []
                                       for index in range(lo, hi)}
        fallback: dict[int, tuple[int, int]] = {}

        def absorb() -> bool:
            """Tally what has arrived; True once the chunk has a vote."""
            for rid in [rid for rid in pending
                        if self.response_ready(rid)]:
                sid = pending.pop(rid)
                for index, bit in self.take_response(rid).items():
                    votes[index].append(bit)
                    best = fallback.get(index)
                    if best is None or sid < best[0]:
                        fallback[index] = (sid, bit)
            return bool(fallback)

        yield from self._gather(
            pending, absorb, f"optimistic votes for chunk [{lo}, {hi})")
        disagreeing = [index for index in range(lo, hi)
                       if threshold_decode(votes[index],
                                           len(first)) is None]
        if disagreeing:
            for index in disagreeing:
                self._note_disagreement(index, votes[index])
            self._on_disagreement()
        elif not (yield from self._on_unanimous()):
            self.learn_many({index: votes[index][0]
                             for index in range(lo, hi)})
            return
        self.note_phase(f"escalate:[{lo},{hi})")
        yield from self._second_step()
        # Escalate: the remaining f endpoints bring the chunk to the
        # full 2f + 1 votes; decode by strict majority of 2f + 1.
        pending = {self.start_query(range(lo, hi), source=sid): sid
                   for sid in extra}
        yield from self._gather(
            pending, absorb, f"escalated votes for chunk [{lo}, {hi})")
        decided = {}
        for index in range(lo, hi):
            bit = majority_decode(votes[index], self.q)
            if bit is None:
                self._note_disagreement(index, votes[index])
                bit = fallback[index][1]
            decided[index] = bit
        self.learn_many(decided)
