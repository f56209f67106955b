"""Algorithm 2: deterministic asynchronous Download under ``t`` crashes.

The protocol runs in phases of three stages (Section 2.2 of the paper).
In phase ``p`` every peer:

1. **Stage 1** — queries the bits *assigned to it* for phase ``p`` that
   it does not know yet, and sends every other peer ``w`` a request for
   the unknown bits assigned to ``w``;
2. **Stage 2** — waits for responses from at least ``n - t`` peers
   (waiting for all ``n`` risks deadlock), then asks everyone about the
   peers it did *not* hear from (the *missing* peers), listing the
   exact indices it lacks;
3. **Stage 3** — waits for ``n - t`` of those missing-peer responses.
   Each response either carries a missing peer's bits (the responder
   heard from it) or says "me neither".  Unresolved bits simply flow
   into the next phase under the next phase's assignment.

Unknown bits shrink by a factor ``t / n`` per phase (Claim 4): a peer
misses at most ``t`` of the ``n`` per-phase owners.  After
:func:`~repro.core.bounds.planned_phases`-many phases the residue is
small enough to query directly; the peer then broadcasts the
complete array and terminates (which, per Claim 2, lets every waiting
peer terminate as well).

Assignment rule.  The paper reassigns a missing peer's bits "evenly
among all peers".  This implementation instantiates that rule with the
*base-n digit* assignment (:func:`repro.core.assignment.digit_owner`):
phase ``p`` assigns bit ``b`` to peer ``digit_p(b)``.  The rule is a
global function of ``(b, p, n)``, so all peers agree on every owner in
every phase — Claim 1 holds in its strongest form — and each digit
splits every surviving digit-pattern class evenly, giving exactly the
per-phase balance Claim 4 needs.  The trade-off (documented in
DESIGN.md) is digit exhaustion: after ``floor(log_n ell) + 1`` phases
the digits are used up and the remaining unknown bits (a
lower-order ``ell ** log_n(t)`` of them) are queried directly.

Theorem 2.13's *fast variant* (``CrashMultiFastDownloadPeer``) relaxes
the stage-3 wait: a peer stops waiting for responses about a missing
peer ``m`` the moment ``m``'s own (slow) stage-2 response arrives, so
long "bit-carrying" responses are only ever awaited for peers that
really crashed — cutting the time complexity's ``t * X / b`` term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Union

from repro.core.assignment import group_by_digit_owner
from repro.core.bounds import default_direct_threshold, planned_phases
from repro.protocols.base import DownloadPeer
from repro.sim.messages import FIELD_BITS, HEADER_BITS, Message
from repro.sim.peer import SimEnv


@dataclass(frozen=True)
class DataRequest(Message):
    """Stage 1: "please send me these bits, which phase ``p`` assigns
    to you".  ``indices`` are distinct and ascending: a positive-step
    ``range`` (a whole residue class) or a tuple."""

    phase: int
    indices: Union[range, tuple[int, ...]]


@dataclass(frozen=True)
class DataResponse(Message):
    """Answer to a :class:`DataRequest`.

    ``complete`` is True when the responder knew every requested bit —
    with the digit assignment this is always the case for honest
    responders in phases where digits are not exhausted, and the
    requester counts only complete responses toward "heard from".
    """

    phase: int
    values: Mapping[int, int]
    complete: bool


@dataclass(frozen=True)
class MissingRequest(Message):
    """Stage 2→3: "I did not hear from these peers; do you have these
    specific bits of theirs?"  ``needs`` maps missing peer -> indices
    (distinct and ascending, as in :class:`DataRequest`)."""

    phase: int
    needs: dict[int, Union[range, tuple[int, ...]]]

    def measure_bits(self) -> int:
        payload = sum(FIELD_BITS * (1 + len(indices))
                      for indices in self.needs.values())
        return HEADER_BITS + FIELD_BITS + payload


@dataclass(frozen=True)
class MissingResponse(Message):
    """Stage 3 answer: per missing peer, either its bits or "me neither"
    (encoded as None)."""

    phase: int
    found: dict[int, Optional[Mapping[int, int]]]

    def measure_bits(self) -> int:
        payload = 0
        for values in self.found.values():
            payload += FIELD_BITS  # the peer ID / me-neither marker
            if values:
                payload += len(values) * (FIELD_BITS + 1)
        return HEADER_BITS + FIELD_BITS + payload


@dataclass(frozen=True)
class FullArray(Message):
    """A terminating peer's parting gift: the entire learned input."""

    bits: str


class CrashMultiDownloadPeer(DownloadPeer):
    """Algorithm 2 peer (any crash fraction ``beta < 1``)."""

    protocol_name = "crash-multi"
    #: Fast variant flag (Theorem 2.13); see subclass.
    fast = False

    def __init__(self, pid: int, env: SimEnv,
                 direct_threshold: Optional[int] = None,
                 max_phases: Optional[int] = None) -> None:
        super().__init__(pid, env)
        self.direct_threshold = (direct_threshold
                                 if direct_threshold is not None
                                 else default_direct_threshold(
                                     env.ell, env.n, env.t))
        self.total_phases = (max_phases if max_phases is not None
                             else planned_phases(env.ell, env.n, env.t,
                                                 self.direct_threshold))
        self.phase = 0
        self.stage = 0
        self.full_received = False
        # Peers I heard (complete stage-1 responses) per phase; self
        # always counts.
        self.heard: dict[int, set[int]] = {}
        # Peers that answered my stage-2 request, per phase.
        self._missing_responders: dict[int, set[int]] = {}
        self._pending_data_requests: list[DataRequest] = []
        self._pending_missing_requests: list[MissingRequest] = []
        self.on_message(DataRequest, self._on_data_request)
        self.on_message(DataResponse, self._on_data_response)
        self.on_message(MissingRequest, self._on_missing_request)
        self.on_message(MissingResponse, self._on_missing_response)
        self.on_message(FullArray, self._on_full_array)

    # -- reactive handlers (run at delivery time, even mid-wait) -----------

    def _on_data_request(self, message: DataRequest) -> None:
        self._pending_data_requests.append(message)
        self._serve_data_requests()

    def _serve_data_requests(self) -> None:
        still_pending = []
        for request in self._pending_data_requests:
            # Serve once we are at least in stage 2 of the request's
            # phase (we have queried our own share by then), or once we
            # know the whole array.
            ready = ((self.phase, self.stage) >= (request.phase, 2)
                     or self.full_received or self.all_known())
            if not ready:
                still_pending.append(request)
                continue
            # Honest requests list distinct indices, so the gathered
            # run is complete when it holds as many bits as were asked.
            values = self.known_subset(request.indices)
            complete = len(values) == len(request.indices)
            self.send(request.sender, DataResponse(
                sender=self.pid, phase=request.phase, values=values,
                complete=complete))
        self._pending_data_requests = still_pending

    def _on_data_response(self, message: DataResponse) -> None:
        self.learn_many(message.values)
        if message.complete:
            self.heard.setdefault(message.phase, {self.pid}).add(
                message.sender)

    def _on_missing_request(self, message: MissingRequest) -> None:
        self._pending_missing_requests.append(message)
        self._serve_missing_requests()

    def _serve_missing_requests(self) -> None:
        still_pending = []
        for request in self._pending_missing_requests:
            ready = ((self.phase, self.stage) >= (request.phase, 3)
                     or self.full_received or self.all_known())
            if not ready:
                still_pending.append(request)
                continue
            found: dict[int, Optional[Mapping[int, int]]] = {}
            for missing_peer, indices in request.needs.items():
                values = self.known_subset(indices)
                if len(values) == len(indices):
                    found[missing_peer] = values
                else:
                    found[missing_peer] = None  # "me neither"
            self.send(request.sender, MissingResponse(
                sender=self.pid, phase=request.phase, found=found))
        self._pending_missing_requests = still_pending

    def _on_missing_response(self, message: MissingResponse) -> None:
        self._missing_responders.setdefault(message.phase, set()).add(
            message.sender)
        for values in message.found.values():
            if values:
                self.learn_many(values)

    def _on_full_array(self, message: FullArray) -> None:
        self.learn_string(0, message.bits)
        self.full_received = True

    # -- stage bookkeeping ----------------------------------------------------

    def _enter(self, phase: int, stage: int) -> None:
        self.phase, self.stage = phase, stage
        self.note_phase(f"p{phase}/s{stage}")
        self._serve_data_requests()
        self._serve_missing_requests()

    # -- the protocol body -------------------------------------------------------

    def body(self) -> Iterator:
        for phase in range(1, self.total_phases + 1):
            self.begin_cycle()
            if self.full_received:
                break

            # ---- stage 1: query own share, request everyone else's ----
            self._enter(phase, 1)
            owners = group_by_digit_owner(self.unknown_marks(), phase,
                                          self.n)
            values = yield from self.query_bits(owners.get(self.pid, ()))
            self.learn_many(values)
            for destination in self.others:
                self.send(destination, DataRequest(
                    sender=self.pid, phase=phase,
                    indices=owners.get(destination, ())))

            # ---- stage 2: hear from n - t peers ----
            self._enter(phase, 2)
            needed = self.n - self.t  # includes self
            yield self.wait_until(
                lambda p=phase, k=needed: (
                    self.full_received
                    or len(self.heard.get(p, {self.pid})) >= k),
                f"phase {phase}: stage-1 responses from {needed - 1} peers")
            if self.full_received:
                break
            heard = self.heard.setdefault(phase, {self.pid})
            missing = [pid for pid in self.env.peer_ids if pid not in heard]
            # One grouping pass over the residue replaces a full
            # unknown-indices rescan per missing peer.
            lacked_by_owner = group_by_digit_owner(
                self.unknown_marks(), phase, self.n)
            needs = {}
            for missing_peer in missing:
                lacked = lacked_by_owner.get(missing_peer)
                if lacked:
                    needs[missing_peer] = lacked
            request = MissingRequest(sender=self.pid, phase=phase,
                                     needs=needs)
            for destination in self.others:
                self.send(destination, request)

            # ---- stage 3: resolve missing peers or collect n - t shrugs ----
            self._enter(phase, 3)
            yield self.wait_until(
                lambda p=phase, k=needed, nd=needs: self._stage3_done(p, k, nd),
                f"phase {phase}: missing-peer responses")
            if self.full_received:
                break

        # ---- completion: query the residue, share everything, stop ----
        if not self.full_received:
            self._enter(self.total_phases + 1, 1)
            residue = yield from self.query_bits(self.unknown_indices())
            self.learn_many(residue)
        self.broadcast(FullArray(sender=self.pid,
                                 bits=self.working_string()))
        self.finish_with_working()

    def _stage3_done(self, phase: int, needed: int,
                     needs: dict[int, Union[range, tuple]]) -> bool:
        if self.full_received:
            return True
        responses = self._missing_responders.get(phase, ())
        if len(responses) >= needed - 1:  # self is the needed-th shrug
            return True
        if self.fast:
            # Thm 2.13: each missing peer either resolved through a
            # helper/by its own late response (its bits are learned) or
            # is still genuinely unresolved.
            return all(all(map(self.is_known, indices))
                       for indices in needs.values())
        return False


class CrashMultiFastDownloadPeer(CrashMultiDownloadPeer):
    """Theorem 2.13's modification: stop waiting for long responses
    about a missing peer once its bits arrive by any route."""

    protocol_name = "crash-multi-fast"
    fast = True

