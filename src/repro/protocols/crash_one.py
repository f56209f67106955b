"""Algorithm 1: deterministic asynchronous Download with one crash.

The paper's warm-up protocol (Section 2.1): two phases of three stages.

Phase 1 — every peer queries its round-robin share and *pushes* it to
everyone (stage 1); waits for shares from ``n - 1`` peers, then asks
everyone about the single peer it may have missed (stage 2); waits for
``n - 1`` answers, which either carry the missing peer's share or say
"me neither" (stage 3).  The Overlap Lemma + Lemma 2.1 give the key
structural fact: *all* peers that still lack bits after stage 3 lack
the bits of the *same* missing peer ``q``.

Phase 2 — peers that know everything enter *completion mode* and push
the whole array; the rest share ``q``'s bits, reassigned evenly among
the ``n - 1`` peers other than ``q`` (reassigning to ``q`` itself would
strand a sub-share if ``q`` really crashed), and resolve stragglers
with the same probe machinery.

Two deliberate deviations from the paper's prose, both on the safe
side (documented in DESIGN.md):

- reassignment targets are ``N \\ {q}`` rather than "all peers" — with
  ``q`` crashed, a share assigned to ``q`` would be covered by nobody;
- a peer that has learned the full array broadcasts it before
  terminating (same insurance Algorithm 2 uses, Claim 2), which
  subsumes the completion-mode push and removes every residual
  phase-2 straggler case.

Query complexity: ``ceil(ell / n)`` in phase 1 plus at most
``ceil(ell / n / (n - 1))`` in phase 2 — Theorem 2.3's
``ell/n + ell/n^2`` (up to ceilings).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from repro.core.assignment import distribute_evenly, round_robin_indices
from repro.protocols.base import DownloadPeer
from repro.sim.errors import ConfigurationError
from repro.sim.messages import Message
from repro.sim.peer import SimEnv


@dataclass(frozen=True)
class ShareValues(Message):
    """Stage-1 push: the sender's queried share for this phase."""

    phase: int
    values: Mapping[int, int]


@dataclass(frozen=True)
class Probe(Message):
    """Stage-2 question: "did you hear from ``missing``?" (None = I
    heard everyone and only participate so others can count me)."""

    phase: int
    missing: Optional[int]


@dataclass(frozen=True)
class ProbeReply(Message):
    """Stage-3 answer: the missing peer's share, or None = "me neither"."""

    phase: int
    about: Optional[int]
    values: Optional[Mapping[int, int]]


@dataclass(frozen=True)
class FullBits(Message):
    """Terminating peer's full-array broadcast (completion mode)."""

    bits: str


class CrashOneDownloadPeer(DownloadPeer):
    """Algorithm 1 peer; requires ``t <= 1``."""

    protocol_name = "crash-one"

    def __init__(self, pid: int, env: SimEnv) -> None:
        super().__init__(pid, env)
        if env.t > 1:
            raise ConfigurationError(
                f"Algorithm 1 tolerates one crash; got t={env.t} "
                f"(use CrashMultiDownloadPeer)")
        if env.n < 3:
            raise ConfigurationError("Algorithm 1 needs n >= 3")
        self.phase = 0
        self.stage = 0
        self.full_received = False
        # Phase-2 reassignment of the missing peer's share; stays empty
        # for completion-mode peers (they answer probes trivially and
        # their FullBits broadcast supersedes share exchange).
        self._reassignment: dict[int, int] = {}
        self._pending_probes: list[Probe] = []
        self.on_message(ShareValues, self._on_share)
        self.on_message(Probe, self._on_probe)
        self.on_message(ProbeReply, self._on_probe_reply)
        self.on_message(FullBits, self._on_full)

    # -- reactive handlers ---------------------------------------------------

    def _on_share(self, message: ShareValues) -> None:
        self.learn_many(message.values)
        self._serve_probes()

    def _on_probe(self, message: Probe) -> None:
        self._pending_probes.append(message)
        self._serve_probes()

    def _serve_probes(self) -> None:
        still_pending = []
        for probe in self._pending_probes:
            # The paper: delay the reply until own stage-2 wait of that
            # phase is done (we are then in stage >= 3 of the phase).
            if (self.phase, self.stage) < (probe.phase, 3) \
                    and not (self.full_received or self.all_known()):
                still_pending.append(probe)
                continue
            values: Optional[Mapping[int, int]] = None
            if probe.missing is None:
                values = {}
            elif probe.missing in self._heard(probe.phase):
                share = self._phase_share(probe.phase, probe.missing)
                values = self.known_subset(share)
            self.send(probe.sender, ProbeReply(
                sender=self.pid, phase=probe.phase, about=probe.missing,
                values=values))
        self._pending_probes = still_pending

    def _on_probe_reply(self, message: ProbeReply) -> None:
        if message.values:
            self.learn_many(message.values)

    def _on_full(self, message: FullBits) -> None:
        self.learn_string(0, message.bits)
        self.full_received = True

    # -- helpers ------------------------------------------------------------------

    def _heard(self, phase: int) -> set[int]:
        """Peers whose stage-1 share for ``phase`` has arrived (+ self)."""
        senders = self.inbox.senders(
            ShareValues, lambda msg, p=phase: msg.phase == p)
        senders.add(self.pid)
        return senders

    def _phase_share(self, phase: int, pid: int) -> list[int]:
        """Indices assigned to ``pid`` in ``phase`` (phase 2 needs the
        recorded reassignment)."""
        if phase == 1:
            return list(round_robin_indices(pid, self.ell, self.n))
        return [index for index, owner in self._reassignment.items()
                if owner == pid]

    # -- protocol body -----------------------------------------------------------

    def body(self) -> Iterator:
        # ---------------- phase 1 ----------------
        self.begin_cycle()
        self.phase, self.stage = 1, 1
        mine = round_robin_indices(self.pid, self.ell, self.n)
        values = yield from self.query_bits(mine)
        self.learn_many(values)
        self.broadcast(ShareValues(sender=self.pid, phase=1, values=values))

        self.phase, self.stage = 1, 2
        yield self.wait_until(
            lambda: self.full_received or len(self._heard(1)) >= self.n - 1,
            "phase 1: shares from n - 1 peers")
        missing = self._single_missing(1)
        self.broadcast(Probe(sender=self.pid, phase=1, missing=missing))

        self.phase, self.stage = 1, 3
        self._serve_probes()
        yield self.wait_until(
            lambda: (self.full_received or self.all_known()
                     or self._probe_replies(1) >= self.n - 2),
            "phase 1: probe replies")

        # ---------------- phase 2 ----------------
        self.begin_cycle()
        # Lemma 2.1: every peer still lacking bits lacks the bits of
        # the same peer q; q is recoverable from our own missing slot.
        if not (self.all_known() or self.full_received):
            lacked_owner = missing
            q_share = list(round_robin_indices(lacked_owner, self.ell, self.n))
            helpers = [pid for pid in self.env.peer_ids if pid != lacked_owner]
            dealt = distribute_evenly(q_share, len(helpers))
            self._reassignment = {index: helpers[slot]
                                  for index, slot in dealt.items()}

            self.phase, self.stage = 2, 1
            my_slice = [index for index, owner in self._reassignment.items()
                        if owner == self.pid
                        and not self.is_known(index)]
            values = yield from self.query_bits(my_slice)
            self.learn_many(values)
            known_slice = self.known_subset(
                index for index, owner in self._reassignment.items()
                if owner == self.pid)
            self.broadcast(ShareValues(sender=self.pid, phase=2,
                                       values=known_slice))

            self.phase, self.stage = 2, 2
            yield self.wait_until(
                lambda: (self.full_received or self.all_known()
                         or len(self._heard(2)) >= self.n - 1),
                "phase 2: shares from n - 1 peers")

            if not (self.all_known() or self.full_received):
                missing2 = self._single_missing(2)
                self.broadcast(Probe(sender=self.pid, phase=2,
                                     missing=missing2))
                self.phase, self.stage = 2, 3
                self._serve_probes()
                # All remaining unknowns are covered either by a probe
                # reply, by the missing peer's own late share, or by a
                # terminating peer's FullBits (Theorem 2.3's argument);
                # waiting for full knowledge is deadlock-free.
                yield self.wait_until(
                    lambda: self.full_received or self.all_known(),
                    "phase 2: final resolution")

        # ---------------- completion ----------------
        self.phase, self.stage = 3, 1
        self._serve_probes()
        self.broadcast(FullBits(sender=self.pid,
                                bits=self.working_string()))
        self.finish_with_working()

    def _single_missing(self, phase: int) -> Optional[int]:
        """The one peer not heard in ``phase`` (None if all heard)."""
        heard = self._heard(phase)
        absent = [pid for pid in self.env.peer_ids if pid not in heard]
        return absent[0] if absent else None

    def _probe_replies(self, phase: int) -> int:
        return len(self.inbox.senders(
            ProbeReply, lambda msg, p=phase: msg.phase == p))
