"""Crash-fault adversaries.

The crash model lets the adversary stop a peer permanently at any point
of its execution — including *between the individual sends of one
batch* ("after the peer has already sent some, but perhaps not all, of
the messages it was instructed to send").  Two crash triggers cover
that power exactly:

- :class:`CrashAtTime` — halt at a chosen virtual time;
- :class:`CrashAfterSends` — halt immediately before the peer's
  ``(count+1)``-th send, which slices a broadcast mid-way.

A planned crash that never fires (e.g. ``CrashAfterSends(10**9)`` on a
peer that terminates early) leaves the peer *nonfaulty* — it then
counts for query/time complexity, matching the paper's definitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

from repro.adversary.base import Adversary
from repro.sim.messages import Message
from repro.sim.process import Process
from repro.util.validation import check_fraction, check_nonnegative


class CrashSpec:
    """Base class for crash triggers."""


@dataclass(frozen=True)
class CrashAtTime(CrashSpec):
    """Halt the peer at absolute virtual ``time``."""

    time: float


@dataclass(frozen=True)
class CrashAfterSends(CrashSpec):
    """Halt the peer right before its ``(count+1)``-th message send.

    ``count=0`` crashes the peer before it sends anything at all;
    ``count=k`` lets exactly ``k`` messages out (possibly slicing a
    broadcast).
    """

    count: int

    def __post_init__(self) -> None:
        check_nonnegative("count", self.count)


class CrashAdversary(Adversary):
    """Crashes a chosen or seeded set of peers; unit latencies otherwise.

    Combine with a latency adversary via
    :class:`~repro.adversary.compose.ComposedAdversary` for the full
    asynchronous crash setting.

    Args:
        crashes: explicit plan, mapping peer ID to a :class:`CrashSpec`.
        crash_fraction: alternatively, crash ``floor(fraction * n)``
            seeded-random peers.
        mode: how seeded victims crash — ``"mid_broadcast"`` (after a
            random number of sends) or ``"at_time"`` (at a random time
            in ``[0, horizon]``).
        horizon: time range for seeded ``"at_time"`` crashes.
    """

    def __init__(self, *, crashes: Optional[dict[int, CrashSpec]] = None,
                 crash_fraction: Optional[float] = None,
                 mode: str = "mid_broadcast",
                 horizon: float = 20.0) -> None:
        super().__init__()
        if (crashes is None) == (crash_fraction is None):
            raise ValueError("pass exactly one of crashes= or crash_fraction=")
        if mode not in ("mid_broadcast", "at_time"):
            raise ValueError(f"unknown mode {mode!r}")
        if crash_fraction is not None:
            check_fraction("crash_fraction", crash_fraction,
                           inclusive_high=False)
        # Note `is not None`: an *empty* explicit plan is a legitimate
        # zero-crash adversary, distinct from "no plan given".
        self._explicit = dict(crashes) if crashes is not None else None
        self.crash_fraction = crash_fraction
        self.mode = mode
        self.horizon = horizon
        self.plan: dict[int, CrashSpec] = {}
        self._send_counts: dict[int, int] = {}
        self._halted: set[int] = set()
        self._processes: dict[int, Process] = {}

    # -- plan ------------------------------------------------------------------

    def fault_budget(self, n: int) -> int:
        if self._explicit is not None:
            return len(self._explicit)
        return int(math.floor(self.crash_fraction * n))

    def on_bind(self) -> None:
        if self._explicit is not None:
            for pid in self._explicit:
                if not 0 <= pid < self.env.n:
                    raise ValueError(f"crash plan names unknown peer {pid}")
            self.plan = dict(self._explicit)
            return
        count = self.fault_budget(self.env.n)
        victims = self.rng.sample(range(self.env.n), count)
        self.plan = {pid: self._seeded_spec(pid) for pid in victims}

    def _seeded_spec(self, pid: int) -> CrashSpec:
        if self.mode == "at_time":
            return CrashAtTime(self.rng.uniform(0.0, self.horizon))
        # A peer in the phased protocols sends O(n) messages per phase;
        # a bound of 3n send slots places the crash anywhere from
        # before-the-first-send to deep inside a later broadcast.
        return CrashAfterSends(self.rng.randrange(3 * self.env.n))

    def faulty_peers(self) -> set[int]:
        return set(self.plan)

    def actually_faulty(self) -> set[int]:
        return set(self._halted)

    # -- execution --------------------------------------------------------------

    def after_setup(self, processes: dict[int, Process]) -> None:
        self._processes = dict(processes)
        for pid, spec in self.plan.items():
            if isinstance(spec, CrashAtTime):
                delay = max(0.0, spec.time - self.env.kernel.now)
                self.env.kernel.schedule(delay, partial(self._halt, pid))

    def _halt(self, pid: int) -> None:
        process = self._processes.get(pid)
        if process is None or not process.live:
            return  # already finished or already crashed
        process.halt()
        self._halted.add(pid)
        if self.env.telemetry is not None:
            self.env.telemetry.emit("crash", {"t": self.env.kernel.now,
                                              "peer": pid})

    def permit_send(self, sender: int, destination: int, message: Message,
                    now: float) -> bool:
        spec = self.plan.get(sender)
        if not isinstance(spec, CrashAfterSends):
            return True
        sent = self._send_counts.get(sender, 0)
        if sent >= spec.count:
            self._halt(sender)
            return False
        self._send_counts[sender] = sent + 1
        return True
