"""The adaptive crash adversary: pick victims after seeing the queries.

The model's standard adversary must fix a cycle's schedule before the
cycle's coin flips.  The *adaptive* adversary here is deliberately
stronger: it watches which bits every peer queried (the source's query
log is exactly the information an adaptive adversary in the proofs
conditions on) and only then chooses whom to crash — greedily, to
maximize the number of bits whose every querier dies.

This is the adversary that separates single-round protocols from
iterated ones:

- a one-round protocol has already committed its entire coverage when
  the adversary strikes, so every bit whose owners all died lands on
  someone's completion bill;
- Algorithm 2 just runs another phase.

Timing: the adversary pins query latency to 1.0 and message latency to
[1.5, 2.5], then inspects the query log at virtual time 0.5 — after
all first-cycle queries are issued (time 0) but before any response or
share is delivered — and crashes its victims on the spot, before they
can forward anything.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.adversary.base import Adversary
from repro.sim.messages import Message
from repro.sim.process import Process
from repro.util.validation import check_fraction


class AdaptiveCrashAdversary(Adversary):
    """Greedy coverage-killing crashes, chosen from the query log."""

    def __init__(self, *, crash_fraction: float,
                 inspect_at: float = 0.5) -> None:
        super().__init__()
        check_fraction("crash_fraction", crash_fraction,
                       inclusive_high=False)
        self.crash_fraction = crash_fraction
        self.inspect_at = inspect_at
        self.victims: Optional[set[int]] = None
        self._processes: dict[int, Process] = {}
        self._halted: set[int] = set()

    def fault_budget(self, n: int) -> int:
        return int(math.floor(self.crash_fraction * n))

    def faulty_peers(self) -> set[int]:
        # Victims are chosen mid-run; the runner's upfront corruption
        # plan is therefore empty and every peer starts honest.
        return set()

    def actually_faulty(self) -> set[int]:
        return set(self._halted)

    # -- fixed timing so "inspect then crash" is race-free ------------------

    def message_latency(self, sender: int, destination: int, message: Message,
                        now: float, cycle: int) -> float:
        # Deterministic-but-spread latencies strictly above inspect_at.
        return 1.5 + ((sender * 31 + destination * 7) % 100) / 100.0

    def query_latency(self, pid: int, now: float) -> float:
        return 1.0

    # -- the adaptive strike ---------------------------------------------------

    def after_setup(self, processes: dict[int, Process]) -> None:
        self._processes = dict(processes)
        self.env.kernel.schedule(self.inspect_at, self._strike)

    def _strike(self) -> None:
        budget = self.fault_budget(self.env.n)
        # Snapshot the log *now*: completion queries issued after the
        # strike must not leak into the adversary's information or the
        # diagnostics.
        self._coverage_at_strike = {
            pid: set(indices) for pid, indices
            in self.env.source.queried_indices.items()}
        if budget == 0:
            self.victims = set()
            return
        self.victims = greedy_coverage_kill(self._coverage_at_strike,
                                            self.env.ell, budget)
        for pid in self.victims:
            process = self._processes.get(pid)
            if process is not None and process.live:
                process.halt()
                self._halted.add(pid)

    def killed_bits(self) -> set[int]:
        """Bits whose every strike-time querier was crashed."""
        if self.victims is None:
            return set()
        survivors_cover: set[int] = set()
        for pid, indices in self._coverage_at_strike.items():
            if pid not in self.victims:
                survivors_cover |= indices
        return set(range(self.env.ell)) - survivors_cover


def greedy_coverage_kill(coverage: dict[int, set[int]], ell: int,
                         budget: int) -> set[int]:
    """Choose ``budget`` peers to crash, greedily maximizing the number
    of bits left with zero surviving queriers.

    Exact maximization is NP-hard (it is a covering problem); the
    greedy heuristic repeatedly kills the peer whose removal orphans
    the most bits, which is the standard witness-quality choice.
    """
    victims: set[int] = set()
    # owners[bit] = set of peers that queried it (and are still alive).
    owners: dict[int, set[int]] = {}
    for pid, indices in coverage.items():
        for index in indices:
            owners.setdefault(index, set()).add(pid)
    for _ in range(budget):
        best_pid, best_gain = None, -1
        alive = [pid for pid in coverage if pid not in victims]
        for pid in alive:
            gain = sum(1 for index in coverage[pid]
                       if owners.get(index) == {pid})
            if gain > best_gain:
                best_pid, best_gain = pid, gain
        if best_pid is None:
            break
        victims.add(best_pid)
        for index in coverage[best_pid]:
            holders = owners.get(index)
            if holders is not None:
                holders.discard(best_pid)
    return victims
