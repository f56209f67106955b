"""Complexity accounting: query, message, and time complexity.

The three measures the paper optimizes (Section 1.2):

- **Query complexity (Q)** — the maximum number of bits queried from
  the source by any *nonfaulty* peer.  The source is the single
  authority: every request is charged here at request time.
- **Message complexity (M)** — the total number of messages sent by
  nonfaulty peers.
- **Time complexity (T)** — virtual time until the last nonfaulty peer
  terminates.  Time-complexity measurements are meaningful under
  adversaries whose delays are normalized to at most one unit (the
  standard asynchronous-time convention); the collector just records
  raw virtual timestamps.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Optional


@dataclass
class ComplexityReport:
    """Immutable summary of one run's complexity measures."""

    query_complexity: int
    total_query_bits: int
    message_complexity: int
    message_bits: int
    time_complexity: float
    per_peer_query_bits: dict[int, int] = field(default_factory=dict)
    per_peer_messages: dict[int, int] = field(default_factory=dict)

    def __str__(self) -> str:
        return (f"Q={self.query_complexity} bits/peer (total {self.total_query_bits}), "
                f"M={self.message_complexity} msgs ({self.message_bits} bits), "
                f"T={self.time_complexity:.2f}")


class MetricsCollector:
    """Accumulates per-peer counters during a run."""

    def __init__(self) -> None:
        self.query_bits: dict[int, int] = defaultdict(int)
        self.messages_sent: dict[int, int] = defaultdict(int)
        self.message_bits_sent: dict[int, int] = defaultdict(int)
        self.start_time: dict[int, float] = {}
        self.termination_time: dict[int, float] = {}

    # -- recording (called by source / network / runner) -----------------------

    def record_query(self, pid: int, bits: int) -> None:
        """Charge ``bits`` queried bits to peer ``pid``."""
        if bits < 0:
            raise ValueError(f"bits must be non-negative, got {bits}")
        self.query_bits[pid] += bits

    def record_message(self, pid: int, bits: int) -> None:
        """Charge one sent message of ``bits`` bits to peer ``pid``."""
        self.messages_sent[pid] += 1
        self.message_bits_sent[pid] += bits

    def record_messages(self, pid: int, count: int, bits_each: int) -> None:
        """Charge ``count`` equal-sized sends to ``pid`` in one update.

        Bulk companion to :meth:`record_message` for span-grouped
        broadcasts; totals are identical to ``count`` scalar calls.
        """
        if count <= 0:
            return
        self.messages_sent[pid] += count
        self.message_bits_sent[pid] += count * bits_each

    def record_start(self, pid: int, time: float) -> None:
        """Record the virtual time peer ``pid`` began executing."""
        self.start_time[pid] = time

    def record_termination(self, pid: int, time: float) -> None:
        """Record the virtual time peer ``pid`` produced its output."""
        self.termination_time[pid] = time

    # -- reporting ------------------------------------------------------------

    def report(self, honest: Iterable[int]) -> ComplexityReport:
        """Summarize the run, restricted to the ``honest`` peer set.

        Faulty peers' queries and messages are excluded, matching the
        paper's definitions (Byzantine peers may "spend" arbitrarily).
        """
        honest = sorted(set(honest))
        per_query = {pid: self.query_bits.get(pid, 0) for pid in honest}
        per_msgs = {pid: self.messages_sent.get(pid, 0) for pid in honest}
        terminations = [self.termination_time[pid] for pid in honest
                        if pid in self.termination_time]
        starts = [self.start_time.get(pid, 0.0) for pid in honest]
        elapsed = (max(terminations) - min(starts)) if terminations else 0.0
        return ComplexityReport(
            query_complexity=max(per_query.values(), default=0),
            total_query_bits=sum(per_query.values()),
            message_complexity=sum(per_msgs.values()),
            message_bits=sum(self.message_bits_sent.get(pid, 0)
                             for pid in honest),
            time_complexity=elapsed,
            per_peer_query_bits=per_query,
            per_peer_messages=per_msgs,
        )


@dataclass
class RunStatus:
    """Liveness outcome for one peer at the end of a run."""

    pid: int
    terminated: bool
    crashed: bool
    byzantine: bool
    termination_time: Optional[float] = None
