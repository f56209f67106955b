"""Fault-free balanced Download: the ``ell / n`` ideal.

With no failures the Download problem is trivially query-balanced
(Section 1.2): share the index space round-robin, everyone queries
their own slice, broadcasts it, and waits for all ``n - 1`` other
slices.  Query complexity is ``ceil(ell / n)``, message complexity
``O(n^2)`` (slices travel in one message here; with bounded message
size ``b`` the count scales by ``ceil(ell / (n b))``), and time is a
constant number of delays.

This protocol deadlocks if even one peer crashes — which is exactly
the point: it is the ideal the fault-tolerant protocols are measured
against, and the test suite demonstrates the deadlock under a single
crash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.core.assignment import round_robin_indices
from repro.protocols.base import DownloadPeer
from repro.sim.messages import Message


@dataclass(frozen=True)
class ShareMessage(Message):
    """One peer's queried slice: bit index -> value."""

    values: Mapping[int, int]


class BalancedDownloadPeer(DownloadPeer):
    """Round-robin sharing; correct only in the fault-free case."""

    protocol_name = "balanced"

    def body(self) -> Iterator:
        self.begin_cycle()
        mine = round_robin_indices(self.pid, self.ell, self.n)
        values = yield from self.query_bits(mine)
        self.learn_many(values)
        self.broadcast(ShareMessage(sender=self.pid, values=values))

        self.begin_cycle()
        yield self.wait_for_messages(ShareMessage, self.n - 1,
                                     description="all other slices")
        for message in self.inbox.of_type(ShareMessage):
            self.learn_many(message.values)
        self.finish_with_working()
