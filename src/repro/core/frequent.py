"""tau-frequent string bookkeeping (Section 3.4.1 of the paper).

Peers receive ``(segment_id, bit_string)`` reports from other peers.
Two reports *overlap* when they name the same segment and are
*consistent* when their strings are equal.  A string is
**tau-frequent** for a segment when at least ``tau`` *distinct peers*
reported it.  ``Freq(M, tau)`` — the set of tau-frequent strings in a
multiset of overlapping reports — is the filter that keeps
low-support Byzantine fabrications out of the decision trees while
never excluding the honest string (which, by the sampling argument, is
reported by at least ``tau`` honest peers w.h.p.).

Counting *distinct senders* rather than messages is essential: a single
Byzantine peer repeating one lie a thousand times must count once.
"""

from __future__ import annotations

from collections import defaultdict


class FrequencyTable:
    """Per-segment support counts of reported strings."""

    def __init__(self) -> None:
        # segment -> string -> set of reporting peer IDs
        self._support: dict[int, dict[str, set[int]]] = defaultdict(
            lambda: defaultdict(set))

    def add(self, sender: int, segment: int, string: str) -> None:
        """Record that ``sender`` reported ``string`` for ``segment``."""
        self._support[segment][string].add(sender)

    def frequent(self, segment: int, tau: int) -> set[str]:
        """``Freq``: strings reported by at least ``tau`` distinct peers."""
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        return {string
                for string, senders in self._support.get(segment, {}).items()
                if len(senders) >= tau}
