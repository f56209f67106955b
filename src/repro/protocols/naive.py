"""The naive Download protocol: query everything yourself.

Every peer reads the entire input directly from the source and never
talks to anyone.  Query complexity is exactly ``ell`` bits — the
worst possible — but the protocol is correct under *any* failure
pattern and any ``beta < 1``, including a Byzantine majority.  By
Theorem 3.1 it is also the *only* deterministic option once
``beta >= 1/2``, which is what makes it an essential baseline rather
than a strawman.
"""

from __future__ import annotations

from typing import Iterator

from repro.protocols.base import DownloadPeer

#: Upper bound on bits per source request, so that one naive peer does
#: not materialize a single huge response message.
_CHUNK = 4096


class NaiveDownloadPeer(DownloadPeer):
    """Each peer queries all ``ell`` bits directly."""

    protocol_name = "naive"
    peer_to_peer = False  # source-only

    def body(self) -> Iterator:
        self.begin_cycle()
        for lo in range(0, self.ell, _CHUNK):
            hi = min(self.ell, lo + _CHUNK)
            values = yield from self.query_bits(range(lo, hi))
            self.learn_many(values)
        self.finish_with_working()
