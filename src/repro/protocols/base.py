"""Common base class for Download protocol peers.

A protocol is a :class:`~repro.sim.peer.Peer` subclass whose ``body``
implements the peer-local algorithm.  :meth:`DownloadPeer.factory`
turns the class (plus protocol parameters) into the ``peer_factory``
callable :class:`~repro.sim.runner.Simulation` expects, so runs read::

    run_download(n=16, ell=1024,
                 peer_factory=CrashMultiDownloadPeer.factory(),
                 adversary=CrashAdversary(crash_fraction=0.5))
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, Iterable, Optional

from repro.sim.peer import Peer, SimEnv
from repro.util.bitarrays import (BIT_TO_CHAR, CHAR_TO_BIT, UNKNOWN,
                                  UNKNOWN_MASK, BitArray, BitRun, cells_at,
                                  fill_unknown)


class BoundPeerFactory:
    """A ``peer_factory`` with protocol parameters bound.

    A class rather than a closure so factories pickle cleanly into the
    worker processes of the parallel experiment engine
    (:mod:`repro.execution`); the protocol class is pickled by
    reference and the parameters by value.
    """

    def __init__(self, protocol_class: type, params: dict) -> None:
        self.protocol_class = protocol_class
        self.params = dict(params)

    def __call__(self, pid: int, env: SimEnv) -> "DownloadPeer":
        return self.protocol_class(pid, env, **self.params)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"{self.protocol_class.__name__}.factory"
                f"(**{self.params!r})")


class DownloadPeer(Peer):
    """Base class for every Download protocol implementation."""

    #: Human-readable protocol name (subclasses override).
    protocol_name = "download"

    #: Does this protocol exchange peer-to-peer messages?  ``False``
    #: marks *message-free* protocols (each peer talks only to the
    #: source); ``net/driver.py`` then gives their peers no inboxes.
    peer_to_peer = True

    def __init__(self, pid: int, env: SimEnv) -> None:
        super().__init__(pid, env)
        # Working copy of the output, one byte per bit so the range
        # helpers below are count/find/translate/slice calls; it is
        # packed into a BitArray only at finish time.  Allocated on
        # first touch: a board-driven protocol (byz-committee) never
        # touches it, and n * ell sentinel arrays are what keeps a
        # six-figure-n run from fitting in memory.
        self._working: Optional[bytearray] = None
        # Invariant: number of unknown entries in the working array.
        # Learned bits are never overwritten, so the count only
        # decreases; it makes ``all_known``/``known_count`` O(1)
        # instead of a scan per delivered message.
        self._unknown_count = env.ell

    def _array(self) -> bytearray:
        """The working array; protocols go through the helpers below."""
        array = self._working
        if array is None:
            array = self._working = bytearray((UNKNOWN,)) * self.ell
        return array

    @classmethod
    def factory(cls, **params) -> Callable[[int, SimEnv], "DownloadPeer"]:
        """Bind protocol parameters; returns a picklable ``peer_factory``."""
        return BoundPeerFactory(cls, params)

    # -- observability -----------------------------------------------------

    def note_phase(self, name: str) -> None:
        """Telemetry marker: this peer just entered phase ``name``.

        Protocol bodies call this at each phase transition so exported
        runs can attribute every query to the phase the peer was in
        (``repro trace summary``'s per-phase histogram).  Free when
        telemetry is disabled; never affects the run either way.
        """
        telemetry = self.env.telemetry
        if telemetry is not None:
            telemetry.emit("phase", {"t": self.env.kernel.now,
                                     "peer": self.pid, "name": name,
                                     "cycle": self.cycle})

    # -- working-array helpers ---------------------------------------------

    def _out_of_range(self, index: int) -> None:
        raise IndexError(
            f"bit index {index} outside the {self.ell}-bit array")

    def learn(self, index: int, bit: int) -> None:
        """Record bit ``index``; learned values are never overwritten.

        The paper's Claim 1 proof leans on "values are never
        overwritten": once a peer knows a bit (from its own query or an
        honest report), later messages cannot change it.
        """
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        if not 0 <= index < self.ell:
            self._out_of_range(index)
        working = self._array()
        if working[index] == UNKNOWN:
            working[index] = bit
            self._unknown_count -= 1

    def learn_many(self, values: BitRun) -> None:
        """Record a run of bits as a slice; a run that reaches outside
        the array is refused whole."""
        if not values:
            return
        indices, bits = values.indices, values.bits
        if indices[0] < 0 or indices[-1] >= self.ell:
            self._out_of_range(indices[0] if indices[0] < 0 else indices[-1])
        working = self._array()
        held = cells_at(working, indices)
        unknown = held.count(UNKNOWN)
        if type(indices) is range:
            window = slice(indices.start, indices.stop, indices.step)
            if unknown == len(bits):
                working[window] = bits
            elif unknown:
                working[window] = fill_unknown(held, bits)
        elif unknown:
            for index, bit in compress(zip(indices, bits),
                                       held.translate(UNKNOWN_MASK)):
                working[index] = bit
        self._unknown_count -= unknown

    def learn_string(self, lo: int, string: str) -> None:
        """Record a segment string starting at bit ``lo``."""
        hi = lo + len(string)
        if lo < 0 or hi > self.ell:
            raise IndexError(
                f"segment [{lo}, {hi}) outside the {self.ell}-bit array")
        working = self._array()
        unknown = working.count(UNKNOWN, lo, hi)
        if not unknown:
            return
        bits = string.encode("ascii", "replace").translate(CHAR_TO_BIT)
        working[lo:hi] = (bits if unknown == hi - lo
                          else fill_unknown(working[lo:hi], bits))
        self._unknown_count -= unknown

    def unknown_marks(self) -> bytes:
        """One byte per position: 1 where the bit is not learned yet."""
        return self._array().translate(UNKNOWN_MASK)

    def unknown_indices(self, lo: int = 0,
                        hi: Optional[int] = None) -> list[int]:
        """Sorted indices of ``[lo, hi)`` (default: all) this peer has
        not learned yet."""
        if self._unknown_count == 0:
            return []
        hi = self.ell if hi is None else hi
        return list(compress(range(lo, hi),
                             self._array()[lo:hi].translate(UNKNOWN_MASK)))

    def known_count(self) -> int:
        """Number of learned bits."""
        return self.ell - self._unknown_count

    def all_known(self) -> bool:
        """True when every bit is learned."""
        return self._unknown_count == 0

    def is_known(self, index: int) -> bool:
        """True when bit ``index`` is learned."""
        if not 0 <= index < self.ell:
            self._out_of_range(index)
        return self._array()[index] != UNKNOWN

    def known_range(self, lo: int, hi: int) -> bool:
        """True when every bit of ``[lo, hi)`` is learned."""
        return self._array().find(UNKNOWN, lo, hi) == -1

    def known_subset(self, indices: Iterable[int]) -> BitRun:
        """The subset of ``indices`` this peer knows, with values."""
        return BitRun.gather(self._array(), indices, UNKNOWN)

    def working_string(self, lo: int = 0, hi: Optional[int] = None) -> str:
        """Bits ``[lo, hi)`` as a '0'/'1' string, the segment wire
        format (default: the whole array).  Unknown bits read as '0'."""
        return self._array()[lo:hi].translate(BIT_TO_CHAR).decode("ascii")

    def finish_with_working(self) -> None:
        """Terminate, packing the working array into the output.

        Raises if any bit is still unknown — terminating without the
        full array is a protocol bug, not a tolerable outcome.
        """
        missing = self.unknown_indices()
        if missing:
            raise RuntimeError(
                f"peer {self.pid} tried to terminate with "
                f"{len(missing)} unknown bits (first: {missing[:5]})")
        self.finish(BitArray.from_string(self.working_string()))
