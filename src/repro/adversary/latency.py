"""Latency-only adversaries (no faults).

These exercise the *asynchrony* half of the model: arbitrary finite,
per-message delays.  All of them draw delays from hash-based functions
of ``(sender, destination, cycle, per-edge message counter)`` and the
adversary's own seed — never from message contents — which makes them
cycle-respecting by construction (the delay of a cycle-``c`` message is
fixed before any cycle-``c`` coin flip) and keeps runs reproducible.

Delays are normalized to at most :attr:`LatencyAdversary.max_delay`
(default 1.0), the standard convention under which asynchronous time
complexity is measured.
"""

from __future__ import annotations

import hashlib
import struct
from collections import defaultdict

from repro.adversary.base import Adversary
from repro.sim.messages import Message
from repro.sim.peer import SimEnv
from repro.util.rng import derive_seed
from repro.util.validation import check_fraction

_RESOLUTION = float(1 << 53)
#: The digest's 8-byte big-endian head, as ``int.from_bytes`` reads it.
_HEAD = struct.Struct(">Q").unpack_from


class LatencyAdversary(Adversary):
    """Shared machinery: order-independent per-message pseudo-randomness.

    Every edge draw hashes a label that starts ``"{seed}:edge:"``
    (:func:`repro.util.rng.derive_seed`'s input format), every query
    draw one that starts ``"{seed}:query:"``; :meth:`bind` hashes the
    two prefixes once and keeps their SHA-256 states on the instance,
    so a draw copies one and hashes only the rest of its label.  Hash
    states do not pickle: a pickled or copied adversary drops them, and
    its copy rebuilds them from ``rng`` when loaded.
    """

    def __init__(self, *, min_delay: float = 0.05,
                 max_delay: float = 1.0) -> None:
        super().__init__()
        if not 0 < min_delay <= max_delay:
            raise ValueError(
                f"need 0 < min_delay <= max_delay, got "
                f"({min_delay}, {max_delay})")
        self.min_delay = min_delay
        self.max_delay = max_delay
        self._edge_counters: dict[tuple[int, int, int], int] = defaultdict(int)
        self._edge_prefix = self._query_prefix = None

    def bind(self, env: SimEnv) -> None:
        super().bind(env)
        self._build_prefixes()

    def _build_prefixes(self) -> None:
        seed = self.rng.seed
        self._edge_prefix = hashlib.sha256(f"{seed}:edge:".encode())
        self._query_prefix = hashlib.sha256(f"{seed}:query:".encode())

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_edge_prefix"] = state["_query_prefix"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self.rng is not None:
            self._build_prefixes()

    def _unit(self, *labels: object) -> float:
        """A uniform [0,1) value determined by the seed and ``labels``
        (``derive_seed(seed, ":".join(labels))`` scaled to 53 bits)."""
        label = ":".join(map(str, labels))
        return (derive_seed(self.rng.seed, label) >> 11) / _RESOLUTION

    def _edge_unit(self, sender: int, destination: int, cycle: int) -> float:
        """Per-message uniform value (``_unit("edge", sender,
        destination, cycle, counter)``); counter makes repeats
        independent."""
        key = (sender, destination, cycle)
        counters = self._edge_counters
        counter = counters[key]
        counters[key] = counter + 1
        hasher = self._edge_prefix.copy()
        hasher.update(b"%d:%d:%d:%d" % (sender, destination, cycle, counter))
        return (_HEAD(hasher.digest())[0] >> 11) / _RESOLUTION

    def _query_unit(self, pid: int) -> float:
        """Per-query uniform value (``_unit("query", pid, counter)``)."""
        key = (pid, -1, 0)
        counter = self._edge_counters[key]
        self._edge_counters[key] = counter + 1
        hasher = self._query_prefix.copy()
        hasher.update(b"%d:%d" % (pid, counter))
        return (_HEAD(hasher.digest())[0] >> 11) / _RESOLUTION

    def _scale(self, unit: float) -> float:
        return self.min_delay + unit * (self.max_delay - self.min_delay)


class UniformRandomDelay(LatencyAdversary):
    """Every message/query delayed uniformly in ``[min_delay, max_delay]``.

    The workhorse asynchrony model for correctness tests: deliveries
    interleave unpredictably but every delay is finite.
    """

    def message_latency(self, sender: int, destination: int, message: Message,
                        now: float, cycle: int) -> float:
        # ``_scale(_edge_unit(...))`` spelled out: this is paid once per
        # message and hop.
        key = (sender, destination, cycle)
        counters = self._edge_counters
        counter = counters[key]
        counters[key] = counter + 1
        hasher = self._edge_prefix.copy()
        hasher.update(b"%d:%d:%d:%d" % (sender, destination, cycle, counter))
        return self.min_delay + (_HEAD(hasher.digest())[0] >> 11) \
            / _RESOLUTION * (self.max_delay - self.min_delay)

    def query_latency(self, pid: int, now: float) -> float:
        return self._scale(self._query_unit(pid))


class TargetedSlowdown(UniformRandomDelay):
    """Messages *from* a victim set crawl at ``max_delay``; others race.

    This is the classic async stressor for the crash protocols: a slow
    peer is indistinguishable from a crashed one, so every "wait for
    n - t" step gets exercised with the victims always arriving last.
    """

    def __init__(self, slow_peers: set[int], *, fast_delay: float = 0.05,
                 slow_delay: float = 1.0) -> None:
        super().__init__(min_delay=fast_delay, max_delay=slow_delay)
        self.slow_peers = set(slow_peers)
        self.fast_delay = fast_delay
        self.slow_delay = slow_delay

    def message_latency(self, sender: int, destination: int, message: Message,
                        now: float, cycle: int) -> float:
        unit = self._edge_unit(sender, destination, cycle)
        if sender in self.slow_peers:
            # Jitter just below the ceiling keeps ordering deterministic
            # but distinct across messages.
            return self.slow_delay * (0.95 + 0.05 * unit)
        return self.fast_delay * (0.5 + 0.5 * unit)

    def query_latency(self, pid: int, now: float) -> float:
        unit = self._query_unit(pid)
        if pid in self.slow_peers:
            return self.slow_delay * (0.95 + 0.05 * unit)
        return self.fast_delay * (0.5 + 0.5 * unit)


class BurstyDelay(LatencyAdversary):
    """Most messages are fast; a seeded fraction stall near ``max_delay``.

    Models congestion bursts.  ``stall_fraction`` of messages (chosen
    per message, order-independently) take ``max_delay``; the rest take
    ``min_delay``-ish.
    """

    def __init__(self, *, stall_fraction: float = 0.2,
                 min_delay: float = 0.05, max_delay: float = 1.0) -> None:
        super().__init__(min_delay=min_delay, max_delay=max_delay)
        self.stall_fraction = check_fraction("stall_fraction", stall_fraction)

    def message_latency(self, sender: int, destination: int, message: Message,
                        now: float, cycle: int) -> float:
        unit = self._edge_unit(sender, destination, cycle)
        if unit < self.stall_fraction:
            return self.max_delay
        return self._scale((unit - self.stall_fraction)
                           / max(1e-12, 1.0 - self.stall_fraction) * 0.25)

    def query_latency(self, pid: int, now: float) -> float:
        unit = self._query_unit(pid)
        if unit < self.stall_fraction:
            return self.max_delay
        return self.min_delay


class StaggeredStart(UniformRandomDelay):
    """Peers begin execution at seeded, distinct times in ``[0, spread]``.

    The model does not assume a simultaneous start; protocols must
    tolerate peers that have not begun yet (their messages simply have
    not been sent).
    """

    def __init__(self, *, spread: float = 5.0, **kwargs) -> None:
        super().__init__(**kwargs)
        if spread < 0:
            raise ValueError(f"spread must be non-negative, got {spread}")
        self.spread = spread

    def start_time(self, pid: int) -> float:
        return self.spread * self._unit("start", pid)
