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
from collections import defaultdict
from functools import lru_cache

from repro.adversary.base import Adversary
from repro.sim.messages import Message
from repro.util.validation import check_fraction

_RESOLUTION = float(1 << 53)


@lru_cache(maxsize=64)
def _seed_prefix(seed: int, label: str = ""):
    """SHA-256 state after the ``"{seed}:{label}"`` prefix every draw
    of one kind shares in a run (:func:`repro.util.rng.derive_seed`'s
    input format), so a draw copies it and hashes only the rest of its
    label.  Kept off the adversary object because hash states do not
    pickle."""
    return hashlib.sha256(f"{seed}:{label}".encode("utf-8"))


def _draw(prefix, rest: str) -> float:
    """The uniform [0,1) value of the label ``prefix`` + ``rest``."""
    hasher = prefix.copy()
    hasher.update(rest.encode("utf-8"))
    return (int.from_bytes(hasher.digest()[:8], "big") >> 11) / _RESOLUTION


class LatencyAdversary(Adversary):
    """Shared machinery: order-independent per-message pseudo-randomness."""

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

    def _unit(self, *labels: object) -> float:
        """A uniform [0,1) value determined by the seed and ``labels``
        (``derive_seed(seed, ":".join(labels))`` scaled to 53 bits)."""
        return _draw(_seed_prefix(self.rng.seed), ":".join(map(str, labels)))

    def _edge_unit(self, sender: int, destination: int, cycle: int) -> float:
        """Per-message uniform value (``_unit("edge", sender,
        destination, cycle, counter)``); counter makes repeats
        independent."""
        key = (sender, destination, cycle)
        counter = self._edge_counters[key]
        self._edge_counters[key] = counter + 1
        # ``_draw`` spelled out: this is paid once per message.
        hasher = _seed_prefix(self.rng.seed, "edge:").copy()
        hasher.update(f"{sender}:{destination}:{cycle}:{counter}".encode())
        return (int.from_bytes(hasher.digest()[:8], "big") >> 11) / _RESOLUTION

    def _query_unit(self, pid: int) -> float:
        """Per-query uniform value (``_unit("query", pid, counter)``)."""
        key = (pid, -1, 0)
        counter = self._edge_counters[key]
        self._edge_counters[key] = counter + 1
        return _draw(_seed_prefix(self.rng.seed, "query:"),
                     f"{pid}:{counter}")

    def _scale(self, unit: float) -> float:
        return self.min_delay + unit * (self.max_delay - self.min_delay)


class UniformRandomDelay(LatencyAdversary):
    """Every message/query delayed uniformly in ``[min_delay, max_delay]``.

    The workhorse asynchrony model for correctness tests: deliveries
    interleave unpredictably but every delay is finite.
    """

    def message_latency(self, sender: int, destination: int, message: Message,
                        now: float, cycle: int) -> float:
        return self._scale(self._edge_unit(sender, destination, cycle))

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
