"""Deterministic per-frame fault decisions for the chaos proxy.

Fault grammar (the ``proxy_faults`` spec field and ``--proxy-faults``
CLI option) — one string per fault kind, ``kind[:param]``:

- ``drop[:rate]`` — the frame is swallowed (default rate 0.1);
- ``dup[:rate]`` — the frame is delivered twice (default 0.1);
- ``delay[:max_seconds]`` — the frame is held up to ``max_seconds``
  before forwarding (default 0.02);
- ``reorder[:rate]`` — the frame is additionally held just long
  enough to land *after* frames that entered the proxy later
  (default 0.1);
- ``disconnect[:rate]`` — the frame is swallowed and its connection
  is torn down mid-stream; the client reconnects and retries
  (default 0.02).

Determinism is the load-bearing property: a decision is a pure
function of ``(chaos seed, direction, frame content hash)``, computed
with :func:`~repro.util.rng.derive_unit`, the primitive the engine's
retry jitter draws from too — never of arrival time or connection
order.  Two runs of the same seeded spec therefore drop, delay, and
duplicate *exactly the same frames*, which is what makes retry counts
assertable in tests.  The protocol layer cooperates by making retried
frames differ in content (an ``attempt`` field on requests, a
``resend`` counter on replayed responses), so a dropped frame's retry
gets a fresh decision rather than being dropped forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from repro.util.rng import derive_unit

from repro.net.wire import frame_digest

#: kind -> (default parameter, parameter meaning).
PROXY_FAULT_KINDS: dict[str, float] = {
    "drop": 0.1,
    "dup": 0.1,
    "delay": 0.02,
    "reorder": 0.1,
    "disconnect": 0.02,
}

#: Reorder hold: long enough to overtake same-connection frames that
#: arrive within it, short enough never to threaten request timeouts.
_REORDER_HOLD = 0.03


def parse_proxy_fault(spec: str) -> tuple[str, float]:
    """Parse one ``kind[:param]`` proxy-fault spec string."""
    text = str(spec).strip()
    kind, _, param = text.partition(":")
    kind = kind.strip()
    if kind not in PROXY_FAULT_KINDS:
        raise ValueError(f"unknown proxy fault {kind!r} in {spec!r}; "
                         f"known: {sorted(PROXY_FAULT_KINDS)}")
    if not param:
        return kind, PROXY_FAULT_KINDS[kind]
    try:
        value = float(param)
    except ValueError:
        raise ValueError(f"bad proxy-fault parameter {param!r} "
                         f"in {spec!r}")
    if kind == "delay":
        if value < 0:
            raise ValueError(f"delay seconds must be >= 0 in {spec!r}")
    elif not 0.0 <= value <= 1.0:
        raise ValueError(f"{kind} rate must be in [0, 1] in {spec!r}")
    return kind, value


def parse_proxy_faults(specs: Sequence[Union[str, tuple]]
                       ) -> dict[str, float]:
    """Parse a fault list into a ``kind -> parameter`` plan.

    Each kind may appear once — two ``drop`` rates on one proxy is a
    contradiction, not a composition.
    """
    plan: dict[str, float] = {}
    for spec in specs:
        kind, value = (spec if isinstance(spec, tuple)
                       else parse_proxy_fault(spec))
        if kind in plan:
            raise ValueError(f"proxy fault {kind!r} specified twice")
        plan[kind] = value
    return plan


@dataclass(frozen=True)
class FrameDecision:
    """What the proxy does with one frame."""

    drop: bool = False
    duplicate: bool = False
    delay: float = 0.0
    disconnect: bool = False


#: The fault-free decision (shared; decisions are immutable).
PASS = FrameDecision()


class ChaosPlan:
    """Seeded per-frame fault decisions for one run's proxy."""

    def __init__(self, faults: Sequence[Union[str, tuple]],
                 seed: int) -> None:
        self.rates = parse_proxy_faults(faults)
        self.seed = seed

    def _unit(self, kind: str, direction: str, digest: str) -> float:
        """A uniform [0, 1) value, pure in (seed, kind, direction,
        frame content)."""
        return derive_unit(self.seed, f"{kind}|{direction}|{digest}")

    def decide(self, body: bytes, direction: str) -> FrameDecision:
        """The fate of one frame travelling in ``direction``."""
        if not self.rates:
            return PASS
        digest = frame_digest(body)
        rate = self.rates.get("disconnect", 0.0)
        if rate and self._unit("disconnect", direction, digest) < rate:
            return FrameDecision(disconnect=True)
        rate = self.rates.get("drop", 0.0)
        if rate and self._unit("drop", direction, digest) < rate:
            return FrameDecision(drop=True)
        duplicate = False
        rate = self.rates.get("dup", 0.0)
        if rate and self._unit("dup", direction, digest) < rate:
            duplicate = True
        delay = 0.0
        max_delay = self.rates.get("delay", 0.0)
        if max_delay:
            delay += max_delay * self._unit("delay", direction, digest)
        rate = self.rates.get("reorder", 0.0)
        if rate and self._unit("reorder", direction, digest) < rate:
            delay += _REORDER_HOLD
        if not duplicate and delay == 0.0:
            return PASS
        return FrameDecision(duplicate=duplicate, delay=delay)
