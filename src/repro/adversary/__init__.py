"""Adversaries for the DR model.

The model's adversary controls message scheduling and failures; this
package provides the interface (:mod:`~repro.adversary.base`) plus a
battery of concrete strategies:

- latency-only: :class:`UniformRandomDelay`, :class:`TargetedSlowdown`,
  :class:`BurstyDelay`, :class:`StaggeredStart`;
- crash faults: :class:`CrashAdversary` with at-time and mid-broadcast
  triggers;
- Byzantine faults: :class:`ByzantineAdversary` wrapping honest
  executions with corruption strategies, plus
  :class:`ScriptedByzantinePeer` for fully custom attackers;
- composition: :class:`ComposedAdversary` (faults x latency);
- the paper's lower-bound witness lives in
  :mod:`repro.adversary.lower_bound` (not imported here; the spec
  table and the lower-bound backend import it).
"""

from repro.adversary.base import Adversary, NullAdversary
from repro.adversary.byzantine import (
    ByzantineAdversary,
    ByzantineStrategy,
    EquivocateStrategy,
    PerPeerStrategy,
    ScriptedByzantinePeer,
    SelectiveSilenceStrategy,
    SilentStrategy,
    WrongBitsStrategy,
    flip_bitlike_fields,
)
from repro.adversary.compose import ComposedAdversary
from repro.adversary.adaptive import AdaptiveCrashAdversary
from repro.adversary.dynamic import DynamicByzantineAdversary
from repro.adversary.crash import (
    CrashAdversary,
    CrashAfterSends,
    CrashAtTime,
    CrashSpec,
)
from repro.adversary.latency import (
    BurstyDelay,
    LatencyAdversary,
    StaggeredStart,
    TargetedSlowdown,
    UniformRandomDelay,
)

__all__ = [
    "AdaptiveCrashAdversary",
    "Adversary",
    "BurstyDelay",
    "ByzantineAdversary",
    "ByzantineStrategy",
    "ComposedAdversary",
    "CrashAdversary",
    "CrashAfterSends",
    "CrashAtTime",
    "CrashSpec",
    "DynamicByzantineAdversary",
    "EquivocateStrategy",
    "LatencyAdversary",
    "NullAdversary",
    "PerPeerStrategy",
    "ScriptedByzantinePeer",
    "SelectiveSilenceStrategy",
    "SilentStrategy",
    "StaggeredStart",
    "TargetedSlowdown",
    "UniformRandomDelay",
    "WrongBitsStrategy",
    "flip_bitlike_fields",
]
