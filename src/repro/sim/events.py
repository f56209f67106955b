"""Event representation and deterministic ordering.

The kernel's event queue is a binary heap ordered by ``(time, seq)``.
``seq`` is a global monotone counter assigned at scheduling time, which
makes simultaneous events fire in scheduling order — so a run is a pure
function of the configuration and the seed, with no dependence on hash
ordering or iteration order.

For speed the kernel stores heap entries as plain ``(time, seq,
action)`` tuples (tuple comparison is C-level, and ``seq`` is unique so
comparison never reaches the ``action`` slot).  An entry carries no
label: what it does is read off the action itself (:func:`describe`),
and only when something asks.  The :class:`Event` class here is the
reflective view of one entry — used for error messages and tests —
with hand-written comparisons matching the tuple order exactly.
"""

from __future__ import annotations

from functools import partial
from typing import Callable


def _brief(argument: object) -> str:
    if isinstance(argument, (int, float, str)):
        return repr(argument)
    name = getattr(argument, "name", None)
    return name if isinstance(name, str) else type(argument).__name__


def describe(action: Callable[[], None]) -> str:
    """What ``action`` does, for error messages: its qualified name and,
    for a :func:`functools.partial`, its bound arguments (numbers as
    themselves, a process by its name, anything else by its type) —
    e.g. ``Network._deliver(3, ShareMessage)``."""
    if isinstance(action, partial):
        arguments = ", ".join(map(_brief, action.args))
        return f"{describe(action.func)}({arguments})"
    return getattr(action, "__qualname__", None) or repr(action)


class Event:
    """A single scheduled action.

    Ordering and equality consider only ``(time, seq)``; ``action`` is
    payload.

    Attributes:
        time: virtual time at which the action fires.
        seq: tie-breaker; lower ``seq`` fires first at equal times.
        action: zero-argument callable executed when the event fires.
    """

    __slots__ = ("time", "seq", "action")

    def __init__(self, time: float, seq: int,
                 action: Callable[[], None]) -> None:
        self.time = time
        self.seq = seq
        self.action = action

    def _key(self) -> tuple[float, int]:
        return (self.time, self.seq)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self._key() == other._key()

    def __lt__(self, other: "Event") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "Event") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "Event") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "Event") -> bool:
        return self._key() >= other._key()

    # Mutable container semantics, like the dataclass it replaced.
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"Event(t={self.time:.4f}, seq={self.seq}, "
                f"action={describe(self.action)})")
