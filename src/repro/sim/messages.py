"""Message base types and size accounting.

The DR model charges message complexity in *messages* and bounds each
message by a size parameter ``b`` (bits).  Every concrete protocol
message therefore reports its own size in bits via :meth:`Message.size_bits`;
the network uses it for accounting and (optionally) for enforcing the
per-message limit.

Sizing conventions (documented here once, used by every protocol):

- a peer ID, bit index, phase/stage/cycle number, or segment ID costs
  :data:`FIELD_BITS` (32) bits;
- a bit-string payload costs its length;
- a set/list costs the sum of its elements;
- every message carries a constant :data:`HEADER_BITS` header (type tag
  plus sender ID).

These constants only shift measured message-bit totals by constant
factors; the complexity *shapes* reproduced in the benchmarks are
insensitive to them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Mapping

from repro.util.bitarrays import BitRun

#: Bits charged for one scalar field (ID, index, counter).
FIELD_BITS = 32
#: Fixed per-message header (message type + sender).
HEADER_BITS = 2 * FIELD_BITS


def bits_for(value: object) -> int:
    """Best-effort size in bits for a payload value.

    Understands the payload shapes the protocols actually send:
    ints/bools/None/floats are scalars, strings are bit strings, and
    containers cost the sum of their items plus a length field.  A
    :class:`~repro.util.bitarrays.BitRun` (the one bit-map payload)
    and a builtin sequence or set holding nothing but plain ``int``
    are charged in closed form — the same number the walk arrives at.

    Precedence matters for booleans: ``bool`` is a subclass of ``int``
    in Python, so the ``bool``/``None`` check MUST run before the
    ``int`` check.  A flag costs 1 bit; reordering the branches would
    silently charge ``True``/``False`` at :data:`FIELD_BITS` (32) and
    shift every protocol's measured message-bit totals.
    """
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return FIELD_BITS
    if isinstance(value, float):
        return 2 * FIELD_BITS
    if isinstance(value, str):
        return len(value)
    if type(value) is BitRun:
        return FIELD_BITS * (1 + 2 * len(value))
    if isinstance(value, dict):
        return FIELD_BITS + sum(bits_for(key) + bits_for(item)
                                for key, item in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        if _all_int(value):
            return FIELD_BITS * (1 + len(value))
        return FIELD_BITS + sum(bits_for(item) for item in value)
    raise TypeError(f"cannot size payload of type {type(value).__name__}")


_JUST_INT = {int}


def _all_int(items: Iterable) -> bool:
    """True when every item is exactly an ``int`` (a ``bool`` costs one
    bit, so it leaves the closed form)."""
    return set(map(type, items)) <= _JUST_INT


#: Per-type cache of payload field names (everything except ``sender``),
#: so :meth:`Message.size_bits` pays dataclass reflection once per class
#: instead of once per send.
_PAYLOAD_FIELDS: dict[type, tuple[str, ...]] = {}


def _payload_fields(message_type: type) -> tuple[str, ...]:
    names = _PAYLOAD_FIELDS.get(message_type)
    if names is None:
        names = tuple(field.name for field in fields(message_type)
                      if field.name != "sender")
        _PAYLOAD_FIELDS[message_type] = names
    return names


@dataclass(frozen=True)
class Message:
    """Base class for everything sent over the peer-to-peer network.

    Concrete messages are frozen dataclasses; immutability means a
    broadcast can share one object among ``n - 1`` deliveries without
    any risk of cross-peer aliasing bugs.
    """

    sender: int

    def size_bits(self) -> int:
        """Size of this message in bits, measured once per instance.

        A broadcast shares one frozen object among ``n - 1`` sends (and
        every relay hop, trace record and sync-engine charge), so the
        first call stores :meth:`measure_bits` in the instance dict and
        later calls read it back.  The entry is not a dataclass field:
        ``==``, ``repr``, ``fields`` and ``dataclasses.replace`` never
        see it, and a replaced message is a new object that measures
        itself afresh.  Safe because payloads are never mutated after
        the message is handed to the network.
        """
        try:
            return self.__dict__["_size_bits"]
        except KeyError:
            size = self.__dict__["_size_bits"] = self.measure_bits()
            return size

    def measure_bits(self) -> int:
        """Walk the payload: header + all payload fields.  Message types
        with a cheaper closed form override this, not :meth:`size_bits`."""
        payload = 0
        for name in _payload_fields(type(self)):
            payload += bits_for(getattr(self, name))
        return HEADER_BITS + payload


@dataclass(frozen=True)
class SourceResponse(Message):
    """Answer from the external data source to one query request.

    ``sender`` is :data:`SOURCE_ID`.  ``values`` maps queried bit index
    to its value; segment queries arrive as one response covering the
    whole range.
    """

    request_id: int
    values: Mapping[int, int]

    def measure_bits(self) -> int:
        # The source answers with raw bits; indices are implied by the
        # request, so only the bits themselves are charged.
        return HEADER_BITS + FIELD_BITS + len(self.values)


#: Pseudo peer ID used by the external data source in responses.
SOURCE_ID = -1


def total_bits(messages: Iterable[Message]) -> int:
    """Sum of :meth:`Message.size_bits` over ``messages``."""
    return sum(message.size_bits() for message in messages)
