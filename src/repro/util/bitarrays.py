"""A compact bit-vector used for the source array ``X`` and peer outputs.

The DR model is defined over an ``ell``-bit input array.  The simulator
handles arrays up to a few hundred thousand bits in tests and benches,
so bits are packed into a ``bytearray`` (8 bits per byte, LSB-first
within each byte: bit ``i`` lives at ``_bytes[i >> 3]`` position
``i & 7``).  The public surface mirrors the small subset of the
``list`` protocol the protocols actually need, plus segment extraction
used by the randomized download protocols.

Bulk operations (:meth:`BitArray.from_bits`, :meth:`BitArray.get_many`,
:meth:`BitArray.set_many`, :meth:`BitArray.segment`,
:meth:`BitArray.set_segment`, :meth:`BitArray.count_ones`) go through
``int``/``bytes`` conversions instead of per-bit Python loops: the
LSB-first packing means the whole array *is* the little-endian integer
``int.from_bytes(_bytes, "little")``, so segment extraction is a shift
and a mask, and population count is one ``int.bit_count`` call.

:class:`BitRun` is the other representation in this module: the few
bits of ``X`` a query answers or a message carries, as a column of
indices beside a column of 0/1 bytes.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress
from operator import itemgetter, lt
from typing import Iterable, Iterator, Mapping, Sequence, Union

from repro.util.validation import check_index, check_nonnegative, check_range

#: ``bytes.translate`` tables between 0/1 bytes and '0'/'1' characters.
#: A segment string maps ``'1'`` to 1 and anything else to 0; any byte
#: but 1 (a working array's "unknown" marker too) renders as ``'0'``.
CHAR_TO_BIT = bytes(1 if byte == ord("1") else 0 for byte in range(256))
BIT_TO_CHAR = bytes(ord("1") if byte == 1 else ord("0")
                    for byte in range(256))
_FLIP_BIT = bytes(1 - byte if byte < 2 else byte for byte in range(256))
#: ``str.translate`` table inverting a '0'/'1' segment string.
FLIP_CHARS = str.maketrans("01", "10")
#: Byte marking "no bit yet" in a byte-per-position array (a peer's
#: working array, a vote tally's verdicts); a known bit is the byte 0
#: or 1.  The table marks each such byte with a 1.
UNKNOWN = 2
UNKNOWN_MASK = bytes(1 if byte == UNKNOWN else 0 for byte in range(256))


def _ascends(indices: tuple) -> bool:
    """True when ``indices`` is strictly ascending."""
    return all(map(lt, indices, indices[1:]))


def cells_at(cells: bytearray,
             indices: Union[range, tuple]) -> Union[bytes, bytearray]:
    """A copy of the cells of a byte-per-position array at a
    positive-step ``range`` or a non-empty tuple of positions."""
    if type(indices) is range:
        return cells[indices.start:indices.stop:indices.step]
    if len(indices) == 1:  # itemgetter of one index is not a tuple
        return bytes((cells[indices[0]],))
    return bytes(itemgetter(*indices)(cells))


def fill_unknown(held: bytes, offered: bytes) -> bytes:
    """``held`` with every :data:`UNKNOWN` cell replaced by the cell of
    ``offered`` at the same place (equal lengths), as three big-int
    operations."""
    gaps = int.from_bytes(held.translate(UNKNOWN_MASK), "little")
    # ``held`` is 2 exactly where ``gaps`` is 1: drop the marker, add
    # what is offered there.
    merged = (int.from_bytes(held, "little") - (gaps << 1)
              + (int.from_bytes(offered, "little") & gaps * 255))
    return merged.to_bytes(len(held), "little")


class BitRun(Mapping):
    """An immutable ``index -> bit`` map kept as two columns.

    ``indices`` is a positive-step ``range`` or a strictly ascending
    tuple, ``bits`` one 0/1 byte per index.  It is what the source
    answers a query with and what a peer forwards of its working array,
    so a consumer that recognises it learns, sizes and flips a whole
    slice with ``bytes`` operations; to every other reader it is a
    ``Mapping`` equal to the ``dict`` with the same entries.

    >>> run = BitRun(range(1, 7, 2), b"\x01\x00\x01")
    >>> run[5], len(run), run == {1: 1, 3: 0, 5: 1}
    (1, 3, True)
    """

    __slots__ = ("indices", "bits")

    def __init__(self, indices: Union[range, Iterable[int]],
                 bits: bytes) -> None:
        if isinstance(indices, range):
            if indices.step < 1:
                raise ValueError(f"index range must ascend, got {indices!r}")
        else:
            indices = tuple(indices)
            if not _ascends(indices):
                raise ValueError("indices must be strictly ascending")
        self._fill(indices, bits)

    def _fill(self, indices: Union[range, tuple], bits: bytes) -> None:
        """Second half of construction, ``indices`` known to ascend."""
        bits = bytes(bits)
        if len(bits) != len(indices):
            raise ValueError(f"{len(indices)} indices for {len(bits)} bits")
        bad = bits.translate(None, b"\x00\x01")
        if bad:
            raise ValueError(f"bit must be 0 or 1, got {bad[0]!r}")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "bits", bits)

    @classmethod
    def gather(cls, cells: bytearray, indices: Iterable[int],
               absent: int) -> "BitRun":
        """The run of ``cells[index]`` over ``indices`` (any order,
        repeats collapsed) without the cells holding the ``absent``
        marker; ``IndexError`` for an index outside the array."""
        if not (isinstance(indices, range) and indices.step > 0):
            indices = tuple(indices)
            if not _ascends(indices):
                indices = tuple(sorted(set(indices)))
        held = b""
        if indices:
            if indices[0] < 0 or indices[-1] >= len(cells):
                raise IndexError(
                    f"index {indices[0] if indices[0] < 0 else indices[-1]} "
                    f"outside the {len(cells)}-cell array")
            held = cells_at(cells, indices)
            gaps = held.count(absent)
            if gaps == len(held):
                indices, held = (), b""
            elif gaps:
                indices = tuple(compress(indices, map(absent.__ne__, held)))
                held = held.translate(None, bytes((absent,)))
        run = object.__new__(cls)
        run._fill(indices, held)
        return run

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError("BitRun is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return BitRun, (self.indices, self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __getitem__(self, index: int) -> int:
        indices = self.indices
        try:
            at = bisect_left(indices, index)
            if indices[at] == index:
                return self.bits[at]
        except (IndexError, TypeError):
            pass
        raise KeyError(index)

    def segment(self, lo: int, hi: int) -> str:
        """The bits of positions ``[lo, hi)`` as a '0'/'1' string;
        ``KeyError`` unless the run holds every one of them."""
        if hi <= lo:
            return ""
        indices = self.indices
        at = bisect_left(indices, lo)
        end = at + hi - lo
        # Ascending distinct ints: the window is [lo, hi) exactly when
        # its two ends are.
        if (end > len(indices) or indices[at] != lo
                or indices[end - 1] != hi - 1):
            raise KeyError(f"run does not cover [{lo}, {hi})")
        return self.bits[at:end].translate(BIT_TO_CHAR).decode("ascii")

    def flipped(self) -> "BitRun":
        """The same indices with every bit inverted."""
        return BitRun(self.indices, self.bits.translate(_FLIP_BIT))

    def __repr__(self) -> str:
        return f"BitRun({self.indices!r}, {self.bits!r})"


def canonical_indices(indices: Iterable[int],
                      length: int) -> tuple[Union[range, list[int]], int]:
    """Collapse a query to ``(sorted unique indices, bitmask)``.

    The indices come back as a positive-step ``range`` whenever they
    are an arithmetic progression (a ``range`` argument is kept as it
    is, skipping the sort and dedup), else as a sorted list.  Bounds
    are validated in bulk off the extremes; a contiguous mask is one
    shift, any other is read off a byte-per-position mark array.
    """
    if isinstance(indices, range) and indices.step > 0:
        unique = indices
    else:
        unique = sorted(set(indices))
    count = len(unique)
    if not count:
        return unique, 0
    first, last = unique[0], unique[-1]
    if first < 0 or last >= length:
        check_index("query index", first if first < 0 else last, length)
    if type(unique) is list:
        span = range(first, last + 1, unique[1] - first if count > 1 else 1)
        if len(span) == count and (count < 3 or unique == list(span)):
            unique = span
    if last - first + 1 == count:
        return unique, ((1 << count) - 1) << first
    marks = bytearray(b"0") * (last + 1)
    if type(unique) is range:
        marks[first::unique.step] = b"1" * count
    else:
        for index in unique:
            marks[index] = 49  # ord("1")
    marks.reverse()  # index order is LSB order
    return unique, int(marks, 2)


#: byte value -> positions of its set bits, for mask expansion.
_BYTE_BITS: list[tuple[int, ...]] = [
    tuple(bit for bit in range(8) if byte >> bit & 1) for byte in range(256)]


def mask_to_set(mask: int) -> set[int]:
    """Expand a set-of-positions bitmask back into an index set.

    Walks the mask byte-wise through a 256-entry position table, so a
    dense ``n``-bit mask expands in O(n) small-int operations instead
    of O(n) big-int shifts.
    """
    result: set[int] = set()
    if not mask:
        return result
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    table = _BYTE_BITS
    add = result.add
    base = 0
    for byte in data:
        if byte:
            for bit in table[byte]:
                add(base + bit)
        base += 8
    return result


class MaskSets(Mapping):
    """``key -> set of positions`` over one bitmask per key, each
    expanded (:func:`mask_to_set`) the first time it is read."""

    def __init__(self, masks: dict) -> None:
        self._masks = masks
        self._sets: dict = {}

    def __getitem__(self, key) -> set[int]:
        found = self._sets.get(key)
        if found is None:
            found = self._sets[key] = mask_to_set(self._masks[key])
        return found

    def __iter__(self) -> Iterator:
        return iter(self._masks)

    def __len__(self) -> int:
        return len(self._masks)


class BitArray:
    """A fixed-length, mutable array of bits.

    >>> x = BitArray.from_bits([1, 0, 1, 1])
    >>> x[0], x[1]
    (1, 0)
    >>> x.segment(1, 4)
    '011'
    """

    __slots__ = ("_length", "_bytes")

    def __init__(self, length: int) -> None:
        self._length = check_nonnegative("length", length)
        self._bytes = bytearray((length + 7) // 8)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitArray":
        """Build a :class:`BitArray` from an iterable of 0/1 values."""
        bits = list(bits)
        array = cls(len(bits))
        if bits:
            for bit in bits:
                if bit not in (0, 1):
                    raise ValueError(f"bit must be 0 or 1, got {bit!r}")
            # Index order == LSB order, so the reversed bit string is the
            # binary literal of the backing integer.
            value = int("".join("1" if bit else "0" for bit in bits)[::-1], 2)
            array._bytes[:] = value.to_bytes(len(array._bytes), "little")
        return array

    @classmethod
    def zeros(cls, length: int) -> "BitArray":
        """Return an all-zero array of ``length`` bits."""
        return cls(length)

    @classmethod
    def ones(cls, length: int) -> "BitArray":
        """Return an all-one array of ``length`` bits."""
        array = cls(length)
        array._bytes = bytearray(b"\xff" * len(array._bytes))
        # Mask the padding bits of the final byte so equality stays exact:
        # only positions 0..(length % 8 - 1) are real when length is not a
        # multiple of 8.
        if length & 7:
            array._bytes[-1] = (1 << (length & 7)) - 1
        return array

    @classmethod
    def random(cls, length: int, rng) -> "BitArray":
        """Return a uniformly random array drawn from ``rng``."""
        return cls.from_bits(rng.random_bits(length))

    @classmethod
    def from_string(cls, bits: str) -> "BitArray":
        """Build from a string of ``'0'``/``'1'`` characters."""
        if bits.count("0") + bits.count("1") != len(bits):
            raise ValueError(f"bit string may only contain 0/1, got {bits!r}")
        array = cls(len(bits))
        if bits:
            value = int(bits[::-1], 2)
            array._bytes[:] = value.to_bytes(len(array._bytes), "little")
        return array

    @classmethod
    def from_segments(cls, segments: Iterable[str]) -> "BitArray":
        """Build from consecutive segment strings, concatenated in order.

        Batched companion to :meth:`set_segment`: assembling an output
        from ``k`` accepted block strings costs one join and one
        int conversion instead of ``k`` shift-and-mask writes.
        Equivalent to ``from_string("".join(segments))``; the
        committee board packs whole-peer outputs this way.
        """
        return cls.from_string("".join(segments))

    # -- element access ------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int) -> int:
        check_index("index", index, self._length)
        return (self._bytes[index >> 3] >> (index & 7)) & 1

    def __setitem__(self, index: int, bit: int) -> None:
        check_index("index", index, self._length)
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        if bit:
            self._bytes[index >> 3] |= 1 << (index & 7)
        else:
            self._clear(index)

    def _clear(self, index: int) -> None:
        self._bytes[index >> 3] &= ~(1 << (index & 7)) & 0xFF

    def __iter__(self) -> Iterator[int]:
        data = self._bytes
        for index in range(self._length):
            yield (data[index >> 3] >> (index & 7)) & 1

    # -- bulk element access -------------------------------------------------

    def get_many(self, indices: Iterable[int]) -> list[int]:
        """Read many positions at once; returns bits in argument order.

        Equivalent to ``[array[i] for i in indices]`` but validates the
        bounds once (via min/max) and reads through local references, so
        batched source reads don't pay a Python call per bit.
        """
        indices = list(indices)
        if not indices:
            return []
        lowest, highest = min(indices), max(indices)
        if lowest < 0 or highest >= self._length:
            # Delegate to the scalar checker for the canonical error.
            check_index("index", lowest if lowest < 0 else highest,
                        self._length)
        data = self._bytes
        return [(data[index >> 3] >> (index & 7)) & 1 for index in indices]

    def read_range(self, indices: range) -> bytes:
        """The bits at a positive-step ``range`` of positions, one 0/1
        byte each: the covering segment rendered once and strided."""
        if not indices:
            return b""
        covering = self.segment(indices[0], indices[-1] + 1)
        return covering[::indices.step].encode("ascii").translate(CHAR_TO_BIT)

    def set_many(self, values: Union[Mapping[int, int],
                                     Iterable[tuple[int, int]]]) -> None:
        """Write many ``index -> bit`` assignments at once.

        Accepts a mapping or an iterable of ``(index, bit)`` pairs; each
        assignment behaves exactly like ``array[index] = bit``.
        """
        items = values.items() if isinstance(values, Mapping) else values
        length = self._length
        data = self._bytes
        for index, bit in items:
            if not 0 <= index < length:
                check_index("index", index, length)
            if bit not in (0, 1):
                raise ValueError(f"bit must be 0 or 1, got {bit!r}")
            if bit:
                data[index >> 3] |= 1 << (index & 7)
            else:
                data[index >> 3] &= ~(1 << (index & 7)) & 0xFF

    # -- segments ------------------------------------------------------------

    def segment(self, lo: int, hi: int) -> str:
        """Return the bits of ``[lo, hi)`` as a '0'/'1' string.

        Strings are the wire format the randomized protocols exchange
        for segments, so this is the canonical encoding.
        """
        lo, hi = check_range("segment", lo, hi, self._length)
        width = hi - lo
        if width == 0:
            return ""
        # Slice the covering bytes, shift off the leading offset, mask to
        # width; the binary rendering is MSB-first so reverse back to
        # index order.
        value = int.from_bytes(self._bytes[lo >> 3:(hi + 7) >> 3], "little")
        value = (value >> (lo & 7)) & ((1 << width) - 1)
        return format(value, f"0{width}b")[::-1]

    def set_segment(self, lo: int, bits: str) -> None:
        """Write a '0'/'1' string starting at index ``lo``."""
        check_range("segment", lo, lo + len(bits), self._length)
        if bits.count("0") + bits.count("1") != len(bits):
            raise ValueError(f"bit string may only contain 0/1: {bits!r}")
        width = len(bits)
        if width == 0:
            return
        start, stop = lo >> 3, (lo + width + 7) >> 3
        shift = lo & 7
        chunk = int.from_bytes(self._bytes[start:stop], "little")
        mask = ((1 << width) - 1) << shift
        chunk = (chunk & ~mask) | (int(bits[::-1], 2) << shift)
        self._bytes[start:stop] = chunk.to_bytes(stop - start, "little")

    def to_bits(self) -> list[int]:
        """Return the contents as a plain list of 0/1 ints."""
        segment = self.segment(0, self._length)
        return [1 if ch == "1" else 0 for ch in segment]

    def count_ones(self) -> int:
        """Return the number of set bits."""
        return int.from_bytes(self._bytes, "little").bit_count()

    # -- comparison / repr -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BitArray):
            return self._length == other._length and self._bytes == other._bytes
        if isinstance(other, Sequence):
            return len(other) == self._length and all(
                self[index] == other[index] for index in range(self._length))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._length, bytes(self._bytes)))

    def copy(self) -> "BitArray":
        """Return an independent copy."""
        duplicate = BitArray(self._length)
        duplicate._bytes = bytearray(self._bytes)
        return duplicate

    def __repr__(self) -> str:
        if self._length <= 64:
            return f"BitArray('{self.segment(0, self._length)}')"
        head = self.segment(0, 32)
        return f"BitArray('{head}...', length={self._length})"
