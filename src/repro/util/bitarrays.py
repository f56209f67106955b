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
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence, Union

from repro.util.validation import check_index, check_nonnegative, check_range


def canonical_indices(indices: Iterable[int],
                      length: int) -> tuple[list[int], int]:
    """Collapse a query to ``(sorted unique indices, bitmask)``.

    Bounds are validated in bulk off the sorted extremes; contiguous
    step-1 ``range`` inputs (the segment-query path) skip the sort and
    dedup entirely and build their mask with one shift.
    """
    if isinstance(indices, range) and indices.step == 1:
        unique = list(indices)
    else:
        unique = sorted(set(indices))
    if not unique:
        return unique, 0
    if unique[0] < 0 or unique[-1] >= length:
        offender = unique[0] if unique[0] < 0 else unique[-1]
        check_index("query index", offender, length)
    if unique[-1] - unique[0] + 1 == len(unique):
        mask = ((1 << len(unique)) - 1) << unique[0]
    else:
        mask = 0
        for index in unique:
            mask |= 1 << index
    return unique, mask


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
