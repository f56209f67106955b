"""Bulk bit operations agree with the naive per-bit reference.

The kernel's bulk paths (:meth:`BitArray.from_bits`,
:meth:`BitArray.get_many`, :meth:`BitArray.set_many`,
:meth:`BitArray.segment`, :meth:`BitArray.set_segment`,
:meth:`BitArray.count_ones`, :func:`canonical_indices`,
:func:`mask_to_set`) are int/bytes-level reimplementations of the
original per-bit loops.  These properties pin them to a naive
element-by-element reference over adversarial shapes — in particular
zero-length arrays/segments and lengths that are NOT multiples of 8,
where the final byte carries padding bits that the bulk code must
mask correctly.
"""

from hypothesis import given, settings, strategies as st

from repro.util.bitarrays import BitArray, canonical_indices, mask_to_set

# Deliberately biased toward non-byte-aligned tails: 0, 1..7, 8k+r.
bits_lists = st.lists(st.integers(min_value=0, max_value=1), min_size=0,
                      max_size=77)
odd_lengths = st.sampled_from([0, 1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65])


class TestBulkConstruction:
    @given(bits_lists)
    @settings(max_examples=200, deadline=None)
    def test_from_bits_matches_per_bit_assignment(self, bits):
        reference = BitArray(len(bits))
        for index, bit in enumerate(bits):
            reference[index] = bit
        assert BitArray.from_bits(bits) == reference

    @given(odd_lengths)
    @settings(max_examples=50, deadline=None)
    def test_ones_padding_is_clear_at_any_tail(self, length):
        array = BitArray.ones(length)
        assert array.to_bits() == [1] * length
        assert array.count_ones() == length
        # The padding mask is what keeps equality exact.
        assert array == BitArray.from_bits([1] * length)

    @given(bits_lists)
    @settings(max_examples=200, deadline=None)
    def test_count_ones_matches_naive_sum(self, bits):
        assert BitArray.from_bits(bits).count_ones() == sum(bits)


class TestBulkReads:
    @given(bits_lists, st.data())
    @settings(max_examples=200, deadline=None)
    def test_get_many_matches_per_index_reads(self, bits, data):
        array = BitArray.from_bits(bits)
        if bits:
            indices = data.draw(st.lists(
                st.integers(min_value=0, max_value=len(bits) - 1),
                min_size=0, max_size=30))
        else:
            indices = []
        assert array.get_many(indices) == [array[i] for i in indices]

    def test_get_many_empty_on_empty_array(self):
        assert BitArray(0).get_many([]) == []

    @given(bits_lists, st.data())
    @settings(max_examples=200, deadline=None)
    def test_segment_matches_per_bit_join(self, bits, data):
        array = BitArray.from_bits(bits)
        lo = data.draw(st.integers(min_value=0, max_value=len(bits)))
        hi = data.draw(st.integers(min_value=lo, max_value=len(bits)))
        naive = "".join("1" if array[i] else "0" for i in range(lo, hi))
        assert array.segment(lo, hi) == naive


class TestBulkWrites:
    @given(bits_lists, st.data())
    @settings(max_examples=200, deadline=None)
    def test_set_many_matches_per_index_writes(self, bits, data):
        bulk = BitArray.from_bits(bits)
        naive = BitArray.from_bits(bits)
        if bits:
            pairs = data.draw(st.lists(
                st.tuples(st.integers(min_value=0, max_value=len(bits) - 1),
                          st.integers(min_value=0, max_value=1)),
                min_size=0, max_size=30))
        else:
            pairs = []
        bulk.set_many(pairs)
        for index, bit in pairs:
            naive[index] = bit
        assert bulk == naive

    @given(bits_lists, st.data())
    @settings(max_examples=200, deadline=None)
    def test_set_many_accepts_mapping(self, bits, data):
        bulk = BitArray.from_bits(bits)
        naive = BitArray.from_bits(bits)
        if bits:
            values = data.draw(st.dictionaries(
                st.integers(min_value=0, max_value=len(bits) - 1),
                st.integers(min_value=0, max_value=1), max_size=30))
        else:
            values = {}
        bulk.set_many(values)
        for index, bit in values.items():
            naive[index] = bit
        assert bulk == naive

    @given(bits_lists, st.data())
    @settings(max_examples=200, deadline=None)
    def test_set_segment_matches_per_bit_writes(self, bits, data):
        bulk = BitArray.from_bits(bits)
        naive = BitArray.from_bits(bits)
        lo = data.draw(st.integers(min_value=0, max_value=len(bits)))
        width = data.draw(st.integers(min_value=0,
                                      max_value=len(bits) - lo))
        replacement = data.draw(st.text(alphabet="01", min_size=width,
                                        max_size=width))
        bulk.set_segment(lo, replacement)
        for offset, ch in enumerate(replacement):
            naive[lo + offset] = int(ch)
        assert bulk == naive
        # Untouched bits survive, including the tail past the segment.
        assert bulk.to_bits()[:lo] == bits[:lo]
        assert bulk.to_bits()[lo + width:] == bits[lo + width:]


class TestIndexMaskHelpers:
    @given(st.lists(st.integers(min_value=0, max_value=200), min_size=0,
                    max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_canonical_indices_matches_sorted_set(self, indices):
        unique, mask = canonical_indices(indices, 201)
        # A progression comes back as a range, anything else as a list.
        assert list(unique) == sorted(set(indices))
        assert mask == sum(1 << index for index in set(indices))

    @given(st.integers(min_value=0, max_value=200), st.integers(
        min_value=0, max_value=200))
    @settings(max_examples=100, deadline=None)
    def test_canonical_indices_range_fast_path(self, lo, width):
        window = range(lo, lo + width)
        unique, mask = canonical_indices(window, lo + width + 1)
        assert unique == window
        assert mask == sum(1 << index for index in window)

    @given(st.sets(st.integers(min_value=0, max_value=500), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_mask_round_trips_through_set(self, indices):
        mask = sum(1 << index for index in indices)
        assert mask_to_set(mask) == indices
