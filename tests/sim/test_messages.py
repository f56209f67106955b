"""Unit tests for message size accounting."""

from dataclasses import dataclass

import pytest

from repro.sim.messages import (
    FIELD_BITS,
    HEADER_BITS,
    Message,
    SourceResponse,
    bits_for,
    total_bits,
)
from repro.util.bitarrays import BitRun


EMPTY = BitRun((), b"")


@dataclass(frozen=True)
class Mixed(Message):
    index: int
    string: str
    values: BitRun


class TestBitsFor:
    def test_int(self):
        assert bits_for(5) == FIELD_BITS

    def test_bool_is_one_bit(self):
        assert bits_for(True) == 1

    def test_bool_checked_before_int(self):
        # bool subclasses int, so the branch order in bits_for is
        # load-bearing: flags cost 1 bit, the equal-valued ints cost a
        # full field.  Reordering the isinstance checks would silently
        # inflate every boolean field by FIELD_BITS - 1.
        assert bits_for(True) == 1
        assert bits_for(False) == 1
        assert bits_for(1) == FIELD_BITS
        assert bits_for(0) == FIELD_BITS

    def test_none_is_one_bit(self):
        assert bits_for(None) == 1

    def test_float(self):
        assert bits_for(1.5) == 2 * FIELD_BITS

    def test_string_costs_its_length(self):
        assert bits_for("10110") == 5

    def test_dict_costs_entries_plus_length_field(self):
        assert bits_for({1: 0, 2: 1}) == FIELD_BITS + 2 * (FIELD_BITS + FIELD_BITS)

    def test_tuple(self):
        assert bits_for((1, 2, 3)) == FIELD_BITS + 3 * FIELD_BITS

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            bits_for(object())


class TestMessageSize:
    def test_size_sums_fields_plus_header(self):
        message = Mixed(sender=1, index=7, string="0101",
                        values=BitRun((3,), b"\x01"))
        expected = (HEADER_BITS + FIELD_BITS + 4
                    + FIELD_BITS + (FIELD_BITS + FIELD_BITS))
        assert message.size_bits() == expected

    def test_sender_not_double_charged(self):
        @dataclass(frozen=True)
        class Bare(Message):
            pass

        assert Bare(sender=3).size_bits() == HEADER_BITS

    def test_source_response_charges_only_bits(self):
        response = SourceResponse(sender=-1, request_id=1,
                                  values=BitRun((0, 5, 9),
                                                b"\x01\x00\x01"))
        assert response.size_bits() == HEADER_BITS + FIELD_BITS + 3

    def test_total_bits_sums(self):
        messages = [Mixed(sender=0, index=0, string="1", values=EMPTY),
                    Mixed(sender=1, index=0, string="11", values=EMPTY)]
        assert total_bits(messages) == sum(m.size_bits() for m in messages)

    def test_messages_are_frozen(self):
        message = Mixed(sender=1, index=2, string="1", values=EMPTY)
        with pytest.raises(Exception):
            message.index = 5
