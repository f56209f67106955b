"""Model tests for :class:`repro.util.bitarrays.BitRun` and its consumers.

A run is what the source answers with and what ``known_subset`` hands
out; the model is the plain ``dict`` it replaced.  Every consumer of a
run (``learn_many``, ``bits_for``, ``flip_bitlike_fields``,
``BitRun.segment``) must do to it exactly what the per-entry loop did
to that dict, and ``canonical_indices`` must still produce the indices
and the mask the per-index loop produced.
"""

import copy
import dataclasses
import importlib
import pickle
import pkgutil
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.protocols
import repro.sync.escalate  # noqa: F401  (defines EscalationAlert)
from repro.adversary.byzantine import flip_bitlike_fields
from repro.sim.messages import FIELD_BITS, Message, bits_for
from repro.sim.source import SourceCore
from repro.util.bitarrays import BitArray, BitRun, canonical_indices
from tests.property.test_property_working_array import make_peer

for _module in pkgutil.walk_packages(repro.protocols.__path__,
                                     "repro.protocols."):
    importlib.import_module(_module.name)

COMMON = dict(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])

ELL = 64


@st.composite
def runs(draw, limit=ELL):
    """A run inside ``[0, limit)`` on either backing, any stride,
    empty and single-entry ones included."""
    if draw(st.booleans()):
        start = draw(st.integers(0, limit - 1))
        step = draw(st.integers(1, 9))
        count = draw(st.integers(0, (limit - 1 - start) // step + 1))
        indices = range(start, start + count * step, step)
    else:
        indices = tuple(sorted(draw(st.sets(st.integers(0, limit - 1)))))
    bits = bytes(draw(st.lists(st.integers(0, 1), min_size=len(indices),
                               max_size=len(indices))))
    return BitRun(indices, bits)


# -- the type against a dict --------------------------------------------------

@settings(**COMMON)
@given(run=runs(), probe=st.integers(-3, ELL + 3))
def test_run_is_the_mapping_its_dict_is(run, probe):
    model = dict(zip(run.indices, run.bits))
    assert run == model and model == run
    assert not run != model
    assert dict(run) == model
    assert len(run) == len(model) and bool(run) == bool(model)
    assert list(run) == sorted(model) == list(run.keys())
    assert list(run.items()) == sorted(model.items())
    assert len(run.items()) == len(model)
    assert list(run.values()) == [model[index] for index in sorted(model)]
    assert (probe in run) == (probe in model)
    assert run.get(probe) == model.get(probe)
    if probe in model:
        assert run[probe] == model[probe]
    else:
        with pytest.raises(KeyError):
            run[probe]
    assert "x" not in run and run.get("x", 5) == 5
    if model:
        grown = dict(model)
        grown[ELL + 9] = 1
        assert run != grown
        flipped_first = dict(model)
        flipped_first[run.indices[0]] ^= 1
        assert run != flipped_first


@settings(**COMMON)
@given(run=runs())
def test_run_survives_pickle_and_copy(run):
    for twin in (pickle.loads(pickle.dumps(run)), copy.copy(run),
                 copy.deepcopy(run)):
        assert type(twin) is BitRun
        assert twin == run
        assert type(twin.indices) is type(run.indices)
        assert twin.indices == run.indices and twin.bits == run.bits


@settings(**COMMON)
@given(run=runs(), lo=st.integers(0, ELL), width=st.integers(0, 12))
def test_segment_is_the_joined_window_or_a_key_error(run, lo, width):
    model, hi = dict(run), lo + width
    if all(index in model for index in range(lo, hi)):
        expected = "".join("1" if model[index] else "0"
                           for index in range(lo, hi))
        assert run.segment(lo, hi) == expected
    else:
        with pytest.raises(KeyError):
            run.segment(lo, hi)


def test_construction_validates_once_and_for_all():
    with pytest.raises(ValueError, match="bit must be 0 or 1"):
        BitRun(range(3), b"\x00\x02\x01")
    with pytest.raises(ValueError, match="bit must be 0 or 1"):
        BitRun((1, 5), b"\x01\xff")
    with pytest.raises(ValueError, match="indices for"):
        BitRun(range(3), b"\x00\x01")
    with pytest.raises(ValueError, match="ascend"):
        BitRun(range(5, 0, -1), bytes(5))
    for indices in ((3, 1), (1, 1), [0, 2, 2]):
        with pytest.raises(ValueError, match="ascending"):
            BitRun(indices, bytes(len(indices)))
    run = BitRun([2, 7], bytearray(b"\x01\x00"))  # any iterable, any bytes
    assert run.indices == (2, 7) and run.bits == b"\x01\x00"
    for attribute in ("indices", "bits", "other"):
        with pytest.raises(AttributeError):
            setattr(run, attribute, ())
    with pytest.raises(AttributeError):
        del run.bits
    with pytest.raises(TypeError):
        run[2] = 1
    with pytest.raises(TypeError):
        hash(run)


# -- learn_many: the run path against the per-entry loop ----------------------

@settings(**COMMON)
@given(steps=st.lists(st.one_of(
    runs(),
    st.tuples(st.integers(0, ELL - 1), st.text("01", max_size=8))),
    max_size=12))
def test_learning_runs_equals_learning_their_dicts(steps):
    """Two peers, one fed runs and one the entries of the equal dicts
    one ``learn`` at a time (strings mixed in so that ranges arrive
    partly known): same array, same count, after every step —
    duplicates across calls never overwrite."""
    by_run, by_dict = make_peer(ELL), make_peer(ELL)
    for step in steps:
        if type(step) is BitRun:
            by_run.learn_many(step)
            for index, bit in dict(step).items():
                by_dict.learn(index, bit)
        else:
            lo, string = step
            string = string[:ELL - lo]
            by_run.learn_string(lo, string)
            by_dict.learn_string(lo, string)
        assert by_run._array() == by_dict._array()
        assert by_run._unknown_count == by_dict._unknown_count \
            == by_dict._array().count(2)
        known = by_run.known_subset(range(ELL))
        assert type(known) is BitRun
        assert known == {index: bit for index, bit
                         in enumerate(by_dict._array()) if bit != 2}


@pytest.mark.parametrize("indices", [
    range(60, 70, 3), (3, ELL), (-1, 3), range(ELL, ELL + 1)])
def test_a_run_reaching_outside_the_array_is_refused_whole(indices):
    peer = make_peer(ELL)
    run = BitRun(indices, bytes(len(indices)))
    with pytest.raises(IndexError):
        peer.learn_many(run)
    assert peer._unknown_count == ELL
    assert peer._array().count(2) == ELL


@settings(**COMMON)
@given(known=runs(), asked=st.lists(st.integers(0, ELL - 1), max_size=ELL),
       stride=st.integers(1, 7))
def test_known_subset_is_a_run_equal_to_the_filtered_dict(known, asked,
                                                          stride):
    peer = make_peer(ELL)
    peer.learn_many(known)
    model = dict(known)
    for indices in (asked, tuple(sorted(set(asked))),
                    range(asked[0] if asked else 0, ELL, stride)):
        expected = {index: model[index] for index in indices
                    if index in model}
        for spelled in (indices, iter(indices)):
            subset = peer.known_subset(spelled)
            assert type(subset) is BitRun
            assert subset == expected


# -- sizes: closed forms equal the walk ---------------------------------------

def walk_bits(value):
    """``bits_for`` as it was: one recursive step per entry."""
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return FIELD_BITS
    if isinstance(value, float):
        return 2 * FIELD_BITS
    if isinstance(value, str):
        return len(value)
    if isinstance(value, dict):
        return FIELD_BITS + sum(walk_bits(key) + walk_bits(item)
                                for key, item in value.items())
    return FIELD_BITS + sum(walk_bits(item) for item in value)


_scalars = st.one_of(st.integers(-5, 10 ** 12), st.integers(0, 1),
                     st.booleans(), st.none(), st.text("01", max_size=5),
                     st.floats(allow_nan=False))
_ints = st.integers(-5, 10 ** 12)
_payloads = st.recursive(
    st.one_of(
        _scalars,
        st.lists(_ints), st.lists(_ints).map(tuple),
        st.frozensets(_ints), st.sets(_ints),
        st.dictionaries(_ints, _ints)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5), st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.one_of(_ints, st.booleans()), inner,
                        max_size=5)),
    max_leaves=12)


@settings(**COMMON)
@given(value=_payloads)
def test_closed_form_sizes_equal_the_recursive_walk(value):
    assert bits_for(value) == walk_bits(value)


def test_a_bool_entry_costs_one_bit_and_leaves_the_closed_form():
    assert bits_for((4, 5, 6)) == FIELD_BITS * 4
    assert bits_for((4, True, 6)) == FIELD_BITS * 3 + 1
    assert bits_for([False]) == FIELD_BITS + 1
    assert bits_for({3: 1, 9: 0}) == FIELD_BITS * 5
    assert bits_for({3: True, 9: 0}) == FIELD_BITS * 4 + 1
    assert bits_for({True: 1}) == FIELD_BITS * 2 + 1
    assert bits_for(BitRun((3, 9), b"\x01\x00")) == FIELD_BITS * 5
    assert bits_for(BitRun((), b"")) == bits_for({}) == FIELD_BITS


def _subclasses(base):
    for subclass in base.__subclasses__():
        if subclass.__module__.startswith("repro."):
            yield subclass
        yield from _subclasses(subclass)


#: Every message type with a bit-map field, and how to fill the others.
_MAP_SHAPES = {
    "Mapping[int, int]": lambda payload: payload,
    "Optional[Mapping[int, int]]": lambda payload: payload,
    "dict[int, Optional[Mapping[int, int]]]":
        lambda payload: {4: payload, 6: None, 9: payload},
}
_OTHER_SAMPLES = {"int": 7, "bool": True, "Optional[int]": 3}
MAP_MESSAGES = sorted(
    {kind for kind in _subclasses(Message)
     if any("Mapping" in str(field.type)
            for field in dataclasses.fields(kind))},
    key=lambda kind: (kind.__module__, kind.__name__))


def build(kind, payload):
    values = {}
    for field in dataclasses.fields(kind):
        shape = _MAP_SHAPES.get(field.type)
        values[field.name] = (shape(payload) if shape is not None
                              else _OTHER_SAMPLES[field.type])
    return kind(**values)


def test_the_walk_finds_the_map_carrying_messages():
    assert {kind.__name__ for kind in MAP_MESSAGES} == {
        "SourceResponse", "ShareMessage", "OneRoundShare", "ShareValues",
        "ProbeReply", "DataResponse", "MissingResponse"}


@pytest.mark.parametrize("kind", MAP_MESSAGES,
                         ids=lambda kind: kind.__name__)
@settings(**COMMON)
@given(run=runs())
def test_a_message_sizes_a_run_as_it_sizes_the_dict(kind, run):
    with_run, with_dict = build(kind, run), build(kind, dict(run))
    assert with_run == with_dict
    assert with_run.size_bits() == with_dict.size_bits() \
        == with_dict.measure_bits()


@pytest.mark.parametrize("kind", MAP_MESSAGES,
                         ids=lambda kind: kind.__name__)
@settings(**COMMON)
@given(run=runs())
def test_flipping_a_run_equals_flipping_the_dict(kind, run):
    """A run field comes back as the run of the inverted dict; a dict
    *of* runs (``MissingResponse.found``) is not a bit-like field."""
    with_run = build(kind, run)
    flipped_run = flip_bitlike_fields(with_run)
    direct = [field.name for field in dataclasses.fields(kind)
              if field.type in ("Mapping[int, int]",
                                "Optional[Mapping[int, int]]")]
    # Nothing to flip returns the message itself.
    assert (flipped_run is with_run) == (not run or not direct)
    for field in dataclasses.fields(kind):
        flipped = getattr(flipped_run, field.name)
        if field.name in direct and run:
            assert type(flipped) is BitRun
            assert flipped == {index: 1 - bit for index, bit in run.items()}
            assert flipped.flipped() == run
        else:
            assert flipped == getattr(with_run, field.name)


# -- the producers ------------------------------------------------------------

def old_canonical(indices, length):
    """``canonical_indices`` as it was: a list, one OR per index."""
    unique = sorted(set(indices))
    for index in unique:
        if not 0 <= index < length:
            raise ValueError(index)
    mask = 0
    for index in unique:
        mask |= 1 << index
    return unique, mask


@settings(**COMMON)
@given(start=st.integers(0, 300), step=st.integers(1, 40),
       count=st.integers(0, 40), seed=st.integers(0, 2 ** 16),
       irregular=st.sets(st.integers(0, 2000), max_size=40))
def test_canonical_indices_equal_the_per_index_loop(start, step, count, seed,
                                                    irregular):
    length = 2001
    progression = range(start, start + count * step, step)
    shuffled = list(progression) * 2
    random.Random(seed).shuffle(shuffled)
    expected = old_canonical(progression, length)
    for indices in (progression, shuffled, reversed(progression)):
        unique, mask = canonical_indices(indices, length)
        assert (list(unique), mask) == expected
        if count:
            assert type(unique) is range and unique.step > 0
    unique, mask = canonical_indices(irregular, length)
    assert (list(unique), mask) == old_canonical(irregular, length)
    assert type(unique) in (range, list)
    for outside in ([-1, 5], range(1995, 2010, 4)):
        with pytest.raises(ValueError, match="query index"):
            canonical_indices(outside, length)


@settings(**COMMON)
@given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=80),
       asked=st.lists(st.integers(0, 79), max_size=40),
       start=st.integers(0, 79), step=st.integers(1, 9))
def test_the_source_answers_with_the_run_of_the_truth(bits, asked, start,
                                                      step):
    data = BitArray.from_bits(bits)
    source = SourceCore(data)
    for indices in ([index for index in asked if index < len(bits)],
                    range(min(start, len(bits) - 1), len(bits), step)):
        answer = source.read(0, 0, source.charge(0, 0, indices), 0.0)
        assert type(answer) is BitRun
        assert answer == {index: bits[index] for index in indices}
        if isinstance(indices, range):
            assert data.read_range(indices) == bytes(data.get_many(indices))
