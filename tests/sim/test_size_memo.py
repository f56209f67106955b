"""``Message.size_bits()`` is measured once per instance.

Every ``Message`` subclass in the library is walked (recursively, so
the ``measure_bits`` overrides of ``crash_multi`` and
``SourceResponse`` are covered): the memoised size must equal an
uncached reference computation, must not leak into anything dataclass
semantics define (``==``, ``repr``, ``fields``), must not be carried
onto a changed copy, and must survive pickling and copying.
"""

import copy
import dataclasses
import importlib
import pickle
import pkgutil

import pytest

import repro.protocols
import repro.sync.escalate  # noqa: F401  (defines EscalationAlert)
from repro.adversary.byzantine import flip_bitlike_fields
from repro.sim.messages import HEADER_BITS, Message, bits_for
from repro.util.bitarrays import BitRun

for _module in pkgutil.walk_packages(repro.protocols.__path__,
                                     "repro.protocols."):
    importlib.import_module(_module.name)

#: One legal value per field annotation used by any message type; a new
#: annotation fails the walk until a sample is added here.
_SAMPLES = {
    "int": 7,
    "bool": True,
    "str": "0110",
    "Optional[int]": None,
    "tuple[int, ...]": (1, 4, 6),
    "Mapping[int, int]": BitRun((3, 9), b"\x00\x01"),
    "Optional[Mapping[int, int]]": BitRun(range(2, 3), b"\x01"),
    "dict[int, tuple[int, ...]]": {4: (1, 2), 6: ()},
    "dict[int, Optional[Mapping[int, int]]]": {
        4: BitRun(range(1, 2), b"\x00"), 6: None},
}


def _subclasses(base):
    for subclass in base.__subclasses__():
        if subclass.__module__.startswith("repro."):
            yield subclass
        yield from _subclasses(subclass)


MESSAGE_TYPES = sorted(set(_subclasses(Message)),
                       key=lambda kind: (kind.__module__, kind.__name__))


def build(kind):
    return kind(**{field.name: copy.deepcopy(_SAMPLES[field.type])
                   for field in dataclasses.fields(kind)})


def reference_bits(message):
    """The size with no memo involved: a type's own closed form, else
    the generic field walk spelled out independently."""
    kind = type(message)
    if kind.measure_bits is not Message.measure_bits:
        return kind.measure_bits(message)
    return HEADER_BITS + sum(
        bits_for(getattr(message, field.name))
        for field in dataclasses.fields(message) if field.name != "sender")


def test_the_walk_sees_the_overrides():
    names = {kind.__name__ for kind in MESSAGE_TYPES}
    assert {"SourceResponse", "MissingRequest", "MissingResponse",
            "FullArray", "CommitteeReport"} <= names
    overriding = {kind.__name__ for kind in MESSAGE_TYPES
                  if "measure_bits" in vars(kind)}
    assert overriding == {"SourceResponse", "MissingRequest",
                          "MissingResponse"}
    assert not any("size_bits" in vars(kind) for kind in MESSAGE_TYPES)


@pytest.mark.parametrize("kind", MESSAGE_TYPES,
                         ids=lambda kind: kind.__name__)
class TestEveryMessageType:
    def test_memo_equals_reference_and_measures_once(self, kind,
                                                     monkeypatch):
        message = build(kind)
        expected = reference_bits(message)
        calls = []
        original = kind.measure_bits
        monkeypatch.setattr(
            kind, "measure_bits",
            lambda self: calls.append(self) or original(self))
        assert [message.size_bits() for _ in range(5)] == [expected] * 5
        assert len(calls) == 1

    def test_dataclass_semantics_ignore_the_memo(self, kind):
        sized, fresh = build(kind), build(kind)
        names = [field.name for field in dataclasses.fields(sized)]
        text = repr(sized)
        sized.size_bits()
        assert sized == fresh
        assert repr(sized) == text == repr(fresh)
        assert [field.name for field in dataclasses.fields(sized)] == names
        assert dataclasses.asdict(sized) == dataclasses.asdict(fresh)

    def test_replace_sizes_afresh(self, kind):
        message = build(kind)
        message.size_bits()
        clone = dataclasses.replace(message)
        assert "_size_bits" not in vars(clone)
        grown = [field.name for field in dataclasses.fields(kind)
                 if field.type == "str"]
        if grown:
            longer = dataclasses.replace(
                message, **{grown[0]: getattr(message, grown[0]) + "1"})
            assert longer.size_bits() == message.size_bits() + 1
            assert longer.size_bits() == reference_bits(longer)

    def test_flipped_copy_carries_no_stale_size(self, kind):
        message = build(kind)
        message.size_bits()
        flipped = flip_bitlike_fields(message)
        if flipped is not message:
            assert "_size_bits" not in vars(flipped)
        assert flipped.size_bits() == reference_bits(flipped)

    @pytest.mark.parametrize("sized_first", [False, True])
    def test_pickle_and_copy_round_trips_agree(self, kind, sized_first):
        message = build(kind)
        if sized_first:
            message.size_bits()
        for twin in (pickle.loads(pickle.dumps(message)),
                     copy.copy(message), copy.deepcopy(message)):
            assert twin == message
            assert twin.size_bits() == reference_bits(message)
        assert message.size_bits() == reference_bits(message)
