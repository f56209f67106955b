"""Model test for ``DownloadPeer``'s working array.

The array is a ``bytearray`` driven through count/find/translate/slice
calls; the model is the naive ``list[int]`` it replaced (``-1`` =
unknown) driven one bit at a time.  Hypothesis interleaves every helper
— overlapping and partially-known ``learn_string`` ranges included —
and after each step the two must agree on every read the protocols use.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.protocols.base import DownloadPeer
from repro.sim.metrics import MetricsCollector
from repro.sim.peer import SimEnv
from repro.sim.scheduler import Kernel
from repro.util.bitarrays import BitArray, BitRun
from repro.util.rng import SplittableRNG

COMMON = dict(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])


def make_peer(ell: int) -> DownloadPeer:
    env = SimEnv(kernel=Kernel(), network=None, source=None,
                 metrics=MetricsCollector(), adversary=None, n=1, t=0,
                 ell=ell, rng=SplittableRNG(1))
    return DownloadPeer(0, env)


class ListModel:
    """The representation this PR deleted, kept as the reference."""

    def __init__(self, ell: int) -> None:
        self.bits = [-1] * ell

    def learn(self, index, bit):
        if bit not in (0, 1):
            raise ValueError(bit)
        if self.bits[index] == -1:
            self.bits[index] = bit

    def learn_many(self, values):
        for index, bit in values.items():
            self.learn(index, bit)

    def learn_string(self, lo, string):
        for offset, ch in enumerate(string):
            if self.bits[lo + offset] == -1:
                self.bits[lo + offset] = 1 if ch == "1" else 0

    def unknown_indices(self):
        return [index for index, bit in enumerate(self.bits) if bit == -1]

    def known_subset(self, indices):
        return {index: self.bits[index] for index in indices
                if self.bits[index] != -1}

    def string(self, lo, hi):
        return "".join("1" if bit == 1 else "0" for bit in self.bits[lo:hi])


@st.composite
def scripts(draw):
    ell = draw(st.integers(min_value=1, max_value=48))
    index = st.integers(min_value=0, max_value=ell - 1)
    bit = st.integers(min_value=0, max_value=1)
    # Mostly legal bits; a bad one now and then must raise and leave
    # everything applied before it in place.
    loose_bit = st.one_of(bit, bit, bit, st.sampled_from([2, -1, 7]))

    @st.composite
    def segment(draw):
        lo = draw(index)
        # "x" and "é" pin the wire rule: anything but "1" reads as 0.
        string = draw(st.text(alphabet="0011xé", min_size=0,
                              max_size=ell - lo))
        return ("learn_string", lo, string)

    step = st.one_of(
        st.tuples(st.just("learn"), index, loose_bit),
        # A run cannot hold a bad bit: its constructor refuses it.
        st.tuples(st.just("learn_many"),
                  st.dictionaries(index, bit, max_size=ell)),
        segment(), segment(),
        st.tuples(st.just("known_subset"), st.lists(index, max_size=ell)),
        st.tuples(st.just("range"), index, index),
        st.tuples(st.just("finish")),
    )
    return ell, draw(st.lists(step, max_size=30))


def assert_agree(peer, model):
    ell = len(model.bits)
    unknown = model.unknown_indices()
    assert peer._unknown_count == len(unknown)
    assert peer.unknown_indices() == unknown
    assert peer.known_count() == ell - len(unknown)
    assert peer.all_known() == (not unknown)
    assert [peer.is_known(index) for index in range(ell)] == \
        [bit != -1 for bit in model.bits]
    assert peer.working_string() == model.string(0, ell)


@settings(**COMMON)
@given(script=scripts())
def test_bytearray_matches_list_model(script):
    ell, steps = script
    peer, model = make_peer(ell), ListModel(ell)
    for name, *args in steps:
        if name == "learn_many":
            model.learn_many(args[0])
            peer.learn_many(BitRun(sorted(args[0]), bytes(
                bit for _, bit in sorted(args[0].items()))))
        elif name in ("learn", "learn_string"):
            try:
                getattr(model, name)(*args)
            except ValueError:
                with pytest.raises(ValueError):
                    getattr(peer, name)(*args)
            else:
                getattr(peer, name)(*args)
        elif name == "known_subset":
            assert peer.known_subset(args[0]) == model.known_subset(args[0])
            assert peer.known_subset(iter(args[0])) == \
                model.known_subset(args[0])
        elif name == "range":
            lo, hi = sorted(args)
            assert peer.known_range(lo, hi) == \
                all(bit != -1 for bit in model.bits[lo:hi])
            assert peer.working_string(lo, hi) == model.string(lo, hi)
        elif model.unknown_indices():
            with pytest.raises(RuntimeError, match="unknown bits"):
                peer.finish_with_working()
            assert peer.output is None
        else:
            peer.finish_with_working()
            assert peer.output == BitArray.from_bits(model.bits)
        assert_agree(peer, model)


@pytest.mark.parametrize("lo, string", [(-1, "01"), (3, "01"), (4, "1")])
def test_segment_outside_the_array_is_refused(lo, string):
    peer = make_peer(4)
    with pytest.raises(IndexError):
        peer.learn_string(lo, string)
    assert peer.unknown_indices() == [0, 1, 2, 3]
    assert len(peer._array()) == 4


@pytest.mark.parametrize("call", [
    lambda peer: peer.learn(-2, 1),
    lambda peer: peer.learn(4, 1),
    lambda peer: peer.learn_many(BitRun((-1,), b"\x01")),
    lambda peer: peer.learn_many(BitRun((-4, 1), b"\x00\x01")),
    lambda peer: peer.learn_many(BitRun((4,), b"\x01")),
    lambda peer: peer.is_known(-1),
    lambda peer: peer.is_known(4),
    lambda peer: peer.known_subset([-1]),
    lambda peer: peer.known_subset([0, 4]),
    lambda peer: peer.known_subset(range(2, 6)),
], ids=["learn-2", "learn+4", "many-1", "many-mid-batch", "many+4",
        "is_known-1", "is_known+4", "subset-1", "subset+4", "subset-range"])
def test_index_outside_the_array_is_refused(call):
    """A negative index used to wrap to the array's far end."""
    peer = make_peer(4)
    peer.learn(1, 0)
    with pytest.raises(IndexError):
        call(peer)
    assert peer.unknown_indices() == [0, 2, 3]
    assert peer.working_string() == "0000"
