"""The sans-IO framer: frames cut the same however the bytes arrive.

A socket hands :class:`~repro.net.wire.FrameDecoder` a stream in
arbitrary pieces.  Whatever the pieces, the bodies come out whole, in
order, and equal to what was encoded; a stream that ends inside a frame
is a :class:`~repro.net.wire.WireError` at ``eof()``; and a prefix
announcing more than ``MAX_FRAME`` bytes fails once its fourth byte has
arrived and the bodies before it are out, before any body byte is
taken.  :class:`~repro.net.wire.FrameProtocol` — what every client,
server and proxy connection is — inherits all of it and stops reading
once its connection closes.
"""

import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net.wire import (MAX_FRAME, FrameDecoder, FrameProtocol,
                            WireError, decode_body, encode_frame)

COMMON = dict(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])

#: Flat payloads like the wire's: ids, ints, bit strings, nested runs.
payloads = st.dictionaries(
    st.sampled_from(["type", "rid", "peer", "src", "values", "resend"]),
    st.one_of(st.integers(-2**40, 2**40), st.text(max_size=40),
              st.lists(st.integers(0, 1 << 20), max_size=8),
              st.fixed_dictionaries({"bits": st.text("01", max_size=64)})),
    max_size=6)


@st.composite
def chunked(draw, stream):
    """``stream`` cut at arbitrary points (empty pieces included)."""
    cuts = sorted(draw(st.lists(st.integers(0, len(stream)), max_size=12)))
    bounds = [0, *cuts, len(stream)]
    return [stream[a:b] for a, b in zip(bounds, bounds[1:])]


def bodies_of(pieces):
    decoder = FrameDecoder()
    bodies = [body for piece in pieces for body in decoder.feed(piece)]
    decoder.eof()
    return bodies


@settings(**COMMON)
@given(frames=st.lists(payloads, max_size=6), data=st.data())
def test_any_split_yields_the_same_bodies_in_order(frames, data):
    encoded = [encode_frame(frame) for frame in frames]
    pieces = data.draw(chunked(b"".join(encoded)))
    bodies = bodies_of(pieces)
    assert bodies == [frame[4:] for frame in encoded]
    assert [decode_body(body) for body in bodies] == frames


@settings(**COMMON)
@given(frames=st.lists(payloads, min_size=1, max_size=4), data=st.data())
def test_a_torn_tail_is_a_wire_error_at_eof(frames, data):
    stream = b"".join(encode_frame(frame) for frame in frames)
    boundaries = {0}
    for frame in frames:
        boundaries.add(max(boundaries) + len(encode_frame(frame)))
    cut = data.draw(st.integers(1, len(stream) - 1).filter(
        lambda at: at not in boundaries))
    decoder = FrameDecoder()
    for piece in data.draw(chunked(stream[:cut])):
        decoder.feed(piece)
    with pytest.raises(WireError, match="into a frame"):
        decoder.eof()


@settings(**COMMON)
@given(frames=st.lists(payloads, max_size=3),
       length=st.integers(MAX_FRAME + 1, 2**32 - 1))
def test_an_oversized_prefix_fails_before_any_body_byte(frames, length):
    decoder = FrameDecoder()
    stream = b"".join(map(encode_frame, frames))
    assert len(decoder.feed(stream)) == len(frames)
    prefix = struct.pack(">I", length)
    for byte in prefix[:-1]:
        assert decoder.feed(bytes([byte])) == []
    with pytest.raises(WireError, match="announces"):
        decoder.feed(prefix[-1:])


@settings(**COMMON)
@given(frames=st.lists(payloads, max_size=3),
       length=st.integers(MAX_FRAME + 1, 2**32 - 1),
       garbage=st.binary(max_size=8), data=st.data())
def test_the_bodies_before_an_oversized_prefix_still_come_out(
        frames, length, garbage, data):
    encoded = [encode_frame(frame) for frame in frames]
    stream = b"".join(encoded) + struct.pack(">I", length) + garbage
    decoder, bodies = FrameDecoder(), []
    with pytest.raises(WireError):
        for piece in data.draw(chunked(stream)):
            bodies += decoder.feed(piece)
        decoder.eof()
    assert bodies == [frame[4:] for frame in encoded]


def test_a_maximal_frame_is_still_a_frame():
    body = b"x" * MAX_FRAME
    decoder = FrameDecoder()
    assert decoder.feed(struct.pack(">I", MAX_FRAME) + body[:-1]) == []
    assert decoder.feed(body[-1:]) == [body]


# -- the protocol over the decoder --------------------------------------------

class Transport:
    def __init__(self):
        self.closed = False
        self.written = b""

    def is_closing(self):
        return self.closed

    def close(self):
        self.closed = True

    def write(self, data):
        self.written += data


class Recorder(FrameProtocol):
    """Keeps every body; a body of ``b"{}"`` closes the connection, as
    a proxy ``disconnect`` decision does."""

    def __init__(self):
        self.bodies = []

    def frame_received(self, body):
        self.bodies.append(body)
        if body == b"{}":
            self.transport.close()


@settings(**COMMON)
@given(frames=st.lists(payloads, max_size=6), data=st.data())
def test_the_protocol_reads_until_its_connection_closes(frames, data):
    encoded = [encode_frame(frame) for frame in frames]
    protocol, transport = Recorder(), Transport()
    protocol.connection_made(transport)
    for piece in data.draw(chunked(b"".join(encoded))):
        protocol.data_received(piece)
    want = [frame[4:] for frame in encoded]
    if b"{}" in want:
        want = want[:want.index(b"{}") + 1]
    assert protocol.bodies == want
    assert protocol.error is None


@pytest.mark.parametrize("tail, error", [
    (b"", None),
    (encode_frame({"x": 1})[:-1], "into a frame"),
    (struct.pack(">I", MAX_FRAME + 1), "into a frame"),
], ids=["clean-eof", "torn-tail", "oversized"])
def test_the_protocol_keeps_the_wire_error_that_ended_it(tail, error):
    protocol, transport = Recorder(), Transport()
    protocol.connection_made(transport)
    protocol.data_received(encode_frame({"rid": "a"}) + tail)
    assert protocol.bodies == [b'{"rid":"a"}'] and protocol.error is None
    protocol.eof_received()
    if error is None:
        assert protocol.error is None
    else:
        assert isinstance(protocol.error, WireError)
        assert error in str(protocol.error)


def test_the_protocol_closes_on_an_oversized_prefix():
    protocol, transport = Recorder(), Transport()
    protocol.connection_made(transport)
    protocol.data_received(struct.pack(">I", MAX_FRAME + 1))
    assert transport.closed and "announces" in str(protocol.error)
    assert protocol.bodies == []
