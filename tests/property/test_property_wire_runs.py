"""The run and message codecs of the net wire, and what a frame that
breaks them does.

A :class:`~repro.util.bitarrays.BitRun` must survive ``run_to_wire`` →
JSON → ``run_from_wire`` unchanged on either index backing.  A
malformed run must end as a :class:`~repro.net.wire.WireError` at the
two places frames are parsed — never as a ``KeyError``/``ValueError``
escaping the inbox's connection protocol or :meth:`NetPeer._ask`.  The
inbox refuses that one frame and serves the next on the same
connection, and since the client retries on ``WireError``, a corrupt
answer followed by a good replay still charges its query once.
"""

import asyncio
import json
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.execution import RetryPolicy
from repro.net.client import NetClient
from repro.net.peers import NetPeer
from repro.net.server import PeerInbox, SourceServer, _Answering
from repro.net.wire import (FrameDecoder, WireError, _loaded, decode_body,
                            encode_frame, indices_from_wire, indices_to_wire,
                            message_from_wire, message_to_wire,
                            run_from_wire, run_to_wire)
from repro.protocols import NaiveDownloadPeer, ShareMessage
from repro.protocols.byz_committee import CommitteeReport
from repro.protocols.byz_cycles import SegmentReport
from repro.protocols.crash_multi import (DataRequest, DataResponse,
                                         FullArray, MissingRequest,
                                         MissingResponse)
from repro.protocols.crash_one import FullBits, Probe, ProbeReply, ShareValues
from repro.protocols.one_round import OneRoundShare
from repro.sim.messages import Message
from repro.util.bitarrays import BitArray, BitRun
from tests.property.test_property_bit_runs import runs

COMMON = dict(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])

ELL = 8

#: One entry per way a run can be malformed on the wire.
MALFORMED = {
    "bits-shorter-than-indices": {"range": [0, 4, 1], "bits": "010"},
    "bits-longer-than-indices": {"at": [2, 5], "bits": "010"},
    "at-descending": {"at": [5, 3], "bits": "01"},
    "at-repeated": {"at": [3, 3], "bits": "01"},
    "step-zero": {"range": [0, 4, 0], "bits": ""},
    "step-negative": {"range": [4, 0, -1], "bits": "0101"},
    "character-outside-01": {"at": [1, 2], "bits": "0x"},
    "non-ascii-character": {"at": [1, 2], "bits": "0é"},
    "float-index": {"at": [1, 2.5], "bits": "01"},
    "string-index": {"at": [1, "2"], "bits": "01"},
    "bool-index": {"at": [0, True], "bits": "01"},
    "float-range-field": {"range": [0, 2.0, 1], "bits": "01"},
    "short-range": {"range": [0, 2], "bits": "01"},
    "bits-not-a-string": {"at": [1, 2], "bits": [0, 1]},
    "no-bits": {"at": [1, 2]},
    "no-indices": {"bits": "01"},
    "entry-per-bit-dict": {"1": 0, "2": 1},
    "not-an-object": [1, 2],
    "null": None,
}
malformed = pytest.mark.parametrize(
    "wire", list(MALFORMED.values()), ids=list(MALFORMED))


def through_json(wire):
    """What the far side parses: the wire form after a real frame."""
    return decode_body(encode_frame({"values": wire})[4:])["values"]


# -- (a) the codec ------------------------------------------------------------

@settings(**COMMON)
@given(run=runs())
def test_a_run_survives_the_wire(run):
    back = run_from_wire(through_json(run_to_wire(run)))
    assert type(back) is BitRun and back == run
    assert type(back.indices) is type(run.indices)
    assert back.indices == run.indices and back.bits == run.bits
    assert indices_from_wire(
        through_json(indices_to_wire(run.indices))) == run.indices


@pytest.mark.parametrize("run, wire", [
    (BitRun(range(3, 12, 4), b"\x01\x00\x01"),
     {"range": [3, 12, 4], "bits": "101"}),
    (BitRun((1, 5, 6), b"\x00\x01\x01"), {"at": [1, 5, 6], "bits": "011"}),
    (BitRun((7,), b"\x01"), {"at": [7], "bits": "1"}),
    (BitRun((), b""), {"at": [], "bits": ""}),
    (BitRun(range(0), b""), {"range": [0, 0, 1], "bits": ""}),
], ids=["range", "tuple", "single-index", "empty", "empty-range"])
def test_the_two_shapes_of_a_run(run, wire):
    assert run_to_wire(run) == wire
    assert run_from_wire(json.loads(json.dumps(wire))) == run
    assert "bits" not in indices_to_wire(run.indices)


@malformed
def test_a_malformed_run_is_a_wire_error(wire):
    with pytest.raises(WireError):
        run_from_wire(wire)


# -- (b) messages -------------------------------------------------------------

def every_message(run, text, number):
    """One message of every class the registry's bodies send, built
    around the drawn ``run``, bit string ``text`` and int ``number``."""
    return [
        ShareMessage(sender=number, values=run),
        OneRoundShare(sender=0, values=run),
        ShareValues(sender=1, phase=number, values=run),
        Probe(sender=1, phase=2, missing=None),
        Probe(sender=1, phase=2, missing=number),
        ProbeReply(sender=2, phase=1, about=number, values=run),
        ProbeReply(sender=2, phase=1, about=None, values=None),
        FullBits(sender=3, bits=text),
        # Index fields as crash-multi builds them: a range (a whole
        # residue class) or a tuple.
        DataRequest(sender=0, phase=number, indices=run.indices),
        DataRequest(sender=0, phase=number, indices=tuple(run.indices)),
        DataResponse(sender=1, phase=3, values=run, complete=number > 2),
        MissingRequest(sender=1, phase=2,
                       needs={number: run.indices, 7: (),
                              8: tuple(run.indices), 9: range(1, 8, 3)}),
        MissingResponse(sender=1, phase=2, found={number: run, 7: None}),
        FullArray(sender=2, bits=text),
        CommitteeReport(sender=4, block=number, string=text),
        SegmentReport(sender=4, segment=number, string=text),
    ]


@given(run=runs(), text=st.text("01"), number=st.integers(0, 2 ** 40))
@settings(**COMMON)
def test_every_protocol_message_survives_the_wire(run, text, number):
    for message in every_message(run, text, number):
        wire = message_to_wire(message)
        parsed = message_from_wire(json.loads(json.dumps(wire)))
        assert type(parsed) is type(message) and parsed == message
        assert message_to_wire(parsed) == wire


def test_the_battery_covers_every_protocol_message():
    sent = {type(message)
            for message in every_message(BitRun((), b""), "", 0)}
    defined = {cls for cls in _loaded(Message)
               if cls.__module__.startswith("repro.protocols.")}
    assert sent == defined


SHARE = message_to_wire(ShareMessage(sender=1, values=BitRun((2,), b"\1")))
MALFORMED_MESSAGES = {
    "unknown-kind": {**SHARE, "kind": "repro.protocols.balanced.Nope"},
    "source-answer": {**SHARE, "kind": "repro.sim.messages.SourceResponse",
                      "fields": {"sender": -1, "request_id": 0,
                                 "values": None}},
    "missing-field": {**SHARE, "fields": {"sender": 1}},
    "extra-field": {**SHARE, "fields": {**SHARE["fields"], "phase": 1}},
    "float-value": {**SHARE, "fields": {**SHARE["fields"], "sender": 1.0}},
    "untagged-object": {**SHARE, "fields": {"sender": 1, "values": {}}},
    "bad-run": {**SHARE, "fields": {"sender": 1,
                                    "values": {"run": {"at": [2, 1]}}}},
    "zero-step-range": {**SHARE, "fields": {
        "sender": 1, "values": {"range": [0, 4, 0]}}},
    "float-range": {**SHARE, "fields": {
        "sender": 1, "values": {"range": [0, 4.0, 1]}}},
    "string-key": {**SHARE, "fields": {"sender": 1,
                                       "values": {"map": [["1", 0]]}}},
    "not-a-pair": {**SHARE, "fields": {"sender": 1,
                                       "values": {"map": [[1]]}}},
    "fields-not-an-object": {**SHARE, "fields": [1]},
    "no-kind": {"fields": SHARE["fields"]},
    "not-an-object": [SHARE],
}


@pytest.mark.parametrize("wire", list(MALFORMED_MESSAGES.values()),
                         ids=list(MALFORMED_MESSAGES))
def test_a_malformed_message_is_a_wire_error(wire):
    with pytest.raises(WireError):
        message_from_wire(wire)


@pytest.mark.parametrize("value", [1.5, {1, 2}, [1], {"1": 0}, b"01",
                                   range(4, 0, -1)],
                         ids=["float", "set", "list", "str-keyed", "bytes",
                              "descending-range"])
def test_a_field_with_no_wire_form_fails_at_the_sender(value):
    with pytest.raises(WireError, match="no wire form"):
        message_to_wire(Probe(sender=0, phase=1, missing=value))


# -- the inbox ------------------------------------------------------------------

class Sink:
    """The transport of a connection, kept in memory."""

    def __init__(self):
        self.written = b""
        self.closed = False

    def write(self, data):
        self.written += data

    def is_closing(self):
        return self.closed

    def close(self):
        self.closed = True


def feed_inbox(*frames):
    """Run one inbox connection over ``frames``, delivered in one read;
    returns the inbox, its transport and the acks it wrote."""
    inbox, sink = PeerInbox(0), Sink()
    connection = _Answering(inbox)
    connection.connection_made(sink)
    # raises what escapes the protocol
    connection.data_received(b"".join(map(encode_frame, frames)))
    connection.eof_received()
    acks = [decode_body(body) for body in FrameDecoder().feed(sink.written)]
    return inbox, sink, acks


async def frames(reader):
    """The frames a stream carries, cut by the decoder."""
    decoder = FrameDecoder()
    while data := await reader.read(1 << 16):
        for body in decoder.feed(data):
            yield decode_body(body)
    decoder.eof()


def share(rid, src, values):
    """A ``msg`` frame of peer ``src``'s share whose run's wire form is
    ``values``."""
    message = message_to_wire(ShareMessage(sender=src,
                                           values=BitRun((), b"")))
    message["fields"]["values"] = {"run": values}
    return {"type": "msg", "rid": rid, "src": src, "mid": 0, "dst": None,
            "message": message, "attempt": 1}


@malformed
def test_the_inbox_drops_the_connection_on_a_malformed_share(wire):
    # The name predates the refusal: the inbox now drops only the
    # malformed share, and serves the one behind it.
    good = BitRun(range(0, ELL, 2), b"\x01\x00\x01\x01")
    inbox, sink, acks = feed_inbox(
        share("a", 1, run_to_wire(good)), share("b", 2, wire),
        share("c", 3, run_to_wire(good)))
    # The good shares are stored as the runs they parsed and acked; the
    # malformed one is refused and not stored.
    assert list(inbox.messages) == [(1, 0, None), (3, 0, None)]
    for message in inbox.messages.values():
        assert type(message.values) is BitRun
        assert message.values == good
    assert [(ack["type"], ack["rid"]) for ack in acks] == [
        ("ack", "a"), ("refused", "b"), ("ack", "c")]
    assert not sink.closed


# -- the asking side ------------------------------------------------------------

FAST_RETRY = RetryPolicy(max_attempts=4, base_delay=0.01, backoff=1.0,
                         max_delay=0.01, jitter=0.0)


async def corrupting_route(listen_path, upstream_path, values):
    """A forwarder that replaces the ``values`` of the first ``bits``
    frame coming back with ``values`` and passes everything else."""
    state = {"corrupted": 0}

    async def handle(reader, writer):
        up_reader, up_writer = await asyncio.open_unix_connection(
            upstream_path)
        answers = frames(up_reader)
        try:
            async for frame in frames(reader):
                up_writer.write(encode_frame(frame))
                await up_writer.drain()
                answer = await anext(answers)
                if not state["corrupted"]:
                    answer = dict(answer, values=values)
                    state["corrupted"] += 1
                writer.write(encode_frame(answer))
                await writer.drain()
        except (ConnectionError, WireError):
            pass
        finally:
            up_writer.close()
            writer.close()

    server = await asyncio.start_unix_server(handle, path=listen_path)
    return server, state


def download_through(values):
    """One naive peer downloads ``ELL`` bits from a real source server
    whose first answer arrives with ``values`` in place of its run."""
    async def go():
        data = BitArray.from_string("10110010")
        source = SourceServer(data)
        with tempfile.TemporaryDirectory() as sockets:
            await source.start(f"{sockets}/src.sock")
            route, state = await corrupting_route(
                f"{sockets}/route.sock", f"{sockets}/src.sock", values)
            peer = NetPeer(
                0, NaiveDownloadPeer, {}, n=1, ell=ELL, sources=1,
                client_factory=lambda path, proc: NetClient(
                    path, proc=proc, retry=FAST_RETRY, timeout=1.0),
                source_path=f"{sockets}/route.sock")
            try:
                output = await asyncio.wait_for(peer.run(), timeout=20)
            finally:
                peer.close()
                route.close()
                await route.wait_closed()
                await source.close()
        return data, source, peer, output, state
    return asyncio.run(go())


WRONG_INDICES = {
    "another-range": run_to_wire(BitRun(range(4), bytes(4))),
    "same-positions-as-a-tuple-with-a-gap": run_to_wire(
        BitRun((0, 1, 2, 3, 4, 5, 7), bytes(7))),
    "withheld": run_to_wire(BitRun((), b"")),
}


@pytest.mark.parametrize(
    "wire", list(MALFORMED.values()) + list(WRONG_INDICES.values()),
    ids=list(MALFORMED) + list(WRONG_INDICES))
def test_a_corrupt_answer_then_a_good_retry_charges_the_query_once(wire):
    data, source, peer, output, state = download_through(wire)
    assert state["corrupted"] == 1
    assert output == data
    assert peer.retries == 1
    assert source.query_bits == {0: ELL}
    assert source.requests_served == 1
