"""The run codec of the net wire, and what a frame that breaks it does.

A :class:`~repro.util.bitarrays.BitRun` must survive ``run_to_wire`` →
JSON → ``run_from_wire`` unchanged on either index backing.  A
malformed run must end as a :class:`~repro.net.wire.WireError` at the
two places frames are parsed — never as a ``KeyError``/``ValueError``
escaping :meth:`PeerInbox._handle` or :meth:`NetPeer._ask` — and since
the client retries on ``WireError``, a corrupt answer followed by a
good replay still charges its query once.
"""

import asyncio
import json
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings

from repro.execution import RetryPolicy
from repro.net.client import NetClient
from repro.net.peers import NetPeer
from repro.net.server import PeerInbox, SourceServer
from repro.net.wire import (WireError, decode_body, encode_frame,
                            indices_from_wire, indices_to_wire, read_frame,
                            run_from_wire, run_to_wire)
from repro.protocols import NaiveDownloadPeer
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


# -- the inbox ------------------------------------------------------------------

class Sink:
    """The writer half of a connection, kept in memory."""

    def __init__(self):
        self.written = b""
        self.closed = False

    def write(self, data):
        self.written += data

    async def drain(self):
        pass

    def close(self):
        self.closed = True


def feed_inbox(*frames):
    """Run one inbox connection over ``frames``; returns the inbox and
    the acks it wrote."""
    async def go():
        inbox = PeerInbox(0)
        reader, sink = asyncio.StreamReader(), Sink()
        for frame in frames:
            reader.feed_data(encode_frame(frame))
        reader.feed_eof()
        await inbox._handle(reader, sink)  # raises what escapes it
        replies = asyncio.StreamReader()
        replies.feed_data(sink.written)
        replies.feed_eof()
        acks = []
        while (ack := await read_frame(replies)) is not None:
            acks.append(ack)
        return inbox, sink, acks
    return asyncio.run(go())


def share(rid, src, values):
    return {"type": "share", "rid": rid, "src": src, "mid": 0,
            "values": values, "attempt": 1}


@malformed
def test_the_inbox_drops_the_connection_on_a_malformed_share(wire):
    good = BitRun(range(0, ELL, 2), b"\x01\x00\x01\x01")
    inbox, sink, acks = feed_inbox(
        share("a", 1, run_to_wire(good)), share("b", 2, wire),
        share("c", 3, run_to_wire(good)))
    # The first share is stored as the run it parsed and acked; the
    # malformed one ends the connection unacked and unstored.
    assert list(inbox.shares) == [(1, 0)]
    assert type(inbox.shares[1, 0]) is BitRun and inbox.shares[1, 0] == good
    assert [ack["rid"] for ack in acks] == ["a"]
    assert sink.closed


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
        try:
            while (frame := await read_frame(reader)) is not None:
                up_writer.write(encode_frame(frame))
                await up_writer.drain()
                answer = await read_frame(up_reader)
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
