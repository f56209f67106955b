"""Length-prefixed JSON framing for the net backend.

One frame = a 4-byte big-endian body length followed by the body: the
canonical JSON encoding (sorted keys, compact separators) of one flat
dict, so "the same payload" is always the same bytes — the chaos proxy
decides each frame's fate from their content hash (:func:`frame_digest`).

Reading is sans-IO: :class:`FrameDecoder` cuts whatever bytes arrive
into bodies for :class:`FrameProtocol`, the asyncio connection every
endpoint is.  An oversized prefix, a torn tail at EOF or a non-JSON
body is a :class:`WireError`, which closes that connection.

Bits travel as runs (:class:`~repro.util.bitarrays.BitRun`), never as
one JSON entry per bit.  A run is ``{"range": [start, stop, step],
"bits": "0101…"}`` for an arithmetic progression of indices and
``{"at": [i, …], "bits": "…"}`` for any other ascending ones; the
indices of a query are the same object without ``bits``
(:func:`indices_to_wire` / :func:`run_to_wire` and their ``from_wire``
inverses, which raise :class:`WireError` for anything malformed).  A
protocol message is ``{"kind": <class>, "fields": {…}}``
(:func:`message_to_wire` / :func:`message_from_wire`); a ``range``
field travels as ``{"range": [start, stop, step]}``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import struct
import time
from dataclasses import fields
from operator import lt
from typing import Union

from repro.sim.messages import Message, SourceResponse
from repro.util.bitarrays import BIT_TO_CHAR, CHAR_TO_BIT, BitRun

#: Upper bound on one frame's body, far above any legal payload; a
#: larger prefix means a corrupt or hostile stream, not a big request.
MAX_FRAME = 8 * 1024 * 1024

_PREFIX = struct.Struct(">I")

#: How long a dial keeps retrying a listener that refuses it (one not
#: listening yet) before the error reaches the caller.
_DIAL_WAIT = 5.0


class WireError(Exception):
    """A malformed frame: torn, oversized, not JSON, or ill-formed."""


def indices_to_wire(indices: Union[range, tuple, list]) -> dict:
    """Wire form of a positive-step ``range`` or of ascending indices."""
    if type(indices) is range:
        return {"range": [indices.start, indices.stop, indices.step]}
    return {"at": list(indices)}


def run_to_wire(run: BitRun) -> dict:
    """Wire form of a run: its indices beside its bits as a string."""
    return {**indices_to_wire(run.indices),
            "bits": run.bits.translate(BIT_TO_CHAR).decode("ascii")}


def indices_from_wire(wire: dict) -> Union[range, tuple]:
    """Parse :func:`indices_to_wire`'s form: a ``range`` with step >= 1
    or a strictly ascending tuple, of ``int`` only."""
    try:
        if "range" in wire:
            start, stop, step = fields = wire["range"]
            indices, ascending = range(start, stop, step), step >= 1
        else:
            fields = indices = tuple(wire["at"])
            ascending = all(map(lt, indices, indices[1:]))
        if not ascending or set(map(type, fields)) - {int}:
            raise ValueError("indices must be ascending ints")
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"malformed indices {wire!r:.80}: {exc}") from exc
    return indices


def run_from_wire(wire: dict) -> BitRun:
    """Parse :func:`run_to_wire`'s form; one 0/1 character per index."""
    indices = indices_from_wire(wire)
    try:
        text = wire["bits"].encode("ascii")
        if text.translate(None, b"01"):
            raise ValueError("bits outside the 0/1 alphabet")
        return BitRun(indices, text.translate(CHAR_TO_BIT))
    except (AttributeError, KeyError, ValueError) as exc:
        raise WireError(f"malformed run: {exc}") from exc


def _value_to_wire(value):
    if type(value) is BitRun:
        return {"run": run_to_wire(value)}
    if type(value) is range and value.step > 0:
        return indices_to_wire(value)
    if type(value) is tuple:
        return [_value_to_wire(item) for item in value]
    if type(value) is dict and set(map(type, value)) <= {int}:
        return {"map": [[key, _value_to_wire(item)]
                        for key, item in value.items()]}
    if value is None or type(value) in (bool, int, str):
        return value
    raise WireError(f"no wire form for a {type(value).__name__}")


def _value_from_wire(wire):
    if wire is None or type(wire) in (bool, int, str):
        return wire
    if type(wire) is list:
        return tuple(map(_value_from_wire, wire))
    if type(wire) is dict and list(wire) == ["run"]:
        return run_from_wire(wire["run"])
    if type(wire) is dict and list(wire) == ["range"]:
        return indices_from_wire(wire)
    if type(wire) is dict and list(wire) == ["map"]:
        items = {key: _value_from_wire(item) for key, item in wire["map"]}
        if set(map(type, items)) <= {int}:
            return items
    raise WireError(f"malformed message value {wire!r:.80}")


def _kind(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def _loaded(cls: type) -> list[type]:
    return [cls, *(sub for child in cls.__subclasses__()
                   for sub in _loaded(child))]


def message_to_wire(message: Message) -> dict:
    """Wire form of a protocol message: its class's name beside each
    dataclass field, in the shapes ``bits_for`` sizes — ``None``,
    ``bool``, ``int`` and ``str`` as themselves, a tuple as a list, a
    positive-step range as ``{"range": [start, stop, step]}``, a run as
    ``{"run": …}``, an int-keyed dict as ``{"map": [[k, v], …]}``."""
    return {"kind": _kind(type(message)),
            "fields": {field.name: _value_to_wire(getattr(message,
                                                          field.name))
                       for field in fields(message)}}


def message_from_wire(wire: dict) -> Message:
    """Parse :func:`message_to_wire`'s form into an instance of a
    :class:`Message` subclass already loaded (a source answer is no peer
    message); it imports nothing."""
    try:
        cls = {_kind(cls): cls for cls in _loaded(Message)
               if cls is not SourceResponse}[wire["kind"]]
        return cls(**{name: _value_from_wire(value)  # fields, or TypeError
                      for name, value in wire["fields"].items()})
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise WireError(f"malformed message: {exc}") from exc


def encode_frame(payload: dict) -> bytes:
    """Serialize one payload to its unique on-wire byte string."""
    body = json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise WireError(f"frame body of {len(body)} bytes exceeds the "
                        f"{MAX_FRAME}-byte limit")
    return _PREFIX.pack(len(body)) + body


def decode_body(body: bytes) -> dict:
    """Parse a frame body back into its payload dict."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"frame body is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise WireError(f"frame body must be a JSON object, "
                        f"got {type(payload).__name__}")
    return payload


def frame_digest(body: bytes) -> str:
    """Content hash the chaos proxy keys its per-frame decisions on."""
    return hashlib.sha256(body).hexdigest()


class FrameDecoder:
    """Cuts a byte stream into frame bodies, however it is chunked."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        """The bodies ``data`` completes, in order.  An oversized prefix
        fails once it has arrived and the bodies before it are out."""
        buffer = self._buffer
        buffer += data
        bodies, start, size = [], 0, len(buffer)
        while size - start >= _PREFIX.size:
            (length,) = _PREFIX.unpack_from(buffer, start)
            if length > MAX_FRAME:
                if bodies:
                    break  # kept in the buffer: the next call fails
                raise WireError(f"frame prefix announces {length} bytes "
                                f"(limit {MAX_FRAME})")
            end = start + _PREFIX.size + length
            if end > size:
                break
            bodies.append(bytes(buffer[start + _PREFIX.size:end]))
            start = end
        del buffer[:start]
        return bodies

    def eof(self) -> None:
        """The stream ended; a WireError unless on a frame boundary."""
        if self._buffer:
            raise WireError(f"stream closed {len(self._buffer)} bytes "
                            f"into a frame")


class FrameProtocol(asyncio.Protocol):
    """One connection that hands each whole frame body to a subclass's
    ``frame_received``.  A :class:`WireError` — from the framing, or
    raised by ``frame_received`` — closes the connection and is kept in
    ``error`` as a new one of the same text (the traceback and cause of
    the raised one would hold this connection in a reference cycle); a
    closed connection reads no further frame."""

    transport = None
    error = None

    def connection_made(self, transport) -> None:
        self.transport = transport
        self._decoder = FrameDecoder()

    def data_received(self, data: bytes) -> None:
        try:
            for body in self._decoder.feed(data):
                if self.transport.is_closing():
                    return
                self.frame_received(body)
        except WireError as exc:
            self.error = WireError(str(exc))
            self.transport.close()

    def connection_lost(self, exc) -> None:
        """Free the closed transport.  CPython's selector transport
        keeps its read callback, a bound method of itself, after it
        closes (3.11 to 3.13 do): a reference cycle that holds the
        transport and its closed socket until the cyclic collector
        runs.  Every subclass calls this from its own
        ``connection_lost``."""
        if getattr(self.transport, "_read_ready_cb", None) is not None:
            self.transport._read_ready_cb = None

    def eof_received(self) -> None:
        try:
            self._decoder.eof()
        except WireError as exc:
            self.error = WireError(str(exc))  # returning None closes it

    def send(self, data: bytes) -> None:
        """Write ``data`` unless closed: a held frame dies with us."""
        if not self.transport.is_closing():
            self.transport.write(data)


async def dial(path: str, protocol_factory):
    """Connect to the Unix socket ``path``, waiting for its listener to
    exist; returns ``(transport, protocol)``."""
    deadline = time.monotonic() + _DIAL_WAIT
    while True:
        try:
            return await asyncio.get_running_loop().create_unix_connection(
                protocol_factory, path)
        except OSError:
            if time.monotonic() >= deadline:
                raise
            await asyncio.sleep(0.02)
