"""Length-prefixed JSON framing for the net backend.

One frame = a 4-byte big-endian body length followed by the body: the
canonical JSON encoding (sorted keys, compact separators) of one flat
dict.  Canonical encoding matters beyond tidiness — the chaos proxy
decides each frame's fate from a content hash of the body bytes
(:func:`frame_digest`), so "the same payload" must always serialize to
the same bytes, whatever dict insertion order produced it.

Reading distinguishes the two ways a stream can end: EOF exactly on a
frame boundary is a clean close (``None``), EOF mid-frame — or an
oversized or non-JSON body — is a :class:`WireError` (the client
treats both like a connection failure and retries).

Bits travel as runs (:class:`~repro.util.bitarrays.BitRun`), never as
one JSON entry per bit.  A run is ``{"range": [start, stop, step],
"bits": "0101…"}`` for an arithmetic progression of indices and
``{"at": [i, …], "bits": "…"}`` for any other ascending ones; the
indices of a query are the same object without ``bits``
(:func:`indices_to_wire` / :func:`run_to_wire` and their ``from_wire``
inverses, which raise :class:`WireError` for anything malformed).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import struct
from operator import lt
from typing import Optional, Union

from repro.util.bitarrays import BIT_TO_CHAR, CHAR_TO_BIT, BitRun

#: Upper bound on one frame's body, far above any legal payload; a
#: larger prefix means a corrupt or hostile stream, not a big request.
MAX_FRAME = 8 * 1024 * 1024

_PREFIX = struct.Struct(">I")


class WireError(Exception):
    """A malformed frame: truncated, oversized, not canonical JSON, or
    carrying a malformed run."""


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


async def read_raw_frame(reader: asyncio.StreamReader) -> Optional[bytes]:
    """Read one frame; returns the *body* bytes, or ``None`` on a
    clean EOF at a frame boundary."""
    try:
        prefix = await reader.readexactly(_PREFIX.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between frames
        raise WireError("stream closed inside a frame prefix") from exc
    (length,) = _PREFIX.unpack(prefix)
    if length > MAX_FRAME:
        raise WireError(f"frame prefix announces {length} bytes "
                        f"(limit {MAX_FRAME})")
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise WireError(f"stream closed {length - len(exc.partial)} "
                        f"bytes short of a frame body") from exc


async def read_frame(reader: asyncio.StreamReader) -> Optional[dict]:
    """Read and parse one frame (``None`` on clean EOF)."""
    body = await read_raw_frame(reader)
    if body is None:
        return None
    return decode_body(body)
