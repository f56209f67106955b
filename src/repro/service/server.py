"""The stdlib HTTP front door: asyncio streams, no dependencies.

``repro serve`` must run anywhere the engine runs, so the default
transport is a small hand-rolled HTTP/1.1 server on
``asyncio.start_server`` — the same event loop the
:class:`~repro.service.queue.JobQueue` schedules on, so there is no
cross-thread locking anywhere in the service.  It speaks exactly the
subset the API needs (GET/POST/DELETE, JSON bodies, SSE responses,
one request per connection) and is deliberately boring.

:func:`run_server` is the CLI entry point: build the store/queue/API,
bind, optionally write the bound port to a file (``--port-file`` — the
reliable way for scripts and CI to address a ``--port 0`` server),
and serve until cancelled.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro.service.api import EventStream, Response, ServiceAPI, format_sse
from repro.service.queue import JobQueue
from repro.service.store import JobStore

__all__ = ["ServiceServer", "run_server"]

#: Request safety limits (one misbehaving client must not OOM the box).
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {200: "OK", 201: "Created", 400: "Bad Request",
            404: "Not Found", 409: "Conflict", 413: "Payload Too Large",
            500: "Internal Server Error"}


class ServiceServer:
    """One bound server: a queue, its API, and an asyncio listener."""

    def __init__(self, queue: JobQueue, *, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.queue = queue
        self.api = ServiceAPI(queue)
        self.host = host
        self.port = port  # rewritten to the bound port by start()
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        """Start the queue's workers, then bind and listen."""
        await self.queue.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.queue.close()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # -- one connection = one request --------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, query, body = request
            try:
                result = self.api.handle(method, path, query, body)
            except Exception as exc:  # a handler bug must not kill the server
                result = Response.error(500, f"{type(exc).__name__}: {exc}")
            if isinstance(result, EventStream):
                await self._write_sse(writer, result)
            else:
                await self._write_response(writer, result)
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass  # the client went away; nothing to clean up but the socket
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        header_blob = await reader.readuntil(b"\r\n\r\n")
        if len(header_blob) > MAX_HEADER_BYTES:
            return None
        lines = header_blob.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            return None
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            return None
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        return method, split.path, parse_qs(split.query), body

    async def _write_response(self, writer: asyncio.StreamWriter,
                              response: Response) -> None:
        reason = _REASONS.get(response.status, "Unknown")
        head = (f"HTTP/1.1 {response.status} {reason}\r\n"
                f"Content-Type: {response.content_type}\r\n"
                f"Content-Length: {len(response.body)}\r\n"
                "Cache-Control: no-store\r\n"
                "Connection: close\r\n\r\n")
        writer.write(head.encode("latin-1") + response.body)
        await writer.drain()

    async def _write_sse(self, writer: asyncio.StreamWriter,
                         stream: EventStream) -> None:
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: text/event-stream\r\n"
                     b"Cache-Control: no-store\r\n"
                     b"Connection: close\r\n\r\n")
        await writer.drain()
        async for seq, entry in self.queue.stream(stream.job_id,
                                                  stream.after):
            writer.write(format_sse(seq, entry))
            await writer.drain()


async def run_server(data_dir, *, host: str = "127.0.0.1", port: int = 0,
                     pool: int = 2, pool_mode: str = "thread",
                     cache=True, port_file=None,
                     ready: Optional[asyncio.Event] = None,
                     log=print) -> None:
    """Build store + queue + server and serve until cancelled.

    ``port_file`` (if given) receives the bound port as text once the
    listener is up — write-then-read is how ``--port 0`` callers
    (doc snippets, CI, the bench) rendezvous with the server.
    ``ready`` (if given) is set at the same moment, for in-process
    callers (tests) that prefer an event to a file.
    """
    store = JobStore(data_dir)
    queue = JobQueue(store, pool=pool, pool_mode=pool_mode, cache=cache)
    server = ServiceServer(queue, host=host, port=port)
    await server.start()
    try:
        if port_file is not None:
            Path(port_file).write_text(f"{server.port}\n", encoding="utf-8")
        if ready is not None:
            ready.set()
        log(f"repro serve: listening on http://{server.host}:{server.port} "
            f"(pool={pool} mode={pool_mode}, data={store.root})")
        recovered = [job for job in queue.jobs() if not job.terminal]
        if recovered:
            log(f"repro serve: resumed {len(recovered)} unfinished "
                f"job(s) from the journal")
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.close()
