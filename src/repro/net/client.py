"""The net backend's request/response client with timeouts and retries.

One :class:`NetClient` owns one connection to one address (a proxy
listener) and serializes requests over it; a peer holds one client per
endpoint.  A request is written with an ``attempt`` number; its answer
is a future the connection resolves on the frame echoing its ``rid``
(a late duplicate of an earlier answer is discarded), awaited under a
per-request timeout.  On timeout, EOF, a connection error or a
server's ``refused`` answer the client closes the connection, sleeps
the :class:`~repro.execution.RetryPolicy` backoff (deterministic jitter
from its task seed) and tries again; a request out of attempts raises
:class:`NetRequestError`, which fails the run (and the engine records a
``failed_runs`` entry).

The ``rid`` never changes across attempts, so the server charges it
once; the ``attempt`` does, so the proxy rolls each retry afresh.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Optional

from repro.execution.retry import RetryPolicy
from repro.obs.telemetry import counter, event

from repro.net.wire import (FrameProtocol, WireError, decode_body, dial,
                            encode_frame)

#: Default per-request policy: a handful of attempts with sub-second
#: backoff — enough to ride out seeded drops without stretching tests.
DEFAULT_NET_RETRY = RetryPolicy(max_attempts=5, base_delay=0.05,
                                backoff=2.0, max_delay=0.5, jitter=0.5)


class NetRequestError(Exception):
    """A request exhausted every attempt of its retry policy."""


class NetClient:
    """One serialized request/response connection, with retries."""

    def __init__(self, path: str, *, proc: str,
                 retry: Optional[RetryPolicy] = None,
                 timeout: float = 2.0,
                 task_seed: int = 0,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.path = path
        self.proc = proc
        self.retry = retry if retry is not None else DEFAULT_NET_RETRY
        self.timeout = timeout
        self.task_seed = task_seed
        self.clock = clock if clock is not None else time.monotonic
        self.retries = 0  #: retry attempts consumed (attempts beyond 1)
        #: One request at a time: a connection resolves one ``rid``, so
        #: two requests sharing it would starve each other into retries.
        self._busy = asyncio.Lock()
        self._conn: Optional[_Connection] = None

    async def _connect(self, attempt: int) -> None:
        _, self._conn = await dial(self.path, _Connection)
        event("net_connect", t=self.clock(), proc=self.proc,
              addr=self.path, attempt=attempt)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.transport.close()
        self._conn = None

    async def request(self, payload: dict,
                      parse: Optional[Callable[[dict], object]] = None):
        """Send ``payload`` and await the response with a matching
        ``rid``, retrying per the policy; returns the response, or
        ``parse(response)`` — a ``parse`` that raises
        :class:`WireError` makes the answer one more failed attempt.
        Raises :class:`NetRequestError` after the final attempt."""
        async with self._busy:
            return await self._request(payload, parse)

    async def _request(self, payload: dict, parse):
        rid = payload["rid"]
        last_error: Optional[BaseException] = None
        for attempt in range(1, self.retry.max_attempts + 1):
            if attempt > 1:
                self.retries += 1
                counter("net_retries", 1)
                delay = self.retry.delay_before(attempt,
                                                task_seed=self.task_seed)
                event("net_retry", t=self.clock(), proc=self.proc,
                      rid=rid, attempt=attempt, delay=delay,
                      error=type(last_error).__name__)
                if delay > 0:
                    await asyncio.sleep(delay)
            # Only the error's type and message are reported: kept with
            # its traceback, it would hold this frame and the answer
            # future, which holds it back (a reference cycle).
            try:
                response = await self._attempt(payload, rid, attempt)
                return response if parse is None else parse(response)
            except asyncio.TimeoutError as exc:
                event("net_timeout", t=self.clock(), proc=self.proc,
                      rid=rid, attempt=attempt, seconds=self.timeout)
                last_error = exc.with_traceback(None)
            except (ConnectionError, WireError, OSError) as exc:
                last_error = exc.with_traceback(None)
            self.close()  # stale frames die with the connection
        raise NetRequestError(
            f"{self.proc}: request {rid} to {self.path} failed all "
            f"{self.retry.max_attempts} attempts "
            f"({type(last_error).__name__}: {last_error})")

    async def _attempt(self, payload: dict, rid: str,
                       attempt: int) -> dict:
        if self._conn is None:
            await self._connect(attempt)
        conn = self._conn
        if conn.transport.is_closing():  # the far end hung up meanwhile
            raise conn.error or ConnectionResetError("connection closed")
        conn.rid, conn.answer = rid, asyncio.get_running_loop().create_future()
        conn.transport.write(encode_frame({**payload, "attempt": attempt}))
        response = await asyncio.wait_for(conn.answer, timeout=self.timeout)
        if response.get("type") == "refused":
            raise WireError(f"refused: {response.get('error')}")
        return response


class _Connection(FrameProtocol):
    """A client's connection: resolves the request in flight on the
    frame that echoes its ``rid`` and discards any other — a duplicate
    or stale response for an earlier one."""

    rid = answer = None

    def frame_received(self, body: bytes) -> None:
        response = decode_body(body)
        if (response.get("rid") == self.rid and self.answer is not None
                and not self.answer.done()):
            self.answer.set_result(response)

    def connection_lost(self, exc) -> None:
        super().connection_lost(exc)
        if self.answer is not None and not self.answer.done():
            self.answer.set_exception(
                self.error or exc or ConnectionResetError("connection lost"))
