"""The net backend's request/response client with timeouts and retries.

One :class:`NetClient` owns one connection to one address (a proxy
listener) and serializes requests over it — a peer that wants
concurrent requests to several endpoints holds several clients.  Every
request is sent with an ``attempt`` number and awaited under a
per-request timeout; on timeout, EOF, or a connection error the client
closes the connection (discarding any half-delivered or stale frames
with it), sleeps the PR-2 :class:`~repro.execution.RetryPolicy`
backoff — deterministic jitter derived from the client's task seed,
the same construction the execution engine retries with — reconnects,
and tries again.  Only a request that exhausts every attempt raises
:class:`NetRequestError`, which fails the whole run (and the engine
then degrades that repeat into a ``failed_runs`` record).

Idempotency contract: the request's ``rid`` never changes across
attempts, so the server side charges it once however many times it
arrives; the ``attempt`` field *does* change, so a content-hashing
chaos proxy gives each retry a fresh decision.  Responses are matched
by ``rid`` — a late duplicate of an earlier response (proxy ``dup``,
or a replay raced with a timeout) is discarded, not misdelivered.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Optional

from repro.execution.retry import RetryPolicy
from repro.obs.telemetry import counter, event

from repro.net.wire import WireError, encode_frame, read_frame

#: Default per-request policy: a handful of attempts with sub-second
#: backoff — enough to ride out seeded drops without stretching tests.
DEFAULT_NET_RETRY = RetryPolicy(max_attempts=5, base_delay=0.05,
                                backoff=2.0, max_delay=0.5, jitter=0.5)

#: How long a client waits for its peer's listener to exist.
_CONNECT_WAIT = 5.0


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
        #: One request at a time: ``_attempt`` discards every response
        #: whose rid is not its own, so two requests sharing the
        #: connection would starve each other into retries.
        self._busy = asyncio.Lock()
        self._reader = None
        self._writer = None

    # -- connection lifecycle ---------------------------------------------

    async def _connect(self, attempt: int) -> None:
        deadline = time.monotonic() + _CONNECT_WAIT
        while True:
            try:
                self._reader, self._writer = \
                    await asyncio.open_unix_connection(self.path)
                break
            except (FileNotFoundError, ConnectionRefusedError, OSError):
                if time.monotonic() >= deadline:
                    raise
                await asyncio.sleep(0.02)
        event("net_connect", t=self.clock(), proc=self.proc,
              addr=self.path, attempt=attempt)

    def close(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass
        self._reader = self._writer = None

    # -- requesting -------------------------------------------------------

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
            try:
                response = await self._attempt(payload, rid, attempt)
                return response if parse is None else parse(response)
            except asyncio.TimeoutError as exc:
                event("net_timeout", t=self.clock(), proc=self.proc,
                      rid=rid, attempt=attempt, seconds=self.timeout)
                last_error = exc
            except (ConnectionError, WireError, OSError) as exc:
                last_error = exc
            self.close()  # stale frames die with the connection
        raise NetRequestError(
            f"{self.proc}: request {rid} to {self.path} failed all "
            f"{self.retry.max_attempts} attempts "
            f"({type(last_error).__name__}: {last_error})")

    async def _attempt(self, payload: dict, rid: str,
                       attempt: int) -> dict:
        if self._writer is None:
            await self._connect(attempt)
        frame = encode_frame({**payload, "attempt": attempt})
        self._writer.write(frame)
        await self._writer.drain()
        deadline = time.monotonic() + self.timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise asyncio.TimeoutError()
            response = await asyncio.wait_for(read_frame(self._reader),
                                              timeout=remaining)
            if response is None:
                raise ConnectionResetError("connection closed mid-request")
            if response.get("rid") == rid:
                return response
            # A duplicate or stale response for an earlier rid: discard
            # and keep waiting for ours.
