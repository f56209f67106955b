"""The HTTP API surface, independent of any HTTP framework.

:class:`ServiceAPI` maps ``(method, path, query, body)`` to plain
:class:`Response` values (or an :class:`EventStream` marker for SSE),
so the routing and JSON shapes are independent of the transport, the
stdlib asyncio server in :mod:`repro.service.server`.

Endpoints (the full operator reference lives in docs/SERVICE.md):

====== =============================== =====================================
method path                            meaning
====== =============================== =====================================
GET    ``/``                           the live dashboard page
GET    ``/healthz``                    liveness + job count
GET    ``/api/stats``                  queue/pool/dedup/cache counters
POST   ``/api/jobs``                   submit (201 created / 200 coalesced)
GET    ``/api/jobs``                   list all jobs
GET    ``/api/jobs/<id>``              one job's status
POST   ``/api/jobs/<id>/cancel``       cancel (idempotent)
DELETE ``/api/jobs/<id>``              alias for cancel
GET    ``/api/jobs/<id>/result``       outcomes (409 until done)
GET    ``/api/jobs/<id>/events``       SSE stream (``?after=N`` replays)
GET    ``/api/jobs/<id>/flame``        folded flamegraph stacks (text)
GET    ``/api/timeline``               all-jobs text timeline
====== =============================== =====================================

Submission body: ``{"spec": {...ExperimentSpec fields...}, "axis":
null|str, "values": [...], "priority": int, "client": str}`` — the
spec dict takes exactly the dataclass fields, same as the persistence
layer's JSON round-trip.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from typing import Union

from repro.experiments import ExperimentSpec
from repro.persistence import outcome_to_dict
from repro.service.dashboard import (dashboard_page, job_flame_text,
                                     render_job_timeline)
from repro.service.jobs import PRIORITY_DEFAULT, Job, JobRequest, job_to_dict
from repro.service.queue import JobQueue

__all__ = ["EventStream", "Response", "ServiceAPI"]


@dataclass
class Response:
    """One finished HTTP response, transport-agnostic."""

    status: int
    body: bytes
    content_type: str = "application/json"

    @classmethod
    def json(cls, payload: dict, status: int = 200) -> "Response":
        return cls(status=status,
                   body=(json.dumps(payload, sort_keys=True) + "\n")
                   .encode("utf-8"))

    @classmethod
    def error(cls, status: int, message: str) -> "Response":
        return cls.json({"error": message}, status=status)

    @classmethod
    def text(cls, body: str, status: int = 200,
             content_type: str = "text/plain; charset=utf-8") -> "Response":
        return cls(status=status, body=body.encode("utf-8"),
                   content_type=content_type)


@dataclass
class EventStream:
    """Marker: the transport should stream this job's events as SSE."""

    job_id: str
    after: int = 0


class ServiceAPI:
    """Routes requests onto one :class:`~repro.service.queue.JobQueue`."""

    def __init__(self, queue: JobQueue) -> None:
        self.queue = queue

    # -- dispatch ---------------------------------------------------------------

    def handle(self, method: str, path: str, query: dict,
               body: bytes) -> Union[Response, EventStream]:
        """Route one request; never raises for client errors."""
        method = method.upper()
        parts = [part for part in path.split("/") if part]
        try:
            if parts == [] and method == "GET":
                return Response.text(dashboard_page(),
                                     content_type="text/html; charset=utf-8")
            if parts == ["healthz"] and method == "GET":
                return self._healthz()
            if parts[:1] == ["api"]:
                return self._api(method, parts[1:], query, body)
        except ValueError as exc:
            return Response.error(400, str(exc))
        return Response.error(404, f"no route for {method} {path}")

    def _api(self, method: str, parts: list, query: dict,
             body: bytes) -> Union[Response, EventStream]:
        if parts == ["stats"] and method == "GET":
            return self._stats()
        if parts == ["timeline"] and method == "GET":
            return self._timeline()
        if parts == ["jobs"]:
            if method == "POST":
                return self._submit(body)
            if method == "GET":
                return Response.json(
                    {"jobs": [job_to_dict(job)
                              for job in self.queue.jobs()]})
        if len(parts) >= 2 and parts[0] == "jobs":
            job_id = parts[1]
            job = self.queue.job(job_id)
            if job is None:
                return Response.error(404, f"unknown job {job_id!r}")
            tail = parts[2:]
            if tail == [] and method == "GET":
                return Response.json({"job": job_to_dict(job)})
            if (tail == ["cancel"] and method == "POST") or \
                    (tail == [] and method == "DELETE"):
                cancelled = self.queue.cancel(job_id)
                return Response.json({"job": job_to_dict(cancelled)})
            if tail == ["result"] and method == "GET":
                return self._result(job)
            if tail == ["events"] and method == "GET":
                after = int(query.get("after", ["0"])[0])
                return EventStream(job_id=job_id, after=after)
            if tail == ["flame"] and method == "GET":
                return Response.text(
                    job_flame_text(self.queue.events(job_id)))
        return Response.error(
            404, f"no route for {method} /api/{'/'.join(parts)}")

    # -- handlers ---------------------------------------------------------------

    def _healthz(self) -> Response:
        return Response.json({
            "ok": True,
            "jobs": len(self.queue.jobs()),
            "uptime_s": round(time.time() - self.queue.started_at, 3),
        })

    def _stats(self) -> Response:
        return Response.json({
            "pool": self.queue.pool,
            "pool_mode": self.queue.pool_mode,
            "jobs": len(self.queue.jobs()),
            "cache": self.queue.cache is not None,
            "stats": self.queue.stats.as_dict(),
        })

    def _timeline(self) -> Response:
        events = [entry for job in self.queue.jobs()
                  for entry in self.queue.events(job.id)]
        events.sort(key=lambda entry: entry.get("t", 0.0))
        return Response.text(render_job_timeline(events))

    def _submit(self, body: bytes) -> Response:
        request = parse_job_request(body)
        job, created = self.queue.submit(request)
        return Response.json({"job": job_to_dict(job),
                              "created": created},
                             status=201 if created else 200)

    def _result(self, job: Job) -> Response:
        if job.state != "done":
            return Response.json({"error": "job is not done",
                                  "state": job.state}, status=409)
        outcomes = self.queue.result(job.id)
        if outcomes is None:
            return Response.error(500, "result file missing or corrupt")
        return Response.json({
            "job": job.id,
            "correct": job.correct,
            "outcomes": [outcome_to_dict(outcome)
                         for outcome in outcomes],
        })


def parse_job_request(body: bytes) -> JobRequest:
    """Decode and validate a submission body (raises ``ValueError``)."""
    try:
        payload = json.loads(body.decode("utf-8") or "{}")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"body is not JSON: {exc}")
    if not isinstance(payload, dict) or \
            not isinstance(payload.get("spec"), dict):
        raise ValueError('body must be {"spec": {...}, ...}')
    known = {field.name for field in dataclasses.fields(ExperimentSpec)}
    unknown = set(payload["spec"]) - known
    if unknown:
        raise ValueError(f"unknown spec fields {sorted(unknown)}")
    try:
        spec = ExperimentSpec(**payload["spec"])
    except (TypeError, ValueError, KeyError) as exc:
        raise ValueError(f"bad spec: {exc}")
    return JobRequest(
        spec=spec,
        axis=payload.get("axis"),
        values=tuple(payload.get("values") or ()),
        priority=int(payload.get("priority", PRIORITY_DEFAULT)),
        client=str(payload.get("client", "anonymous")))


def format_sse(seq: int, entry: dict) -> bytes:
    """One telemetry event in Server-Sent Events wire form.

    ``id:`` carries the per-job sequence number so a reconnecting
    client resumes with ``?after=<Last-Event-ID + 1>``; the event kind
    rides inside ``data:`` (not ``event:``) so ``EventSource``'s
    default ``onmessage`` sees every kind.
    """
    data = json.dumps(entry, sort_keys=True)
    return f"id: {seq}\ndata: {data}\n\n".encode("utf-8")
