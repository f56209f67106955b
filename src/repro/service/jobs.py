"""The service's job model: one content-addressed unit of work.

A *job* is an :class:`~repro.experiments.ExperimentSpec` plus an
optional sweep axis — exactly what ``repro sweep`` runs from the shell,
reified as a value the HTTP API can submit, query, cancel, and dedup:

- **Identity is content.**  :func:`job_key` hashes the same canonical
  form the result cache hashes (:func:`~repro.execution.cache.
  spec_cache_key`, which already strips default fields so historical
  identities are preserved), plus the sweep axis/values.  Two clients
  submitting the same experiment therefore *name the same job* — the
  queue coalesces them into one execution and both read one result.
  The cache's ``CODE_VERSION`` salt is part of the key, so a code
  change that invalidates cached outcomes also mints fresh job ids.
- **States form a machine**, not a set: ``pending -> running ->
  {done, failed, cancelled}`` (cancel is also legal from ``pending``).
  :meth:`Job.transition` enforces it — an illegal hop is a bug in the
  queue, never silent state corruption.
- **Jobs round-trip as plain JSON** (no pickle), so the on-disk store
  is diffable and a restarted server reloads every job it was running.

Timestamps are wall-clock epoch seconds (a service is not a seeded
experiment; its *results* are deterministic, its schedule is not).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.execution.cache import (CODE_VERSION, canonical_json,
                                   spec_cache_key, spec_fields)
from repro.experiments import ExperimentSpec, sweep_points

__all__ = [
    "Job",
    "JobRequest",
    "PRIORITY_DEFAULT",
    "STATES",
    "TERMINAL",
    "job_from_dict",
    "job_key",
    "job_to_dict",
]

#: Lower runs first; ties are served fairly (round-robin).
PRIORITY_DEFAULT = 10

#: Legal job states, in lifecycle order.
STATES = ("pending", "running", "done", "failed", "cancelled")

#: States no job ever leaves (except via an explicit resubmit).
TERMINAL = ("done", "failed", "cancelled")

#: state -> states it may move to.
_TRANSITIONS = {
    "pending": ("running", "done", "failed", "cancelled"),
    "running": ("done", "failed", "cancelled"),
    "done": (),
    "failed": ("pending",),      # resubmit retries a failed job
    "cancelled": ("pending",),   # resubmit revives a cancelled job
}


@dataclass(frozen=True)
class JobRequest:
    """What a client asks for: a spec, an optional sweep, a priority.

    ``axis``/``values`` mirror ``sweep_experiment`` (both or neither);
    ``client`` is a free-form submitter label used only for fairness
    accounting and display.
    """

    spec: ExperimentSpec
    axis: Optional[str] = None
    values: tuple = ()
    priority: int = PRIORITY_DEFAULT
    client: str = "anonymous"

    def __post_init__(self) -> None:
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))
        if (self.axis is None) != (len(self.values) == 0):
            raise ValueError("axis and values must be given together")
        if self.axis is not None:
            if self.axis not in ExperimentSpec.__dataclass_fields__:
                raise ValueError(f"unknown sweep axis {self.axis!r}")

    def points(self) -> list[ExperimentSpec]:
        """The specs this job executes, in sweep order."""
        if self.axis is None:
            return [self.spec]
        return sweep_points(self.spec, axis=self.axis, values=self.values)

    @property
    def total_tasks(self) -> int:
        """Every ``(point, repeat)`` the job could run."""
        return sum(point.repeats for point in self.points())


def job_key(request: JobRequest) -> str:
    """The content-addressed job id for ``request``.

    Built from the spec's cache key (already canonical and
    salt-versioned) plus the sweep shape.  ``priority`` and ``client``
    are deliberately excluded: *what* is computed addresses the job,
    not how urgently or for whom — that is what lets concurrent
    requests coalesce.
    """
    payload = canonical_json({
        "spec": spec_cache_key(request.spec),
        "axis": request.axis,
        "values": list(request.values),
    })
    digest = hashlib.sha256(f"{CODE_VERSION}\n{payload}".encode("utf-8"))
    return f"j{digest.hexdigest()[:16]}"


@dataclass
class Job:
    """One job's full lifecycle record (the HTTP API's resource)."""

    id: str
    request: JobRequest
    state: str = "pending"
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Tasks settled so far (completed + failed repeats).
    done: int = 0
    #: Tasks that exhausted their retry budget.
    failed: int = 0
    #: Every ``(point, repeat)`` the job runs.
    total: int = 0
    #: All points fully correct — ``None`` until the job is done.
    correct: Optional[bool] = None
    #: Failure cause (``state == "failed"``).
    error: Optional[str] = None
    #: How many submissions coalesced into this execution.
    submissions: int = 1

    def __post_init__(self) -> None:
        if self.total == 0:
            self.total = self.request.total_tasks

    def transition(self, state: str) -> None:
        """Move to ``state``, enforcing the lifecycle machine."""
        if state not in STATES:
            raise ValueError(f"unknown job state {state!r}")
        if state not in _TRANSITIONS[self.state]:
            raise ValueError(
                f"illegal job transition {self.state!r} -> {state!r}")
        self.state = state
        now = time.time()
        if state == "running" and self.started_at is None:
            self.started_at = now
        if state in TERMINAL:
            self.finished_at = now
        if state == "pending":  # resubmit: reset the execution clock
            self.started_at = None
            self.finished_at = None
            self.done = 0
            self.failed = 0
            self.correct = None
            self.error = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL


def job_to_dict(job: Job) -> dict:
    """JSON-safe form of one job (the API's wire shape)."""
    return {
        "id": job.id,
        "state": job.state,
        "priority": job.request.priority,
        "client": job.request.client,
        "spec": spec_fields(job.request.spec),
        "axis": job.request.axis,
        "values": list(job.request.values),
        "submitted_at": job.submitted_at,
        "started_at": job.started_at,
        "finished_at": job.finished_at,
        "done": job.done,
        "failed": job.failed,
        "total": job.total,
        "correct": job.correct,
        "error": job.error,
        "submissions": job.submissions,
    }


def job_from_dict(payload: dict) -> Job:
    """Inverse of :func:`job_to_dict` (spec validation included)."""
    request = JobRequest(
        spec=ExperimentSpec(**payload["spec"]),
        axis=payload.get("axis"),
        values=tuple(payload.get("values") or ()),
        priority=int(payload.get("priority", PRIORITY_DEFAULT)),
        client=str(payload.get("client", "anonymous")))
    job = Job(id=payload["id"], request=request,
              state=payload.get("state", "pending"),
              submitted_at=payload.get("submitted_at", 0.0),
              started_at=payload.get("started_at"),
              finished_at=payload.get("finished_at"),
              done=int(payload.get("done", 0)),
              failed=int(payload.get("failed", 0)),
              total=int(payload.get("total", 0)),
              correct=payload.get("correct"),
              error=payload.get("error"),
              submissions=int(payload.get("submissions", 1)))
    if job.state not in STATES:
        raise ValueError(f"unknown job state {job.state!r}")
    return job
