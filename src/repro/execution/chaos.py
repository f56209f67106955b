"""Deterministic fault injection for the execution engine.

The paper's protocols are *tested under* adversarial faults; this
module turns the same idea on the harness itself: a :class:`ChaosPlan`
injects crash, transient-error, and stall faults into the engine's own
task execution, deterministically (keyed by task index and attempt
number, never by wall clock or RNG), so the chaos battery in
``tests/integration/test_chaos_engine.py`` can assert **bit-identical
outcomes with and without faults**.

Fault classes, mirroring what the resilience layer claims to survive:

- **Worker kill** (:attr:`ChaosPlan.kill_on`): the first attempt of a
  listed task hard-kills its process with ``os._exit``.  In a pool
  this breaks the ``ProcessPoolExecutor`` (the engine rebuilds it and
  resubmits the lost tasks); on the serial path it raises
  :class:`WorkerKilled` instead — exiting would kill the caller.
- **Transient errors** (:attr:`ChaosPlan.transient_until`): a listed
  task raises ``OSError`` on every attempt up to the given number,
  then succeeds — exercising the retry/backoff path.
- **Stalls** (:attr:`ChaosPlan.stall_on`): the first attempt of a
  listed task sleeps :attr:`ChaosPlan.stall_seconds` before running —
  paired with a :class:`~repro.execution.retry.RetryPolicy` timeout it
  exercises the watchdog.

File-level injectors (:func:`corrupt_file`, :func:`truncate_file`,
:func:`drop_journal_lines`) damage journal/cache artifacts between
runs, exercising the corruption-is-a-miss recovery paths.

Everything here is test machinery: plans are plain frozen dataclasses
(picklable, so they travel into pool workers).  The engine does import
this module — ``parallel.py`` names :class:`ChaosPlan` in its
signatures and the package re-exports it — but no fault is injected
unless a plan is passed in.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple, Union

__all__ = [
    "ChaosPlan",
    "WorkerKilled",
    "corrupt_file",
    "drop_journal_lines",
    "truncate_file",
]

PathLike = Union[str, Path]


class WorkerKilled(Exception):
    """Serial-path stand-in for a hard worker kill (still retryable)."""


@dataclass(frozen=True)
class ChaosPlan:
    """Deterministic fault schedule over the tasks of one engine call.

    Task indices refer to positions in the payload list handed to
    :func:`repro.execution.run_tasks`; attempts are 1-based.
    """

    #: Tasks whose *first* attempt kills the hosting worker process.
    kill_on: Tuple[int, ...] = ()
    #: ``(task_index, attempts)`` pairs: the task raises ``OSError``
    #: while its attempt number is <= ``attempts``.
    transient_until: Tuple[Tuple[int, int], ...] = ()
    #: Tasks whose first attempt sleeps ``stall_seconds`` first.
    stall_on: Tuple[int, ...] = ()
    stall_seconds: float = 1.0

    def apply(self, index: int, attempt: int, *, in_pool: bool) -> None:
        """Inject this plan's faults for ``(task, attempt)``, if any.

        Called by the engine inside the watchdog window, in the process
        that is about to run the task.
        """
        if index in self.kill_on and attempt == 1:
            if in_pool:
                os._exit(86)  # hard kill: no cleanup, pool breaks
            raise WorkerKilled(
                f"chaos: worker killed on task {index} (serial stand-in)")
        for task, attempts in self.transient_until:
            if task == index and attempt <= attempts:
                raise OSError(
                    f"chaos: transient fault on task {index} "
                    f"attempt {attempt}")
        if index in self.stall_on and attempt == 1:
            time.sleep(self.stall_seconds)


# -- file-level injectors ----------------------------------------------------


def corrupt_file(path: PathLike,
                 garbage: bytes = b"\x00\xffnot json{") -> None:
    """Overwrite ``path`` with bytes that parse as nothing."""
    Path(path).write_bytes(garbage)


def truncate_file(path: PathLike, keep_bytes: int) -> None:
    """Cut ``path`` down to its first ``keep_bytes`` bytes."""
    target = Path(path)
    target.write_bytes(target.read_bytes()[:keep_bytes])


def drop_journal_lines(path: PathLike, indices,
                       replacement: str = None) -> int:
    """Remove (or corrupt) the given line numbers of a JSONL journal.

    ``replacement=None`` deletes the lines (simulating an interrupted
    sweep that never journalled them); a string replaces them in place
    (simulating a torn or corrupted append).  Returns the number of
    lines affected.
    """
    target = Path(path)
    lines = target.read_text(encoding="utf-8").splitlines()
    doomed = {index for index in indices if 0 <= index < len(lines)}
    kept = []
    for number, line in enumerate(lines):
        if number in doomed:
            if replacement is not None:
                kept.append(replacement)
            continue
        kept.append(line)
    target.write_text("".join(line + "\n" for line in kept),
                      encoding="utf-8")
    return len(doomed)
