"""Generator-coroutine process model.

A process is written as a Python generator: its :meth:`Process.body`
method ``yield``s *wait requests* and the kernel resumes it when the
request is satisfied.  This maps one-to-one onto the paper's
description of a peer's local cycle — "send some queries and messages,
then wait to receive messages, adaptively deciding after each received
message whether to keep waiting" — while keeping protocol code linear
and readable (no callback pyramids).

Two wait requests exist:

- ``yield WaitUntil(predicate, description)`` parks the process until
  ``predicate()`` becomes true.  The kernel re-evaluates the predicate
  whenever the process is *notified* (a message or query response was
  delivered to it), which is exactly the adaptive waiting the model
  allows.
- ``yield Sleep(duration)`` resumes the process after ``duration``
  units of virtual time.  Protocol code never uses this (local
  computation takes zero time in the model); it exists for workload
  drivers and tests.

Local computation between yields takes zero virtual time, matching the
model's assumption.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional


class WaitRequest:
    """Base class for the values a process may ``yield``."""

    __slots__ = ()


class WaitUntil(WaitRequest):
    """Park until ``predicate()`` is true.

    The predicate must be a pure function of the process's own local
    state (inbox contents, counters) — the model gives a peer no way to
    observe another peer's memory, and the kernel only re-checks the
    predicate when *this* process receives something.
    """

    __slots__ = ("predicate", "description")

    def __init__(self, predicate: Callable[[], bool],
                 description: str = "condition") -> None:
        self.predicate = predicate
        self.description = description

    def __repr__(self) -> str:
        return f"WaitUntil({self.description})"


class Sleep(WaitRequest):
    """Resume after ``duration`` units of virtual time."""

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        self.duration = duration

    def __repr__(self) -> str:
        return f"Sleep({self.duration})"


class Process:
    """A schedulable activity with a generator body.

    Subclasses implement :meth:`body`.  The kernel drives the generator
    and manages the waiting state; subclasses interact with the kernel
    only by yielding :class:`WaitRequest` objects.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.finished = False
        self.halted = False  # set externally (crash); never resumed again
        #: Whether this process must make progress for the run to be
        #: considered live.  Honest peers are essential; Byzantine
        #: shells set this False — an attacker that waits forever is
        #: the adversary's business, not a deadlock.
        self.essential = True
        self._generator: Optional[Iterator[WaitRequest]] = None
        self._waiting: Optional[WaitUntil] = None
        self._wake_scheduled = False
        # Cached resumption callables, filled in by Kernel.register so
        # repeated sleeps/wakes reuse one callable instead of
        # allocating one per scheduled step.
        self._resume: Optional[Callable[[], None]] = None
        self._wake_cb: Optional[Callable[[], None]] = None

    def body(self) -> Iterator[WaitRequest]:
        """The process logic, as a generator of wait requests."""
        raise NotImplementedError

    # -- kernel-facing state ---------------------------------------------------

    @property
    def live(self) -> bool:
        """True while the process can still take steps."""
        return not (self.finished or self.halted)

    @property
    def waiting_on(self) -> Optional[str]:
        """Human-readable description of the current wait, if any."""
        return self._waiting.description if self._waiting else None

    def unlink(self) -> None:
        """Drop what ties this process to its finished run: the
        kernel's cached resumption callables, the suspended body and its
        wait (called by ``Kernel.unlink``)."""
        self._resume = self._wake_cb = None
        self._generator = self._waiting = None

    def halt(self) -> None:
        """Stop the process permanently (used for crash faults).

        A halted process is never resumed; wait requests it had pending
        are abandoned.  In-flight messages it already sent are *not*
        recalled — matching the model, where a crash can occur after
        some of a batch of sends have gone out.
        """
        self.halted = True
        self._waiting = None

    def __repr__(self) -> str:
        state = ("finished" if self.finished
                 else "halted" if self.halted
                 else f"waiting:{self.waiting_on}" if self._waiting
                 else "runnable")
        return f"<{type(self).__name__} {self.name} [{state}]>"
