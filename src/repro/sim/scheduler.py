"""The simulation kernel: virtual clock, event heap, process stepping.

The kernel owns the virtual clock and a binary heap of events ordered
``(time, seq)`` (see :mod:`repro.sim.events`).  Processes (peers,
Byzantine shells, workload drivers) are registered with the kernel and
driven through their generator bodies; the network and the data source
schedule delivery events.

Quiescence.  The model (Section 3.1 of the paper) compels the adversary
to release withheld messages once the system reaches *quiescence* — all
honest peers parked waiting for messages, nothing in flight.  The
kernel supports this through an ``on_quiescence`` callback: when the
heap drains, the callback gets a chance to inject new events (the
network uses it to flush withheld messages).  If it injects nothing and
live processes are still waiting, the kernel raises
:class:`~repro.sim.errors.DeadlockError` naming the stuck processes —
a correct protocol run never ends that way.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from repro.sim.errors import BudgetExceeded, DeadlockError
from repro.sim.events import Event
from repro.sim.process import Process, Sleep, WaitUntil

#: Default ceiling on processed events; generous for every test and bench,
#: small enough to catch accidental infinite message loops quickly.
DEFAULT_MAX_EVENTS = 5_000_000


class Kernel:
    """Event loop + process scheduler for one simulation run."""

    def __init__(self) -> None:
        self.now = 0.0
        #: Heap of ``(time, seq, action, kind)`` tuples; ``seq`` is
        #: unique, so C-level tuple comparison settles every heap swap
        #: without ever reaching the ``action`` slot.
        self._heap: list[tuple[float, int, Callable[[], None], str]] = []
        self._seq = 0
        self._processes: list[Process] = []
        self.events_processed = 0
        self.on_quiescence: Optional[Callable[[], bool]] = None
        #: Resolved telemetry backend, or ``None`` when disabled (the
        #: runner wires this).  Only the wake/first-step paths emit —
        #: the main event loop stays untouched, so a disabled backend
        #: costs the hot path nothing at all.
        self.telemetry = None

    # -- event scheduling --------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None],
                 kind: str = "event") -> None:
        """Schedule ``action`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        heapq.heappush(self._heap, (self.now + delay, self._seq, action,
                                    kind))
        self._seq += 1

    # -- process management --------------------------------------------------

    def register(self, process: Process, start_at: float = 0.0) -> None:
        """Register ``process`` and schedule its first step.

        ``start_at`` is an absolute virtual time; the adversary may
        stagger peer starts (the model does not assume a simultaneous
        start).

        Resumption closures are built once here and reused for every
        subsequent sleep/wake of the process, so stepping a process does
        not allocate a fresh lambda per event.
        """
        if start_at < self.now:
            raise ValueError(
                f"start_at={start_at} is in the past (now={self.now})")
        self._processes.append(process)
        process._resume = lambda: self._advance(process)
        process._wake_cb = lambda: self._wake(process)
        process._sleep_kind = f"sleep:{process.name}"
        process._wake_kind = f"wake:{process.name}"
        self.schedule(start_at - self.now, process._resume,
                      kind=f"start:{process.name}")

    def unlink(self) -> None:
        """Cut a finished run's reference cycles (each process's cached
        closures, suspended body and wait; pending events; the
        quiescence hook): reference counting then frees the run."""
        for process in self._processes:
            process._resume = process._wake_cb = None
            process._generator = process._waiting = None
        self._processes.clear()
        self._heap.clear()
        self.on_quiescence = None

    def notify(self, process: Process) -> None:
        """Re-evaluate ``process``'s wait predicate after new input.

        Called by the network/source when something is delivered to the
        process.  If the predicate is now satisfied, resumption is
        scheduled as a zero-delay event so that all deliveries carrying
        the same timestamp land in the inbox before protocol code runs.
        """
        if not process.live or process._waiting is None:
            return
        if process._wake_scheduled:
            return
        if process._waiting.predicate():
            process._wake_scheduled = True
            self.schedule(0.0, process._wake_cb, kind=process._wake_kind)

    def _wake(self, process: Process) -> None:
        process._wake_scheduled = False
        if not process.live or process._waiting is None:
            return
        # The predicate may have been invalidated between notification
        # and wake-up only if protocol code mutates shared state; local
        # predicates are monotone in practice, but re-check regardless.
        if process._waiting.predicate():
            process._waiting = None
            if self.telemetry is not None:
                self.telemetry.emit("wake", {"t": self.now,
                                             "proc": process.name})
            self._advance(process)

    def _advance(self, process: Process) -> None:
        """Run ``process`` until it parks, sleeps, or finishes."""
        if not process.live:
            return
        if process._resume is None:
            # Driven without register() (tests do this); build the
            # cached closure on first contact instead.
            process._resume = lambda: self._advance(process)
        if process._generator is None:
            if self.telemetry is not None:
                self.telemetry.emit("proc_start", {"t": self.now,
                                                   "proc": process.name})
            generator = process.body()
            if generator is None:
                # A body with no yield (fire-and-forget attackers) runs
                # to completion inside the body() call itself.
                process.finished = True
                return
            process._generator = generator
        generator = process._generator
        while True:
            try:
                request = next(generator)
            except StopIteration:
                process.finished = True
                return
            if isinstance(request, Sleep):
                self.schedule(request.duration, process._resume,
                              kind=process._sleep_kind)
                return
            if isinstance(request, WaitUntil):
                if request.predicate():
                    continue
                process._waiting = request
                return
            raise TypeError(
                f"{process.name} yielded {request!r}; processes may only "
                f"yield WaitUntil or Sleep")

    # -- the main loop --------------------------------------------------------

    def run(self, *, max_events: int = DEFAULT_MAX_EVENTS,
            max_time: Optional[float] = None) -> None:
        """Process events until the system finishes or deadlocks.

        Raises:
            BudgetExceeded: the event or time budget ran out (this
                indicates a protocol bug, e.g. a message loop).
            DeadlockError: no events remain, the quiescence hook
                produced nothing, and live processes are still waiting.
        """
        heap = self._heap
        heappop = heapq.heappop
        while True:
            if not heap:
                if self.on_quiescence is not None and self.on_quiescence():
                    continue
                self._check_deadlock()
                return
            time, seq, action, kind = heappop(heap)
            if max_time is not None and time > max_time:
                raise BudgetExceeded(
                    f"virtual time budget {max_time} exceeded at "
                    f"{Event(time, seq, action, kind)!r}")
            self.now = time
            self.events_processed += 1
            if self.events_processed > max_events:
                raise BudgetExceeded(
                    f"event budget {max_events} exceeded at "
                    f"{Event(time, seq, action, kind)!r}")
            action()

    def _check_deadlock(self) -> None:
        stuck = [(process.name, process.waiting_on or "first step")
                 for process in self._processes
                 if process.live and process.essential
                 and process._waiting is not None]
        if stuck:
            raise DeadlockError(stuck)

    @property
    def live_processes(self) -> list[Process]:
        """Processes that are neither finished nor halted."""
        return [process for process in self._processes if process.live]
