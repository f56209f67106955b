"""Unit tests for the kernel: event ordering, process stepping,
quiescence, deadlock detection, budgets."""

import pytest

from repro.sim.errors import BudgetExceeded, DeadlockError
from repro.sim.process import Process, Sleep, WaitUntil
from repro.sim.scheduler import Kernel


class Recorder(Process):
    """Runs a scripted generator and records what happened."""

    def __init__(self, name, script):
        super().__init__(name)
        self.script = script
        self.log = []

    def body(self):
        yield from self.script(self)


class TestEventOrdering:
    def test_events_fire_in_time_order(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(2.0, lambda: fired.append("b"))
        kernel.schedule(1.0, lambda: fired.append("a"))
        kernel.schedule(3.0, lambda: fired.append("c"))
        kernel.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_scheduling_order(self):
        kernel = Kernel()
        fired = []
        for label in "abcd":
            kernel.schedule(1.0, lambda l=label: fired.append(l))
        kernel.run()
        assert fired == ["a", "b", "c", "d"]

    def test_clock_advances_to_event_times(self):
        kernel = Kernel()
        seen = []
        kernel.schedule(1.5, lambda: seen.append(kernel.now))
        kernel.schedule(4.25, lambda: seen.append(kernel.now))
        kernel.run()
        assert seen == [1.5, 4.25]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Kernel().schedule(-0.1, lambda: None)

    def test_nan_delay_rejected(self):
        # NaN compares false both ways, so the heap order would be
        # undefined from that entry on.
        with pytest.raises(ValueError, match="non-negative"):
            Kernel().schedule(float("nan"), lambda: None)

    def test_events_scheduled_during_run_are_processed(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(1.0, lambda: kernel.schedule(
            1.0, lambda: fired.append("nested")))
        kernel.run()
        assert fired == ["nested"]
        assert kernel.now == 2.0


class TestProcessStepping:
    def test_sleep_resumes_later(self):
        kernel = Kernel()

        def script(proc):
            proc.log.append(("start", kernel.now))
            yield Sleep(3.0)
            proc.log.append(("end", kernel.now))

        proc = Recorder("p", script)
        kernel.register(proc)
        kernel.run()
        assert proc.log == [("start", 0.0), ("end", 3.0)]
        assert proc.finished

    def test_wait_until_already_true_continues_immediately(self):
        kernel = Kernel()

        def script(proc):
            yield WaitUntil(lambda: True, "trivial")
            proc.log.append("done")

        proc = Recorder("p", script)
        kernel.register(proc)
        kernel.run()
        assert proc.log == ["done"]

    def test_wait_until_parks_and_notify_wakes(self):
        kernel = Kernel()
        flag = []

        def script(proc):
            yield WaitUntil(lambda: bool(flag), "flag set")
            proc.log.append(kernel.now)

        proc = Recorder("p", script)
        kernel.register(proc)
        kernel.schedule(2.0, lambda: (flag.append(1), kernel.notify(proc)))
        kernel.run()
        assert proc.log == [2.0]

    def test_notify_without_predicate_true_keeps_parked(self):
        kernel = Kernel()

        def script(proc):
            yield WaitUntil(lambda: False, "never")

        proc = Recorder("p", script)
        kernel.register(proc)
        kernel.schedule(1.0, lambda: kernel.notify(proc))
        with pytest.raises(DeadlockError):
            kernel.run()

    def test_staggered_start(self):
        kernel = Kernel()

        def script(proc):
            proc.log.append(kernel.now)
            return
            yield  # pragma: no cover

        proc = Recorder("late", script)
        kernel.register(proc, start_at=5.0)
        kernel.run()
        assert proc.log == [5.0]

    def test_start_in_past_rejected(self):
        kernel = Kernel()
        kernel.schedule(2.0, lambda: None)
        kernel.run()
        with pytest.raises(ValueError):
            kernel.register(Recorder("p", lambda proc: iter(())),
                            start_at=1.0)

    def test_halted_process_never_resumes(self):
        kernel = Kernel()

        def script(proc):
            yield Sleep(1.0)
            proc.log.append("should not happen")

        proc = Recorder("p", script)
        kernel.register(proc)
        kernel.schedule(0.5, proc.halt)
        kernel.run()
        assert proc.log == []
        assert proc.halted and not proc.finished

    def test_yielding_garbage_raises_type_error(self):
        kernel = Kernel()

        def script(proc):
            yield 42

        kernel.register(Recorder("p", script))
        with pytest.raises(TypeError, match="yielded"):
            kernel.run()

    def test_bodyless_process_finishes_immediately(self):
        kernel = Kernel()

        class FireAndForget(Process):
            def body(self):
                return None

        proc = FireAndForget("f")
        kernel.register(proc)
        kernel.run()
        assert proc.finished


class TestQuiescenceAndDeadlock:
    def test_quiescence_hook_injects_new_events(self):
        kernel = Kernel()
        fired = []
        releases = [2]

        def on_quiescence():
            if releases and releases[0] > 0:
                releases[0] -= 1
                kernel.schedule(1.0, lambda: fired.append(kernel.now))
                return True
            return False

        kernel.on_quiescence = on_quiescence
        kernel.run()
        assert fired == [1.0, 2.0]

    def test_deadlock_reports_waiting_process(self):
        kernel = Kernel()

        def script(proc):
            yield WaitUntil(lambda: False, "the impossible")

        kernel.register(Recorder("stuck", script))
        with pytest.raises(DeadlockError, match="the impossible"):
            kernel.run()

    def test_non_essential_waiters_do_not_deadlock(self):
        kernel = Kernel()

        def script(proc):
            yield WaitUntil(lambda: False, "forever")

        proc = Recorder("attacker", script)
        proc.essential = False
        kernel.register(proc)
        kernel.run()  # returns quietly

    def test_finished_processes_do_not_deadlock(self):
        kernel = Kernel()

        def script(proc):
            proc.log.append("ran")
            return
            yield  # pragma: no cover

        kernel.register(Recorder("p", script))
        kernel.run()


class TestBudgets:
    def test_event_budget(self):
        kernel = Kernel()

        def reschedule():
            kernel.schedule(1.0, reschedule)

        kernel.schedule(1.0, reschedule)
        with pytest.raises(BudgetExceeded, match="event budget"):
            kernel.run(max_events=100)

    def test_time_budget(self):
        kernel = Kernel()
        kernel.schedule(100.0, lambda: None)
        with pytest.raises(BudgetExceeded, match="time budget"):
            kernel.run(max_time=10.0)
