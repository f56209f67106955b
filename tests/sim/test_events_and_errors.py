"""Unit tests for the event ordering contract and the error hierarchy."""

from functools import partial

import pytest

from repro.sim.errors import (
    BudgetExceeded,
    ConfigurationError,
    DeadlockError,
    ProtocolViolation,
    SimulationError,
)
from repro.sim.events import Event


class TestEventOrdering:
    def test_orders_by_time_first(self):
        early = Event(1.0, 99, lambda: None)
        late = Event(2.0, 0, lambda: None)
        assert early < late

    def test_sequence_breaks_time_ties(self):
        first = Event(1.0, 0, lambda: None)
        second = Event(1.0, 1, lambda: None)
        assert first < second

    def test_action_not_part_of_ordering(self):
        a = Event(1.0, 0, lambda: 1)
        b = Event(1.0, 0, lambda: 2)
        assert not a < b and not b < a

    def test_repr_names_time_and_action(self):
        class Target:
            name = "peer-4"

            def deliver(self, pid, message):
                pass

        text = repr(Event(1.5, 3, partial(Target().deliver, 7, Target())))
        assert "1.5" in text
        assert "Target.deliver(7, peer-4)" in text


class TestErrorHierarchy:
    def test_every_error_is_a_simulation_error(self):
        for error_class in (DeadlockError, ProtocolViolation,
                            BudgetExceeded, ConfigurationError):
            assert issubclass(error_class, SimulationError)

    def test_deadlock_error_names_the_waiters(self):
        error = DeadlockError([("peer-3", "shares from 5 peers"),
                               ("peer-7", "probe replies")])
        message = str(error)
        assert "peer-3" in message and "probe replies" in message
        assert error.waiting[0] == ("peer-3", "shares from 5 peers")

    def test_simulation_error_catchable_generically(self):
        with pytest.raises(SimulationError):
            raise ProtocolViolation("oversized message")

    def test_deadlock_error_pickle_round_trips(self):
        # A worker's deadlock crosses the process-pool boundary as a
        # pickle; an exception that fails to *unpickle* breaks the
        # whole pool, degrading every later task in the batch.
        import pickle

        error = DeadlockError([("peer-3", "shares from 5 peers"),
                               ("peer-7", "probe replies")])
        back = pickle.loads(pickle.dumps(error))
        assert isinstance(back, DeadlockError)
        assert back.waiting == error.waiting
        assert str(back) == str(error)
