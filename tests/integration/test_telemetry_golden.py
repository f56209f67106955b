"""Telemetry must be behaviorally invisible: golden traces under a
recording backend.

The observability layer's core contract (docs/OBSERVABILITY.md) is
that enabling telemetry changes *nothing* about a run: no extra RNG
draws, no extra scheduled events, no accounting drift.  This battery
replays every golden-trace case (the same cases
``tests/integration/test_golden_traces.py`` pins) with a
:class:`~repro.obs.telemetry.RecordingTelemetry` installed and
compares the captured record bit-for-bit against the checked-in
fixture — the strongest statement the repo can make that
instrumentation sites only read state, never perturb it.
"""

import pytest

from repro.obs.telemetry import RecordingTelemetry, get_backend, using
from tests.golden.capture import (CASES, capture_case, load_fixture,
                                  messages_digest)


@pytest.fixture(scope="module")
def golden() -> dict:
    return load_fixture()


@pytest.mark.parametrize("case", CASES, ids=lambda case: case["name"])
def test_trace_identical_with_telemetry_enabled(case, golden):
    expected = golden[case["name"]]
    recording = RecordingTelemetry()
    with using(recording):
        actual = capture_case(case)
    for key in sorted(set(expected) | set(actual)):
        assert actual.get(key) == expected.get(key), (
            f"{case['name']}: telemetry perturbed {key!r}: "
            f"expected {expected.get(key)!r}, got {actual.get(key)!r}")
    if case["engine"] == "async":
        # The backend really was live: the run emitted its envelope.
        assert recording.events_of("run_header")
        assert recording.events_of("run_summary")
    if "messages_sha" in expected:
        # Routed cases: ``capture_case`` digested this recording (it
        # reuses an active one), relay hops' ``relay``/``hop`` included.
        assert messages_digest(recording.events) == \
            expected["messages_sha"]


def test_backend_restored_after_battery():
    assert not get_backend().enabled
