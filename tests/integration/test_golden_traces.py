"""Golden-trace battery: the kernel's behavior, pinned bit-for-bit.

Every case in :mod:`tests.golden.capture` is replayed and compared —
field by field — against the record captured before the hot-path
optimization work.  A mismatch means the change altered RNG draw
order, accounting, event scheduling, or an output array; none of those
are acceptable side effects of a performance change.  If the change is
*intended* to alter behavior, regenerate the fixtures (see
docs/PERFORMANCE.md) and call the change out in the commit message.
"""

import pytest

from tests.golden.capture import CASES, capture_case, load_fixture


@pytest.fixture(scope="module")
def golden() -> dict:
    return load_fixture()


class TestFixtureIntegrity:
    def test_every_case_has_a_fixture_record(self, golden):
        missing = [case["name"] for case in CASES
                   if case["name"] not in golden]
        assert not missing, (
            f"cases without golden records: {missing}; run "
            f"`PYTHONPATH=src python -m tests.golden.capture --write`")

    def test_no_orphaned_fixture_records(self, golden):
        names = {case["name"] for case in CASES}
        orphaned = sorted(set(golden) - names)
        assert not orphaned, f"fixture records without cases: {orphaned}"

    def test_case_names_unique(self):
        names = [case["name"] for case in CASES]
        assert len(names) == len(set(names))

    def test_golden_runs_are_correct_downloads(self, golden):
        # The battery pins *correct* executions; a fixture capturing a
        # failing run would silently bless a broken protocol.
        for name, record in golden.items():
            assert record["correct"] is True, name


@pytest.mark.parametrize("case", CASES, ids=lambda case: case["name"])
def test_trace_is_bit_identical(case, golden):
    expected = golden[case["name"]]
    actual = capture_case(case)
    # Compare field by field for a readable diff on mismatch.
    for key in sorted(set(expected) | set(actual)):
        assert actual.get(key) == expected.get(key), (
            f"{case['name']}: golden mismatch in {key!r}: "
            f"expected {expected.get(key)!r}, got {actual.get(key)!r}")
