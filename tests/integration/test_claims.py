"""The claim table's verdict rule, on a toy claim (n=4, ell=64).

The full table runs in CI's docs job (``examples/reproduce_paper.py``);
here a two-run toy claim pins what counts as off the table: an unmarked
row outside its bound, an incorrect row, a marked finding that holds,
and a shape statement that does not.
"""

from types import SimpleNamespace

import pytest

from repro.execution import ParallelRunner
from repro.experiments import ExperimentSpec
from repro.experiments.claims import CLAIMS, Claim, Row, \
    fooled_above_floor, run_claims, within_bound
from repro.protocols import get

NAIVE = ExperimentSpec(protocol="naive", n=4, ell=64)
#: Balanced trusts every share, so one liar corrupts the download.
LIED_TO = ExperimentSpec(protocol="balanced", n=4, ell=64,
                         fault_model="byzantine", beta=0.25)


def settle(*rows, shape=()):
    return run_claims(ParallelRunner(), claims=(
        Claim("T", "toy", rows, shape=shape),))


class TestVerdictRule:
    def test_a_row_within_its_bound_holds(self):
        text, failures = settle(Row("naive", NAIVE))
        assert failures == 0
        assert "| naive | 64 | 64 |" in text and "| holds |" in text
        assert text.endswith("every claim holds as stated")

    def test_an_unmarked_row_outside_its_bound_fails(self):
        text, failures = settle(Row("naive", NAIVE, bound=32))
        assert failures == 1
        assert "| FAILS |" in text

    def test_an_incorrect_row_fails(self):
        # Within ell/n = 16 bits, but the download is wrong.
        text, failures = settle(Row("balanced", LIED_TO))
        assert failures == 1
        assert "| balanced | 16 | 16 |" in text and "0/1" in text

    def test_a_marked_finding_that_does_not_hold_passes(self):
        text, failures = settle(Row("balanced", LIED_TO,
                                    finding="balanced trusts liars"))
        assert failures == 0
        assert "| finding |" in text
        assert "- finding, balanced: balanced trusts liars" in text

    def test_a_marked_finding_that_holds_fails(self):
        text, failures = settle(Row("naive", NAIVE, finding="stale"))
        assert failures == 1
        assert "| STALE finding |" in text

    def test_a_shape_statement_that_does_not_hold_fails(self):
        text, failures = settle(
            Row("naive", NAIVE), shape=(
                ("naive Q below ell", lambda o: o["naive"]
                 .max_query_complexity < 64),))
        assert failures == 1
        assert "- FAILS: naive Q below ell" in text


class TestFoolingVerdict:
    """Thm 3.2's row is held to its floor by a one-sided binomial
    test, not a point comparison: a uniform flipped bit makes the
    floor tight."""

    ROW = Row("witness", ExperimentSpec(
        "byz-two-cycle", 12, 256, fault_model="byzantine", beta=0.5,
        strategy="majority-simulation"))

    def verdict(self, wrong, runs, floor):
        outcome = SimpleNamespace(
            runs=runs, correct_runs=runs - wrong,
            mean_query_complexity=(1 - floor) * 256)
        return fooled_above_floor(self.ROW, outcome)

    def test_a_rate_just_under_the_floor_holds(self):
        rate, floor, holds = self.verdict(19, 30, 0.657)
        assert (round(rate, 3), round(floor, 3)) == (0.633, 0.657)
        assert holds

    def test_a_rate_far_under_the_floor_fails(self):
        assert not self.verdict(5, 30, 0.657)[2]


class TestTable:
    def test_row_labels_are_unique_per_claim(self):
        for claim in CLAIMS:
            labels = [row.label for row in claim.rows]
            assert len(set(labels)) == len(labels), claim.key

    @pytest.mark.parametrize("claim", [claim for claim in CLAIMS
                                       if claim.verdict is within_bound],
                             ids=lambda claim: claim.key)
    def test_every_row_has_a_bounds_statement(self, claim):
        for row in claim.rows:
            assert registered_bound(row.spec) > 0

    def test_exact_multiples_lie_within_the_registered_bound(self):
        (e17,) = [claim for claim in CLAIMS if claim.key == "E17"]
        for row in e17.rows:
            assert row.bound <= registered_bound(row.spec), row.label


def registered_bound(spec):
    return get(spec.protocol).query_bound(
        spec.ell, spec.n, spec.t, spec.protocol_params, spec.sources)
