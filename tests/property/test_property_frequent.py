"""Property-based tests for the tau-frequency machinery."""

from collections import defaultdict

from hypothesis import given, settings, strategies as st

from repro.core.frequent import FrequencyTable


@st.composite
def report_batches(draw):
    """A batch of (sender, segment, string) reports."""
    return draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=15),   # sender
                  st.integers(min_value=0, max_value=3),    # segment
                  st.text(alphabet="01", min_size=2, max_size=4)),
        max_size=60))


class TestFrequencyProperties:
    @given(report_batches(), st.integers(min_value=1, max_value=8))
    @settings(max_examples=200, deadline=None)
    def test_frequent_matches_brute_force(self, reports, tau):
        table = FrequencyTable()
        truth: dict[tuple[int, str], set[int]] = defaultdict(set)
        for sender, segment, string in reports:
            table.add(sender, segment, string)
            truth[(segment, string)].add(sender)
        for segment in range(4):
            expected = {string
                        for (seg, string), senders in truth.items()
                        if seg == segment and len(senders) >= tau}
            assert table.frequent(segment, tau) == expected

    @given(report_batches())
    @settings(max_examples=150, deadline=None)
    def test_monotone_in_tau(self, reports):
        table = FrequencyTable()
        for sender, segment, string in reports:
            table.add(sender, segment, string)
        for segment in range(4):
            previous = None
            for tau in range(1, 6):
                current = table.frequent(segment, tau)
                if previous is not None:
                    assert current <= previous
                previous = current

    @given(report_batches())
    @settings(max_examples=150, deadline=None)
    def test_duplicates_never_change_anything(self, reports):
        once = FrequencyTable()
        thrice = FrequencyTable()
        for sender, segment, string in reports:
            once.add(sender, segment, string)
            for _ in range(3):
                thrice.add(sender, segment, string)
        for segment in range(4):
            for tau in (1, 2, 3):
                assert once.frequent(segment, tau) == \
                    thrice.frequent(segment, tau)

    @given(report_batches())
    @settings(max_examples=150, deadline=None)
    def test_total_reports_bounded_by_sender_string_pairs(self, reports):
        # A string with support k is in Freq(tau) for tau = 1 .. k, so
        # summing |Freq(tau)| over every tau counts each distinct
        # (sender, segment, string) report once.
        table = FrequencyTable()
        for sender, segment, string in reports:
            table.add(sender, segment, string)
        distinct = len({(sender, segment, string)
                        for sender, segment, string in reports})
        assert sum(len(table.frequent(segment, tau))
                   for segment in range(4) for tau in range(1, 17)) \
            == distinct
