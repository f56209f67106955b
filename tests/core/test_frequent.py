"""Unit tests for tau-frequent string bookkeeping."""

import pytest

from repro.core.frequent import FrequencyTable


class TestFrequencyTable:
    def test_support_counts_distinct_senders(self):
        table = FrequencyTable()
        table.add(0, 1, "101")
        table.add(1, 1, "101")
        table.add(0, 1, "101")  # repeat: must not inflate
        assert table.frequent(1, 2) == {"101"}
        assert table.frequent(1, 3) == set()

    def test_frequent_threshold(self):
        table = FrequencyTable()
        for sender in range(3):
            table.add(sender, 0, "111")
        table.add(9, 0, "000")
        assert table.frequent(0, 3) == {"111"}
        assert table.frequent(0, 1) == {"111", "000"}
        assert table.frequent(0, 4) == set()

    def test_frequent_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            FrequencyTable().frequent(0, 0)

    def test_unknown_segment_is_empty(self):
        table = FrequencyTable()
        assert table.frequent(42, 1) == set()

    def test_byzantine_spam_capped_at_one_per_sender(self):
        # The attack the distinct-sender rule exists for.
        table = FrequencyTable()
        for _ in range(1000):
            table.add(13, 0, "fake-bits".replace("fake-bits", "0101"))
        assert table.frequent(0, 1) == {"0101"}
        assert table.frequent(0, 2) == set()
