"""Unit tests for the Byzantine adversary and corruption strategies."""

from dataclasses import dataclass

import pytest

from repro.adversary import (
    ByzantineAdversary,
    EquivocateStrategy,
    SelectiveSilenceStrategy,
    SilentStrategy,
    WrongBitsStrategy,
    flip_bitlike_fields,
)
from repro.protocols import ByzCommitteeDownloadPeer, NaiveDownloadPeer
from repro.protocols.balanced import ShareMessage
from repro.protocols.byz_committee import CommitteeReport
from repro.sim import run_download
from repro.sim.messages import Message
from repro.util.bitarrays import BitRun


EMPTY = BitRun((), b"")


@dataclass(frozen=True)
class Carrier(Message):
    string: str
    values: BitRun
    label: str
    count: int


class TestFlipBitlikeFields:
    def test_flips_bit_strings(self):
        message = Carrier(sender=0, string="0101", values=EMPTY, label="keep",
                          count=3)
        flipped = flip_bitlike_fields(message)
        assert flipped.string == "1010"

    def test_flips_bit_dicts(self):
        message = Carrier(sender=0, string="",
                          values=BitRun((1, 2), b"\x00\x01"),
                          label="keep", count=3)
        flipped = flip_bitlike_fields(message)
        assert flipped.values == {1: 1, 2: 0}

    def test_leaves_non_bit_fields_alone(self):
        message = Carrier(sender=0, string="01", values=EMPTY, label="keep",
                          count=3)
        flipped = flip_bitlike_fields(message)
        assert flipped.label == "keep" and flipped.count == 3
        assert flipped.sender == 0

    def test_non_bit_string_untouched(self):
        message = Carrier(sender=0, string="hello", values=EMPTY, label="x",
                          count=0)
        assert flip_bitlike_fields(message).string == "hello"

    def test_no_bitlike_fields_returns_same_object(self):
        message = Carrier(sender=0, string="abc", values=EMPTY, label="x",
                          count=0)
        assert flip_bitlike_fields(message) is message


class TestConfiguration:
    def test_requires_exactly_one_target_spec(self):
        with pytest.raises(ValueError, match="exactly one"):
            ByzantineAdversary()
        with pytest.raises(ValueError, match="exactly one"):
            ByzantineAdversary(fraction=0.1, corrupted={1})

    def test_fraction_budget(self):
        assert ByzantineAdversary(fraction=0.4).fault_budget(10) == 4

    def test_unknown_peer_rejected(self):
        with pytest.raises(ValueError, match="unknown peer"):
            run_download(n=4, ell=16, t=1,
                         peer_factory=NaiveDownloadPeer.factory(),
                         adversary=ByzantineAdversary(corrupted={9}))


class TestWrappedExecution:
    def run_committee(self, strategy_factory, seed=1):
        adversary = ByzantineAdversary(corrupted={1, 3},
                                       strategy_factory=strategy_factory)
        return run_download(
            n=8, ell=128,
            peer_factory=ByzCommitteeDownloadPeer.factory(block_size=8),
            adversary=adversary, seed=seed)

    def test_wrong_bits_does_not_break_committee(self):
        result = self.run_committee(lambda pid: WrongBitsStrategy())
        assert result.download_correct

    def test_equivocate_does_not_break_committee(self):
        result = self.run_committee(lambda pid: EquivocateStrategy())
        assert result.download_correct

    def test_silent_does_not_break_committee(self):
        result = self.run_committee(lambda pid: SilentStrategy())
        assert result.download_correct

    def test_selective_silence_does_not_break_committee(self):
        result = self.run_committee(
            lambda pid: SelectiveSilenceStrategy(serve_below=4))
        assert result.download_correct

    def test_byzantine_peers_excluded_from_outputs_check(self):
        result = self.run_committee(lambda pid: SilentStrategy())
        assert result.faulty == {1, 3}
        assert result.honest == {0, 2, 4, 5, 6, 7}

    def test_byzantine_traffic_not_charged(self):
        result = self.run_committee(lambda pid: WrongBitsStrategy())
        assert 1 not in result.report.per_peer_messages
        assert 3 not in result.report.per_peer_messages


class TestStrategies:
    def test_silent_drops_everything(self):
        strategy = SilentStrategy()
        message = ShareMessage(sender=1, values=BitRun((0,), b"\x01"))
        assert strategy.corrupt(message, 0, 1) is None

    def test_equivocate_splits_by_destination_parity(self):
        strategy = EquivocateStrategy()
        report = CommitteeReport(sender=1, block=0, string="0011")
        assert strategy.corrupt(report, 2, 1).string == "0011"
        assert strategy.corrupt(report, 3, 1).string == "1100"

    def test_selective_silence_default_threshold_is_own_pid(self):
        strategy = SelectiveSilenceStrategy()
        message = ShareMessage(sender=5, values=EMPTY)
        assert strategy.corrupt(message, 3, 5) is message
        assert strategy.corrupt(message, 7, 5) is None

    def test_wrong_bits_flips_committee_report(self):
        strategy = WrongBitsStrategy()
        report = CommitteeReport(sender=1, block=2, string="000")
        corrupted = strategy.corrupt(report, 0, 1)
        assert corrupted.string == "111"
        assert corrupted.block == 2
