"""Size accounting of the protocol wire messages.

The message-size parameter ``b`` is part of the model; these tests pin
the custom ``size_bits`` implementations so message-bit metrics (and
the packetized time model) stay meaningful.
"""

from repro.protocols.balanced import ShareMessage
from repro.protocols.byz_committee import CommitteeReport
from repro.protocols.byz_multi_cycle import CycleReport
from repro.protocols.byz_two_cycle import SegmentReport
from repro.protocols.crash_multi import (
    DataRequest,
    DataResponse,
    FullArray,
    MissingRequest,
    MissingResponse,
)
from repro.protocols.crash_one import Probe, ProbeReply, ShareValues
from repro.sim.messages import FIELD_BITS, HEADER_BITS
from repro.util.bitarrays import BitRun


class TestCrashMultiMessages:
    def test_data_request_scales_with_indices(self):
        small = DataRequest(sender=0, phase=1, indices=(1,))
        large = DataRequest(sender=0, phase=1, indices=tuple(range(100)))
        assert large.size_bits() > small.size_bits()

    def test_missing_request_counts_all_needs(self):
        message = MissingRequest(sender=0, phase=2,
                                 needs={3: (1, 2, 3), 5: (9,)})
        expected = HEADER_BITS + FIELD_BITS + (
            FIELD_BITS * (1 + 3) + FIELD_BITS * (1 + 1))
        assert message.size_bits() == expected

    def test_missing_response_me_neither_is_cheap(self):
        shrug = MissingResponse(sender=0, phase=1, found={3: None})
        carrying = MissingResponse(sender=0, phase=1,
                                   found={3: BitRun((1, 2), b"\x00\x01")})
        assert shrug.size_bits() < carrying.size_bits()

    def test_full_array_costs_its_bits(self):
        message = FullArray(sender=0, bits="01" * 512)
        assert message.size_bits() == HEADER_BITS + 1024

    def test_data_response_includes_flag_and_values(self):
        message = DataResponse(sender=0, phase=1, values=BitRun((7,), b"\x01"),
                               complete=True)
        assert message.size_bits() >= HEADER_BITS + FIELD_BITS + 1


class TestReportMessages:
    def test_committee_report(self):
        message = CommitteeReport(sender=2, block=5, string="0" * 64)
        assert message.size_bits() == HEADER_BITS + FIELD_BITS + 64

    def test_segment_report(self):
        message = SegmentReport(sender=2, segment=1, string="1" * 128)
        assert message.size_bits() == HEADER_BITS + FIELD_BITS + 128

    def test_cycle_report_scales_with_cycle_string(self):
        small = CycleReport(sender=0, cycle=1, segment=0, string="0" * 32)
        large = CycleReport(sender=0, cycle=2, segment=0, string="0" * 64)
        assert large.size_bits() - small.size_bits() == 32


class TestCrashOneMessages:
    def test_share_values(self):
        message = ShareValues(sender=1, phase=1,
                              values=BitRun((0, 8), b"\x01\x00"))
        assert message.size_bits() > HEADER_BITS

    def test_probe_none_is_legal_and_tiny(self):
        message = Probe(sender=1, phase=1, missing=None)
        assert message.size_bits() <= HEADER_BITS + FIELD_BITS + 1

    def test_probe_reply_me_neither_cheaper_than_values(self):
        shrug = ProbeReply(sender=1, phase=1, about=3, values=None)
        values = ProbeReply(sender=1, phase=1, about=3,
                            values=BitRun(range(3), b"\x01\x00\x01"))
        assert shrug.size_bits() < values.size_bits()
