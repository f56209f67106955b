"""The paper's Download protocols.

===================  ==========================  ====================
Protocol             Paper artifact              Regime
===================  ==========================  ====================
naive                folklore baseline           any ``beta < 1``
balanced             Section 1.2 ideal           fault-free
crash-one            Algorithm 1 / Thm 2.3       one crash
crash-multi          Algorithm 2 / Lemma 2.11    any crash fraction
crash-multi-fast     Theorem 2.13                any crash fraction
byz-committee        Theorem 3.4                 Byzantine, beta < 1/2
byz-two-cycle        Protocol 4 / Theorem 3.7    Byzantine, beta < 1/2
byz-multi-cycle      Theorem 3.12                Byzantine, beta < 1/2
===================  ==========================  ====================

For ``beta >= 1/2`` the naive protocol is provably the only
deterministic option (Theorem 3.1) and randomization cannot help
(Theorem 3.2) — see :mod:`repro.lowerbounds`.
"""

from repro.protocols.balanced import BalancedDownloadPeer, ShareMessage
from repro.protocols.base import DownloadPeer
from repro.protocols.byz_committee import (
    ByzCommitteeDownloadPeer,
    CommitteeReport,
)
from repro.protocols.byz_multi_cycle import (
    ByzMultiCycleDownloadPeer,
    CycleReport,
    choose_base_segments,
)
from repro.protocols.byz_two_cycle import (
    ByzTwoCycleDownloadPeer,
    SegmentReport,
    TwoCycleParameters,
    choose_two_cycle_parameters,
)
from repro.protocols.crash_multi import (
    CrashMultiDownloadPeer,
    CrashMultiFastDownloadPeer,
    default_direct_threshold,
    planned_phases,
)
from repro.protocols.crash_one import CrashOneDownloadPeer
from repro.protocols.decode import (
    majority_decode,
    majority_threshold,
    threshold_decode,
)
from repro.protocols.multisource import (
    CrossValidateDownloadPeer,
    CrossValidateEscalateDownloadPeer,
)
from repro.protocols.naive import NaiveDownloadPeer
from repro.protocols.one_round import OneRoundDownloadPeer, OneRoundShare
from repro.protocols.retrieval import (
    count_ones,
    index_of_first_one,
    majority_bit,
    make_retrieval_class,
    parity,
    retrieval_outputs,
    segment_extractor,
)
from repro.protocols.registry import (
    ProtocolEntry,
    all_protocols,
    get,
    protocols_for,
)

__all__ = [
    "BalancedDownloadPeer",
    "ByzCommitteeDownloadPeer",
    "ByzMultiCycleDownloadPeer",
    "ByzTwoCycleDownloadPeer",
    "CommitteeReport",
    "CrashMultiDownloadPeer",
    "CrashMultiFastDownloadPeer",
    "CrashOneDownloadPeer",
    "CrossValidateDownloadPeer",
    "CrossValidateEscalateDownloadPeer",
    "CycleReport",
    "DownloadPeer",
    "NaiveDownloadPeer",
    "OneRoundDownloadPeer",
    "OneRoundShare",
    "ProtocolEntry",
    "SegmentReport",
    "ShareMessage",
    "TwoCycleParameters",
    "all_protocols",
    "choose_base_segments",
    "count_ones",
    "majority_decode",
    "majority_threshold",
    "threshold_decode",
    "index_of_first_one",
    "majority_bit",
    "make_retrieval_class",
    "parity",
    "retrieval_outputs",
    "segment_extractor",
    "choose_two_cycle_parameters",
    "default_direct_threshold",
    "get",
    "planned_phases",
    "protocols_for",
]
