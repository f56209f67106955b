"""Round-native synchronous DR model (the prior-work setting).

A lockstep engine (:mod:`~repro.sync.engine`), a host that runs the
registry's protocol bodies on it unchanged (:mod:`~repro.sync.host`;
:mod:`~repro.sync.escalate` is the one round-model refinement of such
a body), the one lockstep-native algorithm, the crash family's
(:mod:`~repro.sync.protocols`), and round-model adversaries including
the classic *rushing* Byzantine adversary
(:mod:`~repro.sync.adversaries`).  Round counts here are the exact
round complexity the synchronous papers report.
"""

from repro.sync.adversaries import (
    RoundCrashAdversary,
    RushingEchoAdversary,
    SilentSyncAdversary,
    fraction_corrupted,
)
from repro.sync.engine import (
    SyncAdversary,
    SyncConfig,
    SyncEngine,
    SyncPeer,
    SyncRunResult,
    SyncSource,
    run_sync_download,
)
from repro.sync.escalate import EscalationAlert, LockstepEscalatePeer
from repro.sync.host import LockstepHost, hosted_factory
from repro.sync.protocols import SyncCrashPeer

__all__ = [
    "EscalationAlert",
    "LockstepEscalatePeer",
    "LockstepHost",
    "RoundCrashAdversary",
    "RushingEchoAdversary",
    "SilentSyncAdversary",
    "SyncAdversary",
    "SyncConfig",
    "SyncCrashPeer",
    "SyncEngine",
    "SyncPeer",
    "SyncRunResult",
    "SyncSource",
    "fraction_corrupted",
    "hosted_factory",
    "run_sync_download",
]
