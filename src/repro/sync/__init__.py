"""Round-native synchronous DR model (the prior-work setting).

A lockstep engine (:mod:`~repro.sync.engine`), a host that runs the
registry's protocol bodies on it unchanged (:mod:`~repro.sync.host`;
:mod:`~repro.sync.escalate` is the one round-model refinement of such
a body), and the one lockstep-native algorithm, the crash family's
(:mod:`~repro.sync.protocols`).  The adversary is the simulator's: a
spec's ``ADVERSARIES`` entry, whose corrupted peers are hosted bodies
and whose crashes cut a round's outbox.  Round counts here are the
exact round complexity the synchronous papers report.
"""

from repro.sync.engine import (
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
    "SyncConfig",
    "SyncCrashPeer",
    "SyncEngine",
    "SyncPeer",
    "SyncRunResult",
    "SyncSource",
    "hosted_factory",
    "run_sync_download",
]
