"""Deterministic event simulation of the DR model.

The subpackage provides the asynchronous message-passing substrate the
paper's protocols run on: a virtual-time kernel
(:mod:`~repro.sim.scheduler`), a complete peer-to-peer network whose
per-message delays are chosen by a pluggable adversary
(:mod:`~repro.sim.network`), the external data source with
query accounting (:mod:`~repro.sim.source`), and the :class:`Peer` API
protocols are written against (:mod:`~repro.sim.peer`).

Entry point: :class:`Simulation` / :func:`run_download` in
:mod:`~repro.sim.runner`.
"""

from repro.sim.errors import (
    BudgetExceeded,
    ConfigurationError,
    DeadlockError,
    ProtocolViolation,
    SimulationError,
)
from repro.sim.messages import FIELD_BITS, HEADER_BITS, SOURCE_ID, Message
from repro.sim.metrics import ComplexityReport, MetricsCollector, RunStatus
from repro.sim.network import WITHHOLD, Network, WithheldMessage
from repro.sim.peer import MessageLog, Peer, SimEnv
from repro.sim.process import Process, Sleep, WaitUntil
from repro.sim.runner import RunResult, Simulation, run_download
from repro.sim.scheduler import Kernel
from repro.sim.source import (
    PerReaderViewFault,
    SlowFault,
    SourceFault,
    StaleFault,
    ViewFault,
    WithholdFault,
    WrongBitsFault,
    parse_fault,
    parse_faults,
)
from repro.sim.sourceset import SourceSet
from repro.sim.trace import TraceRecord, TraceRecorder

__all__ = [
    "BudgetExceeded",
    "ComplexityReport",
    "ConfigurationError",
    "DeadlockError",
    "FIELD_BITS",
    "HEADER_BITS",
    "Kernel",
    "Message",
    "MessageLog",
    "MetricsCollector",
    "Network",
    "Peer",
    "Process",
    "ProtocolViolation",
    "RunResult",
    "RunStatus",
    "SimEnv",
    "Simulation",
    "SimulationError",
    "Sleep",
    "SOURCE_ID",
    "TraceRecord",
    "TraceRecorder",
    "WaitUntil",
    "WITHHOLD",
    "WithheldMessage",
    "run_download",
]
