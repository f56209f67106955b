"""The `Simulation` façade: assemble, run, and summarize one execution.

Typical use::

    from repro.sim import Simulation
    from repro.protocols import CrashMultiDownloadPeer
    from repro.adversary import CrashAdversary

    sim = Simulation(
        n=16, ell=4096, seed=7,
        peer_factory=CrashMultiDownloadPeer.factory(),
        adversary=CrashAdversary(crash_fraction=0.5),
    )
    result = sim.run()
    assert result.download_correct
    print(result.report)

The input array defaults to a uniformly random one derived from the
seed; pass ``data=`` to pin it (the lower-bound constructions do).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Union

from repro.obs.schema import SCHEMA_VERSION, unified_metrics
from repro.obs.telemetry import get_backend
from repro.sim.errors import ConfigurationError
from repro.sim.metrics import ComplexityReport, MetricsCollector, RunStatus
from repro.sim.network import Network
from repro.sim.peer import Peer, SimEnv
from repro.sim.process import Process
from repro.sim.scheduler import DEFAULT_MAX_EVENTS, Kernel
from repro.sim.source import parse_faults
from repro.sim.sourceset import SourceSet
from repro.sim.trace import TraceRecorder
from repro.topology import resolve_topology
from repro.util.bitarrays import BitArray
from repro.util.rng import SplittableRNG, derive_seed
from repro.util.validation import check_nonnegative, check_positive

PeerFactory = Callable[[int, SimEnv], Peer]


@dataclass
class RunResult:
    """Everything a test or a bench needs from one finished run."""

    data: BitArray
    outputs: dict[int, Optional[BitArray]]
    statuses: dict[int, RunStatus]
    report: ComplexityReport
    honest: set[int]
    faulty: set[int]
    events_processed: int
    elapsed_virtual_time: float
    trace: Optional[TraceRecorder] = None
    #: Per-peer sets of queried bit positions (from the source's log).
    queried_indices: Mapping[int, set[int]] = field(default_factory=dict)
    #: Per-(peer, source) queried positions; empty unless the run had
    #: more than one source endpoint (with one, ``queried_indices`` is
    #: the whole breakdown).
    queried_by_source: Mapping[tuple[int, int], set[int]] = \
        field(default_factory=dict)

    @property
    def download_correct(self) -> bool:
        """True iff every honest peer terminated with the exact input."""
        return all(
            self.statuses[pid].terminated and self.outputs[pid] == self.data
            for pid in self.honest)

    @property
    def all_honest_terminated(self) -> bool:
        """True iff every honest peer produced *some* output."""
        return all(self.statuses[pid].terminated for pid in self.honest)

    def wrong_peers(self) -> list[int]:
        """Honest peers whose output is missing or differs from the input."""
        return [pid for pid in sorted(self.honest)
                if not self.statuses[pid].terminated
                or self.outputs[pid] != self.data]

    def output_of(self, pid: int) -> BitArray:
        """The output of peer ``pid`` (raises if it never terminated)."""
        output = self.outputs.get(pid)
        if output is None:
            raise KeyError(f"peer {pid} produced no output")
        return output


class Simulation:
    """One configured DR-model execution."""

    def __init__(self, *, n: int, peer_factory: PeerFactory,
                 ell: Optional[int] = None,
                 data: Union[BitArray, list, str, None] = None,
                 t: Optional[int] = None,
                 adversary=None,
                 seed: int = 0,
                 message_size_limit: Optional[int] = None,
                 packetize: bool = False,
                 fifo: bool = False,
                 trace: bool = False,
                 allow_fault_overrun: bool = False,
                 sources: int = 1,
                 source_faults=(),
                 mutations=(),
                 extras: Optional[dict] = None,
                 peer_subset=None,
                 topology=None) -> None:
        check_positive("n", n)
        self.n = n
        self.seed = seed
        #: Peer-to-peer connectivity: a spec string (``"ring"``,
        #: ``"random-dregular:4"``, ...), a built
        #: :class:`~repro.topology.Topology`, or ``None``/``"complete"``
        #: for the paper's complete graph.  Complete resolves to
        #: ``None`` so the default engine stays byte-identical; seeded
        #: constructors derive their graph from the run seed.
        self.topology = resolve_topology(topology, n, seed)
        self.rng = SplittableRNG(seed)
        self.data = self._resolve_data(data, ell)
        self.ell = len(self.data)
        if self.ell == 0:
            raise ConfigurationError("input array must be non-empty")
        if adversary is None:
            from repro.adversary.base import NullAdversary
            adversary = NullAdversary()
        self.adversary = adversary
        if t is None:
            t = adversary.fault_budget(n)
        check_nonnegative("t", t)
        if t >= n:
            raise ConfigurationError(f"t={t} must be smaller than n={n}")
        self.t = t
        self.peer_factory = peer_factory
        self.message_size_limit = message_size_limit
        self.packetize = packetize
        #: Per-link FIFO delivery (off = the model's non-FIFO default).
        self.fifo = fifo
        self.trace_enabled = trace
        #: The lower-bound constructions (Thm 3.1/3.2) deliberately run
        #: a protocol whose fault assumption ``t`` is *smaller* than
        #: the adversary's real corruption plan; this flag waives the
        #: sanity check that normally rejects such configurations.
        self.allow_fault_overrun = allow_fault_overrun
        #: The external source: ``sources`` endpoints, each with an
        #: optional fault spec (see :mod:`repro.sim.source`; a custom
        #: endpoint is a :class:`~repro.sim.source.SourceFault`
        #: instance in this list).  Faults are parsed here so a bad
        #: grammar fails at construction, not mid-run.
        check_positive("sources", sources)
        self.sources = sources
        self.source_faults = parse_faults(tuple(source_faults), sources)
        #: Scheduled truth flips ``(time, index)``: a mutable ``X``
        #: (read-time rule in :mod:`repro.sim.sourceset`).
        self.mutations = tuple(mutations)
        self.extras = dict(extras or {})
        #: Restrict instantiation to these pids (sharded execution of
        #: message-free protocols; see :mod:`repro.execution.sharding`).
        #: Global parameters — ``n``, seeds, the input — are untouched,
        #: so every derived RNG stream matches the unsharded run.
        self.peer_subset = (None if peer_subset is None
                            else sorted(peer_subset))

    def _resolve_data(self, data, ell) -> BitArray:
        if data is None:
            if ell is None:
                raise ConfigurationError("pass either data= or ell=")
            check_positive("ell", ell)
            return BitArray.random(ell, self.rng.split("input"))
        if isinstance(data, BitArray):
            resolved = data.copy()
        elif isinstance(data, str):
            resolved = BitArray.from_string(data)
        else:
            resolved = BitArray.from_bits(data)
        if ell is not None and ell != len(resolved):
            raise ConfigurationError(
                f"ell={ell} disagrees with len(data)={len(resolved)}")
        return resolved

    # -- running ----------------------------------------------------------------

    def run(self, *, max_events: int = DEFAULT_MAX_EVENTS,
            max_time: Optional[float] = None) -> RunResult:
        """Execute the simulation to completion and summarize it."""
        kernel = Kernel()
        network = Network(kernel, MetricsCollector(), self.adversary,
                          message_size_limit=self.message_size_limit,
                          packetize=self.packetize, fifo=self.fifo,
                          topology=self.topology,
                          route_seed=derive_seed(self.seed, "routing"))
        try:
            return self._run(kernel, network, max_events, max_time)
        finally:
            # Kernel, network and peers reference each other in rings;
            # cut them, also when the run raised (see Kernel.unlink).
            kernel.unlink()
            network.unlink()

    def _run(self, kernel: Kernel, network: Network, max_events: int,
             max_time: Optional[float]) -> RunResult:
        metrics = network.metrics
        trace = TraceRecorder() if self.trace_enabled else None
        # Resolve the process-global telemetry backend exactly once per
        # run: every instrumentation site below holds either the live
        # backend or None, so a disabled backend costs each site one
        # ``is not None`` check and the kernel's event loop nothing.
        backend = get_backend()
        sink = backend if backend.enabled else None
        network.trace = trace
        kernel.telemetry = sink
        network.telemetry = sink
        source = SourceSet(self.data.copy(), metrics, network,
                           self.adversary, k=self.sources,
                           faults=self.source_faults, rng=self.rng,
                           mutations=self.mutations)
        source.telemetry = sink
        env = SimEnv(kernel=kernel, network=network, source=source,
                     metrics=metrics, adversary=self.adversary,
                     n=self.n, t=self.t, ell=self.ell, rng=self.rng,
                     message_size_limit=self.message_size_limit,
                     trace=trace, telemetry=sink, extras=self.extras,
                     topology=self.topology)
        self.adversary.bind(env)

        processes: dict[int, Process] = {}
        planned_faulty = set(self.adversary.faulty_peers())
        if len(planned_faulty) > self.t and not self.allow_fault_overrun:
            raise ConfigurationError(
                f"adversary plans {len(planned_faulty)} faults but t={self.t}")
        if sink is not None:
            header = {"schema": SCHEMA_VERSION, "n": self.n,
                      "ell": self.ell, "t_budget": self.t,
                      "seed": self.seed,
                      "adversary": type(self.adversary).__name__,
                      "planned_faulty": sorted(planned_faulty)}
            protocol_class = getattr(self.peer_factory, "protocol_class",
                                     None)
            if protocol_class is not None:
                header["protocol"] = getattr(protocol_class,
                                             "protocol_name",
                                             protocol_class.__name__)
            sink.emit("run_header", header)
        pids = (range(self.n) if self.peer_subset is None
                else self.peer_subset)
        for pid in pids:
            if pid in planned_faulty:
                process = self.adversary.make_faulty_peer(
                    pid, env, self.peer_factory)
            else:
                process = self.peer_factory(pid, env)
            processes[pid] = process
            network.attach(process)
            start_at = float(self.adversary.start_time(pid))
            metrics.record_start(pid, start_at)
            kernel.register(process, start_at=start_at)
        self.adversary.after_setup(processes)

        kernel.run(max_events=max_events, max_time=max_time)

        actually_faulty = set(self.adversary.actually_faulty())
        honest = set(pids) - actually_faulty
        statuses = {}
        outputs: dict[int, Optional[BitArray]] = {}
        for pid, process in processes.items():
            output = getattr(process, "output", None)
            outputs[pid] = output
            statuses[pid] = RunStatus(
                pid=pid,
                terminated=output is not None,
                crashed=process.halted,
                byzantine=pid in planned_faulty and not process.halted,
                termination_time=metrics.termination_time.get(pid),
            )
        result = RunResult(
            data=self.data,
            outputs=outputs,
            statuses=statuses,
            report=metrics.report(honest),
            honest=honest,
            faulty=actually_faulty,
            events_processed=kernel.events_processed,
            elapsed_virtual_time=kernel.now,
            trace=trace,
            # A snapshot of the ledger's masks; a peer's set is built
            # when somebody reads it, which most runs never do.
            queried_indices=source.queried_indices,
            queried_by_source=(source.queried_by_source
                               if self.sources > 1 else {}),
        )
        if sink is not None:
            sink.emit("run_summary", unified_metrics(result))
        return result


def run_download(*, n: int, peer_factory: PeerFactory,
                 ell: Optional[int] = None, data=None, t: Optional[int] = None,
                 adversary=None, seed: int = 0,
                 message_size_limit: Optional[int] = None,
                 packetize: bool = False,
                 fifo: bool = False,
                 trace: bool = False,
                 sources: int = 1,
                 source_faults=(),
                 mutations=(),
                 extras: Optional[dict] = None,
                 topology=None,
                 max_events: int = DEFAULT_MAX_EVENTS) -> RunResult:
    """One-call convenience: build a :class:`Simulation` and run it."""
    simulation = Simulation(
        n=n, peer_factory=peer_factory, ell=ell, data=data, t=t,
        adversary=adversary, seed=seed,
        message_size_limit=message_size_limit, packetize=packetize,
        fifo=fifo, trace=trace, sources=sources,
        source_faults=source_faults, mutations=mutations, extras=extras,
        topology=topology)
    return simulation.run(max_events=max_events)
