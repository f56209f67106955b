"""The six workloads.

Each stresses one part of the stack and leaves the others idle, so an
optimisation has one workload that exercises it and one that bypasses
it (``bench/README.md`` has the pairing table).  An *op* is defined per
workload; every op checks its own output and raises
:class:`CheckFailed` on a breach, which the run loop records as a
failed op and never as a timed sample.  Inputs and per-op seeds derive
from ``--seed`` here — the program only ever sees generated inputs —
and no opt-in knob (``scale=``, ``REPRO_*``) is passed anywhere.
"""

from __future__ import annotations

import cProfile
import dataclasses
import itertools
import json
import random
import shutil
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from repro.execution import ResultCache
from repro.experiments import (ExperimentSpec, execute_repeat,
                               sweep_experiment)
from repro.obs import RecordingTelemetry, using, write_events
from repro.protocols.balanced import ShareMessage
from repro.protocols.base import DownloadPeer
from repro.service import ServiceClient
from repro.sim import Simulation

from bench import probes
from bench.contract import (MIN_OPS, NPROC, TRACE_JOBS, TRACE_OPS, derive,
                            percentile)
from bench.tracing import SpanRecorder, clock, fold_profile, live_cpu


class CheckFailed(Exception):
    """An op's output broke a correctness gate."""


@dataclass
class Sample:
    """One timed op: wall seconds, CPU seconds, work units done."""

    seconds: float
    cpu: float
    work: int


@dataclass
class Run:
    """One phase of ops: the timed samples and the failed ops."""

    samples: list
    failures: list


class Workload:
    """Sequential closed loop: one op at a time, each timing itself."""

    name = ""
    #: What ``work_per_s`` counts on this workload.
    work_unit = ""
    #: Ops run inside this process, so a ``cProfile`` of the traced
    #: phase sees the program (not just a pool or a socket).
    in_process = True
    #: Ops per phase of the traced run.
    trace_ops = TRACE_OPS
    #: ``fold_profile`` output of a profile the workload took itself
    #: (only where the runner's own profile would see no program code).
    profile_shares: dict = {}

    def __init__(self, seed: int, run_dir: Path, tracer: SpanRecorder,
                 tiny: bool = False) -> None:
        self.seed = seed
        self.run_dir = run_dir
        self.tracer = tracer
        #: Selftest sizing: same code paths, a fraction of the work.
        self.tiny = tiny
        #: Exact counts of the current phase (reset by the runner).
        self.counts: Counter = Counter()

    def setup(self) -> None:
        """Everything before the first op that is not an op."""

    def op(self, index: int) -> Sample:
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop whatever ``setup`` started."""

    def run(self, first: int, *, seconds=None, ops=None) -> Run:
        """Ops ``first, first+1, ...``: exactly ``ops`` of them, or
        until ``seconds`` have passed and at least ``MIN_OPS`` ran."""
        samples, failures = [], []
        started = time.perf_counter()
        for index in itertools.count(first):
            done = index - first
            if ops is not None:
                if done >= ops:
                    break
            elif (done >= MIN_OPS
                  and time.perf_counter() - started >= seconds):
                break
            try:
                with self.tracer.span("op", op=index):
                    samples.append(self.op(index))
            except Exception as exc:  # a failed op is a result, not a crash
                failures.append(f"op {index}: {type(exc).__name__}: {exc}")
        return Run(samples, failures)

    def layer_values(self, reference: Run, traced: Run) -> dict:
        """Per-layer metrics this workload owns: counts and span sums
        of the traced phase, and its home probes.  ``reference`` is the
        untraced phase run just before.  Called after ``teardown``,
        with the span recorder switched off again."""
        return {}

    def _per_op(self, traced: Run, span_name: str) -> float:
        """Mean seconds per traced op spent in spans named so."""
        ops = max(1, len(traced.samples))
        return sum(self.tracer.durations(span_name)) / ops


# -- sim_dense / sim_sparse ---------------------------------------------------

class BroadcastProbePeer(DownloadPeer):
    """Peer 0 broadcasts one 32-bit slice; everyone then completes
    naively.  M is exactly one routed broadcast, so on a big sparse
    graph the run is a few thousand events on top of one BFS table per
    destination — the routing-construction case."""

    protocol_name = "bench-broadcast-probe"

    def body(self):
        self.begin_cycle()
        head = min(self.ell, 32)
        if self.pid == 0:
            values = yield from self.query_bits(range(head))
            self.learn_many(values)
            self.broadcast(ShareMessage(sender=self.pid, values=values))
        else:
            yield self.wait_for_messages(
                ShareMessage, 1, description="the probe broadcast")
            for message in self.inbox.of_type(ShareMessage):
                self.learn_many(message.values)
        self.begin_cycle()
        rest = yield from self.query_bits(
            range(0 if self.pid == 0 else head, self.ell))
        self.learn_many(rest)
        self.finish_with_working()


def _shrunk(case: dict) -> dict:
    return dict(case, n=max(8, case["n"] // 4),
                ell=max(64, case["ell"] // 8))


class SimRounds(Workload):
    """Op = one round over a fixed case list on the default engine."""

    work_unit = "events"
    cases: tuple = ()

    def op(self, index: int) -> Sample:
        span = self.tracer.span
        counts = self.counts
        base_seed = derive(self.seed, self.name, index)
        events = 0
        wall0, cpu0 = clock()
        for case in self.cases:
            if self.tiny:
                case = _shrunk(case)
            if case.get("protocol") == "probe":
                factory, adversary, fault_budget = \
                    BroadcastProbePeer.factory(), None, None
                n, ell, topology = case["n"], case["ell"], case["topology"]
                seed = base_seed
            else:
                spec = ExperimentSpec(base_seed=base_seed, **case)
                with span("protocols.factory"):
                    factory = spec.peer_factory()
                    adversary = spec.build_adversary()
                n, ell, topology = spec.n, spec.ell, spec.topology
                fault_budget, seed = spec.t, spec.seed_for(0)
            with span("sim.build"):
                simulation = Simulation(
                    n=n, ell=ell, peer_factory=factory,
                    adversary=adversary, t=fault_budget, seed=seed,
                    topology=topology)
            with span("sim.run"):
                result = simulation.run()
            if not result.download_correct:
                raise CheckFailed(f"{case} seed {seed}: wrong download")
            report = result.report
            events += result.events_processed
            counts["sim.events"] += result.events_processed
            counts["protocols.Q_bits"] += report.query_complexity
            counts["protocols.M_msgs"] += report.message_complexity
            counts["T_virtual"] += report.time_complexity
            if topology != "complete":
                counts["sim.relay_hops"] += report.message_complexity
        wall1, cpu1 = clock()
        return Sample(wall1 - wall0, cpu1 - cpu0, events)

    def layer_values(self, reference: Run, traced: Run) -> dict:
        counts = self.counts
        return {
            "sim.build_s": self._per_op(traced, "sim.build"),
            "sim.run_s": self._per_op(traced, "sim.run"),
            "protocols.factory_s": self._per_op(traced,
                                                "protocols.factory"),
            "sim.events": counts["sim.events"],
            "sim.relay_hops": counts["sim.relay_hops"],
            "protocols.Q_bits": counts["protocols.Q_bits"],
            "protocols.M_msgs": counts["protocols.M_msgs"],
            "protocols.T_virtual": counts["T_virtual"],
        }


class SimDense(SimRounds):
    """Kernel, network fast path and protocols on the complete graph.
    Topology, execution and service do nothing here."""

    name = "sim_dense"
    cases = (
        {"protocol": "byz-committee", "n": 128, "ell": 2048,
         "fault_model": "byzantine", "beta": 0.02,
         "protocol_params": {"block_size": 128}},
        {"protocol": "byz-two-cycle", "n": 64, "ell": 4096,
         "fault_model": "byzantine", "beta": 0.1},
        {"protocol": "crash-multi", "n": 16, "ell": 4096,
         "fault_model": "crash", "beta": 0.5},
        {"protocol": "balanced", "n": 80, "ell": 2048},
        {"protocol": "one-round", "n": 32, "ell": 8192,
         "fault_model": "crash", "beta": 0.25},
        # beta sized so exactly one peer crashes (t = 1).
        {"protocol": "crash-one", "n": 40, "ell": 4096,
         "fault_model": "crash", "beta": 0.03},
    )

    def layer_values(self, reference: Run, traced: Run) -> dict:
        values = super().layer_values(reference, traced)
        values.update(probes.bitarray_bulk(self.seed))
        values.update(probes.kernel_throughput(
            10_000 if self.tiny else 100_000))
        values.update(self._telemetry_price())
        return values

    def _telemetry_price(self) -> dict:
        """One round with the default no-op telemetry backend, the same
        round under a recording one, and the export of what it kept."""
        plain, recorded = [], []
        # Interleaved pairs, so host drift lands on both arms alike.
        for pair in range(1 if self.tiny else TRACE_OPS):
            index = derive(self.seed, "telemetry-arm", pair)
            plain.append(self.op(index).seconds)
            with using(RecordingTelemetry()) as recording:
                recorded.append(self.op(index).seconds)
        start = time.perf_counter()
        written = write_events(self.run_dir / "telemetry.jsonl",
                               recording.events)
        return {"obs.recording_overhead_ratio":
                median(recorded) / median(plain),
                "obs.events_recorded": written,
                "obs.export_s": time.perf_counter() - start}


class SimSparse(SimRounds):
    """Hop-by-hop relay and routing-table construction; the dense fast
    path is bypassed entirely."""

    name = "sim_sparse"
    cases = (
        {"protocol": "balanced", "n": 48, "ell": 96, "topology": "ring"},
        {"protocol": "balanced", "n": 64, "ell": 128,
         "topology": "expander"},
        {"protocol": "balanced", "n": 64, "ell": 128,
         "topology": "random-dregular:4"},
        {"protocol": "balanced", "n": 64, "ell": 128, "topology": "star"},
        {"protocol": "probe", "n": 256, "ell": 64, "topology": "expander"},
    )

    def layer_values(self, reference: Run, traced: Run) -> dict:
        values = super().layer_values(reference, traced)
        graphs = [(case["topology"], case["n"]) for case in self.cases]
        values.update(probes.topology_build(graphs, self.seed))
        values.update(probes.router_tables(
            [("expander", 64 if self.tiny else 768), ("ring", 64)],
            self.seed))
        return values


# -- backend_parity -----------------------------------------------------------

class BackendParity(Workload):
    """One spec, three engines: the sync and net engines do most of the
    work here and none in ``sim_dense``."""

    name = "backend_parity"
    work_unit = "runs"
    #: (spec fields, backends, Q must agree across backends).  Net runs
    #: are fault-free only: chaos-proxy wall time is backoff sleeps.
    families = (
        ({"protocol": "balanced", "n": 16, "ell": 8192},
         ("sim", "sync", "net"), True),
        ({"protocol": "cross-validate", "n": 8, "ell": 2048, "sources": 3,
          "source_faults": ("wrong-bits:1.0",),
          "protocol_params": {"q": 3}},
         ("sim", "sync", "net"), True),
        ({"protocol": "crash-multi", "n": 16, "ell": 4096,
          "fault_model": "crash", "beta": 0.5}, ("sim", "sync"), False),
        ({"protocol": "byz-committee", "n": 10, "ell": 256,
          "fault_model": "byzantine", "beta": 0.2}, ("sim", "sync"), False),
        ({"protocol": "byz-two-cycle", "n": 32, "ell": 4096,
          "fault_model": "byzantine", "beta": 0.1}, ("sim", "sync"), False),
    )

    def op(self, index: int) -> Sample:
        span = self.tracer.span
        counts = self.counts
        base_seed = derive(self.seed, self.name, index)
        runs = 0
        wall0, cpu0 = clock()
        for fields, backends, same_q in self.families:
            if self.tiny:
                fields = dict(fields, ell=max(64, fields["ell"] // 8))
            queries = {}
            for backend in backends:
                network = ("synchronous" if backend == "sync"
                           else "asynchronous")
                spec = ExperimentSpec(base_seed=base_seed, backend=backend,
                                      network=network, **fields)
                with span(f"{backend}.run"):
                    record = execute_repeat(spec, 0)
                if not record.correct:
                    raise CheckFailed(f"{fields['protocol']} on {backend}, "
                                      f"base seed {base_seed}: incorrect")
                queries[backend] = record.queries
                runs += 1
                counts[f"{backend}.msgs"] += record.messages
                counts["sync.rounds"] += record.rounds or 0
            if same_q and len(set(queries.values())) != 1:
                raise CheckFailed(f"{fields['protocol']}: Q differs "
                                  f"across backends: {queries}")
        wall1, cpu1 = clock()
        return Sample(wall1 - wall0, cpu1 - cpu0, runs)

    def layer_values(self, reference: Run, traced: Run) -> dict:
        counts = self.counts
        spans = self.tracer.totals()
        sync_total = spans.get("sync.run", {}).get("total_s", 0.0)
        net_total = spans.get("net.run", {}).get("total_s", 0.0)
        values = {
            "sync.run_s": self._per_op(traced, "sync.run"),
            "sync.rounds": counts["sync.rounds"],
            "sync.msgs_per_s": (counts["sync.msgs"] / sync_total
                                if sync_total else 0.0),
            "net.run_s": self._per_op(traced, "net.run"),
            "net.msgs_per_s": (counts["net.msgs"] / net_total
                               if net_total else 0.0),
        }
        balanced = self.families[0][0]
        values.update(probes.net_transport(
            self.seed, n=balanced["n"],
            ell=64 if self.tiny else balanced["ell"]))
        return values


# -- sweep_cold / sweep_warm --------------------------------------------------

class _Sweep(Workload):
    """Shared by the two sweep workloads: engine counters come from the
    parent-side telemetry the engine already emits, switched on for the
    traced phase only."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.recording = RecordingTelemetry()

    def _telemetry(self):
        return using(self.recording) if self.tracer.enabled \
            else nullcontext()

    def _engine_counts(self) -> dict:
        counter = self.recording.counter_value
        lookups = self.counts["cache.lookups"]
        return {
            "execution.tasks": counter("tasks_done"),
            "execution.tasks_retried": counter("tasks_retried"),
            "execution.tasks_failed": counter("tasks_failed"),
            "execution.cache_hit_ratio": (self.counts["cache.hits"] / lookups
                                          if lookups else 0.0),
        }

    def _count_cache(self, cache: ResultCache, before=(0, 0)) -> None:
        self.counts["cache.hits"] += cache.stats.hits - before[0]
        self.counts["cache.lookups"] += cache.stats.lookups - before[1]


class SweepCold(_Sweep):
    """The execution engine on a cache miss: pool, pickling, retry
    wrapper, cache put, journal append, aggregation."""

    name = "sweep_cold"
    work_unit = "tasks"
    in_process = False  # the work is in pool children
    betas = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)

    def op(self, index: int, workers: int = NPROC) -> Sample:
        directory = self.run_dir / f"cold-{index}"
        # A fresh base seed, cache and journal per op: nothing is ever
        # served from an earlier op.
        spec = ExperimentSpec(
            protocol="crash-multi", n=16, ell=256 if self.tiny else 1024,
            fault_model="crash", beta=0.25, repeats=2 if self.tiny else 4,
            base_seed=derive(self.seed, self.name, index))
        cache = ResultCache(directory / "cache")
        betas = self.betas[:2] if self.tiny else self.betas
        wall0, cpu0 = clock()
        with self._telemetry(), self.tracer.span("execution.sweep"):
            outcomes = sweep_experiment(
                spec, axis="beta", values=betas, workers=workers,
                cache=cache, journal=directory / "journal.jsonl")
        wall1, cpu1 = clock()
        shutil.rmtree(directory)
        self._count_cache(cache)
        for outcome in outcomes:
            if outcome.failed_runs or outcome.correct_runs != outcome.runs:
                raise CheckFailed(
                    f"beta {outcome.spec.beta}: {outcome.correct_runs}/"
                    f"{outcome.runs} correct, {outcome.failed_runs} failed")
        return Sample(wall1 - wall0, cpu1 - cpu0,
                      sum(outcome.runs for outcome in outcomes))

    def layer_values(self, reference: Run, traced: Run) -> dict:
        values = self._engine_counts()
        # The same task list twice more, serially: once plain for the
        # pool's speed-up, once under cProfile so that worker-side time
        # is attributable.  Against the untraced phase: traced pool
        # children inherit the recording telemetry backend through fork.
        index = derive(self.seed, "serial-arm")
        serial = self.op(index, workers=1)
        pooled = median(sample.seconds for sample in reference.samples)
        values["execution.pool_speedup"] = serial.seconds / pooled
        profile = cProfile.Profile()
        profile.enable()
        self.op(index, workers=1)
        profile.disable()
        self.profile_shares = fold_profile(profile)
        return values


class SweepWarm(_Sweep):
    """The same layer used the other way: reads beside ``sweep_cold``'s
    writes.  The simulator does nothing here; spec hashing, cache-key
    derivation, file read and JSON decode do everything."""

    name = "sweep_warm"
    work_unit = "points"

    def setup(self) -> None:
        rng = random.Random(derive(self.seed, self.name))
        self.spec = ExperimentSpec(**probes.SMALL_SPEC)
        self.values = rng.sample(range(1 << 30), 16 if self.tiny else 256)
        self.cache = ResultCache(self.run_dir / "warm-cache")
        cold = sweep_experiment(self.spec, axis="base_seed",
                                values=self.values, cache=self.cache)
        self.expected = [_canonical(outcome) for outcome in cold]

    def op(self, index: int) -> Sample:
        before = (self.cache.stats.hits, self.cache.stats.lookups)
        wall0, cpu0 = clock()
        with self._telemetry(), self.tracer.span("execution.sweep"):
            outcomes = sweep_experiment(self.spec, axis="base_seed",
                                        values=self.values,
                                        cache=self.cache)
        wall1, cpu1 = clock()
        self._count_cache(self.cache, before)
        if [_canonical(outcome) for outcome in outcomes] != self.expected:
            raise CheckFailed("a cached outcome differs from the cold one")
        return Sample(wall1 - wall0, cpu1 - cpu0, len(outcomes))

    def layer_values(self, reference: Run, traced: Run) -> dict:
        values = self._engine_counts()
        values.update(probes.spec_build(self.seed))
        values.update(probes.cache_key(self.seed))
        values.update(probes.cache_hit(self.run_dir, self.seed))
        # The write side and the pool: ``sweep_cold``'s layers, probed
        # here because this is the execution workload the driver runs.
        values.update(probes.cache_miss_put(self.run_dir, self.seed))
        values.update(probes.journal(self.run_dir, self.seed))
        values.update(probes.pool(20 if self.tiny else 200))
        return values


def _canonical(outcome) -> str:
    return json.dumps(dataclasses.asdict(outcome), sort_keys=True,
                      default=repr)


# -- serve_closed -------------------------------------------------------------

JOB_SPEC = probes.SMALL_SPEC
SYNC_SPEC = {"protocol": "crash-multi", "n": 4, "ell": 64, "repeats": 2,
             "backend": "sync", "network": "synchronous",
             "fault_model": "crash", "beta": 0.25}


class ServeClosed(Workload):
    """Service overhead per job from one closed-loop client: the next
    job is submitted only after the previous result was read, so an op
    is the uncontended cost of a job, not queueing.  (Two clients on
    this 2-core box add 8 % throughput, double the latency and triple
    its run-to-run spread: requests convoy behind the store's
    synchronous file writes.)  Op = submit, wait on the SSE stream,
    fetch the result.  70 % new small specs (execution negligible by
    design), 20 % exact resubmits of a finished spec (the dedup /
    stored-result path), 10 % small sync-backend specs."""

    name = "serve_closed"
    work_unit = "jobs"
    in_process = False  # the program is the server child
    trace_ops = TRACE_JOBS

    def setup(self) -> None:
        port_file = self.run_dir / "port.txt"
        start = time.perf_counter()
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", str(port_file),
             "--data-dir", str(self.run_dir / "service-data"),
             "--cache-dir", str(self.run_dir / "service-cache"),
             "--pool", str(NPROC)],
            stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT)
        while not (port_file.exists() and port_file.read_text().strip()):
            if self.server.poll() is not None:
                raise RuntimeError("the job server died while starting")
            if time.perf_counter() - start > 30:
                raise TimeoutError("the job server never wrote its port")
            time.sleep(0.01)
        self.boot_s = time.perf_counter() - start
        self.client = ServiceClient(
            f"http://127.0.0.1:{port_file.read_text().strip()}",
            timeout=60.0)
        self.sequence = self._sequence()
        #: base seed of a finished new spec -> its result fingerprint.
        self.fingerprints: dict[int, str] = {}
        self.records: list[dict] = []
        self.server_cpu_s = 0.0

    def _sequence(self):
        """The client's jobs, a pure function of the seed.  A resubmit
        names a spec finished earlier in the same sequence; base seeds
        are unique by construction, so a new spec is new."""
        rng = random.Random(f"{self.seed}:serve")
        block = (derive(self.seed, "serve") % 1000) * 1_000_000
        finished: list[int] = []
        for position in itertools.count():
            draw = rng.random()
            if draw < 0.2 and finished:
                yield "resubmit", dict(JOB_SPEC,
                                       base_seed=rng.choice(finished))
            elif draw < 0.3:
                yield "sync", dict(SYNC_SPEC, base_seed=block + position)
            else:
                finished.append(block + position)
                yield "new", dict(JOB_SPEC, base_seed=block + position)

    def op(self, index: int) -> Sample:
        span = self.tracer.span
        client = self.client
        kind, spec = next(self.sequence)
        wall0, cpu0 = clock()
        with span("service.submit"):
            job = client.submit(spec, client="bench")
        submitted = time.perf_counter()
        with span("service.wait"):
            events = list(client.stream(job["id"]))
            final = client.status(job["id"])
        waited = time.perf_counter()
        with span("service.result"):
            payload = client.result(job["id"])
        wall1, cpu1 = clock()
        if (final["state"] != "done" or not final["correct"]
                or final["failed"]):
            raise CheckFailed(f"job {job['id']} ended {final['state']}, "
                              f"correct={final['correct']}")
        fingerprint = json.dumps(payload["outcomes"], sort_keys=True)
        if kind == "resubmit":
            if job["created"]:
                raise CheckFailed("a resubmit created a new job")
            if fingerprint != self.fingerprints[spec["base_seed"]]:
                raise CheckFailed("a resubmit returned a different result")
        elif not job["created"]:
            raise CheckFailed(f"a {kind} spec coalesced into an old job")
        elif kind == "new":
            self.fingerprints[spec["base_seed"]] = fingerprint
        times = {entry["event"]: entry["t"] for entry in events}
        self.records.append({
            "kind": kind, "latency": wall1 - wall0,
            "submit": submitted - wall0, "wait": waited - submitted,
            "result": wall1 - waited,
            "queue_wait": times["job_started"] - times["job_submitted"],
            "execute": times["job_done"] - times["job_started"]})
        return Sample(wall1 - wall0, cpu1 - cpu0, 1)  # + server: see run

    def run(self, first: int, *, seconds=None, ops=None) -> Run:
        """The base loop, bracketed by the server's own counters: the
        dedup contract is checked over exactly the jobs of this phase."""
        before = self.client.stats()["stats"]
        self.records = []
        server_cpu = live_cpu(self.server.pid)
        run = super().run(first, seconds=seconds, ops=ops)
        # ``/proc`` counts CPU in 10 ms ticks, about one op: the server's
        # CPU is taken over the whole phase and shared out evenly.
        server_cpu = live_cpu(self.server.pid) - server_cpu
        for sample in run.samples:
            sample.cpu += server_cpu / len(run.samples)
        after = self.client.stats()["stats"]
        delta = {key: after[key] - before[key] for key in after}
        self.counts.update({f"service.{key}": value
                            for key, value in delta.items()})
        kinds = Counter(record["kind"] for record in self.records)
        fresh = kinds["new"] + kinds["sync"]
        if delta["dedup_hits"] != kinds["resubmit"]:
            run.failures.append(f"{kinds['resubmit']} resubmits but "
                                f"{delta['dedup_hits']} dedup hits")
        if delta["tasks_executed"] != JOB_SPEC["repeats"] * fresh:
            run.failures.append(f"{delta['tasks_executed']} tasks executed "
                                f"for {fresh} fresh jobs")
        if delta["tasks_failed"] or delta["jobs_failed"]:
            run.failures.append(
                f"server reports {delta['tasks_failed']} failed tasks, "
                f"{delta['jobs_failed']} failed jobs")
        return run

    def teardown(self) -> None:
        before = clock()[1]
        self.server.terminate()
        try:
            self.server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        # Our own CPU over these few lines is noise beside the server's.
        self.server_cpu_s = clock()[1] - before

    def layer_values(self, reference: Run, traced: Run) -> dict:
        records, counts = self.records, self.counts
        fresh = [record for record in records
                 if record["kind"] != "resubmit"]
        latencies = [record["latency"] for record in records]

        def p50(field: str, rows=records) -> float:
            return median(row[field] for row in rows)

        return {
            "service.boot_s": self.boot_s,
            "service.submit_s": p50("submit"),
            "service.wait_s": p50("wait"),
            "service.result_s": p50("result"),
            "service.queue_wait_s": p50("queue_wait", fresh),
            "service.execute_s": p50("execute", fresh),
            "service.op_p90_s": percentile(latencies, 0.90),
            "service.latency_p99_s": percentile(latencies, 0.99),
            "service.dedup_hit_ratio": (counts["service.dedup_hits"]
                                        / counts["service.submitted"]),
            "service.tasks_executed": counts["service.tasks_executed"],
            "service.jobs_done": counts["service.jobs_done"],
            "service.server_cpu_s": self.server_cpu_s,
        }


WORKLOADS = {cls.name: cls for cls in (
    SimDense, SimSparse, BackendParity, SweepCold, SweepWarm, ServeClosed)}
