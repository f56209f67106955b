"""Differential battery: one protocol body under three hosts.

Every registry protocol is written once (``repro.protocols``); the
simulator, the lockstep host (:mod:`repro.sync.host`) and the socket
host (:mod:`repro.net.peers`) each drive that one body.  So for a drawn
spec with fault-free peers the simulator and each other host must ask
the *same endpoints* for the *same bits* — in the k-endpoints-f-faulty model,
which endpoints a peer touches decides whether a faulty one is
outvoted — and decode the same arrays.  This is the layer above
``test_property_source_fronts.py`` (one ledger under three transports).

What a peer-to-peer body asks can depend on what it heard, so it is
compared where the hosts hear the same thing: the lockstep host against
unit latencies, the socket host against the simulator with the same
coins (both hand the body the run's root ``SplittableRNG(seed)``).
Their message counts are compared too, on every topology (all three
hosts route each copy along the same seeded shortest paths), except
for the bodies whose sends depend on the order messages arrive in.
Two pairings compare outputs only: ``crash-multi`` on the lockstep host,
which runs it as its own round algorithm (``SyncCrashPeer``), and
Algorithm 1 on sockets, whose queries depend on arrival order.

The engines are entered below the spec layer with one shared seed:
``seed_for`` folds ``"sync"`` into the seed, which would give the
lockstep run a different input array to agree on.

The adversary is one vocabulary on both engines: a spec's
``ADVERSARIES`` entry, bound over the run's root, so at one seed the
simulator and the lockstep host fail the same peers, and each host's
honest peers must download correctly within the entry's
``query_bound``.
"""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import (HealthCheck, assume, given, settings,
                        strategies as st)

from repro.experiments import ExperimentSpec
from repro.experiments.backends import get_backend
from repro.experiments.backends.sync import sync_peer_factory
from repro.experiments.runner import execute_repeat
from repro.experiments.spec import ADVERSARIES, OWN_LATENCY
from repro.obs.telemetry import RecordingTelemetry, using
from repro.net import run_net_download
from repro.protocols import registry
from repro.protocols.byz_cycles import ByzTwoCycleDownloadPeer
from repro.sim import run_download
from repro.sync import (LockstepEscalatePeer, SyncEngine, hosted_factory,
                        run_sync_download)

COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.too_slow])

#: Who is heard by when decides who is sent what: the message counts
#: of these bodies are not compared.
ORDER_DEPENDENT_SENDS = {"crash-one", "crash-multi", "crash-multi-fast"}
#: ... and for Algorithm 1, which waits for n - 1 of n peers and probes
#: for the one it lacks, also who queries what: on sockets, where
#: arrival order is the host's, only its outputs are compared (at n=3,
#: ell=1, seed 1 the simulator charged peers 0 and 1, sockets peer 0).
ORDER_DEPENDENT_QUERIES = {"crash-one"}
#: The bodies whose query sets are pure functions of ``(pid, n, ell,
#: source views)``: they also run against faulty endpoints.
PURE_QUERIES = ["naive", "balanced", "cross-validate",
                "cross-validate-escalate"]

#: Onset-free (three hosts, three clocks) and non-withholding (lockstep
#: never delivers a withheld answer; the other two do, late).
FAULTS = ["honest", "wrong-bits", "wrong-bits:1.0", "stale", "stale:0.3",
          "slow:2"]


def accepted(backend, fields):
    """The spec on ``backend``, or ``None`` if its validate refuses."""
    network = "synchronous" if backend == "sync" else "asynchronous"
    try:
        return ExperimentSpec(**{"network": network, **fields},
                              backend=backend)
    except (KeyError, ValueError):
        return None


@contextmanager
def captured_sync_runs():
    """``(source, result)`` of every lockstep run inside the block —
    :class:`SyncRunResult` carries Q, not the per-endpoint ledger."""
    runs = []
    original = SyncEngine.run

    def run(engine, *args, **kwargs):
        result = original(engine, *args, **kwargs)
        runs.append((engine.source, result))
        return result

    with mock.patch.object(SyncEngine, "run", run):
        yield runs


def normal_form(query_bits, indices, by_source, outputs, messages):
    # ``RunResult`` leaves the per-endpoint breakdown empty at k=1,
    # where the per-peer union already is the breakdown.
    by_source = by_source or {(pid, 0): asked
                              for pid, asked in indices.items()}
    # A peer that asked for nothing (an empty balanced slice) is a 0 in
    # one engine's report and absent from another's.
    return {"query_bits": {pid: bits for pid, bits in query_bits.items()
                           if bits},
            "queried_by_source": {key: set(asked)
                                  for key, asked in by_source.items()},
            "outputs": {pid: output.segment(0, len(output))
                        for pid, output in outputs.items()},
            "messages": messages}


def observe(spec, seed):
    """What ``spec``'s backend asked of whom, what it decoded, and how
    many messages its peers sent."""
    if spec.backend == "sim":
        result = run_download(
            n=spec.n, ell=spec.ell, peer_factory=spec.peer_factory(),
            adversary=spec.build_adversary(), t=spec.t, seed=seed,
            sources=spec.sources, source_faults=spec.source_faults,
            topology=spec.topology)
        return normal_form(result.report.per_peer_query_bits,
                           result.queried_indices,
                           result.queried_by_source, result.outputs,
                           result.report.message_complexity)
    if spec.backend == "sync":
        with captured_sync_runs() as runs:
            get_backend("sync").run_one(spec, 0, seed, None)
        (source, result), = runs
        return normal_form(result.per_peer_query_bits,
                           source.queried_indices,
                           source.queried_by_source, result.outputs,
                           result.message_complexity)
    result = run_net_download(
        n=spec.n, ell=spec.ell, protocol=spec.protocol,
        protocol_params=spec.protocol_params, sources=spec.sources,
        source_faults=spec.source_faults, topology=spec.topology,
        seed=seed, request_timeout=2.0, run_timeout=30.0)
    return normal_form(result.query_bits, result.queried_indices,
                       result.queried_by_source, result.outputs,
                       result.messages)


def assert_backends_agree(fields, seed, backends):
    """Returns how many of ``backends`` ran ``fields``."""
    specs = [spec for spec in (accepted(backend, fields)
                               for backend in backends) if spec is not None]
    if not specs:
        return 0  # e.g. a ring of one peer: nobody runs it
    assert specs[0].backend == "sim"  # what sim refuses, all refuse
    reference = observe(specs[0], seed)
    for spec in specs[1:]:
        observed = observe(spec, seed)
        for key, expected in reference.items():
            if key in compared(spec):
                assert observed[key] == expected, (
                    f"{spec.backend} differs from sim in {key} for "
                    f"{fields}, seed {seed}")
    return len(specs)


def compared(spec):
    """What ``spec``'s host must report exactly as the simulator did."""
    if spec.backend == "sync" and spec.protocol == "crash-multi":
        return {"outputs"}  # ``SyncCrashPeer``: another algorithm
    if spec.backend == "net" and spec.protocol in ORDER_DEPENDENT_QUERIES:
        return {"outputs"}
    keys = {"query_bits", "queried_by_source", "outputs"}
    if spec.protocol not in ORDER_DEPENDENT_SENDS:
        keys.add("messages")
    return keys


#: Both sides of the 4096-bit chunk: endpoint rotation is per chunk.
ELLS = st.one_of(st.integers(min_value=1, max_value=96),
                 st.sampled_from([4095, 4096, 4097, 8200]))


@st.composite
def spec_fields(draw, max_n=6, ells=ELLS, peer_ells=st.integers(1, 96)):
    """A spec of any registry protocol, fault-free among the peers; the
    ``PURE_QUERIES`` bodies also draw faulty endpoints, the rest run on
    one honest source."""
    protocol = draw(st.sampled_from(
        [entry.name for entry in registry.all_protocols()]))
    # Algorithm 1 needs n >= 3.
    n = draw(st.integers(min_value=3 if protocol == "crash-one" else 1,
                         max_value=max_n))
    # The expander needs n >= 3.
    topology = draw(st.sampled_from(
        ["complete", "ring"] + (["expander"] if n >= 3 else [])))
    if protocol not in PURE_QUERIES:
        ell = draw(peer_ells)
        return dict(protocol=protocol, n=n, ell=ell, topology=topology,
                    protocol_params=draw(peer_params(protocol, n, ell)))
    k = draw(st.integers(min_value=1, max_value=4))
    params = {}
    if protocol == "cross-validate":
        params["q"] = draw(st.integers(min_value=1, max_value=k))
    elif protocol == "cross-validate-escalate":
        params["f"] = draw(st.integers(min_value=0, max_value=(k - 1) // 2))
    return dict(
        protocol=protocol, ell=draw(ells), protocol_params=params, sources=k,
        n=n, source_faults=tuple(draw(st.lists(st.sampled_from(FAULTS),
                                               max_size=k))),
        topology=topology)


@st.composite
def peer_params(draw, protocol, n, ell):
    """Drawn constructor parameters of a peer-to-peer body (or none,
    for its defaults)."""
    if protocol == "one-round":
        return {"redundancy": draw(st.integers(1, n)),
                "randomized": draw(st.booleans())}
    if protocol == "byz-committee":
        return {"block_size": draw(st.integers(1, ell))}
    if protocol == "byz-two-cycle" and draw(st.booleans()):
        return {"num_segments": draw(st.integers(1, min(ell, 6))),
                "tau": draw(st.integers(1, 4))}
    if protocol == "byz-multi-cycle" and draw(st.booleans()):
        return {"base_segments": draw(st.sampled_from(
                    [size for size in (1, 2, 4, 8) if size <= ell])),
                "tau": draw(st.integers(1, 4))}
    return {}


seeds = st.integers(min_value=0, max_value=2 ** 32)


class TestOneBodyUnderThreeHosts:
    @pytest.mark.parametrize("topology", ["ring", "star", "expander"])
    @pytest.mark.parametrize("protocol",
                             ["balanced", "one-round", "byz-committee"])
    def test_every_host_sends_the_same_messages(self, protocol, topology):
        # A relay hop is one message on every host, charged to the
        # relay: the sockets forward along the simulator's routes.
        fields = dict(protocol=protocol, n=8, ell=64, topology=topology)
        sent = {backend: observe(accepted(backend, fields), 3)["messages"]
                for backend in ("sim", "sync", "net")}
        assert len(set(sent.values())) == 1, sent

    def test_endpoint_rotation_drift_case(self):
        # The hand-ported lockstep class never got per-chunk endpoint
        # rotation: peer 0 asked {src0: 8192, src1: 8192} where sim
        # and net ask {src0: 4096, src1: 8192, src2: 4096}.  Q is
        # equal, so nothing that compared Q could see it.
        fields = dict(protocol="cross-validate", n=3, ell=8192, sources=3,
                      protocol_params={"q": 2}, source_faults=(),
                      topology="complete")
        assert assert_backends_agree(fields, 1,
                                     ("sim", "sync", "net")) == 3
        asked = observe(accepted("sync", fields), 1)["queried_by_source"]
        assert {sid: len(asked[0, sid]) for sid in range(3)} == {
            0: 4096, 1: 8192, 2: 4096}

    @given(fields=spec_fields(), seed=seeds)
    @settings(max_examples=80, **COMMON)
    def test_lockstep_host_asks_what_the_simulator_asks(self, fields, seed):
        # Unit latencies on the simulator: what a body hears, and so
        # what it asks, is then what it hears in rounds.
        assume(assert_backends_agree(dict(fields, network="synchronous"),
                                     seed, ("sim", "sync")))

    @given(fields=spec_fields(
        max_n=4, ells=st.sampled_from([1, 40, 4096, 4100]),
        peer_ells=st.sampled_from([1, 40, 96])), seed=seeds)
    @settings(max_examples=16, **COMMON)
    def test_socket_host_asks_what_the_simulator_asks(self, fields, seed):
        # n = 4 draws the smallest sparse graph, a ring of four, so
        # routed relays on sockets are compared too.
        assume(assert_backends_agree(fields, seed, ("sim", "net")))


@st.composite
def committee_or_two_round_fields(draw, max_n=10, max_ell=96,
                                  drawn_two_cycle_params=True):
    """A ``byz-committee`` or ``byz-two-cycle`` spec inside ``2t < n``
    (``t`` rides in ``beta``: ``spec.t == int(beta * n)``)."""
    protocol = draw(st.sampled_from(["byz-committee", "byz-two-cycle"]))
    n = draw(st.integers(min_value=3, max_value=max_n))
    t = draw(st.integers(min_value=0, max_value=(n - 1) // 2))
    ell = draw(st.integers(min_value=1, max_value=max_ell))
    params = {}
    if protocol == "byz-committee":
        params["block_size"] = draw(st.integers(min_value=1, max_value=ell))
    elif drawn_two_cycle_params and draw(st.booleans()):
        params["num_segments"] = draw(
            st.integers(min_value=1, max_value=min(ell, 6)))
        params["tau"] = draw(st.integers(min_value=1, max_value=4))
    return dict(protocol=protocol, n=n, ell=ell, beta=(t + 0.5) / n,
                protocol_params=params, network="synchronous")


class TestCommitteeAndTwoRoundUnderTwoHosts:
    @given(fields=committee_or_two_round_fields(), seed=seeds)
    @settings(max_examples=60, **COMMON)
    def test_same_seed_same_coins_same_queries(self, fields, seed):
        # Fault-free with a fault budget: committees of 2t + 1, waits
        # for n - t.  For byz-two-cycle equality means every peer drew
        # the segment the simulator's drew (one ``peer-{pid}`` split of
        # the run's root on both engines) and then resolved the same
        # candidates with the same tree queries.
        assert assert_backends_agree(fields, seed, ("sim", "sync")) == 2

    @given(fields=committee_or_two_round_fields(
        max_n=40, max_ell=400, drawn_two_cycle_params=False),
        strategy=st.sampled_from(["wrong-bits", "silent"]), seed=seeds)
    @settings(max_examples=60, **COMMON)
    def test_correct_in_two_rounds_against_the_backends_adversaries(
            self, fields, strategy, seed):
        spec = accepted("sync", dict(fields, fault_model="byzantine",
                                     strategy=strategy))
        if spec.protocol == "byz-two-cycle" and strategy != "silent":
            # The t liars' flipped reports pass the frequency filter
            # when t >= tau and they sampled alike; whether the honest
            # string it then competes with is there too is Claim 5's
            # w.h.p., not a property of every seed.
            hierarchy, taus = ByzTwoCycleDownloadPeer.plan(
                spec.n, spec.t, spec.ell)
            assume(hierarchy is None or taus[0] > spec.t)
        record = get_backend("sync").run_one(spec, 0, seed, None)
        assert record.correct
        assert record.rounds <= 2


#: The table's peer faults that lockstep expresses: all but the entries
#: that set their own latencies or crash at a virtual time.
PEER_FAULTS = sorted(key for key in ADVERSARIES
                     if key[0] in ("crash", "byzantine")
                     and key[1] not in OWN_LATENCY and key[1] != "at-time")


@st.composite
def faulty_fields(draw):
    """A spec with ``t >= 1`` faulty peers under a ``PEER_FAULTS``
    entry, of a protocol whose envelope takes them, on its default
    parameters (but the committee's block size and the multi-cycle
    protocol's segments and threshold)."""
    fault_model, strategy = draw(st.sampled_from(PEER_FAULTS))
    entry = draw(st.sampled_from([
        entry for entry in registry.all_protocols()
        if (entry.max_byzantine_fraction if fault_model == "byzantine"
            else entry.max_crash_fraction) > 0]))
    limit = (entry.max_byzantine_fraction if fault_model == "byzantine"
             else entry.max_crash_fraction)
    n = draw(st.integers(min_value=2, max_value=10))
    assume(int(limit * n) >= 1)
    t = draw(st.integers(min_value=1, max_value=min(int(limit * n), n - 1)))
    ell = draw(st.integers(min_value=1, max_value=96))
    params = {}
    if entry.name == "byz-committee":
        params["block_size"] = draw(st.integers(1, ell))
    elif entry.name == "byz-multi-cycle":
        # Segments to sample at this small ell; tau > t keeps a lie
        # short of frequent.
        params = {"base_segments": draw(st.sampled_from(
            [size for size in (1, 2, 4) if size <= ell])), "tau": t + 1}
    return dict(protocol=entry.name, n=n, ell=ell, beta=(t + 0.5) / n,
                fault_model=fault_model, strategy=strategy,
                protocol_params=params, network="synchronous")


def faulty_run(spec, seed):
    """``(planned faulty set, Q, correct)`` of one run of ``spec`` on
    its backend, under its table adversary."""
    adversary = spec.build_adversary()
    if spec.backend == "sim":
        result = run_download(
            n=spec.n, ell=spec.ell, peer_factory=spec.peer_factory(),
            adversary=adversary, t=spec.t, seed=seed)
        q = result.report.query_complexity
    else:
        result = run_sync_download(
            n=spec.n, ell=spec.ell, t=spec.t, adversary=adversary,
            peer_factory=sync_peer_factory(spec.protocol,
                                           spec.protocol_params),
            seed=seed)
        q = result.query_complexity
    return adversary.faulty_peers(), q, result.download_correct


class TestOneAdversaryUnderTwoHosts:
    @given(fields=faulty_fields(), seed=seeds)
    @settings(max_examples=150, **COMMON)
    def test_same_faulty_peers_and_correct_within_the_bound(
            self, fields, seed):
        specs = [accepted(backend, fields) for backend in ("sim", "sync")]
        # Lockstep refuses what it runs as a round-native algorithm
        # (crash-multi's SyncCrashPeer) against Byzantine liars.
        assume(None not in specs)
        entry = registry.get(fields["protocol"])
        runs = [faulty_run(spec, seed) for spec in specs]
        (sim_faulty, *_), (sync_faulty, *_) = runs
        assert sim_faulty == sync_faulty
        assert len(sim_faulty) == specs[0].t
        bound = entry.query_bound(specs[0].ell, specs[0].n, specs[0].t,
                                  specs[0].protocol_params, 1)
        for spec, (_, q, correct) in zip(specs, runs):
            assert correct, (spec.backend, fields, seed)
            # A randomized entry's bound is on the expected Q
            # (core/bounds.py), which one run may pass.
            assert entry.randomized or q <= bound, (spec.backend, q, bound)


@pytest.mark.parametrize("protocol, strategy, params", [
    ("byz-committee", "committee-forge", {"block_size": 8}),
    ("byz-two-cycle", "frequency-spam", {"num_segments": 2, "tau": 3}),
    ("byz-two-cycle", "split-report", {"num_segments": 2, "tau": 3}),
    ("byz-multi-cycle", "frequency-spam",
     {"base_segments": 2, "tau": 3}),
])
def test_each_scripted_attacker_runs_on_the_lockstep_host(
        protocol, strategy, params):
    # The attacker is a body of its own, hosted like any other: it
    # speaks (uncharged), and the honest peers download correctly
    # within the bound.  Two segments keep each true string tau-
    # frequent among the 21 honest samplers (at four, one run in
    # three or four has a segment short of tau: Claim 5's w.h.p.).
    spec = ExperimentSpec(protocol, 24, 512, network="synchronous",
                          backend="sync", fault_model="byzantine",
                          strategy=strategy, beta=0.15,
                          protocol_params=params, repeats=3)
    bound = registry.get(protocol).query_bound(spec.ell, spec.n, spec.t,
                                               params, 1)
    for repeat in range(spec.repeats):
        with using(RecordingTelemetry()) as recording:
            record = execute_repeat(spec, repeat)
        assert record.correct, repeat
        assert record.queries <= bound
        lies = [event for event in recording.events_of("send")
                if not event["honest"]]
        assert len({event["src"] for event in lies}) == spec.t


class TestLockstepEscalateInsideItsBudget:
    """What the differential battery leaves out on purpose: lockstep
    never delivers a withheld answer, so there the protocol itself has
    to get past one (``repro.sync.escalate``)."""

    @given(n=st.integers(min_value=1, max_value=5), ell=ELLS,
           f=st.integers(min_value=1, max_value=2),
           spare=st.integers(min_value=0, max_value=1),
           faults=st.lists(st.sampled_from(
               ["withhold", "wrong-bits:1.0", "wrong-bits", "honest"]),
               max_size=2),
           alert=st.booleans(), seed=seeds)
    @settings(max_examples=40, **COMMON)
    def test_at_most_f_faulty_endpoints_cost_one_extra_round(
            self, n, ell, f, spare, faults, alert, seed):
        faults = faults[:f]
        result = run_sync_download(
            n=n, ell=ell, seed=seed, sources=2 * f + 1 + spare,
            source_faults=tuple(faults),
            peer_factory=hosted_factory(LockstepEscalatePeer, f=f,
                                        alert=alert))
        assert result.download_correct
        assert result.rounds <= 2
        if set(faults) <= {"honest"} and not alert:
            assert result.rounds == 1


ALL = [entry.name for entry in registry.all_protocols()]


@pytest.mark.parametrize("backend, hosted", [("sync", ALL), ("net", ALL)])
def test_backends_host_what_their_errors_say(backend, hosted):
    # Every registry protocol runs on every host; an unknown name fails
    # with the registry's own error, which names them all.
    with pytest.raises(KeyError) as refused:
        ExperimentSpec(protocol="no-such-protocol", n=4, ell=8,
                       backend=backend,
                       network=("synchronous" if backend == "sync"
                                else "asynchronous"))
    assert ", ".join(hosted) in str(refused.value)
    for protocol in hosted:
        assert accepted(backend, dict(protocol=protocol, n=4, ell=8))
