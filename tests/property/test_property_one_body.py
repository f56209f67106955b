"""Differential battery: one protocol body under three hosts.

``naive``, ``balanced``, ``cross-validate`` and
``cross-validate-escalate`` are written once (``repro.protocols``); the
simulator, the lockstep host (:mod:`repro.sync.host`) and the socket
host (:mod:`repro.net.peers`) each drive that one body.  So for a drawn
spec every backend whose ``validate`` accepts it must ask the *same
endpoints* for the *same bits* — in the k-endpoints-f-faulty model,
which endpoints a peer touches decides whether a faulty one is
outvoted — and decode the same arrays.  This is the layer above
``test_property_source_fronts.py`` (one ledger under three transports).

``byz-committee`` and ``byz-two-cycle`` run on the simulator and the
lockstep host.  What they ask depends on what they heard, so the two
are compared where both hear the same thing — fault-free, unit
latencies against rounds — and there the randomized one must also have
flipped the same coins.

The engines are entered below the spec layer with one shared seed:
``seed_for`` folds ``"sync"`` into the seed, which would give the
lockstep run a different input array to agree on.
"""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import (HealthCheck, assume, given, settings,
                        strategies as st)

from repro.experiments import ExperimentSpec
from repro.experiments.backends import get_backend
from repro.net import run_net_download
from repro.protocols.byz_two_cycle import choose_two_cycle_parameters
from repro.sim import run_download
from repro.sync import (LockstepEscalatePeer, SyncEngine, hosted_factory,
                        run_sync_download)

COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.too_slow])

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


def normal_form(query_bits, indices, by_source, outputs):
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
                        for pid, output in outputs.items()}}


def observe(spec, seed):
    """What ``spec``'s backend asked of whom, and what it decoded."""
    if spec.backend == "sim":
        result = run_download(
            n=spec.n, ell=spec.ell, peer_factory=spec.peer_factory(),
            adversary=spec.build_adversary(), t=spec.t, seed=seed,
            sources=spec.sources, source_faults=spec.source_faults,
            topology=spec.topology)
        return normal_form(result.report.per_peer_query_bits,
                           result.queried_indices,
                           result.queried_by_source, result.outputs)
    if spec.backend == "sync":
        with captured_sync_runs() as runs:
            get_backend("sync").run_one(spec, 0, seed, None)
        (source, result), = runs
        return normal_form(result.per_peer_query_bits,
                           source.queried_indices,
                           source.queried_by_source, result.outputs)
    result = run_net_download(
        n=spec.n, ell=spec.ell, protocol=spec.protocol,
        protocol_params=spec.protocol_params, sources=spec.sources,
        source_faults=spec.source_faults, topology=spec.topology,
        seed=seed, request_timeout=2.0, run_timeout=30.0)
    return normal_form(result.query_bits, result.queried_indices,
                       result.queried_by_source, result.outputs)


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
            assert observed[key] == expected, (
                f"{spec.backend} differs from sim in {key} for "
                f"{fields}, seed {seed}")
    return len(specs)


#: Both sides of the 4096-bit chunk: endpoint rotation is per chunk.
ELLS = st.one_of(st.integers(min_value=1, max_value=96),
                 st.sampled_from([4095, 4096, 4097, 8200]))


@st.composite
def spec_fields(draw, max_n=6, ells=ELLS):
    protocol = draw(st.sampled_from([
        "naive", "balanced", "cross-validate", "cross-validate-escalate"]))
    k = draw(st.integers(min_value=1, max_value=4))
    params = {}
    if protocol == "cross-validate":
        params["q"] = draw(st.integers(min_value=1, max_value=k))
    elif protocol == "cross-validate-escalate":
        params["f"] = draw(st.integers(min_value=0, max_value=(k - 1) // 2))
    return dict(
        protocol=protocol, ell=draw(ells), protocol_params=params, sources=k,
        n=draw(st.integers(min_value=1, max_value=max_n)),
        source_faults=tuple(draw(st.lists(st.sampled_from(FAULTS),
                                          max_size=k))),
        topology=draw(st.sampled_from(["complete", "ring"])))


seeds = st.integers(min_value=0, max_value=2 ** 32)


class TestOneBodyUnderThreeHosts:
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
    @settings(max_examples=60, **COMMON)
    def test_lockstep_host_asks_what_the_simulator_asks(self, fields, seed):
        assume(assert_backends_agree(fields, seed, ("sim", "sync")))

    @given(fields=spec_fields(
        max_n=3, ells=st.sampled_from([1, 40, 4096, 4100])), seed=seeds)
    @settings(max_examples=8, **COMMON)
    def test_socket_host_asks_what_the_simulator_asks(self, fields, seed):
        assume(assert_backends_agree(fields, seed, ("sim", "sync", "net")))


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
            # All t rushing peers send one flipped clone, so it passes
            # the frequency filter iff t >= tau; whether the honest
            # string it then competes with is there too is Claim 5's
            # w.h.p., not a property of every seed.
            params = choose_two_cycle_parameters(spec.n, spec.t, spec.ell)
            assume(params.naive or params.tau > spec.t)
        record = get_backend("sync").run_one(spec, 0, seed, None)
        assert record.correct
        assert record.rounds <= 2


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


@pytest.mark.parametrize("backend, hosted", [
    ("sync", ["balanced", "byz-committee", "byz-two-cycle", "crash-multi",
              "cross-validate", "cross-validate-escalate", "naive"]),
    ("net", ["balanced", "cross-validate", "cross-validate-escalate",
             "naive"])])
def test_backends_host_what_their_errors_say(backend, hosted):
    with pytest.raises(KeyError) as refused:
        ExperimentSpec(protocol="one-round", n=4, ell=8, backend=backend,
                       network=("synchronous" if backend == "sync"
                                else "asynchronous"))
    assert str(hosted) in str(refused.value)
    for protocol in hosted:
        assert accepted(backend, dict(protocol=protocol, n=4, ell=8))
