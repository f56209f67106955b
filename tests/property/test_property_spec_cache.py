"""Property tests for the experiment-spec cache key and result cache.

Hypothesis drives the spec space; no simulations run here.  The three
contract properties:

- the cache key is *stable*: a ``dataclasses.replace`` round-trip (no
  field changed) never changes it;
- the cache key is *discriminating*: any single-field change yields a
  different key;
- a store → load round-trip returns the outcome unchanged, and a hit
  never alters an outcome's values;
- the shallow field walk (``spec_fields``) is *byte-identical* to the
  ``dataclasses.asdict`` form it replaced — keys, entry bytes, job
  records — with the ``asdict`` formula kept here as the reference.
"""

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.execution import ResultCache, SweepJournal, spec_cache_key
from repro.execution.cache import (CODE_VERSION, SCHEMA_VERSION,
                                   canonical_json, spec_fields)
from repro.experiments import ExperimentOutcome, ExperimentSpec
from repro.service.jobs import Job, JobRequest, job_key, job_to_dict
from repro.util.rng import derive_seed

COMMON = dict(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])

# Parameter-free protocols, so any drawn spec is constructible.
_PROTOCOLS = ["balanced", "crash-multi", "crash-one", "naive", "one-round"]


@st.composite
def specs(draw) -> ExperimentSpec:
    fault_model = draw(st.sampled_from(["none", "crash"]))
    beta = (0.0 if fault_model == "none"
            else draw(st.floats(min_value=0.05, max_value=0.95,
                                allow_nan=False)))
    params = draw(st.dictionaries(
        st.sampled_from(["alpha", "gamma", "delta"]),
        st.integers(min_value=0, max_value=9), max_size=2))
    return ExperimentSpec(
        protocol=draw(st.sampled_from(_PROTOCOLS)),
        n=draw(st.integers(min_value=1, max_value=64)),
        ell=draw(st.integers(min_value=1, max_value=1 << 16)),
        fault_model=fault_model,
        beta=beta,
        strategy=draw(st.sampled_from(["wrong-bits", "equivocate",
                                       "silent", "selective-silence"])),
        network=draw(st.sampled_from(["synchronous", "asynchronous"])),
        protocol_params=params,
        repeats=draw(st.integers(min_value=1, max_value=8)),
        base_seed=draw(st.integers(min_value=0, max_value=2 ** 32)),
    )


# JSON-native values only (string keys, lists not tuples): what a
# stored spec can hold and still compare equal after a round trip.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(1 << 40), 1 << 40)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text("abcde", max_size=3), children, max_size=3),
    max_leaves=6)


@st.composite
def rich_specs(draw) -> ExperimentSpec:
    """Specs that exercise every later-added field: nested
    ``protocol_params``, several sources with faults, a sparse
    topology, and (on ``backend="net"``) proxy faults."""
    base = draw(specs())
    sources = draw(st.integers(min_value=1, max_value=4))
    faults = draw(st.lists(
        st.sampled_from(["honest", "wrong-bits", "stale:0.5", "withhold",
                         "slow:2"]), max_size=sources))
    # "ab…" keys cannot collide with the validated "q" / "f" params.
    params = draw(st.dictionaries(st.text("abcde", min_size=1, max_size=3),
                                  _JSON_VALUES, max_size=3))
    changes = dict(protocol_params=params, sources=sources,
                   source_faults=tuple(faults), n=max(base.n, 5),
                   topology=draw(st.sampled_from(
                       ["complete", "ring", "star", "random-dregular:4"])))
    if draw(st.booleans()):
        changes.update(
            backend="net", protocol="balanced", fault_model="none",
            beta=0.0, network="asynchronous", topology="complete",
            protocol_params={},  # the net backend checks param names
            proxy_faults=tuple(draw(st.lists(
                st.sampled_from(["drop:0.1", "dup:0.2", "delay:0.01"]),
                unique_by=lambda fault: fault.partition(":")[0],
                max_size=2))))
    return dataclasses.replace(base, **changes)


def asdict_key(spec: ExperimentSpec, salt: str = CODE_VERSION) -> str:
    """``spec_cache_key`` as it was computed from ``dataclasses.asdict``
    (a deep copy of the spec) — the reference the field walk must equal."""
    payload = dataclasses.asdict(spec)
    if payload.get("backend") == "sim":
        del payload["backend"]
    if payload.get("sources") == 1:
        del payload["sources"]
    if not payload.get("source_faults"):
        payload.pop("source_faults", None)
    if not payload.get("proxy_faults"):
        payload.pop("proxy_faults", None)
    if payload.get("topology", "complete") == "complete":
        payload.pop("topology", None)
    digest = hashlib.sha256(
        f"{salt}\n{canonical_json(payload)}".encode("utf-8"))
    return digest.hexdigest()


def asdict_entry_text(outcome: ExperimentOutcome, salt: str) -> str:
    """The cache entry the ``asdict``-based writer produced."""
    return json.dumps({
        "schema": SCHEMA_VERSION,
        "salt": salt,
        "key": asdict_key(outcome.spec, salt),
        "outcome": {
            "spec": dataclasses.asdict(outcome.spec),
            "runs": outcome.runs,
            "correct_runs": outcome.correct_runs,
            "mean_query_complexity": outcome.mean_query_complexity,
            "max_query_complexity": outcome.max_query_complexity,
            "mean_message_complexity": outcome.mean_message_complexity,
            "mean_time_complexity": outcome.mean_time_complexity,
            "failed_runs": outcome.failed_runs,
            "failures": [dataclasses.asdict(failure)
                         for failure in outcome.failures],
            "mean_round_complexity": outcome.mean_round_complexity,
        },
    }, indent=2, sort_keys=True)


@st.composite
def outcomes(draw, specs=specs) -> ExperimentOutcome:
    spec = draw(specs())
    correct = draw(st.integers(min_value=0, max_value=spec.repeats))
    finite = st.floats(min_value=0, max_value=1e9, allow_nan=False,
                       allow_infinity=False)
    return ExperimentOutcome(
        spec=spec,
        runs=spec.repeats,
        correct_runs=correct,
        mean_query_complexity=draw(finite),
        max_query_complexity=draw(st.integers(min_value=0,
                                              max_value=1 << 20)),
        mean_message_complexity=draw(finite),
        mean_time_complexity=draw(finite),
    )


class TestKeyStability:
    @settings(**COMMON)
    @given(spec=specs())
    def test_replace_roundtrip_keeps_key(self, spec):
        clone = dataclasses.replace(spec)
        assert clone == spec
        assert spec_cache_key(clone) == spec_cache_key(spec)

    @settings(**COMMON)
    @given(spec=specs())
    def test_key_ignores_protocol_params_order(self, spec):
        reordered = dataclasses.replace(
            spec, protocol_params=dict(
                reversed(list(spec.protocol_params.items()))))
        assert spec_cache_key(reordered) == spec_cache_key(spec)

    @settings(**COMMON)
    @given(spec=specs())
    def test_key_is_deterministic_across_calls(self, spec):
        assert spec_cache_key(spec) == spec_cache_key(spec)


class TestKeyDiscrimination:
    @settings(**COMMON)
    @given(spec=specs(), data=st.data())
    def test_single_field_change_changes_key(self, spec, data):
        field = data.draw(st.sampled_from(
            ["n", "ell", "repeats", "base_seed", "protocol_params"]))
        if field == "protocol_params":
            changed = dict(spec.protocol_params)
            changed["extra"] = 1
        else:
            changed = getattr(spec, field) + 1
        mutated = dataclasses.replace(spec, **{field: changed})
        assert mutated != spec
        assert spec_cache_key(mutated) != spec_cache_key(spec)

    @settings(**COMMON)
    @given(spec=specs())
    def test_salt_changes_key(self, spec):
        assert spec_cache_key(spec, salt="a") != spec_cache_key(spec,
                                                                salt="b")


class TestBackendIdentityPreservation:
    """The backend layer must not move any ``backend="sim"`` identity.

    Both properties compare the live code against inline reimplementa-
    tions of the *pre-refactor* formulas (when the spec dataclass had
    no ``backend`` field), so every seed, golden trace, cache entry,
    and journal line recorded before the backend layer still resolves.
    """

    @settings(**COMMON)
    @given(spec=specs(), repeat=st.integers(min_value=0, max_value=7))
    def test_sim_seed_matches_pre_backend_formula(self, spec, repeat):
        assert spec.backend == "sim"
        identity = (f"{spec.protocol}|{spec.n}|{spec.ell}|"
                    f"{spec.fault_model}|{spec.beta}|{spec.strategy}|"
                    f"{spec.network}|"
                    f"{canonical_json(spec.protocol_params)}")
        legacy = derive_seed(spec.base_seed, f"{identity}#{repeat}")
        assert spec.seed_for(repeat) == legacy

    @settings(**COMMON)
    @given(spec=specs())
    def test_sim_cache_key_matches_pre_backend_formula(self, spec):
        payload = dataclasses.asdict(spec)
        del payload["backend"]  # the pre-refactor dataclass had none
        # ... nor the multi-source fields; their defaults are stripped
        # the same way, so single-source keys never moved.
        del payload["sources"]
        del payload["source_faults"]
        del payload["proxy_faults"]
        # ... nor topology: the complete graph is the pre-field model.
        del payload["topology"]
        digest = hashlib.sha256(
            f"{CODE_VERSION}\n{canonical_json(payload)}".encode("utf-8"))
        assert spec_cache_key(spec) == digest.hexdigest()

    @settings(**COMMON)
    @given(spec=specs())
    def test_multi_source_fields_do_discriminate(self, spec):
        """Defaults are stripped for identity, but non-default source
        configurations must key (and seed) differently."""
        multi = dataclasses.replace(spec, sources=3,
                                    source_faults=("wrong-bits",))
        assert spec_cache_key(multi) != spec_cache_key(spec)
        assert multi.seed_for(0) != spec.seed_for(0)

    @settings(**COMMON)
    @given(spec=specs(),
           name=st.sampled_from(["ring", "star", "expander",
                                 "random-dregular:4"]))
    def test_topology_does_discriminate(self, spec, name):
        """``topology="complete"`` is stripped (it *is* the legacy
        model), but any sparse topology must key and seed apart."""
        # Sparse graphs need enough peers to exist (d-regular: n > d).
        base = dataclasses.replace(spec, n=max(spec.n, 5))
        sparse = dataclasses.replace(base, topology=name)
        assert spec_cache_key(sparse) != spec_cache_key(base)
        assert sparse.seed_for(0) != base.seed_for(0)

    @settings(**COMMON)
    @given(n=st.integers(min_value=1, max_value=32),
           ell=st.integers(min_value=1, max_value=1 << 12),
           base_seed=st.integers(min_value=0, max_value=2 ** 32),
           repeat=st.integers(min_value=0, max_value=7))
    def test_net_replays_sim_seeds_and_proxy_faults_never_reseed(
            self, n, ell, base_seed, repeat):
        """The net backend replays the simulator's per-repeat seeds
        (that is what makes its Q comparable bit-for-bit), and
        transport chaos keys differently — outcomes (time, retries,
        failures) change — without ever reseeding the inputs."""
        sim = ExperimentSpec(protocol="naive", n=n, ell=ell,
                             base_seed=base_seed)
        net = dataclasses.replace(sim, backend="net")
        chaotic = dataclasses.replace(net, proxy_faults=("drop:0.2",))
        assert net.seed_for(repeat) == sim.seed_for(repeat)
        assert chaotic.seed_for(repeat) == sim.seed_for(repeat)
        assert spec_cache_key(net) != spec_cache_key(sim)
        assert spec_cache_key(chaotic) != spec_cache_key(net)


class TestStoreLoadRoundTrip:
    @settings(**COMMON)
    @given(outcome=outcomes())
    def test_hit_never_changes_an_outcome(self, outcome):
        with tempfile.TemporaryDirectory() as directory:
            cache = ResultCache(directory)
            cache.put(outcome.spec, outcome)
            loaded = cache.get(outcome.spec)
            assert loaded is not None
            for field in dataclasses.fields(ExperimentOutcome):
                assert getattr(loaded, field.name) == \
                    getattr(outcome, field.name), field.name
            assert cache.stats.hits == 1

    @settings(**COMMON)
    @given(first=outcomes(), second=outcomes())
    def test_entries_do_not_cross_talk(self, first, second):
        with tempfile.TemporaryDirectory() as directory:
            cache = ResultCache(directory)
            cache.put(first.spec, first)
            cache.put(second.spec, second)
            if first.spec == second.spec:
                # Same key: last write wins, and it round-trips intact.
                assert cache.get(first.spec) == second
            else:
                assert cache.get(first.spec) == first
                assert cache.get(second.spec) == second


class TestFieldWalkEqualsAsdict:
    """``spec_fields`` replaced four ``dataclasses.asdict(spec)`` call
    sites; everything derived from it must not have moved a byte."""

    @settings(**COMMON)
    @given(spec=rich_specs(), salt=st.sampled_from([CODE_VERSION, "other"]))
    def test_keys_equal_the_asdict_reference(self, spec, salt):
        assert spec_cache_key(spec, salt=salt) == asdict_key(spec, salt)
        assert SweepJournal("unused", salt=salt).key_for(spec) \
            == asdict_key(spec, salt)
        assert ResultCache("unused", salt=salt).path_for(spec).name \
            == f"{asdict_key(spec, salt)}.json"

    @settings(**COMMON)
    @given(spec=rich_specs())
    def test_stored_form_serializes_as_asdict_did(self, spec):
        fields = spec_fields(spec)
        for dumps in (canonical_json, json.dumps):
            assert dumps(fields) == dumps(dataclasses.asdict(spec))
        # A fresh dict per call that equals its own JSON round trip and
        # rebuilds the spec.
        assert fields is not spec_fields(spec)
        assert json.loads(json.dumps(fields)) == fields
        assert ExperimentSpec(**fields) == spec

    @settings(**COMMON)
    @given(spec=rich_specs(), axis_values=st.lists(
        st.integers(min_value=1, max_value=99), max_size=3, unique=True))
    def test_job_records_equal_the_asdict_form(self, spec, axis_values):
        request = JobRequest(spec=spec,
                             axis="base_seed" if axis_values else None,
                             values=tuple(axis_values))
        job = Job(id=job_key(request), request=request, submitted_at=0.0)
        reference = canonical_json({
            "spec": asdict_key(spec), "axis": request.axis,
            "values": list(request.values)})
        assert job.id == "j" + hashlib.sha256(
            f"{CODE_VERSION}\n{reference}".encode("utf-8")).hexdigest()[:16]
        assert json.dumps(job_to_dict(job)["spec"]) \
            == json.dumps(dataclasses.asdict(spec))

    @settings(**COMMON)
    @given(outcome=outcomes(specs=rich_specs))
    def test_put_writes_the_asdict_writers_bytes_and_get_returns_them(
            self, outcome):
        with tempfile.TemporaryDirectory() as directory:
            cache = ResultCache(directory, salt="pinned")
            path = cache.put(outcome.spec, outcome)
            assert path == Path(directory) / (
                asdict_key(outcome.spec, "pinned") + ".json")
            assert path.read_text(encoding="utf-8") \
                == asdict_entry_text(outcome, "pinned")
            # Asked with an equal-but-distinct spec object: the hit
            # carries the asked one, and equals what was stored.
            asked = dataclasses.replace(outcome.spec)
            loaded = cache.get(asked)
            assert loaded == outcome
            assert loaded.spec is asked
            assert cache.stats.hits == 1
