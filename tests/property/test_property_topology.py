"""Property tests for the topology subsystem (graphs + routing).

Hypothesis drives ``(name, n, seed)`` over the full constructor
grammar; the invariants are the ones every engine leans on:

- every constructed graph is *connected* (a disconnected download
  network is unsolvable for the cut-off peers, so construction must
  never hand one out) and structurally valid (symmetric, no
  self-loops — re-checked here through the public API);
- *degree bounds*: ring is 2-regular, star is hub ``n-1`` / leaf 1,
  ``random-dregular:d`` is exactly ``d``-regular, the circulant
  expander's degree is ``O(log n)``;
- *flooding* reaches every peer within ``diameter`` hops (the bound
  the sync engine's alert windows and the relay layer's worst-case
  delivery both quote);
- the :class:`~repro.topology.routing.Router` produces shortest
  edge-valid paths, deterministically for one seed;
- ``complete`` routing is *bit-identical* to the pre-refactor path:
  forcing ``topology="complete"`` through every golden-trace case
  reproduces the checked-in records byte for byte.
"""

import math
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.topology import (
    CompleteTopology,
    Router,
    Topology,
    build_topology,
    flood_layers,
    resolve_topology,
)
from repro.util.rng import SplittableRNG, derive_seed

COMMON = dict(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])

#: Spec strings with the smallest n each accepts.
_SPECS = [("complete", 1), ("ring", 3), ("star", 2), ("expander", 3),
          ("random-dregular:2", 4), ("random-dregular:4", 6)]


@st.composite
def topologies(draw):
    name, n_min = draw(st.sampled_from(_SPECS))
    n = draw(st.integers(min_value=n_min, max_value=40))
    if name.startswith("random-dregular"):
        degree = int(name.partition(":")[2])
        if (n * degree) % 2:
            n += 1  # pairing model needs an even stub count
    seed = draw(st.integers(min_value=0, max_value=2 ** 32))
    return build_topology(name, n, seed)


class TestGraphInvariants:

    @settings(**COMMON)
    @given(topology=topologies())
    def test_connected(self, topology):
        assert topology.is_connected()

    @settings(**COMMON)
    @given(topology=topologies())
    def test_adjacency_is_symmetric_and_loop_free(self, topology):
        for pid in range(topology.n):
            for other in topology.neighbors(pid):
                assert other != pid
                assert pid in topology.neighbors(other)

    @settings(**COMMON)
    @given(topology=topologies())
    def test_degree_bounds(self, topology):
        degrees = [len(topology.neighbors(pid))
                   for pid in range(topology.n)]
        assert topology.degree == max(degrees)
        name = topology.name.partition(":")[0]
        if name == "complete":
            assert degrees == [topology.n - 1] * topology.n
        elif name == "ring":
            assert degrees == [2] * topology.n
        elif name == "star":
            assert degrees[0] == topology.n - 1
            assert degrees[1:] == [1] * (topology.n - 1)
        elif name == "random-dregular":
            d = int(topology.name.partition(":")[2])
            assert degrees == [d] * topology.n
        elif name == "expander":
            # i ~ i +- 2^k (mod n): at most 2 per power of two < n.
            bound = 2 * math.ceil(math.log2(topology.n))
            assert topology.degree <= bound

    @settings(**COMMON)
    @given(topology=topologies())
    def test_flooding_reaches_everyone_within_diameter(self, topology):
        for origin in range(topology.n):
            layers = flood_layers(topology, origin)
            reached = [pid for layer in layers for pid in layer]
            assert sorted(reached) == list(range(topology.n))
            assert len(layers) - 1 <= topology.diameter

    @settings(**COMMON)
    @given(name=st.sampled_from([s for s, _ in _SPECS]),
           n=st.integers(min_value=6, max_value=40),
           seed=st.integers(min_value=0, max_value=2 ** 32))
    def test_construction_is_a_pure_function_of_name_n_seed(
            self, name, n, seed):
        if name.startswith("random-dregular") and n % 2:
            n += 1
        first = build_topology(name, n, seed)
        second = build_topology(name, n, seed)
        assert [first.neighbors(pid) for pid in range(n)] == \
            [second.neighbors(pid) for pid in range(n)]


class TestRouting:

    @settings(**COMMON)
    @given(topology=topologies(),
           seed=st.integers(min_value=0, max_value=2 ** 32),
           data=st.data())
    def test_paths_are_shortest_and_edge_valid(self, topology, seed, data):
        src = data.draw(st.integers(min_value=0, max_value=topology.n - 1))
        dst = data.draw(st.integers(min_value=0, max_value=topology.n - 1))
        router = Router(topology, seed)
        path = router.path(src, dst)
        assert path[0] == src and path[-1] == dst
        assert len(set(path)) == len(path)  # simple path
        for here, there in zip(path, path[1:]):
            assert there in topology.neighbors(here)
        # Shortest: hop count equals the BFS layer dst first appears in.
        for hops, layer in enumerate(flood_layers(topology, src)):
            if dst in layer:
                assert len(path) - 1 == hops
                break

    @settings(**COMMON)
    @given(topology=topologies(),
           seed=st.integers(min_value=0, max_value=2 ** 32),
           data=st.data())
    def test_routing_is_deterministic_per_seed(self, topology, seed, data):
        src = data.draw(st.integers(min_value=0, max_value=topology.n - 1))
        dst = data.draw(st.integers(min_value=0, max_value=topology.n - 1))
        assert Router(topology, seed).path(src, dst) == \
            Router(topology, seed).path(src, dst)


    @settings(**COMMON)
    @given(name=st.sampled_from(["ring", "star", "random-dregular:4",
                                 "expander"]),
           n=st.sampled_from([6, 16, 33, 64, 96]),
           seed=st.integers(min_value=0, max_value=2 ** 32))
    def test_early_exit_tables_equal_full_bfs(self, name, n, seed):
        # The table builder stops shuffling once all n - 1 nodes have a
        # next hop (and, on a first request, once the asking source
        # has); the walk below never stops early.  Same seed, same
        # per-destination stream, so every table must be identical.
        topology = build_topology(name, n, seed)
        router = Router(topology, seed)
        for dst in range(n):
            for src in range(n):
                table = router._table(dst, src)
            assert table == full_bfs_table(topology, seed, dst)

    @settings(**COMMON)
    @given(topology=topologies(),
           seed=st.integers(min_value=0, max_value=2 ** 32),
           data=st.data())
    def test_any_request_order_reads_off_the_full_bfs_tables(
            self, topology, seed, data):
        # Tables grow on demand (first request: as far as the asking
        # source; a source beyond that: one rebuild to the end), so
        # the order of requests must not show in any answer.
        n = topology.n
        reference = [full_bfs_table(topology, seed, dst)
                     for dst in range(n)]
        pairs = [(src, dst) for src in range(n) for dst in range(n)]
        requests = data.draw(st.permutations(pairs))
        if data.draw(st.booleans()):
            requests = requests[:data.draw(
                st.integers(min_value=0, max_value=len(pairs)))]
        router = Router(topology, seed)
        for src, dst in requests:
            expected = [src]
            while expected[-1] != dst:
                expected.append(reference[dst][expected[-1]])
            method = data.draw(st.sampled_from(
                ["path", "next_hop", "distance"]))
            if method == "path":
                assert router.path(src, dst) == expected
            elif method == "distance":
                assert router.distance(src, dst) == len(expected) - 1
            elif src != dst:
                assert router.next_hop(src, dst) == expected[1]
            else:
                with pytest.raises(ValueError, match="to itself"):
                    router.next_hop(src, dst)
        if len(requests) == len(pairs) and n > 1:
            # Every source asked: what is stored is the full table.
            assert router._next_hop == dict(enumerate(reference))

    @pytest.mark.parametrize("name", ["ring", "star", "expander",
                                      "random-dregular:4"])
    def test_no_table_is_started_more_than_twice(self, name, monkeypatch):
        from repro.topology import routing
        started = Counter()

        def counting_derive_seed(seed, label):
            started[label] += 1
            return derive_seed(seed, label)

        monkeypatch.setattr(routing, "derive_seed", counting_derive_seed)
        topology = build_topology(name, 32, 5)
        router = Router(topology, 9)
        # One broadcast: one (partial) build per destination.
        for dst in range(1, 32):
            router.path(0, dst)
        assert started == Counter(
            {f"route-{dst}": 1 for dst in range(1, 32)})
        # Everyone to everyone, nearest pids first, so first builds
        # stop early and later sources force the one rebuild.
        for dst in range(32):
            for src in sorted(range(32), key=lambda pid: abs(pid - dst)):
                router.distance(src, dst)
                router.path(src, dst)
        assert set(started) == {f"route-{dst}" for dst in range(32)}
        assert max(started.values()) == 2

    def test_disconnected_graph_still_raises(self):
        split = Topology(5, "split", [[1], [0], [3, 4], [2], [2]])
        with pytest.raises(ValueError, match=r"'split' is disconnected: "
                                             r"\[2, 3, 4\] cannot reach 0"):
            Router(split, seed=3).path(1, 0)
        with pytest.raises(ValueError, match=r"\[0, 1\] cannot reach 4"):
            Router(split, seed=3).path(2, 4)


def full_bfs_table(topology, seed, dst):
    """``Router._table`` as first written: every frontier node's
    adjacency is shuffled until the frontier runs dry."""
    table = [-2] * topology.n
    table[dst] = -1
    rng = SplittableRNG(derive_seed(seed, f"route-{dst}"))
    frontier = [dst]
    while frontier:
        next_frontier = []
        for node in frontier:
            adjacent = list(topology.neighbors(node))
            rng.shuffle(adjacent)
            for other in adjacent:
                if table[other] == -2:
                    table[other] = node
                    next_frontier.append(other)
        frontier = next_frontier
    return table


class TestCompleteResolvesToPreTopologyPath:

    @settings(**COMMON)
    @given(n=st.integers(min_value=1, max_value=64),
           seed=st.integers(min_value=0, max_value=2 ** 32))
    def test_complete_resolves_to_none(self, n, seed):
        assert resolve_topology(None, n, seed) is None
        assert resolve_topology("complete", n, seed) is None
        assert resolve_topology(CompleteTopology(n), n, seed) is None

    @settings(**COMMON)
    @given(n=st.integers(min_value=3, max_value=4),
           seed=st.integers(min_value=0, max_value=2 ** 32))
    def test_sparse_specs_that_build_complete_graphs_resolve_to_none(
            self, n, seed):
        # ring on 3 peers is K3; the expander covers every offset for
        # small n.  Any is_complete graph must hit the fast path.
        if n == 3:
            assert resolve_topology("ring", n, seed) is None
        assert resolve_topology("expander", n, seed) is None


class TestCompleteGoldenIdentity:
    """Forcing ``topology="complete"`` replays every golden trace
    byte-identically — the refactor's central acceptance criterion."""

    def test_async_golden_records_unchanged(self):
        from repro.experiments import ExperimentSpec
        from repro.sim import run_download
        from tests.golden import capture

        fixture = capture.load_fixture()
        for case in capture.CASES:
            if case["engine"] != "async" or "topology" in case:
                continue
            spec = ExperimentSpec(
                protocol=case["protocol"], n=case["n"], ell=case["ell"],
                fault_model=case["fault_model"], beta=case["beta"],
                strategy=case.get("strategy", "wrong-bits"),
                network=case.get("network", "asynchronous"),
                protocol_params=case.get("protocol_params", {}),
                base_seed=case["seed"],
                sources=case.get("sources", 1),
                source_faults=tuple(case.get("source_faults", ())))
            result = run_download(
                n=spec.n, ell=spec.ell, peer_factory=spec.peer_factory(),
                adversary=spec.build_adversary(), t=spec.t,
                seed=spec.seed_for(0), sources=spec.sources,
                source_faults=spec.source_faults,
                topology="complete")
            record = fixture[case["name"]]
            assert result.report.query_complexity == \
                record["query_complexity"]
            assert result.report.message_complexity == \
                record["message_complexity"]
            assert result.events_processed == record["events_processed"]
            assert repr(result.elapsed_virtual_time) == \
                record["elapsed_virtual_time"]
            assert capture._array_digest(result.data) == record["data_sha"]
            assert capture._queried_digest(result.queried_indices) == \
                record["queried_sha"]

    def test_sync_golden_records_unchanged(self):
        from tests.golden import capture

        fixture = capture.load_fixture()
        for case in capture.CASES:
            if case["engine"] != "sync" or "topology" in case:
                continue
            forced = dict(case, topology="complete")
            assert capture.capture_case(forced) == fixture[case["name"]]
