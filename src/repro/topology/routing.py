"""Seeded shortest-path routing over a topology: every host's relays.

The :class:`Router` answers "how does a message from ``src`` reach
``dst``" with a concrete hop path; the simulator, the lockstep host
and the socket host all route each copy along it (routed, finished
relays forward), and :func:`flood_layers` gives BFS reachability.
Paths are always shortest (hop count = BFS distance), and ties between
equally-short paths are broken by a seeded shuffle of each BFS
frontier — different run seeds spread relay load across different
shortest-path trees, while one seed always reproduces the same routes
(cache/journal replays and golden traces depend on that).

Routes are computed from per-destination BFS trees ("which neighbor
moves me one hop closer to ``dst``"), built lazily and cached, per
requested *source*: the first request toward ``dst`` runs the BFS only
until the asking source has its next hop (every node on its route is
nearer to ``dst``, so already filled in); a later source the partial
table did not reach rebuilds it to the end from the same seed, which
reproduces every entry already handed out.  One broadcast pays a prefix
of each table, all-to-all traffic at most two builds per destination.
"""

from __future__ import annotations

from repro.topology.graphs import Topology
from repro.util.rng import SplittableRNG, derive_seed


class Router:
    """Next-hop routing tables for one topology and one seed."""

    def __init__(self, topology: Topology, seed: int = 0) -> None:
        self.topology = topology
        self.seed = seed
        #: dst -> per-source next hop toward dst (-1 at dst itself,
        #: -2 where a partial build has not reached).
        self._next_hop: dict[int, list[int]] = {}
        self._connected = False  # until one reachability pass says so

    def _table(self, dst: int, src: int) -> list[int]:
        """The table toward ``dst``, grown at least as far as ``src``."""
        table = self._next_hop.get(dst)
        if table is not None and table[src] != -2:
            return table
        topology = self.topology
        if not self._connected:
            # One unshuffled pass (no RNG draw): the graph is
            # undirected, so reaching everyone once vouches for all.
            reached = set().union(*flood_layers(topology, dst))
            if len(reached) < topology.n:
                raise ValueError(
                    f"topology {topology.name!r} is disconnected: "
                    f"{sorted(set(range(topology.n)) - reached)} "
                    f"cannot reach {dst}")
            self._connected = True
        # The first build stops once ``src`` has its entry; a second
        # one never stops early (``dst``'s own entry stays -1).
        stop = src if table is None else dst
        table = [-2] * topology.n  # -2 = unreached
        table[dst] = -1
        rng = SplittableRNG(derive_seed(self.seed, f"route-{dst}"))
        frontier = [dst]
        # Once every node has its next hop the remaining shuffles can
        # assign nothing, and this table's RNG is never used again.
        unreached = topology.n - 1
        while unreached and table[stop] < 0:
            next_frontier = []
            for node in frontier:
                adjacent = list(topology.neighbors(node))
                rng.shuffle(adjacent)
                for other in adjacent:
                    if table[other] == -2:
                        # BFS from dst: the tree edge other -> node is
                        # other's first hop *toward* dst.
                        table[other] = node
                        next_frontier.append(other)
                        unreached -= 1
                if not unreached or table[stop] >= 0:
                    break
            frontier = next_frontier
        self._next_hop[dst] = table
        return table

    def next_hop(self, src: int, dst: int) -> int:
        """The neighbor of ``src`` one hop closer to ``dst``."""
        if src == dst:
            raise ValueError(f"no hop from {src} to itself")
        return self._table(dst, src)[src]

    def distance(self, src: int, dst: int) -> int:
        """Hop count of the shortest path from ``src`` to ``dst``."""
        if src == dst:
            return 0
        table = self._table(dst, src)
        hops = 0
        while src != dst:
            src = table[src]
            hops += 1
        return hops

    def path(self, src: int, dst: int) -> list[int]:
        """The full hop path ``[src, ..., dst]`` (length >= 1)."""
        if src == dst:
            return [src]
        table = self._table(dst, src)
        path = [src]
        node = src
        while node != dst:
            node = table[node]
            path.append(node)
        return path


def flood_layers(topology: Topology, origin: int) -> list[list[int]]:
    """BFS layers of a flood from ``origin``: ``layers[h]`` is the set
    of peers first reached after ``h`` hops (``layers[0] == [origin]``).

    This is the reachability schedule the relay layer and the sync
    engine's delayed delivery both refine; the property suite asserts
    every peer appears within ``topology.diameter`` hops.
    """
    seen = {origin}
    layers = [[origin]]
    frontier = [origin]
    while frontier:
        next_frontier = []
        for node in frontier:
            for other in topology.neighbors(node):
                if other not in seen:
                    seen.add(other)
                    next_frontier.append(other)
        if next_frontier:
            layers.append(sorted(next_frontier))
        frontier = next_frontier
    return layers
