"""Decision trees over conflicting segment strings (Protocol 3).

Given a set ``S`` of equal-length candidate strings for one segment
(honest reports plus Byzantine fabrications), a decision tree resolves
the conflict with a *few queries to the source* instead of re-reading
the whole segment:

- if ``S`` has one string, the tree is a single leaf;
- otherwise pick two differing strings, label the root with the first
  index at which they differ (the *separating index*), split ``S`` by
  the bit at that index, and recurse.

Walking the tree — querying the source at each inner node's separating
index and following the matching child — reaches a leaf after at most
``|S| - 1`` queries.  **Determine correctness** (the property every
protocol relies on): as long as the true string is *somewhere* in
``S``, the walk ends at a leaf labelled with the true string, because
at every inner node the true bit leads to the side containing the true
string, and a leaf's label agrees with every queried index on its path.

The construction here is deterministic (candidates are processed in
sorted order) so identical report sets yield identical trees on every
peer — handy for tests, irrelevant for correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Union


@dataclass(frozen=True)
class Leaf:
    """Terminal node: one surviving candidate string."""

    string: str


@dataclass(frozen=True)
class Inner:
    """Internal node: a separating index and the two branches."""

    index: int
    zero: "Node"
    one: "Node"


Node = Union[Leaf, Inner]


def first_separating_index(first: str, second: str) -> int:
    """First position at which two equal-length strings differ."""
    if len(first) != len(second):
        raise ValueError(
            f"strings must have equal length, got {len(first)} and "
            f"{len(second)}")
    for position, (a, b) in enumerate(zip(first, second)):
        if a != b:
            return position
    raise ValueError("strings are identical; no separating index exists")


def build_tree(strings: Iterable[str]) -> Node:
    """Construct the decision tree for candidate set ``strings``.

    Raises ValueError for an empty candidate set or mixed lengths.
    """
    candidates = sorted(set(strings))
    if not candidates:
        raise ValueError("cannot build a decision tree from no candidates")
    lengths = {len(string) for string in candidates}
    if len(lengths) != 1:
        raise ValueError(f"candidates have mixed lengths {sorted(lengths)}")
    return _build(candidates)


def _build(candidates: list[str]) -> Node:
    if len(candidates) == 1:
        return Leaf(candidates[0])
    # Deterministic pick: the two lexicographically smallest candidates
    # necessarily differ.
    index = first_separating_index(candidates[0], candidates[1])
    zeros = [string for string in candidates if string[index] == "0"]
    ones = [string for string in candidates if string[index] == "1"]
    return Inner(index=index, zero=_build(zeros), one=_build(ones))


def determine(tree: Node, query_bit: Callable[[int], int]) -> tuple[str, int]:
    """Walk ``tree``, querying bits via ``query_bit(relative_index)``.

    Returns ``(resolved_string, queries_spent)``.  ``query_bit``
    receives indices relative to the segment start.
    """
    queries = 0
    node = tree
    while isinstance(node, Inner):
        bit = query_bit(node.index)
        if bit not in (0, 1):
            raise ValueError(f"query_bit returned {bit!r}, expected 0 or 1")
        node = node.one if bit else node.zero
        queries += 1
    return node.string, queries


def determine_via_peer(peer, tree: Node, offset: int) -> Iterator:
    """Generator form of :meth:`determine` for use inside peer bodies.

    Walks ``tree`` with indices shifted by the segment's ``offset``.
    A bit the peer already knows is read from its working array; any
    other is queried from the source, one separating index at a time
    (adaptively — the next index depends on the previous answer), so
    no bit is paid for twice.  Usage::

        string = yield from determine_via_peer(self, tree, lo)
    """
    node = tree
    while isinstance(node, Inner):
        index = offset + node.index
        if peer.is_known(index):
            bit = peer.working_string(index, index + 1) == "1"
        else:
            bit = (yield from peer.query_bits([index]))[index]
        node = node.one if bit else node.zero
    return node.string


def leaves(tree: Node) -> list[str]:
    """All leaf labels, left to right."""
    if isinstance(tree, Leaf):
        return [tree.string]
    return leaves(tree.zero) + leaves(tree.one)


def internal_count(tree: Node) -> int:
    """Number of inner nodes (= number of leaves - 1)."""
    if isinstance(tree, Leaf):
        return 0
    return 1 + internal_count(tree.zero) + internal_count(tree.one)


def depth(tree: Node) -> int:
    """Longest root-to-leaf path length in inner nodes."""
    if isinstance(tree, Leaf):
        return 0
    return 1 + max(depth(tree.zero), depth(tree.one))


def contains(tree: Node, string: str) -> bool:
    """True when ``string`` labels some leaf."""
    return string in leaves(tree)
