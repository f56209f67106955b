"""Index-to-peer assignment functions.

Both crash protocols revolve around an *assignment* mapping each bit
index to the peer responsible for querying it.  Two properties matter:

1. **Balance** — each peer is assigned at most ``ceil(|indices| / n)``
   bits, which is what makes the query load even.
2. **Globality** — a reassignment must be a function of *global*
   information only (the previous assignment and the missing peer's
   ID), never of the reassigning peer's local knowledge.  Claim 1 of
   the paper (agreement-or-known) holds exactly because every peer that
   reassigns peer ``q``'s bits computes the *same* new owners; peers
   that already know some of those bits simply skip querying them.

:func:`distribute_evenly` is that global rule: sorted indices dealt
round-robin over all ``n`` peers.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Sequence

from repro.util.validation import check_nonnegative, check_positive


def round_robin_owner(index: int, n: int) -> int:
    """Phase-1 owner of bit ``index``: simple modulo round-robin."""
    return index % n


def round_robin_indices(pid: int, ell: int, n: int) -> range:
    """All bits owned by ``pid`` under the phase-1 assignment."""
    return range(pid, ell, n)


def distribute_evenly(indices: Iterable[int], n: int) -> dict[int, int]:
    """Deal ``indices`` (sorted) round-robin over peers ``0 .. n-1``.

    This is the *global* reassignment rule: its output depends only on
    the index set and ``n``, so any two peers reassigning the same set
    agree on every owner.

    >>> distribute_evenly([10, 3, 7], 2)
    {3: 0, 7: 1, 10: 0}
    """
    check_positive("n", n)
    return {index: slot % n
            for slot, index in enumerate(sorted(set(indices)))}


def digit_owner(index: int, phase: int, n: int) -> int:
    """Phase-``phase`` owner of ``index``: the ``phase``-th base-``n`` digit.

    This is the concrete *global* instantiation of the paper's
    "reassign the missing peer's bits evenly among all peers" used by
    Algorithm 2 here.  Phase 1 is plain round-robin (``index % n``);
    phase ``p`` owns bits by their ``p``-th base-``n`` digit.  Two
    properties make it exactly the assignment the proofs need:

    * **Globality** (Claim 1, strengthened): the owner is a function of
      ``(index, phase, n)`` alone, so *all* peers agree on every
      owner in every phase — the "or one of them already knows the
      bit" escape hatch of Claim 1 is never even needed.
    * **Even reassignment**: the bits owned in phases ``1..p-1`` by any
      fixed sequence of (missed) peers form a digit-pattern class, and
      the ``p``-th digit splits that class evenly across all ``n``
      peers — so each peer's phase-``p`` load is at most
      ``ceil(unknown / n)``, the paper's "reassigns the bits evenly"
      guarantee (Claim 4's ``(t/n)**p`` decay follows).

    >>> [digit_owner(i, 1, 3) for i in range(6)]
    [0, 1, 2, 0, 1, 2]
    >>> [digit_owner(i, 2, 3) for i in range(9, 15)]
    [0, 0, 0, 1, 1, 1]
    """
    check_nonnegative("index", index)
    check_positive("phase", phase)
    check_positive("n", n)
    return (index // n ** (phase - 1)) % n


def group_by_digit_owner(marks: bytes, phase: int,
                         n: int) -> dict[int, list[int]]:
    """Group the positions ``marks`` flags (a nonzero byte each) by
    their :func:`digit_owner` for ``phase``, ascending per owner.

    Bulk companion to :func:`digit_owner`, and one pass over the
    bytes: an owner's positions are every ``n``-th block of
    ``n ** (phase - 1)`` (in phase 1, every ``n``-th byte), so each
    block is sliced out and only its flagged positions are touched.
    """
    check_positive("phase", phase)
    check_positive("n", n)
    width = n ** (phase - 1)
    ell = len(marks)
    by_owner: dict[int, list[int]] = {}
    if width == 1:
        for owner in range(min(n, ell)):
            flagged = list(compress(range(owner, ell, n), marks[owner::n]))
            if flagged:
                by_owner[owner] = flagged
        return by_owner
    for block, lo in enumerate(range(0, ell, width)):
        flags = marks[lo:lo + width]
        if flags.count(0) < len(flags):
            by_owner.setdefault(block % n, []).extend(
                compress(range(lo, lo + len(flags)), flags))
    return by_owner


def digit_indices(pid: int, phase: int, ell: int, n: int) -> list[int]:
    """All bits in ``[0, ell)`` owned by ``pid`` in ``phase``."""
    width = n ** (phase - 1)
    indices: list[int] = []
    block_lo = pid * width
    stride = n * width
    while block_lo < ell:
        indices.extend(range(block_lo, min(ell, block_lo + width)))
        block_lo += stride
    return indices


def balanced_partition(ell: int, parts: int) -> list[tuple[int, int]]:
    """Split ``[0, ell)`` into ``parts`` contiguous near-equal ranges.

    The first ``ell % parts`` ranges get one extra bit.  Used for
    committee blocks and for the fault-free balanced baseline.

    >>> balanced_partition(10, 3)
    [(0, 4), (4, 7), (7, 10)]
    """
    check_positive("ell", ell)
    check_positive("parts", parts)
    base, extra = divmod(ell, parts)
    bounds = []
    lo = 0
    for part in range(parts):
        hi = lo + base + (1 if part < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def max_load(assignment: dict[int, int], n: int) -> int:
    """Largest number of indices assigned to any single peer."""
    check_positive("n", n)
    loads = [0] * n
    for owner in assignment.values():
        check_nonnegative("owner", owner)
        loads[owner] += 1
    return max(loads, default=0)


def assignment_is_balanced(assignment: dict[int, int], n: int) -> bool:
    """True when no peer carries more than ``ceil(size / n)`` indices."""
    size = len(assignment)
    ceiling = -(-size // n) if size else 0
    return max_load(assignment, n) <= ceiling


def owners_disagree(first: dict[int, int],
                    second: dict[int, int]) -> list[int]:
    """Indices present in both assignments with different owners.

    Claim 1 of the paper says this list must be empty for indices
    neither peer has already learned; tests use it directly.
    """
    return sorted(index for index in first.keys() & second.keys()
                  if first[index] != second[index])


def committee_for(block: int, committee_size: int, n: int) -> list[int]:
    """The round-robin committee for block ``block``.

    Committees of ``committee_size`` peers are carved out of the ID
    space in round-robin order (the deterministic Byzantine protocol,
    Theorem 3.4): committee ``k`` consists of peers
    ``(k * committee_size + r) mod n`` for ``r = 0 .. committee_size-1``.
    Each peer thus serves in at most ``ceil(blocks * size / n)``
    committees.
    """
    check_positive("committee_size", committee_size)
    check_positive("n", n)
    start = (block * committee_size) % n
    return [(start + offset) % n for offset in range(committee_size)]


def committees_of_peer(pid: int, blocks: int, committee_size: int,
                       n: int) -> list[int]:
    """All block IDs whose committee contains ``pid``."""
    return [block for block in range(blocks)
            if pid in committee_for(block, committee_size, n)]


def committees_by_peer(blocks: int, committee_size: int,
                       n: int) -> dict[int, list[int]]:
    """Batched inverse of :func:`committee_for` over *all* blocks.

    One ``O(blocks * committee_size)`` pass instead of ``n`` calls to
    :func:`committees_of_peer` (each ``O(blocks * committee_size)``) —
    the committee board precomputes the whole membership map this
    way.  Each peer's block list is ascending, matching
    :func:`committees_of_peer` exactly; peers serving on no committee
    are absent from the dict.
    """
    check_nonnegative("blocks", blocks)
    by_peer: dict[int, list[int]] = {}
    for block in range(blocks):
        # ``committee_for`` repeats members when committee_size > n;
        # a peer still serves each committee once (set semantics, as
        # in the scalar function's ``pid in committee`` test).
        for pid in set(committee_for(block, committee_size, n)):
            bucket = by_peer.get(pid)
            if bucket is None:
                by_peer[pid] = [block]
            else:
                bucket.append(block)
    return by_peer


def invert(assignment: dict[int, int], n: int) -> list[list[int]]:
    """Owner -> sorted list of assigned indices, for peers ``0 .. n-1``."""
    by_owner: list[list[int]] = [[] for _ in range(n)]
    for index in sorted(assignment):
        by_owner[assignment[index]].append(index)
    return by_owner


def indices_of(assignment: dict[int, int], pid: int) -> list[int]:
    """Sorted indices assigned to ``pid``."""
    return sorted(index for index, owner in assignment.items()
                  if owner == pid)


def is_permutation_balanced(sizes: Sequence[int]) -> bool:
    """True when the difference between any two loads is at most one."""
    return (max(sizes) - min(sizes) <= 1) if sizes else True
