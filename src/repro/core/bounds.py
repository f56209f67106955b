"""Theoretical complexity bounds stated by the paper.

Each function is the one executable statement of one bound; the claim
table (:mod:`repro.experiments.claims`) and the tests compare measured
complexities against these and nothing else.  The paper gives
asymptotics; the constants here come from the proofs (e.g. the digit
classes behind Lemma 2.11's geometric series), and any allowance a
bound needs is a named term of its function, with its reason in the
docstring.
"""

from __future__ import annotations

import math

from repro.util.validation import check_nonnegative, check_positive


def ideal_query_bound(ell: int, n: int) -> float:
    """The fault-free optimum: ``ell / n`` bits per peer."""
    check_positive("ell", ell)
    check_positive("n", n)
    return ell / n


def crash_optimal_query_bound(ell: int, n: int, t: int) -> float:
    """Optimal crash-fault query complexity: ``ell / (n - t)``.

    With ``t`` crashes only ``n - t`` peers are guaranteed to work, so
    the total load ``ell`` cannot be shared better than this.
    Theorems 2.3 / 2.13 match it up to an additive lower-order term.
    """
    check_positive("ell", ell)
    check_positive("n", n)
    check_nonnegative("t", t)
    if t >= n:
        raise ValueError(f"t={t} must be below n={n}")
    return ell / (n - t)


def crash_one_query_bound(ell: int, n: int) -> int:
    """Algorithm 1 under one crash (Thm 2.3): a peer queries its
    ``ceil(ell / n)`` round-robin share, and in phase 2 at most its
    ``1 / (n - 1)`` slice of the crashed peer's share."""
    check_positive("ell", ell)
    check_positive("n", n)
    share = math.ceil(ell / n)
    return share + math.ceil(share / (n - 1))


def default_direct_threshold(ell: int, n: int, t: int) -> int:
    """Residue size below which Algorithm 2's peers stop phasing and
    query directly.

    ``ceil(ell / (n - t))`` keeps the direct-query tail within the same
    order as the phased cost; the ``n`` floor avoids pathological
    phasing over tiny inputs.
    """
    return max(n, math.ceil(ell / max(1, n - t)))


def planned_phases(ell: int, n: int, t: int, threshold: int) -> int:
    """Number of three-stage phases every honest Algorithm 2 peer runs.

    Phases continue while the worst-case unknown residue
    ``ell * (t/n)**p`` still exceeds ``threshold``, capped at digit
    exhaustion (``n**p >= ell`` means phase ``p + 1`` has no spread
    left).  All peers compute this from globals, so they agree.
    """
    if t == 0:
        return 1 if ell > threshold else 0
    phases = 0
    remaining = ell
    while remaining > threshold and n ** phases < ell:
        phases += 1
        remaining = math.ceil(remaining * t / n)
    return phases


def _digit_class(ell: int, n: int, choices: list[int]) -> int:
    """Most bits of ``[0, ell)`` whose base-``n`` digits ``1, 2, ...``
    each take one of ``choices[0], choices[1], ...`` values: fixing the
    low digit leaves ``ceil(ell / n)`` candidates for the rest."""
    if not choices:
        return ell
    return min(ell, choices[0] * _digit_class(-(-ell // n), n, choices[1:]))


def crash_multi_query_bound(ell: int, n: int, t: int) -> int:
    """Algorithm 2's worst-case per-peer query bits (Lemma 2.11), with
    the default direct threshold.

    Phase ``p`` assigns bit ``b`` to the owner of its ``p``-th base-``n``
    digit.  A peer misses at most ``t`` owners per phase, so after phase
    ``k`` its unknown bits lie in a digit class with ``t`` choices for
    each of the first ``k`` digits, and in phase ``p`` it queries the
    unknown bits whose ``p``-th digit is its own.  Everything it queries
    from phase ``k + 1`` on (later shares and the final direct queries)
    lies in its phase-``k`` residue, so its total is at most its own
    shares through phase ``k`` plus that residue, for every ``k``.  The
    shares sum to about ``ell / (n - t)``, but once ``n**k`` reaches
    ``ell`` the digits run out and the residue stops shrinking, so when
    ``n**phases`` is close to ``ell`` that stalled residue can dominate
    the bound.  E1's crash row (``ell`` 8192, ``n`` 40, ``t`` 20) is
    such a case: the third base-40 digit of a bit below 8192 takes only
    6 values, fewer than ``t``, so the residue stays at 2400 through
    all 3 phases; that is 2400 of the 2725-bit bound, against
    ``ell / (n - t)`` = 410.
    """
    check_positive("ell", ell)
    check_positive("n", n)
    check_nonnegative("t", t)
    phases = planned_phases(ell, n, t, default_direct_threshold(ell, n, t))
    best = ell
    shares = 0
    for k in range(1, phases + 1):
        shares += _digit_class(ell, n, [t] * (k - 1) + [1])
        best = min(best, shares + _digit_class(ell, n, [t] * k))
    return best


def one_round_query_bound(ell: int, n: int, t: int,
                          redundancy: int = 1) -> int:
    """The one-exchange protocol's per-peer query bits, with slices laid
    out by ID shift (``protocols/one_round.py``).

    A peer queries its ``redundancy`` round-robin slices (at most
    ``ceil(ell / n)`` bits each), hears the shares of all but at most
    ``t`` peers, and then queries the residue: the slices whose every
    owner went unheard.  Slice ``j`` is owned by peers ``j - r + 1, ...,
    j``, so only a window of ``r`` consecutive unheard peers leaves a
    slice in the residue, and ``t`` unheard peers hold at most
    ``t - r + 1`` such windows.  For every ``r <= t + 1`` that is the
    plateau ``(t + 1) * ceil(ell / n)``, and the adaptive crash
    adversary meets it exactly (E14)."""
    check_positive("ell", ell)
    check_positive("n", n)
    check_nonnegative("t", t)
    check_positive("redundancy", redundancy)
    residue_slices = max(0, t - redundancy + 1)
    return min(ell, (redundancy + residue_slices) * math.ceil(ell / n))


def committee_query_bound(ell: int, n: int, t: int,
                          block_size: int = 1) -> int:
    """Deterministic Byzantine protocol (Thm 3.4): the input is cut
    into ``ceil(ell / block_size)`` blocks, each with a round-robin
    committee of ``2t + 1`` peers, so a peer serves on at most
    ``ceil(blocks * (2t + 1) / n)`` committees and queries one block
    (at most ``ceil(ell / blocks)`` bits) for each.  With
    ``block_size=1`` this is the paper's ``ceil(ell * (2t + 1) / n)``."""
    check_positive("ell", ell)
    check_positive("n", n)
    check_nonnegative("t", t)
    check_positive("block_size", block_size)
    if 2 * t >= n:
        raise ValueError(f"committee protocol needs 2t < n, got t={t}, n={n}")
    blocks = math.ceil(ell / block_size)
    return math.ceil(blocks * (2 * t + 1) / n) * math.ceil(ell / blocks)


def byzantine_majority_lower_bound(ell: int) -> int:
    """Randomized lower bound for ``beta >= 1/2`` (Thm 3.2): in some
    execution a peer must query more than ``ell / 2`` bits."""
    check_positive("ell", ell)
    return ell // 2


def randomized_fooling_floor(mean_queries: float, ell: int) -> float:
    """Thm 3.2's proof, quantitatively: against a victim that queries
    ``Q`` bits on average, the witness adversary fools it with
    probability at least ``1 - Q / ell``."""
    check_positive("ell", ell)
    return max(0.0, 1.0 - mean_queries / ell)


def deterministic_majority_lower_bound(ell: int) -> int:
    """Deterministic lower bound for ``beta >= 1/2`` (Thm 3.1): the
    naive ``ell``-query protocol is the only one."""
    check_positive("ell", ell)
    return ell


FALLBACK_SEGMENTS = 1
"""Whole segments the randomized bounds allow a peer to query on top of
the paper's formula.  Claim 5 (Thm 3.7) and Lemma 3.10 (Thm 3.12) rest
on every segment having a tau-frequent honest string, which holds
w.h.p., not surely: a peer that finds none for a segment queries that
segment whole.  At laboratory ``n`` one such miss per run is routine,
so the bounds allow one."""


def segment_cycles_query_bound(ell: int, n: int, t: int, tau: int,
                               base_segments: int,
                               later_cycles: int = 1) -> float:
    """Per-peer query bound of the randomized segment-cycles download:
    Protocol 4 (Thm 3.7) at ``later_cycles=1``, the multi-cycle
    protocol (Thm 3.12) at ``log2(s)``.

    Cycle 1 queries one base segment (``ceil(ell / s)``).  Each later
    cycle resolves one segment's children by decision trees over the
    previous cycle's tau-frequent reports: the trees contain at most
    ``n / tau`` internal nodes in total (each of at most ``n`` received
    reports contributes ``1 / tau`` of a tree candidate), ``tau`` being
    the smallest threshold of any cycle.  :data:`FALLBACK_SEGMENTS` base
    segments are the allowance for Claim 5's and Lemma 3.10's w.h.p.
    premise (later cycles' children have larger honest support, so
    their misses are rarer still).  Thm 3.12 bounds the *expected*
    cost, so claims compare the multi-cycle protocol's mean over runs
    with it.
    """
    check_positive("tau", tau)
    check_positive("base_segments", base_segments)
    segment_cost = math.ceil(ell / base_segments)
    return segment_cost * (1 + FALLBACK_SEGMENTS) + later_cycles * n / tau


def naive_query_bound(ell: int) -> int:
    """The naive protocol: every peer queries every bit."""
    check_positive("ell", ell)
    return ell


def cross_validate_query_bound(ell: int, q: int) -> int:
    """Cross-validation over ``k`` sources (``protocols/multisource.py``):
    every peer reads every bit from ``q`` sources, ``q * ell`` bits.
    The optimistic variant's worst case is its escalated
    ``q = 2f + 1``."""
    check_positive("ell", ell)
    check_positive("q", q)
    return q * ell


def odc_baseline_query_bound(feeds: int, cells: int,
                             value_bits: int) -> int:
    """Classic ODC: a node reads every cell of every feed directly,
    ``feeds * cells * value_bits`` bits."""
    return feeds * cells * value_bits


def odc_download_query_bound(consistent_feeds: int, equivocating_feeds: int,
                             cells: int, value_bits: int, n: int,
                             t: int) -> int:
    """Download-based ODC (Thm 4.2) with the committee protocol, one
    value per block, per node.  A consistent feed costs a node its
    :func:`committee_query_bound` share of the feed's
    ``cells * value_bits`` bits.  An equivocating feed answers each
    reader differently, so no block gathers ``t + 1`` matching reports
    and every node reads the feed whole after its give-up time."""
    feed_bits = cells * value_bits
    return (consistent_feeds * committee_query_bound(feed_bits, n, t,
                                                     value_bits)
            + equivocating_feeds * feed_bits)
