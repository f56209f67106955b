"""The paper's evaluation as one table of claims.

The paper's evaluation is Table 1 plus one experiment per theorem.  Each
is a :class:`Claim` here: rows of ``(label, ExperimentSpec)``, the bound
each row is held to — its protocol's registered ``query_bound``, a
:mod:`repro.core.bounds` function, never a number written here — and a
verdict.  The default verdict is "every
run correct, and Q within the bound", where Q is the worst peer's query
bits, max over runs; Thm 3.12 bounds an expectation, so multi-cycle
rows compare the mean over runs instead.  Cross-row shape statements
(who beats whom, what grows) are part of a claim's verdict too.

A row the bound does not cover is a *finding*: it carries one sentence
saying why, and it is checked like any other row — a finding that
starts to hold fails the table just as an unmarked row that stops
holding does, so the list cannot go stale.

:func:`run_claims` settles every row of every claim through one
:meth:`~repro.execution.ParallelRunner.run_many`, so the table is
cached, resumable and parallel like any sweep, and renders it as
markdown (``examples/reproduce_paper.py`` is the driver; EXPERIMENTS.md
holds its output verbatim).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core import bounds
from repro.experiments.outcome import ExperimentOutcome
from repro.experiments.spec import ExperimentSpec, segment_count
from repro.protocols import get

__all__ = ["CLAIMS", "Claim", "Row", "run_claims"]

#: The level at which a statistical verdict rejects its statement.
SIGNIFICANCE = 0.01


@dataclass(frozen=True)
class Row:
    """One spec of a claim.  ``finding`` is the sentence explaining why
    the row is expected *not* to hold; ``bound`` overrides the
    protocol's registered ``query_bound`` (E17's exact multiples of
    ``ell``)."""

    label: str
    spec: ExperimentSpec
    finding: str = ""
    bound: Optional[float] = None


def q_of(outcome: ExperimentOutcome) -> float:
    """The Q a claim compares: the mean over runs for multi-cycle (an
    expected bound), the worst run otherwise."""
    if outcome.spec.protocol == "byz-multi-cycle":
        return outcome.mean_query_complexity
    return outcome.max_query_complexity


def _all_correct(outcome: ExperimentOutcome) -> bool:
    return outcome.correct_runs == outcome.runs


def within_bound(row: Row, outcome: ExperimentOutcome) -> tuple:
    """Default verdict: every run correct and Q within the bound (the
    protocol's registered ``query_bound`` unless the row sets one)."""
    spec, bound = row.spec, row.bound
    if bound is None:
        bound = get(spec.protocol).query_bound(
            spec.ell, spec.n, spec.t, spec.protocol_params, spec.sources)
    q = q_of(outcome)
    return q, bound, _all_correct(outcome) and q <= bound


def exactly(row: Row, outcome: ExperimentOutcome) -> tuple:
    """Every run correct, Q exactly the row's bound, no peer messages."""
    q = q_of(outcome)
    holds = (_all_correct(outcome) and q == row.bound
             and outcome.mean_message_complexity == 0)
    return q, row.bound, holds


def fooled_below_ell(row: Row, outcome: ExperimentOutcome) -> tuple:
    """Thm 3.1: the witness fools exactly the victims that query fewer
    than ``ell`` bits while claiming Byzantine tolerance (a victim that
    claims none may escape by waiting for all ``n`` peers)."""
    floor = bounds.deterministic_majority_lower_bound(row.spec.ell)
    tolerant = get(row.spec.protocol).max_byzantine_fraction > 0
    q, fooled = q_of(outcome), _all_correct(outcome)
    return q, floor, fooled == (q < floor and tolerant)


def binomial_lower_tail(successes: int, trials: int, p: float) -> float:
    """``P(X <= successes)`` for ``X ~ Binomial(trials, p)``."""
    return sum(math.comb(trials, k) * p ** k * (1 - p) ** (trials - k)
               for k in range(successes + 1))


def fooled_above_floor(row: Row, outcome: ExperimentOutcome) -> tuple:
    """Thm 3.2: the share of runs not correct meets ``1 - mean Q /
    ell``, unless a one-sided binomial test rejects "rate >= floor" at
    :data:`SIGNIFICANCE`.  A uniform flipped bit makes the floor tight
    (the expected rate equals it), so a point comparison would fail on
    about half of all seed sets.  The share never undercounts fooled
    victims, and Q is the worst peer's, at least the victim's."""
    floor = bounds.randomized_fooling_floor(outcome.mean_query_complexity,
                                            row.spec.ell)
    wrong = outcome.runs - outcome.correct_runs
    holds = binomial_lower_tail(wrong, outcome.runs, floor) >= SIGNIFICANCE
    return wrong / outcome.runs, floor, holds


@dataclass(frozen=True)
class Claim:
    """One theorem's experiment: rows, a per-row verdict returning
    ``(measured, bound, holds)``, and cross-row ``shape`` statements
    ``(text, predicate over {label: outcome})``."""

    key: str
    title: str
    rows: tuple
    shape: tuple = ()
    verdict: Callable = within_bound
    measured: str = "Q"


def _byz(beta: float, **fields) -> dict:
    return dict(fault_model="byzantine" if beta else "none", beta=beta,
                **fields)


def _crash(beta: float) -> dict:
    return dict(fault_model="crash" if beta else "none", beta=beta)


def _two(s: int, tau: int) -> dict:
    return {"num_segments": s, "tau": tau}


def _multi(s: int, tau: int) -> dict:
    return {"base_segments": s, "tau": tau}


def _segment_bits(outcome: ExperimentOutcome) -> int:
    """One segment of the outcome's spec, ``ceil(ell / s)`` bits."""
    spec = outcome.spec
    return math.ceil(spec.ell / segment_count(spec.protocol_params))


_SYNC = dict(network="synchronous", backend="sync")

#: E13's adversaries: the static wrong-bits liars, the same budget
#: re-drawn every cycle, and the committee forger.
_E13_ADVERSARIES = {
    "static": dict(fault_model="byzantine"),
    "dynamic": dict(fault_model="dynamic"),
    "committee-forge": dict(fault_model="byzantine",
                            strategy="committee-forge"),
}

CLAIMS = (
    Claim("E1", "Table 1: each regime's protocol (n=40, ell=8192)", (
        Row("sync Byz rand beta<1/2: 2-cycle [3,4]", ExperimentSpec(
            "byz-two-cycle", 40, 8192, network="synchronous",
            protocol_params=_two(4, 2), repeats=3, **_byz(0.15))),
        Row("sync Byz det beta<1/2: committee [3]", ExperimentSpec(
            "byz-committee", 40, 8192, network="synchronous",
            protocol_params={"block_size": 64}, repeats=3, **_byz(0.15))),
        Row("async crash det any beta: Alg 2 fast", ExperimentSpec(
            "crash-multi-fast", 40, 8192, repeats=3, **_crash(0.5))),
        Row("async Byz rand beta<1/2: multi-cycle", ExperimentSpec(
            "byz-multi-cycle", 40, 8192, protocol_params=_multi(4, 2),
            repeats=3, **_byz(0.15))),
        Row("async Byz beta>=1/2: naive", ExperimentSpec(
            "naive", 40, 8192, **_byz(0.55))),
    ), shape=(
        ("2-cycle and multi-cycle Q < committee Q", lambda o: max(
            q_of(o["sync Byz rand beta<1/2: 2-cycle [3,4]"]),
            q_of(o["async Byz rand beta<1/2: multi-cycle"]))
         < q_of(o["sync Byz det beta<1/2: committee [3]"])),
        ("naive Q = ell (Thm 3.1's forced optimum)", lambda o: q_of(
            o["async Byz beta>=1/2: naive"])
         == bounds.deterministic_majority_lower_bound(8192)),
    )),
    Claim("E2", "Thm 2.3: Algorithm 1 under one crash (n=16, ell=4096)", (
        Row("no crash, t=1", ExperimentSpec(
            "crash-one", 16, 4096, beta=1 / 16, repeats=3)),
        Row("one crash", ExperimentSpec(
            "crash-one", 16, 4096, repeats=3, **_crash(1 / 16))),
    )),
    Claim("E3", "Thm 2.13 / Lemma 2.11: Algorithm 2 across beta and ell "
                "(n=16)", tuple(
        Row(f"beta={beta:.2f}, ell=8192", ExperimentSpec(
            "crash-multi", 16, 8192, repeats=3, **_crash(beta)))
        for beta in (0.0, 0.1, 0.25, 0.5, 0.75)) + tuple(
        Row(f"beta=0.50, ell={ell}", ExperimentSpec(
            "crash-multi", 16, ell, repeats=2, **_crash(0.5)))
        for ell in (1024, 4096, 16384)), shape=(
        ("Q grows with beta", lambda o: q_of(o["beta=0.75, ell=8192"])
         > q_of(o["beta=0.00, ell=8192"])),
        ("Q grows with ell", lambda o: q_of(o["beta=0.50, ell=1024"])
         < q_of(o["beta=0.50, ell=4096"]) < q_of(o["beta=0.50, ell=16384"])),
    )),
    Claim("E4", "Thm 3.4: deterministic committees (n=15, ell=4500, "
                "blocks of 30)", tuple(
        Row(f"t={t}", ExperimentSpec(
            "byz-committee", 15, 4500, repeats=2,
            protocol_params={"block_size": 30}, **_byz(t / 15)))
        for t in (0, 2, 4, 7)) + tuple(
        Row(f"beta=0.4, {strategy}", ExperimentSpec(
            "byz-committee", 15, 4500, repeats=2,
            protocol_params={"block_size": 30},
            **_byz(0.4, strategy=strategy)))
        for strategy in ("silent", "wrong-bits", "equivocate",
                         "selective-silence")), shape=(
        ("Q grows with t", lambda o: q_of(o["t=0"]) < q_of(o["t=2"])
         < q_of(o["t=4"]) < q_of(o["t=7"])),
    )),
    Claim("E5", "Thm 3.7: the 2-cycle protocol over ell, beta and 20 "
                "seeds", (
        Row("n=80, beta=0.3, ell=256, default (s, tau)", ExperimentSpec(
            "byz-two-cycle", 80, 256, repeats=3, **_byz(0.3))),
        Row("n=80, beta=0.3, ell=4096, s=4, tau=3", ExperimentSpec(
            "byz-two-cycle", 80, 4096, protocol_params=_two(4, 3),
            repeats=3, **_byz(0.3))),
        Row("n=80, beta=0.3, ell=32768, s=4, tau=3", ExperimentSpec(
            "byz-two-cycle", 80, 32768, protocol_params=_two(4, 3),
            repeats=3, **_byz(0.3))),
    ) + tuple(
        Row(f"n=40, beta={beta}, ell=8192, s=4, tau=2", ExperimentSpec(
            "byz-two-cycle", 40, 8192, protocol_params=_two(4, 2),
            repeats=3, **_byz(beta)),
            finding="in one run of three a peer decodes a wrong segment: "
                    "among the 32 reports it waits for, the honest "
                    "string had fewer than tau=2 supporters while two "
                    "liars agreed on a flipped one, which Claim 5 "
                    "excludes only w.h.p. (its union bound is 1, i.e. "
                    "vacuous, at n=40)"
            if beta == 0.2 else "")
        for beta in (0.0, 0.1, 0.2)) + (
        Row("n=48, t=5, ell=4800, s=4, tau=3, 20 seeds", ExperimentSpec(
            "byz-two-cycle", 48, 4800, protocol_params=_two(4, 3),
            repeats=20, **_byz(5 / 48))),
    ), shape=(
        ("ell=256 is Case 3: naive, Q = ell", lambda o: q_of(
            o["n=80, beta=0.3, ell=256, default (s, tau)"]) == 256),
        ("ell=32768: Q < the committee bound", lambda o: q_of(
            o["n=80, beta=0.3, ell=32768, s=4, tau=3"])
         < bounds.committee_query_bound(32768, 80, 24)),
    )),
    Claim("E6", "Thm 3.12: the multi-cycle protocol over s, and against "
                "the 2-cycle protocol (n=48, ell=16384, beta=0.1, tau=2)",
          tuple(Row(f"multi-cycle s={s}", ExperimentSpec(
              "byz-multi-cycle", 48, 16384, protocol_params=_multi(s, 2),
              repeats=3, **_byz(0.1)))
                for s in (2, 4, 8)) + (
        Row("2-cycle s=8", ExperimentSpec(
            "byz-two-cycle", 48, 16384, protocol_params=_two(8, 2),
            repeats=3, **_byz(0.1)),
            finding="a peer fell back on two whole segments in one run: "
                    "with about 5 honest reports per segment, Claim 5's "
                    "premise misses more often than the one-segment "
                    "allowance covers"),
    ), shape=(
        ("Q falls as s grows", lambda o: q_of(o["multi-cycle s=8"])
         < q_of(o["multi-cycle s=2"])),
        ("s=8: both protocols stay below ell/2", lambda o: max(
            q_of(o["multi-cycle s=8"]), q_of(o["2-cycle s=8"]))
         < bounds.byzantine_majority_lower_bound(16384)),
        ("s=8: the multi-cycle protocol pays in time", lambda o: o[
            "multi-cycle s=8"].mean_time_complexity
         > o["2-cycle s=8"].mean_time_complexity),
    )),
    Claim("E7", "Thm 3.1: the deterministic witness (n=10, ell=200, "
                "claimed t=2; ok counts fooled victims)", tuple(
        Row(label, ExperimentSpec(
            protocol, 10, 200, backend="lowerbound",
            protocol_params={**params, "claimed_t": 2}))
        for label, protocol, params in (
            ("committee (claims beta<1/2)", "byz-committee",
             {"block_size": 10}),
            ("balanced (claims no faults)", "balanced", {}),
            ("naive (pays ell)", "naive", {}))), verdict=fooled_below_ell),
    Claim("E8", "Thm 3.2: the majority-simulation witness against the "
                "2-cycle protocol (n=12, ell=256, beta=0.5; measured is "
                "the share of runs not ok)", (
        Row("2-cycle s=4, tau=1, 30 attacks", ExperimentSpec(
            "byz-two-cycle", 12, 256, protocol_params=_two(4, 1),
            repeats=30, **_byz(0.5, strategy="majority-simulation"))),
    ), verdict=fooled_above_floor, measured="not ok"),
    Claim("E10", "the tau threshold of the 2-cycle protocol, and the "
                 "attacks on it (n=40, ell=4096, s=4, beta=0.15 "
                 "wrong-bits unless named)", tuple(
        Row(f"tau={tau}", ExperimentSpec(
            "byz-two-cycle", 40, 4096, protocol_params=_two(4, tau),
            repeats=4, **_byz(0.15)),
            finding="tau=10 is above a segment's expected honest support "
                    "((n - t)/s = 8.5 reports), so Claim 5's premise "
                    "fails and peers query segments whole"
            if tau == 10 else "")
        for tau in (1, 2, 3, 6, 10)) + tuple(
        Row(f"tau=3, {strategy}", ExperimentSpec(
            "byz-two-cycle", 40, 4096, protocol_params=_two(4, 3),
            repeats=4, **_byz(0.15, strategy=strategy)))
        for strategy in ("frequency-spam", "split-report")), shape=(
        ("tau above the honest support pays more than tau=3", lambda o:
         q_of(o["tau=10"]) > q_of(o["tau=3"])),
        ("split reports are filtered free (Q = ceil(ell/s)), spam pays "
         "tree queries (Q above it)", lambda o:
         q_of(o["tau=3, split-report"])
         == _segment_bits(o["tau=3, split-report"])
         < q_of(o["tau=3, frequency-spam"])),
    )),
    Claim("E12", "Algorithm 2 against the adversary battery (n=12, "
                 "ell=2400)", tuple(
        Row(label, ExperimentSpec("crash-multi", 12, 2400, repeats=4,
                                  **fields))
        for label, fields in (
            ("synchronous", dict(network="synchronous")),
            ("async uniform", {}),
            ("bursty", dict(strategy="bursty")),
            ("staggered starts", dict(strategy="staggered")),
            ("slow 4 (t=4)", dict(strategy="slow", **_crash(1 / 3))),
            ("crash half, mid-send", _crash(0.5)),
            ("crash half, timed", dict(strategy="at-time",
                                       **_crash(0.5))))), shape=(
        ("crashes force extra work", lambda o: q_of(
            o["crash half, mid-send"]) > q_of(o["async uniform"])),
    )),
    Claim("E13", "dynamic corruption and the committee forger (n=40, "
                 "ell=4096, beta=0.15 per cycle, wrong-bits unless named)",
          tuple(
        Row(f"{label}, {adversary}", ExperimentSpec(
            protocol, 40, 4096, protocol_params=params, repeats=3,
            beta=0.15, **_E13_ADVERSARIES[adversary]))
        for label, protocol, params, adversaries in (
            ("committee b=64", "byz-committee", {"block_size": 64},
             ("static", "dynamic", "committee-forge")),
            ("multi-cycle s=4 tau=3", "byz-multi-cycle", _multi(4, 3),
             ("static", "dynamic")))
        for adversary in adversaries), shape=(
        ("the committee pays the same whatever its t liars do", lambda o:
         len({q_of(o[f"committee b=64, {adversary}"]) for adversary in (
             "static", "dynamic", "committee-forge")}) == 1),
        ("dynamic corruption costs the multi-cycle protocol at most one "
         "fallback segment over static", lambda o:
         q_of(o["multi-cycle s=4 tau=3, dynamic"])
         <= q_of(o["multi-cycle s=4 tau=3, static"])
         + _segment_bits(o["multi-cycle s=4 tau=3, static"])),
    )),
    Claim("E14", "the single-round separation under adaptive crashes "
                 "(n=16, ell=8192, beta=0.5)", tuple(
        Row(f"one-round r={r}", ExperimentSpec(
            "one-round", 16, 8192, protocol_params={"redundancy": r},
            strategy="adaptive", repeats=3, **_crash(0.5)))
        for r in (1, 2, 4, 8)) + (
        Row("Algorithm 2", ExperimentSpec(
            "crash-multi", 16, 8192, strategy="adaptive", repeats=3,
            **_crash(0.5))),
    ), shape=(
        ("every r pays at least beta*ell", lambda o: min(
            q_of(o[f"one-round r={r}"]) for r in (1, 2, 4, 8))
         >= 0.5 * 8192),
        ("Algorithm 2 pays less than beta*ell/2", lambda o: q_of(
            o["Algorithm 2"]) < 0.5 * 8192 / 2),
    )),
    Claim("E16", "Table 1's synchronous rows in lockstep rounds (n=40, "
                 "ell=4000, beta=0.3; T is rounds)", (
        Row("naive", ExperimentSpec("naive", 40, 4000, **_SYNC)),
        Row("balanced (fault-free)", ExperimentSpec(
            "balanced", 40, 4000, **_SYNC)),
        Row("committee [3]", ExperimentSpec(
            "byz-committee", 40, 4000, protocol_params={"block_size": 40},
            **_SYNC, **_byz(0.3))),
        Row("2-round Protocol 4", ExperimentSpec(
            "byz-two-cycle", 40, 4000, protocol_params=_two(4, 2),
            **_SYNC, **_byz(0.3))),
        Row("2-round (silent Byzantine)", ExperimentSpec(
            "byz-two-cycle", 40, 4000, protocol_params=_two(4, 2),
            **_SYNC, **_byz(0.3, strategy="silent"))),
        Row("sync crash (beta=0.1)", ExperimentSpec(
            "crash-multi", 40, 4000, repeats=3, **_SYNC, **_crash(0.1))),
    ), shape=(
        ("naive: 1 round, Q = ell", lambda o: (
            o["naive"].mean_round_complexity, q_of(o["naive"])) == (1, 4000)),
        ("balanced, committee, Protocol 4: 2 rounds", lambda o: {
            o[label].mean_round_complexity for label in (
                "balanced (fault-free)", "committee [3]",
                "2-round Protocol 4", "2-round (silent Byzantine)")} == {2}),
        ("Protocol 4 Q < committee Q", lambda o: q_of(o["2-round Protocol 4"])
         < q_of(o["committee [3]"])),
        ("sync crash: the planned crashes bite (T > 2 rounds, Q > ell/n)",
         lambda o: o["sync crash (beta=0.1)"].mean_round_complexity > 2
         and q_of(o["sync crash (beta=0.1)"])
         > bounds.ideal_query_bound(4000, 40)),
    )),
    Claim("E17", "Q vs trust across faulty source sets (n=8, ell=2000; "
                 "bound is the exact multiple of ell)", tuple(
        Row(label, ExperimentSpec(
            protocol, 8, 2000, protocol_params=params, sources=sources,
            source_faults=faults), bound=multiple * 2000)
        for label, protocol, params, sources, faults, multiple in (
            ("trusted baseline (k=1)", "naive", {}, 1, (), 1),
            ("majority k=3 f=1", "cross-validate", {"q": 3}, 3,
             ("wrong-bits:1.0",), 3),
            ("majority k=5 f=2", "cross-validate", {"q": 5}, 5,
             ("wrong-bits:1.0", "stale:0.2"), 5),
            ("escalate k=3 f=1 (fault-free)", "cross-validate-escalate",
             {"f": 1}, 3, (), 2),
            ("escalate k=3 f=1 (faulty)", "cross-validate-escalate",
             {"f": 1}, 3, ("wrong-bits:1.0",), 3),
            ("escalate k=5 f=2 (fault-free)", "cross-validate-escalate",
             {"f": 2}, 5, (), 3))), verdict=exactly),
)


def _number(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:.2f}"


def _status(holds: bool, finding: str) -> tuple[str, bool]:
    """(verdict cell, row passes)."""
    if finding:
        return ("finding", True) if not holds else ("STALE finding", False)
    return ("holds", True) if holds else ("FAILS", False)


def run_claims(runner, claims=CLAIMS) -> tuple[str, int]:
    """Settle every row of ``claims`` in one ``runner.run_many`` and
    render them; returns ``(markdown, failures)``, ``failures`` counting
    unmarked rows and shape statements that do not hold and findings
    that do."""
    outcomes = iter(runner.run_many(
        [row.spec for claim in claims for row in claim.rows]))
    blocks, failures, findings = [], 0, 0
    for claim in claims:
        lines = [f"| row | {claim.measured} | bound | T | M | ok | verdict |",
                 "|:--|--:|--:|--:|--:|--:|:--|"]
        notes, by_label = [], {}
        for row in claim.rows:
            outcome = by_label[row.label] = next(outcomes)
            measured, bound, holds = claim.verdict(row, outcome)
            cell, passes = _status(holds, row.finding)
            failures += not passes
            findings += bool(row.finding)
            lines.append(
                f"| {row.label} | {_number(measured)} | {_number(bound)} | "
                f"{outcome.mean_time_complexity:.2f} | "
                f"{_number(outcome.mean_message_complexity)} | "
                f"{outcome.correct_runs}/{outcome.runs} | {cell} |")
            if row.finding:
                notes.append(f"- finding, {row.label}: {row.finding}")
        for text, predicate in claim.shape:
            holds = predicate(by_label)
            failures += not holds
            notes.append(f"- {'holds' if holds else 'FAILS'}: {text}")
        blocks += [f"## {claim.key} - {claim.title}", "\n".join(lines)]
        if notes:
            blocks.append("\n".join(notes))
    rows = sum(len(claim.rows) for claim in claims)
    blocks.append(f"{len(claims)} claims, {rows} rows, {findings} findings: "
                  + ("every claim holds as stated" if not failures
                     else f"{failures} statements off the table"))
    return "\n\n".join(blocks), failures
