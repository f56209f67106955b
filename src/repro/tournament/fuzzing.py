"""Seeded adversary fuzzing (formerly the top-level ``repro.fuzz``).

The upper-bound theorems are "for every adversary"; the concrete
adversaries in :mod:`repro.adversary` are hand-picked worst cases.
This module closes the gap from the other side: it *generates*
adversaries — random compositions of latency shapes, crash plans, and
Byzantine strategies — from a single seed, so property tests can hurl
thousands of distinct, reproducible adversarial environments at a
protocol.

A generated adversary is always *within the model*: finite delays,
at most ``floor(beta_cap * n)`` faults, cycle-respecting scheduling.
Anything a protocol fails under here is a genuine counterexample, and
the seed reproduces it.

The same discipline extends to the source side:
:func:`random_source_faults` draws a per-endpoint fault plan (fault
model x onset time x affected rate) for a ``k``-endpoint source set,
bounded by a fault budget ``f_cap`` — so the multi-source property
tests can fuzz the cross-validation protocols under thousands of
distinct faulty-source environments, each reproducible from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adversary import (
    BurstyDelay,
    ByzantineAdversary,
    ComposedAdversary,
    CrashAdversary,
    CrashAfterSends,
    CrashAtTime,
    EquivocateStrategy,
    NullAdversary,
    SelectiveSilenceStrategy,
    SilentStrategy,
    StaggeredStart,
    TargetedSlowdown,
    UniformRandomDelay,
    WrongBitsStrategy,
)
from repro.util.rng import SplittableRNG
from repro.util.validation import check_fraction, check_positive

_STRATEGIES = (WrongBitsStrategy, EquivocateStrategy, SilentStrategy,
               SelectiveSilenceStrategy)


@dataclass(frozen=True)
class FuzzPlan:
    """Human-readable summary of one generated adversary."""

    latency: str
    faults: str
    fault_count: int


@dataclass(frozen=True)
class SourceFaultPlan:
    """One generated per-endpoint source-fault assignment.

    ``specs`` holds grammar strings (``kind[:param][@onset]``), one per
    endpoint, accepted verbatim by
    :func:`repro.sim.source.parse_faults`, the spec layer, and the
    CLI; ``faulty`` lists the non-honest endpoint IDs.
    """

    specs: tuple[str, ...]
    faulty: tuple[int, ...]

    @property
    def fault_count(self) -> int:
        return len(self.faulty)


def random_latency(rng: SplittableRNG, n: int):
    """Draw one latency adversary."""
    roll = rng.randrange(5)
    if roll == 0:
        return NullAdversary(), "synchronous"
    if roll == 1:
        return UniformRandomDelay(), "uniform"
    if roll == 2:
        return BurstyDelay(stall_fraction=rng.uniform(0.1, 0.6)), "bursty"
    if roll == 3:
        slow = set(rng.sample(range(n), max(1, n // 4)))
        return TargetedSlowdown(slow), f"slow{sorted(slow)}"
    return StaggeredStart(spread=rng.uniform(0.5, 5.0)), "staggered"


def random_crash_plan(rng: SplittableRNG, n: int, budget: int):
    """Draw an explicit crash plan of at most ``budget`` victims."""
    count = rng.randint(0, budget)
    victims = rng.sample(range(n), count)
    plan = {}
    for victim in victims:
        if rng.randint(0, 1):
            plan[victim] = CrashAtTime(rng.uniform(0.0, 15.0))
        else:
            plan[victim] = CrashAfterSends(rng.randrange(3 * n))
    return plan


#: Fault kinds :func:`random_source_faults` draws from, with the
#: parameter range each takes (None = parameterless).
_SOURCE_FAULT_KINDS = (
    ("wrong-bits", (0.1, 1.0)),
    ("stale", (0.01, 0.5)),
    ("withhold", None),
    ("slow", (2.0, 8.0)),
)


def random_source_faults(seed: int, *, k: int,
                         f_cap: int) -> SourceFaultPlan:
    """Generate one reproducible source-fault plan for ``k`` endpoints.

    At most ``f_cap`` endpoints are faulty; each faulty endpoint draws
    a fault model, a parameter in the model's plausible range, and —
    half the time — an onset time, so plans cover faults that begin
    mid-run.  Endpoints not drawn stay ``"honest"``.

    Args:
        seed: generator seed (same seed, same plan).
        k: endpoint count.
        f_cap: largest number of faulty endpoints the draw may use.

    Returns:
        A :class:`SourceFaultPlan` whose ``specs`` feed straight into
        ``source_faults=``.
    """
    check_positive("k", k)
    if not 0 <= f_cap < k:
        raise ValueError(f"f_cap must be in [0, k), got f_cap={f_cap}, "
                         f"k={k}")
    rng = SplittableRNG(seed).split("source-fuzz")
    count = rng.randint(0, f_cap)
    faulty = sorted(rng.sample(range(k), count))
    specs = ["honest"] * k
    for sid in faulty:
        kind, param_range = rng.choice(_SOURCE_FAULT_KINDS)
        spec = kind
        if param_range is not None:
            low, high = param_range
            spec = f"{kind}:{rng.uniform(low, high):.3f}"
        if rng.randint(0, 1):
            spec = f"{spec}@{rng.uniform(0.5, 10.0):.2f}"
        specs[sid] = spec
    return SourceFaultPlan(specs=tuple(specs), faulty=tuple(faulty))


def random_adversary(seed: int, *, n: int, fault_model: str,
                     beta_cap: float):
    """Generate one reproducible adversary.

    Args:
        seed: generator seed (same seed, same adversary).
        n: network size the adversary will face.
        fault_model: "crash" or "byzantine" (or "none").
        beta_cap: largest fault fraction the generator may use.

    Returns:
        ``(adversary, t, plan)`` where ``t`` is the fault budget the
        simulation should be configured with and ``plan`` summarizes
        the draw.
    """
    check_positive("n", n)
    check_fraction("beta_cap", beta_cap)
    rng = SplittableRNG(seed).split("fuzz")
    latency, latency_label = random_latency(rng.split("latency"), n)
    budget = int(beta_cap * n)
    if fault_model == "none" or budget == 0:
        return latency, 0, FuzzPlan(latency_label, "none", 0)

    fault_rng = rng.split("faults")
    if fault_model == "crash":
        plan = random_crash_plan(fault_rng, n, budget)
        if not plan:
            return latency, budget, FuzzPlan(latency_label, "none", 0)
        faults = CrashAdversary(crashes=plan)
        label = f"crash{sorted(plan)}"
        count = len(plan)
    elif fault_model == "byzantine":
        count = fault_rng.randint(0, budget)
        corrupted = set(fault_rng.sample(range(n), count))
        if not corrupted:
            return latency, budget, FuzzPlan(latency_label, "none", 0)
        strategy = fault_rng.choice(_STRATEGIES)
        faults = ByzantineAdversary(
            corrupted=corrupted,
            strategy_factory=lambda pid, s=strategy: s())
        label = f"{strategy.__name__}{sorted(corrupted)}"
    else:
        raise ValueError(f"unknown fault model {fault_model!r}")
    return (ComposedAdversary(faults=faults, latency=latency), budget,
            FuzzPlan(latency_label, label, count))
