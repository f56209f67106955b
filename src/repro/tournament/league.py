"""The adversary-vs-protocol tournament league.

One league run crosses every chosen adversary against every chosen
protocol on every chosen topology — each cell an ordinary
:class:`~repro.experiments.ExperimentSpec` with its usual per-repeat
seeds — and settles all of them through one
:class:`~repro.execution.ParallelRunner` (pool, retry, journal resume:
see :mod:`repro.execution.plan`).

The league reads the plan's per-repeat rows, not just the means: each
cell reports its success rate, the Q/T/M *medians* over completed
repeats, and — when any repeat produced a wrong download — a
*violation exemplar*: the repeat index and the exact per-repeat seed
that reproduces the failure (``spec.seed_for(repeat)``), so every
claimed break in the league table is replayable.

The league table ranks adversaries by the mean success rate protocols
achieve against them (lowest first — the strongest opponent tops the
table), and protocols by their mean success rate across all opponents
(highest first).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.execution import (ParallelRunner, RetryPolicy, TaskFailure,
                             resolve_journal)
from repro.experiments import ExperimentOutcome, ExperimentSpec

from repro.tournament.roster import all_adversaries, get_adversary

#: Stock line-ups: peer-cooperation and robustness protocols that every
#: roster adversary can legally face at tournament sizes.
DEFAULT_PROTOCOLS = ("naive", "balanced", "crash-multi", "byz-committee")
DEFAULT_TOPOLOGIES = ("complete", "ring", "expander")


@dataclass(frozen=True)
class ViolationExemplar:
    """One replayable wrong-download witness inside a cell."""

    repeat: int
    seed: int


@dataclass(frozen=True)
class LeagueCell:
    """One (adversary x protocol x topology) match, fully aggregated."""

    adversary: str
    protocol: str
    topology: str
    spec: ExperimentSpec
    outcome: ExperimentOutcome
    median_queries: float
    median_messages: float
    median_time: float
    violation: Optional[ViolationExemplar] = None

    @property
    def success_rate(self) -> float:
        return self.outcome.success_rate


@dataclass(frozen=True)
class LeagueResult:
    """Every cell of one league run, plus the derived rankings."""

    cells: tuple = ()
    journal_stats: Optional[dict] = None

    def adversary_ranking(self) -> list[tuple[str, float]]:
        """(adversary, mean success rate against it), strongest first."""
        return self._ranking("adversary", reverse=False)

    def protocol_ranking(self) -> list[tuple[str, float]]:
        """(protocol, mean success rate), most robust first."""
        return self._ranking("protocol", reverse=True)

    def _ranking(self, attr: str, *, reverse: bool) -> list:
        rates: dict[str, list[float]] = {}
        for cell in self.cells:
            rates.setdefault(getattr(cell, attr), []).append(
                cell.success_rate)
        rows = [(name, sum(values) / len(values))
                for name, values in rates.items()]
        # Mean rate first, then name — fully deterministic ordering.
        rows.sort(key=lambda row: ((-row[1] if reverse else row[1]),
                                   row[0]))
        return rows

    def violations(self) -> list["LeagueCell"]:
        """Cells with at least one replayable wrong download."""
        return [cell for cell in self.cells
                if cell.violation is not None]


@dataclass(frozen=True)
class TournamentConfig:
    """Everything one league run needs (defaults = the smoke league)."""

    protocols: tuple = DEFAULT_PROTOCOLS
    adversaries: tuple = ()  #: empty = the whole registered roster
    topologies: tuple = DEFAULT_TOPOLOGIES
    n: int = 8
    ell: int = 256
    repeats: int = 3
    base_seed: int = 0
    workers: int = 1
    journal_path: Optional[str] = None
    policy: Optional[RetryPolicy] = field(default=None, compare=False)

    def roster(self) -> list:
        if self.adversaries:
            return [get_adversary(name) for name in self.adversaries]
        return all_adversaries()


def cell_spec(config: TournamentConfig, adversary, protocol: str,
              topology: str) -> ExperimentSpec:
    """The ordinary experiment spec behind one league cell."""
    return ExperimentSpec(
        protocol=protocol, n=config.n, ell=config.ell,
        fault_model=adversary.fault_model, beta=adversary.beta,
        strategy=adversary.strategy, repeats=config.repeats,
        base_seed=config.base_seed, topology=topology)


def run_tournament(config: TournamentConfig) -> LeagueResult:
    """Run the full league and aggregate it (see the module doc)."""
    roster = config.roster()
    if not roster:
        raise ValueError("the league needs at least one adversary")
    if not config.protocols:
        raise ValueError("the league needs at least one protocol")
    if not config.topologies:
        raise ValueError("the league needs at least one topology")
    keys = [(entry, protocol, topology)
            for entry in roster
            for protocol in config.protocols
            for topology in config.topologies]
    specs = [cell_spec(config, entry, protocol, topology)
             for entry, protocol, topology in keys]

    journal = resolve_journal(config.journal_path or None)
    plan = ParallelRunner(workers=config.workers, journal=journal,
                          policy=config.policy).settle(specs)

    cells = []
    for index, ((entry, protocol, topology), spec, outcome) in enumerate(
            zip(keys, specs, plan.outcomes())):
        rows = plan.rows(index)
        measured = [row for row in rows
                    if not isinstance(row, TaskFailure)]
        violation = None
        for repeat, row in enumerate(rows):
            if not isinstance(row, TaskFailure) and not row.correct:
                violation = ViolationExemplar(
                    repeat=repeat, seed=spec.seed_for(repeat))
                break
        cells.append(LeagueCell(
            adversary=entry.name, protocol=protocol, topology=topology,
            spec=spec, outcome=outcome,
            median_queries=(statistics.median(r.queries
                                              for r in measured)
                            if measured else 0.0),
            median_messages=(statistics.median(r.messages
                                               for r in measured)
                             if measured else 0.0),
            median_time=(statistics.median(r.time for r in measured)
                         if measured else 0.0),
            violation=violation))
    stats = journal.stats.as_dict() if journal is not None else None
    return LeagueResult(cells=tuple(cells), journal_stats=stats)
