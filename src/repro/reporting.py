"""Markdown report generation for experiment campaigns.

Closes the loop around :mod:`repro.experiments` and
:mod:`repro.persistence`: run sweeps, persist the outcomes, and render
an `EXPERIMENTS.md`-style report::

    outcomes = sweep_experiment(spec, axis="beta", values=[...])
    text = render_sweep(outcomes, axis="beta",
                        title="Algorithm 2 beta sweep",
                        bound=lambda spec: ell / (spec.n - spec.t))
    Path("report.md").write_text(render_report([text]))

Pure string building — rendering is deterministic and tested
character-for-character.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from repro.experiments import ExperimentOutcome


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "NO"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def markdown_table(headers: Sequence[str],
                   rows: Iterable[Sequence]) -> str:
    """A GitHub-flavoured markdown table."""
    rendered_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [max(len(header), *(len(row[col]) for row in rendered_rows))
              if rendered_rows else len(header)
              for col, header in enumerate(headers)]
    def line(cells):
        return "| " + " | ".join(cell.ljust(width)
                                 for cell, width in zip(cells, widths)) \
            + " |"
    parts = [line(list(headers)),
             "|" + "|".join("-" * (width + 2) for width in widths) + "|"]
    parts.extend(line(row) for row in rendered_rows)
    return "\n".join(parts)


def render_sweep(outcomes: Sequence[ExperimentOutcome], *, axis: str,
                 title: str,
                 bound: Optional[Callable] = None) -> str:
    """One sweep as a titled markdown section.

    ``bound(spec)``, when given, adds a column with the theoretical
    yardstick and a measured/bound ratio — the comparison every
    experiment in EXPERIMENTS.md reports.
    """
    if not outcomes:
        raise ValueError("cannot render an empty sweep")
    headers = [axis, "mean Q", "max Q", "mean T", "ok"]
    if bound is not None:
        headers[2:2] = ["bound", "Q/bound"]
    rows = []
    for outcome in outcomes:
        row = [getattr(outcome.spec, axis),
               outcome.mean_query_complexity]
        if bound is not None:
            yardstick = float(bound(outcome.spec))
            row.extend([yardstick,
                        outcome.mean_query_complexity / yardstick])
        row.extend([outcome.max_query_complexity,
                    outcome.mean_time_complexity,
                    f"{outcome.correct_runs}/{outcome.runs}"])
        rows.append(row)
    spec = outcomes[0].spec
    context = (f"protocol `{spec.protocol}`, n={spec.n}, ell={spec.ell}, "
               f"fault model {spec.fault_model}, "
               f"{spec.repeats} repeats/point")
    return f"## {title}\n\n{context}\n\n" \
        + markdown_table(headers, rows)


def render_report(sections: Sequence[str], *,
                  title: str = "Experiment report") -> str:
    """Assemble sections into one markdown document."""
    body = "\n\n".join(section.rstrip() for section in sections)
    return f"# {title}\n\n{body}\n"
