"""The ``repro tournament`` subcommand: the league from a shell.

A thin veneer over :func:`~repro.tournament.run_tournament` and its
renderers; :func:`attach_tournament_parser` registers it on the
``repro`` parser.
"""

from __future__ import annotations

import json

from repro.cli import add_retry_arguments, retry_policy_for, split_commas

__all__ = ["attach_tournament_parser"]


def attach_tournament_parser(subparsers) -> None:
    """Add the ``tournament`` subcommand to the CLI parser."""
    parser = subparsers.add_parser(
        "tournament",
        help="cross every registered adversary against every protocol on "
             "every topology and print the ranked league table")
    parser.add_argument("--protocols", default=None,
                        help="comma-separated protocol line-up (default: "
                             "naive,balanced,crash-multi,byz-committee)")
    parser.add_argument("--adversaries", default=None,
                        help="comma-separated roster subset (default: every "
                             "registered adversary)")
    parser.add_argument("--topologies", default=None,
                        help="comma-separated topology specs (default: "
                             "complete,ring,expander)")
    parser.add_argument("--n", type=int, default=8)
    parser.add_argument("--ell", type=int, default=256)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1,
                        help="processes to fan the league's repeats over")
    parser.add_argument("--resume", action="store_true",
                        help="checkpoint completed repeats to a journal next "
                             "to the result cache and replay it on restart")
    parser.add_argument("--journal", default=None,
                        help="explicit journal path (implies --resume)")
    add_retry_arguments(parser)
    parser.add_argument("--jsonl-out", default=None,
                        help="write one JSON line per league cell here")
    parser.add_argument("--json-out", default=None,
                        help="write the dashboard-shaped league summary "
                             "(rankings + cells) here")
    parser.add_argument("--fail-on-violation", action="store_true",
                        help="exit 1 when any cell captured a wrong download "
                             "(default: violations are reported findings, "
                             "exit 0)")
    parser.set_defaults(handler=_command_tournament)


def _command_tournament(args, out) -> int:
    from repro.execution import default_cache_dir
    from repro.tournament import (TournamentConfig, league_dashboard_payload,
                                  league_jsonl_lines, render_league,
                                  run_tournament)

    policy = retry_policy_for(args)
    journal_path = args.journal
    if journal_path is None and args.resume:
        journal_path = str(default_cache_dir() / "tournament.jsonl")
    config = TournamentConfig(
        protocols=split_commas(args.protocols) or TournamentConfig.protocols,
        adversaries=split_commas(args.adversaries),
        topologies=(split_commas(args.topologies)
                    or TournamentConfig.topologies),
        n=args.n, ell=args.ell, repeats=args.repeats,
        base_seed=args.seed, workers=args.workers,
        journal_path=journal_path, policy=policy)
    result = run_tournament(config)
    print(render_league(result), file=out)
    if result.journal_stats is not None:
        print(f"\njournal    : {result.journal_stats['replayed']} "
              f"replayed / {result.journal_stats['appended']} appended "
              f"in {journal_path}", file=out)
    if args.jsonl_out:
        with open(args.jsonl_out, "w", encoding="utf-8") as handle:
            for line in league_jsonl_lines(result):
                handle.write(line + "\n")
        print(f"cells written to {args.jsonl_out}", file=out)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(league_dashboard_payload(result), handle,
                      indent=2, sort_keys=True)
        print(f"league summary written to {args.json_out}", file=out)
    # Violations are findings, not failures — the league's job is to
    # surface them.  --fail-on-violation turns the run into a gate.
    if args.fail_on_violation and result.violations():
        return 1
    return 0
