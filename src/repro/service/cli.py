"""The service's subcommands: ``serve`` and its clients ``submit``,
``status``, ``result`` and ``cancel``.

:func:`attach_service_parser` registers them on the ``repro`` parser.
``submit`` reads the same spec flags as ``run`` and ``sweep``
(:func:`repro.cli.spec_from_args`); the clients map a server or
connection failure to one ``error:`` line on stderr and exit 1.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from repro.cli import (add_spec_arguments, add_sweep_arguments,
                       axis_values, spec_from_args)

__all__ = ["attach_service_parser"]


def attach_service_parser(subparsers) -> None:
    """Add ``serve``, ``submit``, ``status``, ``result`` and ``cancel``
    to the CLI parser."""
    serve = subparsers.add_parser(
        "serve", help="run the download-as-a-service job API "
                      "(docs/SERVICE.md)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321,
                       help="listen port; 0 picks a free one (pair with "
                            "--port-file so scripts can find it)")
    serve.add_argument("--port-file", default=None,
                       help="write the bound port here once listening")
    serve.add_argument("--data-dir", default=None,
                       help="job store root (default: $REPRO_SERVICE_DIR or "
                            "~/.cache/repro/service); jobs in it resume on "
                            "restart")
    serve.add_argument("--pool", type=int, default=2,
                       help="workers in the one shared pool all jobs "
                            "multiplex over")
    serve.add_argument("--pool-mode", choices=["thread", "process"],
                       default="thread",
                       help="'process' buys CPU parallelism at fork cost")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the content-addressed result cache "
                            "(dedup of in-flight jobs still applies)")
    serve.add_argument("--cache-dir", default=None,
                       help="share a result cache outside the data dir (e.g. "
                            "with `repro sweep`)")
    serve.set_defaults(handler=_command_serve)

    submit = subparsers.add_parser(
        "submit", help="submit a job to a running `repro serve`",
        allow_abbrev=False)
    add_spec_arguments(submit)
    add_sweep_arguments(submit)
    submit.add_argument("--priority", type=int, default=10,
                        help="lower runs first; equal priorities are served "
                             "round-robin")
    submit.add_argument("--client", default=None,
                        help="submitter label (display only; default $USER)")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job finishes and print its "
                             "result table")
    submit.add_argument("--follow", action="store_true",
                        help="stream the job's SSE events while waiting "
                             "(implies --wait)")

    status = subparsers.add_parser(
        "status", help="show one job (or, with no id, every job)")
    status.add_argument("job", nargs="?", default=None)

    result = subparsers.add_parser(
        "result", help="fetch a finished job's outcomes")
    result.add_argument("job")
    result.add_argument("--json-out", default=None,
                        help="persist outcomes to this JSON file (same format "
                             "as `sweep --json-out`)")

    cancel = subparsers.add_parser(
        "cancel", help="cancel a pending/running job (idempotent)")
    cancel.add_argument("job")

    for client_parser, command in ((submit, _command_submit),
                                   (status, _command_status),
                                   (result, _command_result),
                                   (cancel, _command_cancel)):
        client_parser.add_argument(
            "--server", default=None,
            help="server base URL (default: $REPRO_SERVER or "
                 "http://127.0.0.1:8321)")
        client_parser.set_defaults(handler=_client_command(command))


def _client_command(command):
    """``command`` with a server or connection failure reported as
    one ``error:`` line on stderr and exit code 1."""
    def handler(args, out) -> int:
        from repro.service.client import ServiceError
        try:
            return command(args, out)
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except BrokenPipeError:
            # Our own stdout closed early (`repro status | head`);
            # the conventional quiet exit, not a server problem.  Point
            # stdout at devnull so the interpreter's exit flush doesn't
            # raise a second, unraisable EPIPE.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
        except (ConnectionError, OSError) as exc:
            print(f"error: cannot reach {_service_url(args)}: {exc}",
                  file=sys.stderr)
            return 1
    return handler


def _service_url(args) -> str:
    return (args.server or os.environ.get("REPRO_SERVER")
            or "http://127.0.0.1:8321")


def _service_client(args):
    from repro.service import ServiceClient
    return ServiceClient(_service_url(args))


def _print_job(job: dict, out) -> None:
    progress = f"{job['done']}/{job['total']}"
    correct = "—" if job.get("correct") is None else job["correct"]
    print(f"{job['id']}  {job['state']:<9} {progress:>9}  "
          f"prio={job['priority']:<3} subs={job['submissions']:<2} "
          f"correct={correct}  client={job['client']}", file=out)


def _command_serve(args, out) -> int:
    import asyncio

    from repro.service import run_server
    data_dir = (args.data_dir or os.environ.get("REPRO_SERVICE_DIR")
                or Path.home() / ".cache" / "repro" / "service")
    cache = (False if args.no_cache
             else (args.cache_dir if args.cache_dir else True))
    try:
        asyncio.run(run_server(
            data_dir, host=args.host, port=args.port, pool=args.pool,
            pool_mode=args.pool_mode, cache=cache,
            port_file=args.port_file,
            log=lambda message: print(message, file=out, flush=True)))
    except KeyboardInterrupt:
        pass
    return 0


def _command_submit(args, out) -> int:
    import getpass
    import json

    from repro.execution.cache import spec_fields
    from repro.experiments import outcomes_table
    from repro.persistence import outcome_from_dict
    spec = spec_from_args(args)
    values = axis_values(args) or ()
    client = _service_client(args)
    job = client.submit(spec_fields(spec), axis=args.axis,
                        values=values, priority=args.priority,
                        client=args.client or getpass.getuser())
    verb = "submitted" if job["created"] else "coalesced into"
    print(f"{verb} job {job['id']} ({job['state']}, "
          f"{job['total']} tasks) at {_service_url(args)}", file=out)
    if not (args.wait or args.follow):
        return 0
    if args.follow:
        for entry in client.stream(job["id"]):
            print(json.dumps(entry, sort_keys=True), file=out)
    final = client.wait(job["id"])
    if final["state"] != "done":
        print(f"job {job['id']} ended {final['state']}: "
              f"{final.get('error') or ''}", file=out)
        return 1
    payload = client.result(job["id"])
    outcomes = [outcome_from_dict(entry) for entry in payload["outcomes"]]
    print(outcomes_table(outcomes, axis=args.axis), file=out)
    return 0 if final["correct"] else 1


def _command_status(args, out) -> int:
    client = _service_client(args)
    if args.job is None:
        jobs = client.jobs()
        if not jobs:
            print("no jobs", file=out)
            return 0
        for job in jobs:
            _print_job(job, out)
        return 0
    _print_job(client.status(args.job), out)
    return 0


def _command_result(args, out) -> int:
    from repro.experiments import outcomes_table
    from repro.persistence import outcome_from_dict, save_outcomes
    client = _service_client(args)
    payload = client.result(args.job)
    outcomes = [outcome_from_dict(entry) for entry in payload["outcomes"]]
    print(outcomes_table(outcomes), file=out)
    if args.json_out:
        save_outcomes(outcomes, args.json_out)
        print(f"outcomes written to {args.json_out}", file=out)
    return 0 if payload["correct"] else 1


def _command_cancel(args, out) -> int:
    job = _service_client(args).cancel(args.job)
    print(f"job {job['id']} is now {job['state']}", file=out)
    return 0
