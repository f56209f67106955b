"""``python -m bench``: run workloads, check them, print every metric.

Usage::

    python -m bench                       # every workload, end to end
    python -m bench --workload sim_dense  # one (the driver's form)
    python -m bench --trace               # the per-layer traced runs
    python -m bench --runs 10 --out A.json    # a run set for `compare`
    python -m bench compare A.json B.json
    python -m bench --selftest

The driver calls ``<command> --workload W --seed N --seconds S --trace
0|1``; the last line printed is then the one JSON object it reads.
This process only orchestrates: each workload runs in a fresh
``bench.worker`` subprocess, under an environment scrubbed of every
``REPRO_*`` variable, inside a per-run directory that is removed again.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from bench.contract import (DEFAULT_SEED, NPROC, ROOT, load_contract,
                            metric_table, quiet_decile, with_units,
                            workload_names)

#: Per-run scratch: caches, journals, server data, socket dirs, spans.
#: Inside the checkout (the driver allows writes nowhere else) and
#: git-ignored.
SCRATCH = ROOT / ".bench_tmp"

#: Set-ups per end-to-end run; ``setup_s`` is their good decile — of five
#: samples, the fastest — as for every timing: see ``quiet_decile``.
SETUP_SAMPLES = 5

#: A worker that has not finished by then is killed and the run fails.
WORKER_TIMEOUT_S = 150

#: Unix socket paths hold 107 bytes and the net backend appends ~30 to
#: ``$TMPDIR``.  A deeper checkout leaves sockets in the system tmp.
_MAX_TMPDIR = 75

BASELINE = Path(__file__).resolve().parent / "baseline.json"


class WorkerFailed(RuntimeError):
    """A worker died, hung or left a process behind: no result."""


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["compare"]:
        from bench.compare import main as compare_main
        return compare_main(argv[1:])
    contract = load_contract()
    names = workload_names(contract)
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"],
                        help="timed seconds per end-to-end run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="the traced run: per-layer metrics instead "
                             "of end-to-end ones")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds seed..seed+runs-1")
    parser.add_argument("--out", type=Path,
                        help="write every run as one JSON run set")
    parser.add_argument("--selftest", action="store_true",
                        help="every workload, tiny, traced and not; "
                             "checks emitted names against BENCHMARK.json")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    runs = []
    ok = True
    for workload in args.workload or names:
        modes = (0, 1) if args.selftest else (args.trace,)
        for trace in modes:
            for seed in range(args.seed, args.seed + args.runs):
                try:
                    result = run_workload(contract, workload, seed,
                                          args.seconds, trace,
                                          tiny=args.selftest, out=args.out)
                except WorkerFailed as exc:
                    print(f"bench: {exc}", file=sys.stderr)
                    return 2
                runs.append(result)
                ok = ok and result["correct"]
                print_result(result)
                print(json.dumps(driver_object(result)), flush=True)
    if args.out:
        meta = host_meta(args)
        meta["calib_s"] = median(run["host"]["calib_s"] for run in runs)
        args.out.write_text(json.dumps({"meta": meta, "runs": runs},
                                       indent=1) + "\n", encoding="utf-8")
    if args.selftest:
        print(f"selftest {'ok' if ok else 'FAILED'}: {len(runs)} runs, "
              f"every declared name emitted exactly once, "
              f"{time.perf_counter() - started:.1f} s")
    return 0 if ok else 1


def driver_object(result: dict) -> dict:
    """Exactly the keys the driver reads."""
    return {key: result[key]
            for key in ("correct", "attempted", "failed", "metrics")}


def host_meta(args) -> dict:
    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.exists():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        sha = (target.read_text().strip() if target and target.exists()
               else ref)
    return {"seed": args.seed, "runs": args.runs, "seconds": args.seconds,
            "nproc": os.cpu_count(), "load_width": NPROC,
            "python": platform.python_version(),
            "platform": platform.platform(), "git": sha}


# -- one workload run ---------------------------------------------------------

def run_workload(contract: dict, workload: str, seed: int, seconds: float,
                 trace: int, *, tiny: bool = False, out=None) -> dict:
    """Set-up samples plus the measured worker; returns the run record
    (metrics carry their declared units)."""
    SCRATCH.mkdir(exist_ok=True)
    run_dir = SCRATCH / str(os.getpid())  # short: socket paths go in it
    env, scrubbed = clean_environment(run_dir)
    extra_setups = 0 if (trace or tiny) else SETUP_SAMPLES - 1
    setups = []
    try:
        for _ in range(extra_setups):
            setups.append(spawn_worker(run_dir, env, workload, seed, seconds,
                                       trace, tiny, setup_only=True)
                          ["setup_s"])
        result = spawn_worker(run_dir, env, workload, seed, seconds, trace,
                              tiny)
        if trace and out:
            shutil.copy(result["spans_file"],
                        out.with_name(f"{out.stem}.spans-{workload}-{seed}"
                                      f".jsonl"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        # Pay for our own deletes now: freeing thousands of small files
        # (the job store) keeps the disk busy for seconds afterwards, and
        # on a 2-core VM that slows whatever is measured next.
        os.sync()
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run is using it
    setups.append(result.pop("setup_s"))
    section = "per_layer" if trace else "end_to_end"
    if not trace:
        result["metrics"]["setup_s"] = quiet_decile(setups)
        result["medians"]["setup_s"] = median(setups)
    result["metrics"] = with_units(
        result["metrics"], metric_table(contract, section, workload))
    result["setup_samples"] = setups
    result["env_scrubbed"] = scrubbed
    result["correct"] = result["failed"] == 0
    result["noisy"] = is_noisy(result["host"]["calib_s"])
    result.pop("spans_file", None)
    return result


def clean_environment(run_dir: Path) -> tuple[dict, list]:
    """The environment workloads run under: no ``REPRO_*`` knob, this
    checkout's ``src`` first on the path, temp files in the run dir."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    scrubbed = sorted(set(os.environ) - set(env))
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([inherited] if inherited else []))
    if len(str(run_dir)) <= _MAX_TMPDIR:
        env["TMPDIR"] = str(run_dir)
    return env, scrubbed


def spawn_worker(run_dir: Path, env: dict, workload: str, seed: int,
                 seconds: float, trace: int, tiny: bool,
                 setup_only: bool = False) -> dict:
    """One ``bench.worker`` in a process group of its own, so that the
    server and any pool children can be found — and must be gone — when
    it exits, whichever way it exits."""
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    command = [sys.executable, "-m", "bench.worker",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--run-dir", str(run_dir),
               "--spawned-at", repr(time.time())]
    if tiny:
        command.append("--tiny")
    if setup_only:
        command.append("--setup-only")
    process = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                               stdout=subprocess.PIPE,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload}: worker exceeded "
                           f"{WORKER_TIMEOUT_S} s") from None
    finally:
        stragglers = reap_group(process)
    if process.returncode != 0:
        raise WorkerFailed(f"{workload}: worker exited "
                           f"{process.returncode}")
    if stragglers:
        raise WorkerFailed(f"{workload}: a child process outlived the "
                           f"workload and had to be killed")
    return json.loads(stdout.strip().splitlines()[-1])


def reap_group(process: subprocess.Popen) -> bool:
    """Make sure nothing of the worker's process group survives it:
    terminate, then kill.  True if the worker had exited by itself and
    still left something behind that had to be signalled."""
    group = process.pid
    if process.poll() is None:  # timed out or interrupted: no grace
        _signal_group(group, signal.SIGKILL)
        process.wait()
        return False
    if _group_gone(group, within=1.0):
        return False
    for signum in (signal.SIGTERM, signal.SIGKILL):
        _signal_group(group, signum)
        if _group_gone(group, within=2.0):
            break
    return True


def _signal_group(group: int, signum: int) -> None:
    try:
        os.killpg(group, signum)
    except ProcessLookupError:
        pass


def _group_gone(group: int, within: float) -> bool:
    deadline = time.monotonic() + within
    while True:
        try:
            os.killpg(group, 0)
        except ProcessLookupError:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)


def is_noisy(calib_s: float) -> bool:
    """More than 15 % off the calibration pinned with the baseline."""
    if not BASELINE.exists():
        return False
    pinned = json.loads(BASELINE.read_text())["meta"].get("calib_s")
    return bool(pinned) and abs(calib_s - pinned) > 0.15 * pinned


# -- printing -----------------------------------------------------------------

def print_result(result: dict) -> None:
    kind = "traced" if result["trace"] else "end to end"
    flags = "".join([
        "" if result["correct"] else "  FAILED",
        "  (noisy host: calibration off the pinned value)"
        if result["noisy"] else ""])
    print(f"== {result['workload']} [{kind}] seed {result['seed']}: "
          f"{result['attempted']} ops attempted, {result['failed']} failed, "
          f"{result['samples']} timed, work unit "
          f"{result['work_unit']}{flags}")
    for failure in result["failures"]:
        print(f"   ! {failure}")
    for name, entry in result["metrics"].items():
        if result["trace"] and not entry["value"]:
            continue  # a layer this workload never enters
        note = ""
        if name in result.get("medians", ()):
            count = (len(result["setup_samples"]) if name == "setup_s"
                     else result["samples"])
            note = (f"  (n={count}, median "
                    f"{result['medians'][name]:.6g})")
        print(f"   {name:<32} {entry['value']:>14.6g} {entry['unit']}{note}")
    spans = result.get("spans")
    if spans:
        op_total = spans.get("op", {}).get("total_s") or 1.0
        print(f"   {'span':<24} {'count':>7} {'total s':>10} {'self s':>10} "
              f"{'share':>7}")
        for name, row in sorted(spans.items(),
                                key=lambda item: -item[1]["total_s"]):
            print(f"   {name:<24} {row['count']:>7} {row['total_s']:>10.4f} "
                  f"{row['self_s']:>10.4f} "
                  f"{row['total_s'] / op_total:>7.1%}")
