"""Profiling hooks for the simulation kernel's hot path.

One switch, three entry points:

- programmatic: wrap any block in :func:`maybe_profile`::

      from repro.profiling import maybe_profile
      with maybe_profile(enabled=True, label="table1"):
          run_download(...)

- CLI: ``repro run --profile`` / ``repro sweep --profile``;
- environment: ``REPRO_PROFILE=1`` turns profiling on everywhere that
  routes through :func:`maybe_profile` (the CLI,
  ``benchmarks/bench_kernel.py`` and ``examples/reproduce_paper.py``)
  without touching a flag.

The profile is collected with :mod:`cProfile` and printed as a pstats
top-N table (default: 25 rows by cumulative time, to stderr).  Set
``REPRO_PROFILE`` to a path ending in ``.prof`` to additionally dump
the raw stats file for ``snakeviz``/``pstats`` post-processing::

    REPRO_PROFILE=sweep.prof repro sweep --protocol crash-multi ...
    python -m pstats sweep.prof

Profiling observes only the *calling* process: repeats fanned out to
worker processes by the parallel engine are not captured, so profile
with ``--workers 1`` (the default) when hunting kernel hot spots.
"""

from __future__ import annotations

import cProfile
import io
import os
import pstats
import sys
from contextlib import contextmanager
from typing import Iterator, Optional

#: Environment switch: unset/empty/"0" = off, "1"/"true" = on,
#: anything ending in ``.prof`` = on + raw dump to that path.
PROFILE_ENV = "REPRO_PROFILE"

#: pstats rows printed per profiled block.
DEFAULT_LIMIT = 25


def env_profile_setting() -> tuple[bool, Optional[str]]:
    """Decode :data:`PROFILE_ENV` into ``(enabled, dump_path)``."""
    raw = os.environ.get(PROFILE_ENV, "").strip()
    if not raw or raw == "0" or raw.lower() == "false":
        return False, None
    if raw.endswith(".prof"):
        return True, raw
    return True, None


def profile_enabled(explicit: Optional[bool] = None) -> bool:
    """Resolve the effective on/off switch.

    ``explicit`` (a CLI flag, say) wins over the environment; ``None``
    defers to :data:`PROFILE_ENV`.
    """
    if explicit is not None:
        return explicit
    return env_profile_setting()[0]


def print_stats(profile: cProfile.Profile, *, label: str = "",
                sort: str = "cumulative", limit: int = DEFAULT_LIMIT,
                stream=None) -> None:
    """Render a profile as a pstats top-N table."""
    stream = stream if stream is not None else sys.stderr
    buffer = io.StringIO()
    stats = pstats.Stats(profile, stream=buffer)
    stats.sort_stats(sort).print_stats(limit)
    header = f"=== profile{': ' + label if label else ''} " \
             f"(top {limit} by {sort}) ==="
    print(header, file=stream)
    print(buffer.getvalue(), file=stream)


def folded_lines(stacks: dict) -> list[str]:
    """Render ``{stack: weight}`` as folded flamegraph lines.

    The folded format is one ``frame;frame;frame weight`` line per
    stack — the input both ``flamegraph.pl`` and speedscope accept.
    Lines are sorted so output is deterministic.
    """
    lines = []
    for stack, weight in sorted(stacks.items()):
        value = int(weight) if float(weight).is_integer() else weight
        lines.append(f"{stack} {value}")
    return lines


def write_folded(path, stacks: dict) -> int:
    """Write folded stacks to ``path``; returns the line count.

    Used by ``repro trace flame`` (stacks aggregated from a telemetry
    export) but accepts any ``{stack: weight}`` mapping.
    """
    from pathlib import Path
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    lines = folded_lines(stacks)
    target.write_text("\n".join(lines) + ("\n" if lines else ""),
                      encoding="utf-8")
    return len(lines)


@contextmanager
def maybe_profile(enabled: Optional[bool] = None, *, label: str = "",
                  sort: str = "cumulative", limit: int = DEFAULT_LIMIT,
                  stream=None) -> Iterator[Optional[cProfile.Profile]]:
    """Profile the enclosed block when profiling is switched on.

    ``enabled=None`` defers to ``$REPRO_PROFILE``; ``True``/``False``
    force it.  When off, the overhead is one environment lookup and the
    block runs untouched (the context yields ``None``).  When on, the
    block runs under :mod:`cProfile`; on exit the top-``limit`` rows
    are printed (stderr by default) and, if the environment named a
    ``.prof`` path, the raw stats are dumped there too.
    """
    env_enabled, dump_path = env_profile_setting()
    effective = env_enabled if enabled is None else enabled
    if not effective:
        yield None
        return
    profile = cProfile.Profile()
    profile.enable()
    try:
        yield profile
    finally:
        profile.disable()
        print_stats(profile, label=label, sort=sort, limit=limit,
                    stream=stream)
        if dump_path:
            profile.dump_stats(dump_path)
            print(f"raw profile written to {dump_path}",
                  file=stream if stream is not None else sys.stderr)
