"""Append-only sweep journal: checkpoint/resume for long runs.

A long sweep is hours of pure computation; an interruption (Ctrl-C,
OOM kill, pre-empted CI runner) should not discard the repeats that
already finished.  :class:`SweepJournal` checkpoints the engine at the
finest grain it has — one completed ``(spec, repeat)`` record — into an
append-only JSONL file next to the result cache:

- **One line per completed repeat**, written and flushed (+ ``fsync``)
  the moment the parent aggregates it, so at most the in-flight repeats
  are lost on a crash.
- **Replay is salt-checked and corruption-tolerant.**  Each line
  carries the journal schema version and the code-version salt; stale
  or torn lines are skipped (counted in :attr:`JournalStats.corrupt`) —
  the engine simply recomputes those repeats, mirroring the result
  cache's corruption-is-a-miss rule.
- **Keys are content hashes**: the same
  :func:`~repro.execution.cache.spec_cache_key` that addresses the
  result cache, so a journal can never resume the wrong spec and seed
  identity can never diverge from journal identity.

The journal deliberately stores *per-repeat records*, not outcomes:
aggregation always re-runs in the parent from the full record list, so
a resumed sweep's outcomes are bit-identical to an uninterrupted run's.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from repro.execution.cache import (
    CODE_VERSION,
    default_cache_dir,
    spec_cache_key,
)
from repro.obs.telemetry import counter as obs_counter
from repro.obs.telemetry import event as obs_event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments import ExperimentSpec, RepeatRecord

__all__ = ["JournalStats", "SweepJournal", "resolve_journal"]

#: On-disk line format tag; bump on incompatible record changes.
JOURNAL_SCHEMA = 1


@dataclass
class JournalStats:
    """Counters for one :class:`SweepJournal` instance."""

    appended: int = 0  #: records written by this process
    replayed: int = 0  #: usable records found by the last ``replay()``
    corrupt: int = 0   #: torn/stale lines skipped by the last ``replay()``

    def as_dict(self) -> dict:
        return {"appended": self.appended, "replayed": self.replayed,
                "corrupt": self.corrupt}

    def __str__(self) -> str:
        return (f"{self.replayed} replayed / {self.appended} appended "
                f"({self.corrupt} corrupt)")


class SweepJournal:
    """Append-only ``(spec-hash, repeat) -> RepeatRecord`` log.

    Args:
        path: journal file (created on first append).  ``None`` uses
            ``journal.jsonl`` under :func:`default_cache_dir`.
        salt: code-version salt stamped into every line; replay skips
            lines whose salt differs (stale journals resume nothing).
    """

    def __init__(self, path: Union[str, Path, None] = None, *,
                 salt: str = CODE_VERSION) -> None:
        self.path = (Path(path).expanduser() if path
                     else default_cache_dir() / "journal.jsonl")
        self.salt = salt
        self.stats = JournalStats()

    def key_for(self, spec: "ExperimentSpec") -> str:
        """The content hash this journal files ``spec``'s repeats under."""
        return spec_cache_key(spec, salt=self.salt)

    # -- append --------------------------------------------------------------

    def record(self, spec: "ExperimentSpec", repeat: int,
               record: "RepeatRecord") -> None:
        """Append one completed repeat, durably (flush + fsync).

        A single sub-4K ``write`` of one ``\\n``-terminated line is
        atomic on POSIX; replay additionally survives torn lines by
        skipping anything that fails to parse.
        """
        self._record(self.key_for(spec), repeat, record)

    def _record(self, key: str, repeat: int, record: "RepeatRecord") -> None:
        """:meth:`record` for a caller that already derived the key."""
        fields = {
            "queries": record.queries,
            "messages": record.messages,
            "time": record.time,
            "correct": bool(record.correct),
        }
        if record.rounds is not None:
            # Additive: round-native backends only, so sim journal
            # lines stay byte-identical with pre-backend writers.
            fields["rounds"] = record.rounds
        line = json.dumps({
            "schema": JOURNAL_SCHEMA,
            "salt": self.salt,
            "key": key,
            "repeat": repeat,
            "record": fields,
        }, sort_keys=True)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self.stats.appended += 1
        obs_counter("journal_records")

    # -- replay --------------------------------------------------------------

    def replay(self) -> Dict[Tuple[str, int], "RepeatRecord"]:
        """All usable checkpointed records, keyed by ``(key, repeat)``.

        Later lines win (a re-run after a corrupt line re-appends the
        repeat).  Corrupt, torn, or stale-salt lines are skipped and
        counted, never raised.
        """
        from repro.experiments import RepeatRecord
        entries: Dict[Tuple[str, int], "RepeatRecord"] = {}
        corrupt = 0
        try:
            text = self.path.read_text(encoding="utf-8")
        except (OSError, ValueError):
            self.stats.replayed = 0
            return entries
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
                if payload["schema"] != JOURNAL_SCHEMA:
                    raise ValueError("schema mismatch")
                if payload["salt"] != self.salt:
                    raise ValueError("salt mismatch")
                fields = payload["record"]
                rounds = fields.get("rounds")
                record = RepeatRecord(
                    queries=int(fields["queries"]),
                    messages=int(fields["messages"]),
                    time=float(fields["time"]),
                    correct=bool(fields["correct"]),
                    rounds=None if rounds is None else int(rounds))
                key = (str(payload["key"]), int(payload["repeat"]))
            except (KeyError, TypeError, ValueError):
                corrupt += 1
                continue
            entries[key] = record
        self.stats.replayed = len(entries)
        self.stats.corrupt = corrupt
        obs_event("journal_replay", replayed=len(entries), corrupt=corrupt)
        return entries

    def clear(self) -> None:
        """Delete the journal file (a completed sweep's checkpoints)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass


def resolve_journal(journal) -> Optional[SweepJournal]:
    """Normalize the user-facing ``journal=`` argument.

    ``None``/``False`` disable journalling; ``True`` uses the default
    path; a string or :class:`~pathlib.Path` names the file; a ready
    :class:`SweepJournal` passes through (sharing its stats).
    """
    if journal is None or journal is False:
        return None
    if journal is True:
        return SweepJournal()
    if isinstance(journal, SweepJournal):
        return journal
    if isinstance(journal, (str, Path)):
        return SweepJournal(journal)
    raise TypeError(f"journal= must be None, bool, a path, or a "
                    f"SweepJournal, got {type(journal).__name__}")
