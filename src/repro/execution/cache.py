"""Content-addressed on-disk cache for experiment outcomes.

An :class:`~repro.experiments.ExperimentOutcome` is a pure function of
its :class:`~repro.experiments.ExperimentSpec` (every repeat seed is
derived from the spec identity), so outcomes are cacheable by spec
content alone.  The key is a SHA-256 over the spec's canonical JSON
form plus a *code-version salt*: bump :data:`CODE_VERSION` whenever a
simulator or protocol change makes previously computed outcomes stale,
and every old entry silently becomes a miss.

Design rules:

- **Corruption is a miss, never a crash.**  Truncated files, garbage
  JSON, schema drift, salt drift, or payloads that fail spec/outcome
  reconstruction all make :meth:`ResultCache.get` return ``None``; the
  caller recomputes and :meth:`ResultCache.put` overwrites the entry.
- **Writes are atomic** (temp file + ``os.replace``), so a crashed or
  concurrent writer can leave at most a stale temp file behind, never a
  half-written entry under the final name.
- Entries are plain JSON — diffable, greppable, no pickle.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (see below)
    from repro.experiments import ExperimentOutcome, ExperimentSpec

#: Cache invalidation salt.  Bump on any change that alters simulated
#: outcomes (protocol logic, adversary schedules, seed derivation, the
#: aggregation arithmetic); old entries then miss and are recomputed.
CODE_VERSION = "2026.10.1"

#: On-disk record format tag; bump on incompatible record changes.
SCHEMA_VERSION = 1


def canonical_json(payload) -> str:
    """The canonical text form hashed into spec identities.

    Sorted keys at every nesting level, so dict insertion order never
    matters; non-JSON values fall back to ``repr``.  Both the cache key
    (:func:`spec_cache_key`) and the per-repeat seed derivation
    (:meth:`~repro.experiments.ExperimentSpec.seed_for`) canonicalise
    through this one helper, so the two identities cannot diverge.
    """
    return json.dumps(payload, sort_keys=True, default=repr)


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


def spec_fields(spec: "ExperimentSpec") -> dict:
    """The spec's JSON-ready form, the one dict that is hashed and stored.

    A shallow walk (``protocol_params`` is the spec's own dict) with the
    tuple fields as lists: equal to its own JSON round trip, and the
    same bytes ``dataclasses.asdict`` gave.
    """
    payload = {name: getattr(spec, name)
               for name in type(spec).__dataclass_fields__}
    payload["source_faults"] = list(spec.source_faults)
    payload["proxy_faults"] = list(spec.proxy_faults)
    return payload


def spec_cache_key(spec: "ExperimentSpec", *,
                   salt: str = CODE_VERSION) -> str:
    """Hex content hash identifying ``(spec, salt)``.

    :func:`spec_fields` is serialized to canonical JSON (sorted keys, so
    ``protocol_params`` insertion order never matters) and hashed with
    the salt.  Two specs collide only if every field is equal.

    ``backend`` joins the payload only when it is not ``"sim"``, and
    ``sources``/``source_faults``/``proxy_faults``/``topology`` only
    when non-default: the defaults are the pre-field behaviour, so
    every cache entry and journal line written before the fields
    existed keeps hitting.  Unlike :meth:`ExperimentSpec.seed_for`, non-empty
    ``proxy_faults`` *do* join the key — chaos on the wire leaves the
    inputs alone but changes the measured outcome (time, retries,
    failed runs), so those outcomes must not collide.
    """
    payload = spec_fields(spec)
    if payload.get("backend") == "sim":
        del payload["backend"]
    if payload.get("sources") == 1:
        del payload["sources"]
    if not payload.get("source_faults"):
        payload.pop("source_faults", None)
    if not payload.get("proxy_faults"):
        payload.pop("proxy_faults", None)
    if payload.get("topology", "complete") == "complete":
        payload.pop("topology", None)
    canonical = canonical_json(payload)
    digest = hashlib.sha256(f"{salt}\n{canonical}".encode("utf-8"))
    return digest.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/store counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores}

    def __str__(self) -> str:
        return (f"{self.hits} hits / {self.misses} misses "
                f"({self.stores} stored)")


class ResultCache:
    """Spec-keyed experiment-outcome cache under one directory.

    Args:
        directory: cache root (created lazily on first store).
            ``None`` uses :func:`default_cache_dir`.
        salt: code-version salt mixed into every key; override in tests
            to simulate invalidation.
    """

    def __init__(self, directory: Union[str, Path, None] = None, *,
                 salt: str = CODE_VERSION) -> None:
        self.directory = (Path(directory).expanduser() if directory
                          else default_cache_dir())
        self.salt = salt
        self.stats = CacheStats()

    def path_for(self, spec: "ExperimentSpec") -> Path:
        """The entry file a given spec maps to."""
        return self.directory / f"{spec_cache_key(spec, salt=self.salt)}.json"

    # -- lookup ------------------------------------------------------------

    def get(self, spec: "ExperimentSpec") -> Optional["ExperimentOutcome"]:
        """The cached outcome for ``spec``, or ``None`` on any miss."""
        return self._get(spec, spec_cache_key(spec, salt=self.salt))

    def _get(self, spec: "ExperimentSpec",
             key: str) -> Optional["ExperimentOutcome"]:
        """:meth:`get` for a caller that already derived ``spec``'s key."""
        outcome = self._load(self.directory / f"{key}.json", spec)
        if outcome is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return outcome

    def _load(self, path: Path,
              spec: "ExperimentSpec") -> Optional["ExperimentOutcome"]:
        # A missing file is a miss, and so is any malformed entry —
        # truncated, non-UTF-8 or too deeply nested JSON, wrong schema, spec
        # or measurements that no longer load: recomputed and overwritten.
        try:
            payload = json.loads(path.read_bytes())
            if (payload.get("schema") != SCHEMA_VERSION
                    or payload.get("salt") != self.salt):
                return None
            from repro.persistence import outcome_from_dict, outcome_of
            stored = payload["outcome"]
            # Fields equal to the asked spec's would reconstruct into a
            # spec equal to it: skip the rebuild and reuse the asked one.
            if stored["spec"] == spec_fields(spec):
                return outcome_of(spec, stored)
            outcome = outcome_from_dict(stored)
        except (OSError, KeyError, TypeError, ValueError, AttributeError,
                RecursionError):
            return None
        # Hash paranoia: a colliding or hand-renamed entry must never
        # masquerade as this spec's outcome.
        return outcome if outcome.spec == spec else None

    # -- store -------------------------------------------------------------

    def put(self, spec: "ExperimentSpec",
            outcome: "ExperimentOutcome") -> Path:
        """Write (or overwrite) the entry for ``spec``; returns its path."""
        return self._put(outcome, spec_cache_key(spec, salt=self.salt))

    def _put(self, outcome: "ExperimentOutcome", key: str) -> Path:
        """:meth:`put` for a caller that already derived the spec's key."""
        from repro.persistence import outcome_to_dict
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"{key}.json"
        payload = {
            "schema": SCHEMA_VERSION,
            "salt": self.salt,
            "key": key,
            "outcome": outcome_to_dict(outcome),
        }
        temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        temp.write_text(json.dumps(payload, indent=2, sort_keys=True),
                        encoding="utf-8")
        os.replace(temp, path)
        self.stats.stores += 1
        return path


def resolve_cache(cache) -> Optional[ResultCache]:
    """Normalize the user-facing ``cache=`` argument.

    ``None``/``False`` disable caching; ``True`` uses the default
    directory; a string or :class:`~pathlib.Path` names the directory;
    a ready :class:`ResultCache` passes through (sharing its stats).
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache()
    if isinstance(cache, ResultCache):
        return cache
    if isinstance(cache, (str, Path)):
        return ResultCache(cache)
    raise TypeError(f"cache= must be None, bool, a directory, or a "
                    f"ResultCache, got {type(cache).__name__}")
