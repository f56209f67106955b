"""The adversary roster: every named opponent the league fields.

An entry is a *spec fragment* — the ``(fault_model, beta, strategy)``
triple that, merged into an :class:`~repro.experiments.ExperimentSpec`,
puts that adversary on the pitch.  Keeping the roster declarative means
every cell of the tournament is an ordinary experiment spec: it flows
through the same validation, the same per-repeat seed derivation, the
same journal — and any cell can be replayed from its seed with
``repro run``/``repro sweep`` long after the league finished.

Entries name adversaries through the one table,
:data:`repro.experiments.spec.ADVERSARIES`.  The stock roster fields
the fault-free baseline, the crash adversary, the four static Byzantine
corruption strategies, and the dynamic (mobile) variants of the two
strategies where mobility matters most.  ``register_adversary`` adds
entries at runtime (tests use it; so can downstream studies).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.spec import _FAULT_MODELS, ADVERSARIES


@dataclass(frozen=True)
class AdversaryEntry:
    """One league opponent, as the spec fragment that summons it."""

    name: str
    description: str
    fault_model: str
    beta: float
    strategy: str = "wrong-bits"

    def __post_init__(self) -> None:
        if self.fault_model not in _FAULT_MODELS:
            raise ValueError(f"fault_model must be one of "
                             f"{_FAULT_MODELS}, got {self.fault_model!r}")
        if (self.fault_model, self.strategy) not in ADVERSARIES:
            raise ValueError(f"no adversary named strategy="
                             f"{self.strategy!r} under fault_model="
                             f"{self.fault_model!r}")
        if self.fault_model == "none":
            if self.beta != 0.0:
                raise ValueError("the fault-free adversary has beta=0")
        elif not 0 < self.beta < 1:
            raise ValueError(f"beta must be in (0, 1) for faulty "
                             f"models, got {self.beta}")


#: Default corruption fraction for faulty roster entries — large enough
#: to defeat unhardened protocols, small enough that every registered
#: protocol's validity precondition (e.g. the committee's ``2t < n``)
#: still holds at tournament sizes.
DEFAULT_BETA = 0.4

_ROSTER: dict[str, AdversaryEntry] = {}


def register_adversary(entry: AdversaryEntry) -> AdversaryEntry:
    """Add (or replace) a roster entry; returns it for chaining."""
    _ROSTER[entry.name] = entry
    return entry


def all_adversaries() -> list[AdversaryEntry]:
    """Every registered opponent, in registration order."""
    return list(_ROSTER.values())


def get_adversary(name: str) -> AdversaryEntry:
    try:
        return _ROSTER[name]
    except KeyError:
        raise KeyError(f"unknown adversary {name!r}; registered: "
                       f"{sorted(_ROSTER)}") from None


for _entry in (
    AdversaryEntry("none", "fault-free baseline (latency only)",
                   "none", 0.0),
    AdversaryEntry("crash", "seeded crash plan over beta*n victims",
                   "crash", DEFAULT_BETA),
    AdversaryEntry("byz-wrong-bits",
                   "static Byzantine set flipping relayed bits",
                   "byzantine", DEFAULT_BETA, "wrong-bits"),
    AdversaryEntry("byz-equivocate",
                   "static Byzantine set telling each peer a "
                   "different story",
                   "byzantine", DEFAULT_BETA, "equivocate"),
    AdversaryEntry("byz-silent",
                   "static Byzantine set that never speaks",
                   "byzantine", DEFAULT_BETA, "silent"),
    AdversaryEntry("byz-selective-silence",
                   "static Byzantine set silent toward a targeted "
                   "subset",
                   "byzantine", DEFAULT_BETA, "selective-silence"),
    AdversaryEntry("dynamic-wrong-bits",
                   "mobile corruptions re-chosen per cycle, flipping "
                   "bits",
                   "dynamic", DEFAULT_BETA, "wrong-bits"),
    AdversaryEntry("dynamic-equivocate",
                   "mobile corruptions re-chosen per cycle, "
                   "equivocating",
                   "dynamic", DEFAULT_BETA, "equivocate"),
):
    register_adversary(_entry)
del _entry
