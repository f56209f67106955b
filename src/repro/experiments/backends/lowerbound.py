"""The adversarial lower-bound backend (``backend="lowerbound"``).

Wraps the Theorem 3.1 (deterministic) and Theorem 3.2 (randomized)
witness constructions as spec-driven, seedable experiments.  The spec's
``protocol`` names the *victim* from the async protocol registry and
``strategy`` selects the construction:

- ``strategy="deterministic"`` — one two-execution indistinguishability
  attack per repeat; ``correct`` records whether the victim was fooled
  (so ``success_rate`` across repeats is the fooled-rate) and
  ``queries`` records the victim's query bits;
- ``strategy="randomized"`` — the query-distribution attack; each
  repeat runs ``estimation_trials`` profile runs plus ``attack_trials``
  attacks (both from ``protocol_params``, attack default 1, so repeats
  measure the per-trial fooling rate).

``protocol_params`` keys ``claimed_t``, ``estimation_trials``,
``attack_trials`` and ``rho_seed`` configure the construction; the
remaining params go to the victim's peer factory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.protocols import get
from repro.util.validation import check_fraction, check_positive

from repro.experiments.backends import check_protocol_params, telemetry_scope
from repro.experiments.outcome import RepeatRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.spec import ExperimentSpec
    from repro.obs.telemetry import Telemetry

_CONSTRUCTIONS = ("deterministic", "randomized")
_RESERVED_PARAMS = ("claimed_t", "estimation_trials", "attack_trials",
                    "rho_seed")


def _split_params(spec: "ExperimentSpec") -> tuple[dict, dict]:
    """(construction kwargs, victim peer-factory kwargs)."""
    peer_params = dict(spec.protocol_params)
    construction = {name: peer_params.pop(name)
                    for name in _RESERVED_PARAMS if name in peer_params}
    return construction, peer_params


class LowerBoundBackend:
    """Runs specs through :mod:`repro.lowerbounds` constructions."""

    def validate(self, spec: "ExperimentSpec") -> None:
        entry = get(spec.protocol)  # the victim comes from the async registry
        check_positive("n", spec.n)
        check_positive("ell", spec.ell)
        check_fraction("beta", spec.beta, inclusive_high=False)
        check_positive("repeats", spec.repeats)
        if spec.strategy not in _CONSTRUCTIONS:
            raise ValueError(
                f"strategy selects the construction for "
                f"backend='lowerbound' and must be one of "
                f"{_CONSTRUCTIONS}, got {spec.strategy!r}")
        if spec.network != "asynchronous":
            raise ValueError(
                f"backend='lowerbound' requires network='asynchronous' "
                f"(the Theorem 3.1/3.2 witnesses schedule messages "
                f"adversarially), got {spec.network!r}")
        if spec.fault_model not in ("none", "byzantine"):
            raise ValueError(
                f"fault_model must be 'none' or 'byzantine' for "
                f"backend='lowerbound' (the construction corrupts its "
                f"own majority), got {spec.fault_model!r}")
        if spec.proxy_faults:
            raise ValueError(
                "proxy_faults apply only to backend='net' — the "
                "lower-bound constructions have no transport to shake")
        construction, peer_params = _split_params(spec)
        check_protocol_params(spec, entry.peer_class,
                              params=peer_params)
        claimed_t = construction.get("claimed_t")
        if claimed_t is not None:
            check_positive("claimed_t", claimed_t)
        elif spec.strategy == "randomized":
            raise ValueError("the randomized construction requires "
                             "protocol_params['claimed_t']")
        for name in ("estimation_trials", "attack_trials"):
            if name in construction:
                check_positive(name, construction[name])

    def run_one(self, spec: "ExperimentSpec", repeat: int, seed: int,
                telemetry: Optional["Telemetry"]) -> RepeatRecord:
        from repro.lowerbounds import (
            run_deterministic_construction,
            run_randomized_construction,
        )

        construction, peer_params = _split_params(spec)
        peer_factory = get(spec.protocol).factory(**peer_params)
        with telemetry_scope(telemetry):
            if spec.strategy == "deterministic":
                outcome = run_deterministic_construction(
                    peer_factory=peer_factory, n=spec.n, ell=spec.ell,
                    seed=seed, claimed_t=construction.get("claimed_t"))
                return RepeatRecord(
                    queries=outcome.victim_queries, messages=0,
                    time=0.0, correct=bool(outcome.fooled))
            kwargs = {"estimation_trials": 20, "attack_trials": 1}
            kwargs.update(construction)
            claimed_t = kwargs.pop("claimed_t")
            report = run_randomized_construction(
                peer_factory=peer_factory, n=spec.n, ell=spec.ell,
                claimed_t=claimed_t, base_seed=seed, **kwargs)
        return RepeatRecord(
            queries=int(round(report.mean_victim_queries)), messages=0,
            time=0.0, correct=report.fooled_trials > 0)
