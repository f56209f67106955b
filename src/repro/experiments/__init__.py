"""Declarative experiment specifications over pluggable backends.

The benchmark harness and downstream studies keep re-assembling the
same quadruple — protocol + parameters, fault setup, network shape,
sweep axis.  :class:`ExperimentSpec` makes that quadruple a value:
validatable, hashable into a seed, and runnable, so an experiment is
*data* instead of a bespoke script::

    spec = ExperimentSpec(
        protocol="crash-multi", n=16, ell=8192,
        fault_model="crash", beta=0.5, repeats=3)
    outcome = run_experiment(spec)
    print(outcome.mean_query_complexity, outcome.success_rate)

    for point in sweep_experiment(spec, axis="beta",
                                  values=[0.1, 0.3, 0.5, 0.7]):
        print(point.spec.beta, point.mean_query_complexity)

The ``backend`` field selects the execution engine — ``"sim"`` (the
asynchronous discrete-event simulator, the default), ``"sync"`` (the
round-native lockstep engine, reporting exact round counts), or
``"lowerbound"`` (Theorem 3.1's two-execution construction)::

    sync_spec = ExperimentSpec(
        protocol="byz-committee", n=20, ell=4000,
        fault_model="byzantine", beta=0.3, network="synchronous",
        protocol_params={"block_size": 40}, backend="sync")
    print(run_experiment(sync_spec).mean_round_complexity)

Both entry points accept ``workers=`` (process-parallel execution; see
:mod:`repro.execution`) and ``cache=`` (on-disk outcome reuse).  Every
repeat is seeded by :meth:`ExperimentSpec.seed_for`, so outcomes are a
pure function of the spec and identical at any worker count — and for
any backend::

    outcome = run_experiment(spec, workers=4, cache=True)
"""

from repro.experiments.backends import (
    ExecutionBackend,
    all_backends,
    get_backend,
    register_backend,
)
from repro.experiments.outcome import (
    ExperimentOutcome,
    RepeatRecord,
    aggregate_outcome,
    outcomes_table,
)
from repro.experiments.runner import (
    execute_repeat,
    run_experiment,
    sweep_experiment,
    sweep_points,
)
from repro.experiments.spec import ExperimentSpec

__all__ = [
    "ExecutionBackend",
    "ExperimentOutcome",
    "ExperimentSpec",
    "RepeatRecord",
    "aggregate_outcome",
    "all_backends",
    "execute_repeat",
    "get_backend",
    "outcomes_table",
    "register_backend",
    "run_experiment",
    "sweep_experiment",
    "sweep_points",
]
