"""One benchmark for the whole download stack.

Six named workloads, each built to stress one part of the stack and to
bypass the others, measured from outside through public entry points
only.  ``python -m bench`` runs them, ``python -m bench --trace`` adds
the per-layer attribution, ``python -m bench compare A.json B.json``
applies the regression bounds.  The contract (command, workloads,
metric names, units, bounds) lives in ``BENCHMARK.json`` at the
repository root; ``bench/README.md`` explains every name in it.
"""
