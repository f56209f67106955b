"""Benchmark and gate scripts outside the claim table.

The paper's evaluation is the claim table
(``repro.experiments.claims``, driven by
``examples/reproduce_paper.py``).  What stays here measures the
infrastructure around it (kernel, scale, parallel engine, net
transport, chaos, service, topology).  The pytest-benchmark ones run
with::

    pytest benchmarks/ --benchmark-only

and print their tables through :mod:`benchmarks.support`; the
``--check`` gate scripts run as plain programs.
"""
