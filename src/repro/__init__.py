"""dr-download: the Data Retrieval model's Download problem, reproduced.

A full implementation of *"Distributed Download from an External Data
Source"* (the PODC 2025 brief announcement and its asynchronous full
version): the DR network model as a deterministic event simulation, all
crash-fault and Byzantine Download protocols, the Byzantine-majority
lower-bound constructions as executable adversaries, and the
blockchain-oracle application.

Quickstart::

    from repro import run_download
    from repro.protocols import CrashMultiDownloadPeer
    from repro.adversary import CrashAdversary, ComposedAdversary, UniformRandomDelay

    result = run_download(
        n=16, ell=4096, seed=7,
        peer_factory=CrashMultiDownloadPeer.factory(),
        adversary=ComposedAdversary(
            faults=CrashAdversary(crash_fraction=0.5),
            latency=UniformRandomDelay()))
    assert result.download_correct
    print(result.report)   # Q / M / T complexity of the run

Subpackages: :mod:`repro.sim` (the DR substrate), :mod:`repro.adversary`
(failure/delay strategies), :mod:`repro.core` (assignments, segments,
decision trees, bounds), :mod:`repro.protocols` (the paper's
protocols; Theorems 3.1/3.2's witness is
:mod:`repro.adversary.lower_bound`), and :mod:`repro.oracle` (the
Section 4 application).
"""

from repro.sim.runner import RunResult, Simulation, run_download
from repro.util.bitarrays import BitArray

__version__ = "1.0.0"

__all__ = ["BitArray", "RunResult", "Simulation", "run_download",
           "__version__"]
