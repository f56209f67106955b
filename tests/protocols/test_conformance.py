"""Every registered protocol passes the conformance battery.

Each run of the battery is one :class:`ExperimentSpec` of the protocol
at small scale (n=8, ell=256) on the simulator, with the spec's own
peers and adversary (``peer_factory()``, ``build_adversary()``), so it
is the run a sweep of that spec makes.  The checks:

- fault-free correctness under synchrony and under asynchrony;
- the information-theoretic floor: a correct run queries at least
  ``ell`` bits across honest peers (the source is the only origin of
  truth);
- replay determinism: same seed, same run;
- termination accounting: every honest peer the result calls
  terminated holds an output;
- correctness at the crash and Byzantine fractions the registry entry
  advertises;
- every one of those runs within the entry's ``query_bound`` and
  within the naive ceiling: no honest peer queries more than ``ell``,
  since no peer needs to ask the source for a bit twice;
- and every one of them, once dropped, freed by reference counting
  alone: a finished run holds no reference cycle, so with the cyclic
  collector off it leaves no garbage behind.
"""

import gc

import pytest

from repro.experiments import ExperimentSpec
from repro.experiments.backends import get_backend
from repro.protocols import all_protocols, registry
from repro.sim import run_download

N, ELL, SEED = 8, 256, 11

#: Small parameters per protocol; the rest run on their defaults.
PARAMS = {
    "byz-committee": {"block_size": ELL // 32},
    "byz-two-cycle": {"num_segments": 2, "tau": 2},
    "byz-multi-cycle": {"base_segments": 2, "tau": 2},
    "one-round": {"redundancy": 2},
}

#: Fault budgets the envelope cannot state: Algorithm 1 is built for
#: exactly one crash (its ``max_crash_fraction`` is 0), so its crash
#: run crashes ``t`` peers.
SPECIAL_T = {"crash-one": 1}


def battery(entry, params=None, t=0, n=N, ell=ELL, seed=SEED):
    """``label -> (spec, seed)`` of every run the battery makes."""
    def spec(**fields):
        return ExperimentSpec(entry.name, n, ell,
                              protocol_params=dict(params or {}), **fields)

    runs = {"synchronous": (spec(network="synchronous", beta=t / n), seed),
            "asynchronous": (spec(beta=t / n), seed + 1)}
    beta = 0.0
    if entry.max_crash_fraction > 0:
        beta = min(entry.max_crash_fraction, (n - 1) / n)
    elif entry.fault_model == "crash":
        beta = t / n
    if beta > 0:
        runs[f"crash beta={beta:.2f}"] = (
            spec(fault_model="crash", beta=beta), seed + 2)
    beta = min(entry.max_byzantine_fraction, 0.49)
    if int(beta * n) > 0:
        runs[f"Byzantine beta={beta:.2f}"] = (
            spec(fault_model="byzantine", strategy="equivocate", beta=beta),
            seed + 3)
    return runs


def run(spec, seed):
    return run_download(n=spec.n, ell=spec.ell,
                        peer_factory=spec.peer_factory(),
                        adversary=spec.build_adversary(), t=spec.t,
                        seed=seed)


def cyclic_garbage(spec, seed) -> int:
    """Objects the cyclic collector finds once the run of ``spec`` and
    its result are dropped, with the collector off meanwhile."""
    gc.collect()
    gc.disable()
    try:
        run(spec, seed)
        return gc.collect()
    finally:
        gc.enable()


def failed_checks(entry, params=None, t=0, n=N, ell=ELL, seed=SEED) -> list:
    """The checks ``entry`` fails, each with its detail."""
    failures = []

    def check(name, ok, detail=""):
        if not ok:
            failures.append(f"{name}: {detail}")

    specs = battery(entry, params, t, n, ell, seed)
    results = {label: run(spec, seed)
               for label, (spec, seed) in specs.items()}
    for label, result in results.items():
        check(f"{label} correctness", result.download_correct,
              f"wrong peers {result.wrong_peers()}")
        spec = specs[label][0]
        bound = entry.query_bound(spec.ell, spec.n, spec.t,
                                  spec.protocol_params, spec.sources)
        q = result.report.query_complexity
        check(f"{label} Q within query_bound", q <= bound,
              f"Q {q} > {bound}")
        check(f"{label} Q within the naive ceiling", q <= spec.ell,
              f"Q {q} > ell {spec.ell}")
        garbage = cyclic_garbage(*specs[label])
        check(f"{label} leaves no cyclic garbage", garbage == 0,
              f"{garbage} objects")
    sync, asynchronous = results["synchronous"], results["asynchronous"]
    check("total queries cover the input",
          sync.report.total_query_bits >= ell,
          f"total {sync.report.total_query_bits} < ell {ell}")
    replay = run(*specs["asynchronous"])
    check("replay determinism",
          replay.outputs == asynchronous.outputs
          and replay.events_processed == asynchronous.events_processed)
    check("terminated peers hold outputs",
          all((sync.outputs.get(pid) is not None)
              == sync.statuses[pid].terminated for pid in sync.honest))
    return failures


@pytest.mark.parametrize("entry", all_protocols(), ids=lambda e: e.name)
def test_registered_protocol_conformance(entry):
    assert failed_checks(entry, PARAMS.get(entry.name),
                         SPECIAL_T.get(entry.name, 0)) == []


@pytest.mark.parametrize("backend", ["sim", "sync"])
@pytest.mark.parametrize("n, ell", [(3, 6), (4, 16)])
@pytest.mark.parametrize("protocol", ["byz-two-cycle", "byz-multi-cycle"])
def test_no_peer_pays_twice_for_a_bit(protocol, n, ell, backend):
    # Base segments of one to four bits and few reporters: most
    # children go to the fallback, and a later cycle's child can hold
    # the peer's own base segment.  Asking the source again for a bit
    # the peer holds would charge it past ``ell``.
    params = {"byz-two-cycle": {"num_segments": 4, "tau": 2},
              "byz-multi-cycle": {"base_segments": 4, "tau": 2}}[protocol]
    for seed in range(20):
        spec = ExperimentSpec(protocol, n, ell, protocol_params=params,
                              network="synchronous", backend=backend,
                              base_seed=seed)
        record = get_backend(backend).run_one(spec, 0, spec.seed_for(0),
                                              None)
        assert record.correct and record.queries <= ell, (seed,
                                                          record.queries)


class TestHarnessItself:
    def test_conformance_catches_a_broken_protocol(self, monkeypatch):
        # A protocol that terminates with garbage must fail the battery.
        from repro.protocols.base import DownloadPeer
        from repro.util.bitarrays import BitArray

        class LiarPeer(DownloadPeer):
            protocol_name = "liar"

            def body(self):
                self.finish(BitArray.zeros(self.ell))
                return
                yield  # pragma: no cover

        entry = registry.ProtocolEntry(
            name="liar", peer_class=LiarPeer, fault_model="none",
            randomized=False, max_crash_fraction=0.0,
            max_byzantine_fraction=0.0, description="outputs zeros",
            query_bound=lambda ell, n, t, params, sources: ell)
        monkeypatch.setitem(registry._REGISTRY, "liar", entry)
        failures = failed_checks(entry, n=4, ell=64, seed=1)
        assert any("correctness" in failure for failure in failures)
