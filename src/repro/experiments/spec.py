"""The experiment specification: one value describing one experiment.

:class:`ExperimentSpec` is the single currency every engine layer
trades in — the parallel runner fans its repeats out, the result cache
hashes it, the sweep journal keys checkpoints by it, and persistence
round-trips it.  The ``backend`` field selects which execution engine
interprets the spec (see :mod:`repro.experiments.backends`):

- ``"sim"`` (the default) — the asynchronous discrete-event simulator;
- ``"sync"`` — the round-native lockstep engine (``repro.sync``);
- ``"lowerbound"`` — the Theorem 3.1/3.2 adversarial constructions;
- ``"net"`` — real peer processes/tasks over sockets (``repro.net``).

Identity rules (load-bearing — the golden traces and every on-disk
cache/journal entry depend on them):

- :meth:`ExperimentSpec.seed_for` omits ``backend`` from the identity
  string when it is ``"sim"`` — so every pre-backend seed is unchanged
  — and also when it is ``"net"``: the net backend *replays* sim specs
  over real sockets, and sharing the per-repeat seeds is exactly what
  makes its query complexity comparable bit-for-bit;
- ``proxy_faults`` never joins :meth:`ExperimentSpec.seed_for` at all
  (transport chaos must not change the experiment's inputs), but it
  does join :func:`repro.execution.cache.spec_cache_key` when
  non-empty, because outcomes (time, retries, failures) differ;
- :func:`repro.execution.cache.spec_cache_key` likewise drops the
  ``backend`` field for ``"sim"`` specs, so old cache entries and
  journals still hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.adversary import (
    AdaptiveCrashAdversary,
    BurstyDelay,
    ByzantineAdversary,
    ComposedAdversary,
    CrashAdversary,
    EquivocateStrategy,
    NullAdversary,
    PerPeerStrategy,
    SelectiveSilenceStrategy,
    SilentStrategy,
    StaggeredStart,
    TargetedSlowdown,
    UniformRandomDelay,
    WrongBitsStrategy,
)
from repro.adversary.attacks import (
    CommitteeForgeAttacker,
    FrequencySpamAttacker,
    SplitReportAttacker,
)
from repro.adversary.dynamic import DynamicByzantineAdversary
from repro.execution.cache import canonical_json
from repro.protocols import get
from repro.util.rng import derive_seed

_FAULT_MODELS = ("none", "crash", "byzantine", "dynamic")
_NETWORKS = ("synchronous", "asynchronous")

#: The Byzantine corruption strategies, in the order the fuzzer draws
#: them.  A crash or fault-free spec accepts these names too, and ignores
#: them.
BYZANTINE_STRATEGIES = {
    "wrong-bits": WrongBitsStrategy,
    "equivocate": EquivocateStrategy,
    "silent": SilentStrategy,
    "selective-silence": SelectiveSilenceStrategy,
}


def _network(spec: "ExperimentSpec"):
    """The latency ``network`` names: unit, or uniform random delays."""
    return (NullAdversary() if spec.network == "synchronous"
            else UniformRandomDelay())


def _on_network(faults):
    """A builder putting ``faults(spec)`` on the spec's network."""
    return lambda spec: ComposedAdversary(faults=faults(spec),
                                          latency=_network(spec))


def _corrupting(kind: type, strategy: type):
    return _on_network(lambda spec: kind(
        fraction=spec.beta, strategy_factory=PerPeerStrategy(strategy)))


def _scripted(attacker: type, geometry: Callable[[dict], int]):
    """``beta``'s corrupted peers run the protocol-aware ``attacker``,
    sized by ``geometry(protocol_params)``."""
    return _on_network(lambda spec: ByzantineAdversary(
        fraction=spec.beta, scripted_factory=lambda pid, env: attacker(
            pid, env, geometry(spec.protocol_params))))


def segment_count(params: dict) -> int:
    """The ``s`` a randomized protocol's ``protocol_params`` name
    (``num_segments``, else ``base_segments``; 1 when neither)."""
    return params.get("num_segments", params.get("base_segments", 1))


_crashes = _on_network(lambda spec: CrashAdversary(crash_fraction=spec.beta))

#: Every adversary a spec can name: ``(fault_model, strategy)`` -> a
#: builder of one run's fresh adversary object.  This is the one place
#: adversaries are named; the backends, the roster, the fuzzer and the
#: CLI read it.
ADVERSARIES = {
    **{("none", name): _network for name in BYZANTINE_STRATEGIES},
    **{("crash", name): _crashes for name in BYZANTINE_STRATEGIES},
    **{("byzantine", name): _corrupting(ByzantineAdversary, strategy)
       for name, strategy in BYZANTINE_STRATEGIES.items()},
    **{("dynamic", name): _corrupting(DynamicByzantineAdversary, strategy)
       for name, strategy in BYZANTINE_STRATEGIES.items()},
    ("none", "bursty"): lambda spec: BurstyDelay(stall_fraction=0.3),
    ("none", "staggered"): lambda spec: StaggeredStart(spread=4.0),
    ("crash", "at-time"): _on_network(lambda spec: CrashAdversary(
        crash_fraction=spec.beta, mode="at_time")),
    # The t faulty peers crawl but never crash.
    ("crash", "slow"): lambda spec: TargetedSlowdown(set(range(spec.t))),
    ("crash", "adaptive"): lambda spec: AdaptiveCrashAdversary(
        crash_fraction=spec.beta),
    ("byzantine", "committee-forge"): _scripted(
        CommitteeForgeAttacker, lambda params: params.get("block_size", 1)),
    ("byzantine", "frequency-spam"): _scripted(FrequencySpamAttacker,
                                               segment_count),
    ("byzantine", "split-report"): _scripted(SplitReportAttacker,
                                             segment_count),
}

#: Strategies whose adversary sets its own latencies, so they cannot
#: run on ``network="synchronous"``'s unit latencies.
OWN_LATENCY = ("bursty", "staggered", "slow", "adaptive")


def check_strategy(spec: "ExperimentSpec") -> None:
    """Raise ``ValueError`` unless :data:`ADVERSARIES` names the spec's
    ``(fault_model, strategy)`` on its network."""
    if (spec.fault_model, spec.strategy) not in ADVERSARIES:
        accepted = sorted(name for model, name in ADVERSARIES
                          if model == spec.fault_model)
        raise ValueError(f"strategy must be one of {accepted} for "
                         f"fault_model={spec.fault_model!r}, got "
                         f"{spec.strategy!r}")
    if spec.strategy in OWN_LATENCY and spec.network == "synchronous":
        raise ValueError(f"strategy {spec.strategy!r} sets its own "
                         f"latencies and needs network='asynchronous'")


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully-described experiment configuration.

    ``network="synchronous"`` and ``backend="sync"`` are different
    things: the former keeps the asynchronous event kernel but gives
    every message unit latency (synchrony *emulated* inside the async
    model), while the latter runs the round-native lockstep engine
    whose time measure is an exact round count.  A ``backend="sync"``
    spec therefore requires ``network="synchronous"`` — asking the
    lockstep engine for an asynchronous network is a contradiction and
    is rejected at construction time.
    """

    protocol: str
    n: int
    ell: int
    fault_model: str = "none"
    beta: float = 0.0
    #: With ``fault_model``, names the adversary: a key of
    #: :data:`ADVERSARIES` (the lower-bound backend reads it as its
    #: construction instead).
    strategy: str = "wrong-bits"
    network: str = "asynchronous"
    protocol_params: dict = field(default_factory=dict)
    repeats: int = 1
    base_seed: int = 0
    backend: str = "sim"
    sources: int = 1
    source_faults: tuple = ()
    proxy_faults: tuple = ()
    #: Peer-to-peer connectivity spec (see :mod:`repro.topology`).
    #: ``"complete"`` is the paper's model and the identity-preserving
    #: default: it never joins :meth:`seed_for` or the cache key, so
    #: every spec written before the field existed resolves unchanged.
    topology: str = "complete"

    def __post_init__(self) -> None:
        # Persistence reconstructs specs from JSON, where tuples come
        # back as lists; coerce so round-tripped specs compare equal.
        if not isinstance(self.source_faults, tuple):
            object.__setattr__(self, "source_faults",
                               tuple(self.source_faults))
        if not isinstance(self.proxy_faults, tuple):
            object.__setattr__(self, "proxy_faults",
                               tuple(self.proxy_faults))
        # Validation is delegated to the backend: each engine accepts a
        # different protocol vocabulary and network/fault combination.
        from repro.experiments.backends import get_backend
        get_backend(self.backend).validate(self)

    @property
    def t(self) -> int:
        """The fault budget this spec implies."""
        return int(self.beta * self.n)

    def build_adversary(self):
        """Fresh async-simulator adversary object for one run of this
        spec (``backend="sim"`` semantics; also used by the golden
        traces and the kernel benchmark): its :data:`ADVERSARIES`
        entry."""
        return ADVERSARIES[self.fault_model, self.strategy](self)

    def peer_factory(self):
        """Bound async-registry peer factory for this spec."""
        return get(self.protocol).factory(**self.protocol_params)

    def seed_for(self, repeat: int) -> int:
        """Stable per-repeat seed derived from the spec identity.

        ``repeats`` is deliberately omitted (adding repeats must extend
        a sweep, not reseed it); ``protocol_params`` goes through the
        cache's :func:`~repro.execution.cache.canonical_json` — the
        same canonical form the cache key hashes — so seed identity and
        cache identity cannot diverge, whatever the params' nesting or
        insertion order.  ``backend`` joins the identity only when it
        is neither ``"sim"`` nor ``"net"`` (``net`` replays the
        simulator's per-repeat seeds so its Q is comparable bit-for-
        bit), and ``sources``/``source_faults``/``topology`` only when
        non-default: every seed computed before those fields existed
        stays byte-identical (the golden traces pin this).  ``proxy_faults``
        never joins at all — transport chaos is noise on the wire, not
        part of the experiment's inputs.
        """
        identity = (f"{self.protocol}|{self.n}|{self.ell}|"
                    f"{self.fault_model}|{self.beta}|{self.strategy}|"
                    f"{self.network}|{canonical_json(self.protocol_params)}")
        if self.backend not in ("sim", "net"):
            identity = f"{self.backend}|{identity}"
        if self.sources != 1:
            identity = f"{identity}|sources={self.sources}"
        if self.source_faults:
            identity = (f"{identity}|faults="
                        f"{canonical_json(list(self.source_faults))}")
        if self.topology != "complete":
            identity = f"{identity}|topology={self.topology}"
        return derive_seed(self.base_seed, f"{identity}#{repeat}")
