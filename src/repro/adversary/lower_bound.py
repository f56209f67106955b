"""The witness adversary of Theorems 3.1 and 3.2.

Both lower-bound proofs use the same strategy against a protocol that
(supposedly) tolerates ``beta >= 1/2`` Byzantine faults while querying
fewer than ``ell`` bits:

- corrupt a majority ``F`` of the peers and make them run the honest
  protocol *as if the input were* some reference array ``X`` (all
  zeros) — implemented by executing the real protocol code against a
  private fake source;
- withhold every message sent by the remaining honest peers (other
  than the victim ``v``) until the victim has terminated — legal
  because delays only need to be finite, and the model only compels
  release at quiescence;
- choose the real input ``X'`` to differ from ``X`` in a single bit
  the victim does not query.

The victim's view is then identical in the execution on ``X`` (where
``F`` would be honest and the protocol must answer ``X``) and the
execution on ``X'`` — so it outputs the wrong bit.  The drivers in
:mod:`repro.lowerbounds` assemble the two executions and verify the
indistinguishability; this module provides the adversary itself.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.adversary.base import Adversary, PeerFactory
from repro.sim.messages import SOURCE_ID, Message, SourceResponse
from repro.sim.network import WITHHOLD
from repro.sim.peer import SimEnv
from repro.sim.process import Process
from repro.util.bitarrays import BitArray, BitRun
from repro.util.rng import SplittableRNG


class _FakeSource:
    """A corrupted peer's private view of the data source.

    Serves queries from the adversary's reference array ``X`` instead
    of the real input, with the same asynchronous response mechanics.
    Queries against it are *not* charged (Byzantine peers' costs do not
    count), and crucially never touch the real source's query log.
    """

    def __init__(self, data: BitArray, env: SimEnv) -> None:
        self.data = data
        self.env = env

    def __len__(self) -> int:
        return len(self.data)

    def request_bits(self, pid: int, request_id: int, indices) -> None:
        asked = sorted(set(indices))
        response = SourceResponse(
            sender=SOURCE_ID, request_id=request_id,
            values=BitRun(asked, bytes(self.data.get_many(asked))))
        latency = self.env.adversary.query_latency(pid, self.env.kernel.now)
        self.env.network.deliver_direct(pid, response, latency)

    def request_segment(self, pid: int, request_id: int,
                        lo: int, hi: int) -> None:
        self.request_bits(pid, request_id, range(lo, hi))


class MajoritySimulationAdversary(Adversary):
    """Corrupt a majority to fake execution on a reference input, and
    starve the victim of every other honest voice.

    Args:
        corrupted: the majority set ``F`` (runs honest code on
            ``fake_input``).
        silenced: honest peers whose outgoing messages are withheld
            until quiescence (i.e., until after the victim terminates,
            if the attack succeeds).
        fake_input: the reference array ``X`` the corrupted peers
            pretend to read.
        rho_seed: if given, all corrupted peers draw their coins from
            this seed instead of the run's — the adversary "sets the
            random string rho" exactly as in Theorem 3.2's proof, so
            the simulated execution is identical across victim-coin
            samples.
    """

    def __init__(self, *, corrupted: set[int], silenced: set[int],
                 fake_input: BitArray,
                 rho_seed: Optional[int] = None) -> None:
        super().__init__()
        overlap = corrupted & silenced
        if overlap:
            raise ValueError(f"peers {sorted(overlap)} are both corrupted "
                             f"and silenced")
        self.corrupted = set(corrupted)
        self.silenced = set(silenced)
        self.fake_input = fake_input
        self.rho_seed = rho_seed

    def fault_budget(self, n: int) -> int:
        return len(self.corrupted)

    def faulty_peers(self) -> set[int]:
        return set(self.corrupted)

    def make_faulty_peer(self, pid: int, env: SimEnv,
                         honest_factory: PeerFactory) -> Process:
        fake_env = dataclasses.replace(
            env, source=_FakeSource(self.fake_input, env))
        if self.rho_seed is not None:
            fake_env = dataclasses.replace(
                fake_env, rng=SplittableRNG(self.rho_seed))
        peer = honest_factory(pid, fake_env)
        peer.name = f"byzantine-{pid}(simulating-honest)"
        peer.essential = False
        return peer

    def after_setup(self, processes: dict[int, Process]) -> None:
        # The silenced peers are honest, but with a corrupted majority
        # the protocol owes them nothing — they may be unable to ever
        # terminate.  The drivers only assert on the victim, so the
        # silenced peers must not count as a deadlock when they (quite
        # correctly) wait forever after the attack has succeeded.
        for pid in self.silenced:
            processes[pid].essential = False

    def message_latency(self, sender: int, destination: int, message: Message,
                        now: float, cycle: int):
        if sender in self.silenced:
            return WITHHOLD
        return 1.0
