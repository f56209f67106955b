"""Synchronous adversaries: rushing Byzantine corruption, round crashes.

The lockstep engine's adversary sees every honest round-``r`` message
before the corrupted peers commit theirs — the classic *rushing*
power, strictly stronger than anything the asynchronous cycle
restriction permits.  The committee protocol's ``t + 1``-identical
acceptance and the tau-frequency filter must hold against it.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from repro.sim.messages import Message
from repro.sync.engine import SyncAdversary, SyncConfig, SyncSource
from repro.util.bitarrays import FLIP_CHARS
from repro.util.rng import SplittableRNG
from repro.util.validation import check_fraction


class RushingEchoAdversary(SyncAdversary):
    """Corrupted peers copy an honest peer's round traffic — flipped.

    The strongest "plausible liar": every fake is perfectly formed
    (right type, right length, right timing) because it is a real
    honest message with its bit-payload inverted.  Rushing makes it
    possible: the fakes are crafted *after* seeing the honest originals.
    """

    def __init__(self, *, corrupted: set[int],
                 seed: int = 0) -> None:
        self.corrupted_set = set(corrupted)
        self.rng = SplittableRNG(seed).split("rushing")

    def corrupted(self, n: int) -> set[int]:
        return set(self.corrupted_set)

    def rush(self, round_no: int, honest_traffic, config: SyncConfig,
             source: SyncSource):
        # Pick the busiest honest sender this round as the template.
        template_pid = None
        best = -1
        for pid, outbox in honest_traffic.items():
            volume = sum(len(msgs) for msgs in outbox.values())
            if volume > best:
                template_pid, best = pid, volume
        traffic = {}
        if template_pid is None or best == 0:
            return traffic
        template = honest_traffic[template_pid]
        for attacker in self.corrupted_set:
            outbox: dict[int, list[Message]] = {}
            for destination, messages in template.items():
                fakes = []
                for message in messages:
                    fake = message
                    replacements = {"sender": attacker}
                    for field in dataclasses.fields(message):
                        value = getattr(message, field.name)
                        if isinstance(value, str) and value \
                                and set(value) <= {"0", "1"}:
                            replacements[field.name] = value.translate(
                                FLIP_CHARS)
                    fake = dataclasses.replace(message, **replacements)
                    fakes.append(fake)
                outbox[destination] = fakes
            # Also lie to the template peer itself.
            outbox.setdefault(template_pid, outbox.get(
                min(template, default=template_pid), []))
            traffic[attacker] = outbox
        return traffic


class SilentSyncAdversary(SyncAdversary):
    """Corrupted peers never speak (pure omission)."""

    def __init__(self, *, corrupted: set[int]) -> None:
        self.corrupted_set = set(corrupted)

    def corrupted(self, n: int) -> set[int]:
        return set(self.corrupted_set)


class RoundCrashAdversary(SyncAdversary):
    """Crash peers at chosen rounds, optionally mid-broadcast.

    ``plan[pid] = (round, keep)``: from ``round`` on the peer is dead;
    in its final round only the first ``keep`` destinations (ascending)
    of its outbox still go out — the synchronous analogue of crashing
    "after some but not all" sends.  ``keep=None`` delivers the full
    final round.
    """

    def __init__(self, plan: dict[int, tuple[int, Optional[int]]]) -> None:
        self.plan = dict(plan)

    def crashed_before_round(self, round_no: int, n: int) -> set[int]:
        return {pid for pid, (round_limit, _) in self.plan.items()
                if round_no > round_limit}

    def filter_sends(self, pid: int, round_no: int, outbox):
        spec = self.plan.get(pid)
        if spec is None:
            return outbox
        round_limit, keep = spec
        if round_no < round_limit:
            return outbox
        if round_no > round_limit:
            return {}
        if keep is None:
            return outbox
        kept = {}
        for slot, destination in enumerate(sorted(outbox)):
            if slot >= keep:
                break
            kept[destination] = outbox[destination]
        return kept


def fraction_corrupted(n: int, fraction: float, seed: int = 0) -> set[int]:
    """Seeded corrupted-set helper for the synchronous adversaries."""
    check_fraction("fraction", fraction, inclusive_high=False)
    count = int(fraction * n)
    return set(SplittableRNG(seed).split("sync-corrupt")
               .sample(range(n), count))
