"""Seeded, stream-splittable randomness.

Deterministic replay is the backbone of the test suite: a simulation
run is a pure function of ``(configuration, seed)``.  To keep the
protocol coin flips, the adversary's choices, and any workload
generation statistically independent *and* individually reproducible,
every consumer derives its own child stream from a parent seed with a
stable label, instead of sharing one global ``random.Random``.

The derivation uses SHA-256 over ``(seed, label)``, so child streams do
not collide and do not depend on the order in which they are created.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator, Sequence, TypeVar

T = TypeVar("T")

_MASK_64 = (1 << 64) - 1


def derive_seed(seed: int, label: str) -> int:
    """Derive a 64-bit child seed from ``seed`` and a stable ``label``."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & _MASK_64


def derive_unit(seed: int, label: str) -> float:
    """A uniform float in ``[0, 1)``, pure in ``(seed, label)``.

    One seeded decision — a frame's fault coin, a retry's backoff
    jitter — with no stream behind it; draws of many values per key
    belong on a :class:`SplittableRNG` split instead.
    """
    return derive_seed(seed, label) / float(1 << 64)


class SplittableRNG:
    """A ``random.Random`` wrapper that can mint independent children.

    >>> root = SplittableRNG(7)
    >>> a = root.split("adversary")
    >>> b = root.split("peer-3")
    >>> a.randint(0, 9) == SplittableRNG(7).split("adversary").randint(0, 9)
    True
    """

    def __init__(self, seed: int) -> None:
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = seed & _MASK_64
        self._random = random.Random(self.seed)

    def split(self, label: str) -> "SplittableRNG":
        """Return a child RNG that only depends on ``(seed, label)``."""
        return SplittableRNG(derive_seed(self.seed, label))

    # -- thin pass-throughs to random.Random -------------------------------

    def random(self) -> float:
        """Return a uniform float in ``[0, 1)``."""
        return self._random.random()

    def randint(self, a: int, b: int) -> int:
        """Return a uniform integer in ``[a, b]``."""
        return self._random.randint(a, b)

    def randrange(self, n: int) -> int:
        """Return a uniform integer in ``[0, n)``."""
        return self._random.randrange(n)

    def uniform(self, a: float, b: float) -> float:
        """Return a uniform float in ``[a, b]``."""
        return self._random.uniform(a, b)

    def choice(self, seq: Sequence[T]) -> T:
        """Return a uniform element of ``seq``."""
        return self._random.choice(seq)

    def sample(self, population: Sequence[T], k: int) -> list[T]:
        """Return ``k`` distinct elements sampled without replacement."""
        return self._random.sample(population, k)

    def shuffle(self, items: list[T]) -> None:
        """Shuffle ``items`` in place.

        ``random.Random.shuffle``'s Fisher–Yates with its
        ``_randbelow`` (rejection sampling over ``getrandbits``)
        written inline: the same draws and the same permutation, one
        Python call fewer per element.  The property suite holds it
        equal to ``random.Random(seed).shuffle``.
        """
        getrandbits = self._random.getrandbits
        for i in reversed(range(1, len(items))):
            bound = i + 1
            width = bound.bit_length()
            j = getrandbits(width)
            while j >= bound:
                j = getrandbits(width)
            items[i], items[j] = items[j], items[i]

    def random_bits(self, count: int) -> list[int]:
        """Return ``count`` independent fair coin flips as 0/1 ints."""
        getrandbits = self._random.getrandbits
        return [getrandbits(1) for _ in range(count)]

    def geometric_delays(self, mean: float) -> Iterator[float]:
        """Yield an endless stream of exponential delays with ``mean``."""
        while True:
            yield self._random.expovariate(1.0 / mean)

    def __repr__(self) -> str:
        return f"SplittableRNG(seed={self.seed})"
