"""Seeded randomness with named substreams.

A single master seed drives the whole simulation, but each consumer asks
for a *named* substream (``rng.stream("attacks.worm")``).  Substream seeds
are derived by hashing the master seed with the name, so adding or removing
one consumer never perturbs the draws seen by another — a requirement for
the ablation experiments (E10) where safeguards toggle on and off while the
injected threats must stay identical.
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional, Sequence, TypeVar

T = TypeVar("T")


def _derive_seed(master_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class SeededRNG:
    """A reproducible random source with derived substreams."""

    def __init__(self, seed: int = 0, name: str = "root"):
        self.seed = int(seed)
        self.name = name
        self._random = random.Random(_derive_seed(self.seed, name))
        self._streams: dict[str, SeededRNG] = {}

    def stream(self, name: str) -> "SeededRNG":
        """Return (creating on first use) the substream called ``name``."""
        if name not in self._streams:
            self._streams[name] = SeededRNG(self.seed, f"{self.name}/{name}")
        return self._streams[name]

    # -- thin, typed delegations to random.Random ---------------------------

    def random(self) -> float:
        return self._random.random()

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        return self._random.randint(low, high)

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        return self._random.gauss(mu, sigma)

    def expovariate(self, rate: float) -> float:
        return self._random.expovariate(rate)

    def choice(self, seq: Sequence[T]) -> T:
        return self._random.choice(seq)

    def sample(self, seq: Sequence[T], k: int) -> list[T]:
        return self._random.sample(seq, k)

    def chance(self, probability: float) -> bool:
        """Return ``True`` with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._random.random() < probability

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        return self._random.choices(list(items), weights=list(weights), k=1)[0]

    def fork(self, salt: Optional[str] = None) -> "SeededRNG":
        """Return an independent child stream (not cached)."""
        return SeededRNG(self.seed, f"{self.name}/fork:{salt or self._random.random()}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SeededRNG(seed={self.seed}, name={self.name!r})"
