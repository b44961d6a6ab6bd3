"""Unbiased compression operators with certified variance parameter omega.

Every compressor Q satisfies E[Q(x)] = x and E||Q(x) - x||^2 <= omega ||x||^2.
Compression is split in two: draw takes the randomness for a whole array of
vectors from a generator in a fixed order, and apply compresses each vector
with its share of it; compress_batch is apply(X, draw(...)).  exact_moments
enumerates the full outcome space and is the independent oracle for both
properties wherever enumeration is tractable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

RANDK_ENUM_LIMIT = 10**4
BERNOULLI_ENUM_LIMIT = 16


class UnsupportedSizeError(ValueError):
    """Raised when exact enumeration of the outcome space is too large."""


class Compressor:
    """Base class for unbiased compressors."""

    name: str = "base"

    def omega(self, d: int) -> float:
        """Certified variance parameter for dimension d."""
        raise NotImplementedError

    def draw(self, rng: np.random.Generator, shape: tuple[int, ...], d: int) -> np.ndarray:
        """Randomness for compressing an array of shape `shape + (d,)`, one draw per vector."""
        raise NotImplementedError

    def apply(self, X: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """Compress each vector X[..., :] with its entry of draws."""
        raise NotImplementedError

    def compress_batch(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Compress each row of X with an independent draw from rng."""
        X = np.asarray(X, dtype=float)
        return self.apply(X, self.draw(rng, X.shape[:-1], X.shape[-1]))

    def compress(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Compress a single vector."""
        return self.compress_batch(np.asarray(x, dtype=float)[None, :], rng)[0]

    def exact_moments(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """Exact (E[Q(x)], E||Q(x) - x||^2) by enumerating all outcomes."""
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


@dataclass(frozen=True)
class Identity(Compressor):
    """No compression: Q(x) = x, omega = 0."""

    name: str = "identity"

    def omega(self, d: int) -> float:
        return 0.0

    def draw(self, rng: np.random.Generator, shape: tuple[int, ...], d: int) -> np.ndarray:
        return np.empty(shape + (0,), dtype=bool)  # nothing to draw

    def apply(self, X: np.ndarray, draws: np.ndarray) -> np.ndarray:
        return np.array(X, dtype=float, copy=True)

    def exact_moments(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        return np.array(x, dtype=float, copy=True), 0.0

    def describe(self) -> str:
        return "identity (omega = 0)"


@dataclass(frozen=True)
class RandK(Compressor):
    """Keep a uniformly random k-subset of coordinates, rescaled by d/k.

    omega = d/k - 1.  The subset is drawn by a k-step Fisher-Yates partial
    shuffle so that the draw sequence is fixed given the stream: step j draws
    rng.integers(j, d) for every vector at once.
    """

    k: int
    name: str = "rand_k"

    def _check(self, d: int) -> None:
        if not 1 <= self.k <= d:
            raise ValueError(f"rand_k needs 1 <= k <= d, got k={self.k}, d={d}")

    def omega(self, d: int) -> float:
        self._check(d)
        return d / self.k - 1.0

    def draw(self, rng: np.random.Generator, shape: tuple[int, ...], d: int) -> np.ndarray:
        """The kept coordinates, shape + (k,)."""
        self._check(d)
        m = math.prod(shape)
        idx = np.tile(np.arange(d), (m, 1))
        rows = np.arange(m)
        for j in range(self.k):
            r = rng.integers(j, d, size=shape).reshape(m)
            idx[rows, j], idx[rows, r] = idx[rows, r], idx[rows, j]
        return idx[:, : self.k].reshape(shape + (self.k,))

    def apply(self, X: np.ndarray, draws: np.ndarray) -> np.ndarray:
        d = X.shape[-1]
        flat, keep = X.reshape(-1, d), draws.reshape(-1, self.k)
        rows = np.arange(len(flat))[:, None]
        out = np.zeros_like(flat)
        out[rows, keep] = flat[rows, keep] * (d / self.k)
        return out.reshape(X.shape)

    def exact_moments(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        x = np.asarray(x, dtype=float)
        d = x.size
        self._check(d)
        total = math.comb(d, self.k)
        if total > RANDK_ENUM_LIMIT:
            raise UnsupportedSizeError(f"C({d},{self.k}) = {total} outcomes exceed {RANDK_ENUM_LIMIT}")
        prob = 1.0 / total
        mean = np.zeros(d)
        mse = 0.0
        for subset in itertools.combinations(range(d), self.k):
            out = np.zeros(d)
            out[list(subset)] = x[list(subset)] * (d / self.k)
            mean += prob * out
            mse += prob * float(np.sum((out - x) ** 2))
        return mean, mse

    def describe(self) -> str:
        return f"rand_k (k = {self.k}, omega = d/k - 1)"


@dataclass(frozen=True)
class BernoulliScale(Compressor):
    """Keep each coordinate independently with probability q, scaled by 1/q.

    omega = 1/q - 1.
    """

    q: float
    name: str = "bernoulli"

    def __post_init__(self) -> None:
        if not 0 < self.q <= 1:
            raise ValueError(f"bernoulli keep probability must be in (0, 1], got {self.q}")

    def omega(self, d: int) -> float:
        return 1.0 / self.q - 1.0

    def draw(self, rng: np.random.Generator, shape: tuple[int, ...], d: int) -> np.ndarray:
        """The keep mask, shape + (d,)."""
        return rng.random(shape + (d,)) < self.q

    def apply(self, X: np.ndarray, draws: np.ndarray) -> np.ndarray:
        return np.where(draws, X / self.q, 0.0)

    def exact_moments(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        x = np.asarray(x, dtype=float)
        d = x.size
        if d > BERNOULLI_ENUM_LIMIT:
            raise UnsupportedSizeError(f"2^{d} outcomes exceed 2^{BERNOULLI_ENUM_LIMIT}")
        mean = np.zeros(d)
        mse = 0.0
        for mask_bits in range(2**d):
            mask = np.array([(mask_bits >> j) & 1 for j in range(d)], dtype=bool)
            nkeep = int(mask.sum())
            prob = self.q**nkeep * (1.0 - self.q) ** (d - nkeep)
            out = np.where(mask, x / self.q, 0.0)
            mean += prob * out
            mse += prob * float(np.sum((out - x) ** 2))
        return mean, mse

    def describe(self) -> str:
        return f"bernoulli (q = {self.q:g}, omega = 1/q - 1)"

