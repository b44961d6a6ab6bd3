"""Unbiased compression operators with certified variance parameter omega.

Every compressor Q satisfies E[Q(x)] = x and E||Q(x) - x||^2 <= omega ||x||^2.
Compression is split in two: draw takes the randomness for a whole array of
vectors from a generator in a fixed order, and apply compresses each vector
with its share of it, so apply(X, draw(rng, X.shape[:-1], d)) compresses
every row of X independently.  A random compressor's draw is its keep mask,
shape + (d,), and apply multiplies the scaled X by it; apply broadcasts X
against the leading shape of draws, so one vector shared by many draws is
never tiled.  Bernoulli fills its mask in blocks of rows through one reused
buffer of DRAW_BUFFER_BYTES, and rng.random fills rows in C order, so the
stream is the one of a single rng.random(shape + (d,)) call; rand_k reads
its kept coordinates off the swap targets of its shuffle.

Both exact moments are sums over coordinates, and each compressor keeps a
coordinate, scaled by s, with one probability p and drops it otherwise:
keep_scale(d) states (p, s) from the compressor's definition.  exact_moments
enumerates those two outcomes per coordinate in O(d), never calling draw or
apply: it is the independent oracle for both properties, exact for every d.
Each kind also declares sampled_above, the dimension above which the
verifier samples its checks instead of asking the oracle: never, except
Bernoulli above 16 coordinates, where the benchmark's verify_diana workload
pins sampled checks until the benchmark judges the kernel against the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DRAW_BUFFER_BYTES = 2**17  # uniforms of a Bernoulli draw held at a time


class Compressor:
    """Base class for unbiased compressors.

    A subclass is its kind's one declaration: its COMPRESSORS key name, a one-line summary for
    `sgdlab list`, sampled_above, and its dataclass fields, which are its config keys.
    """

    name = "base"
    summary = ""
    sampled_above = math.inf

    def omega(self, d: int) -> float:
        """Certified variance parameter for dimension d."""
        raise NotImplementedError

    def draw(self, rng: np.random.Generator, shape: tuple[int, ...], d: int) -> np.ndarray:
        """Randomness for compressing an array of shape `shape + (d,)`, one draw per vector."""
        raise NotImplementedError

    def apply(self, X: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """Compress each vector X[..., :] with its entry of draws; X broadcasts against draws.

        Returns a new array, which the caller may change in place.  A dropped
        coordinate is +0.0 or -0.0: the two compare equal, square to +0.0, and
        give the same bits when added to or subtracted from a nonzero number.
        """
        raise NotImplementedError

    def keep_scale(self, d: int) -> tuple[float, float]:
        """(p, s): each coordinate is kept and scaled by s with probability p, else set to 0."""
        raise NotImplementedError

    def exact_moments(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact (E[Q(x)], E||Q(x) - x||^2) of every vector x in X (..., d), by coordinate.

        Returns means p s X (..., d) and mean squared errors
        (p (s-1)^2 + (1 - p)) ||x||^2 (...); row i equals the call on X[i] bit for bit.
        """
        X = np.asarray(X, dtype=float)
        p, s = self.keep_scale(X.shape[-1])
        # 1 - p first: it is exact for p >= 1/2, where adding 1 to the small first term
        # and then subtracting p cancels digits; a sum along the last axis keeps rows independent
        return p * s * X, (p * (s - 1.0) ** 2 + (1.0 - p)) * (X * X).sum(axis=-1)


@dataclass(frozen=True)
class Identity(Compressor):
    """No compression: Q(x) = x, omega = 0."""

    name = "identity"
    summary = "no compression (omega = 0)"

    def omega(self, d: int) -> float:
        return 0.0

    def draw(self, rng: np.random.Generator, shape: tuple[int, ...], d: int) -> np.ndarray:
        return np.empty(shape + (0,), dtype=bool)  # nothing to draw

    def apply(self, X: np.ndarray, draws: np.ndarray) -> np.ndarray:
        lead = np.broadcast_shapes(X.shape[:-1], draws.shape[:-1])
        return np.array(np.broadcast_to(X, lead + X.shape[-1:]), dtype=float)

    def keep_scale(self, d: int) -> tuple[float, float]:
        return 1.0, 1.0


@dataclass(frozen=True)
class RandK(Compressor):
    """Keep a uniformly random k-subset of coordinates, rescaled by d/k.

    omega = d/k - 1.  The subset is the first k positions of a k-step partial
    Fisher-Yates shuffle of 0..d-1, so the draw sequence is fixed given the
    stream: swap j draws rng.integers(j, d) for every vector at once.
    """

    k: int
    name = "rand_k"
    summary = "keep a random k-subset scaled by d/k (omega = d/k - 1)"

    def _check(self, d: int) -> None:
        if not 1 <= self.k <= d:
            raise ValueError(f"rand_k needs 1 <= k <= d, got k={self.k}, d={d}")

    def omega(self, d: int) -> float:
        self._check(d)
        return d / self.k - 1.0

    def draw(self, rng: np.random.Generator, shape: tuple[int, ...], d: int) -> np.ndarray:
        """The keep mask, shape + (d,), with k True entries per vector.

        Swap j moves into position j the coordinate at position r_j =
        rng.integers(j, d, size=shape).  That coordinate is r_j itself unless an
        earlier swap i with r_i = r_j moved coordinate i there, so walking
        i = j-1 down to 0 finds it without a table of positions.
        """
        self._check(d)
        keep = np.zeros(shape + (d,), dtype=bool)
        rows = keep.reshape(-1, d)
        all_rows, swaps = np.arange(len(rows)), []
        for j in range(self.k):
            swaps.append(rng.integers(j, d, size=shape).reshape(-1))
            kept = swaps[j].copy()
            for i in range(j - 1, -1, -1):
                kept[kept == swaps[i]] = i
            rows[all_rows, kept] = True
        return keep

    def apply(self, X: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """mask * (X d/k): a dropped coordinate is 0.0 times x d/k, so -0.0 where x < 0.

        Where x d/k is inf or NaN (only after a gradient has overflowed) a
        dropped coordinate is NaN, not 0, and numpy warns outside the kernel's errstate.
        """
        return np.multiply(draws, X * (X.shape[-1] / self.k))

    def keep_scale(self, d: int) -> tuple[float, float]:
        """Each coordinate is in the k-subset with probability k/d, by symmetry."""
        self._check(d)
        return self.k / d, d / self.k


@dataclass(frozen=True)
class BernoulliScale(Compressor):
    """Keep each coordinate independently with probability q, scaled by 1/q.

    omega = 1/q - 1.
    """

    q: float
    name = "bernoulli"
    summary = "keep coordinates independently w.p. q scaled by 1/q (omega = 1/q - 1)"
    sampled_above = 16

    def __post_init__(self) -> None:
        if not 0 < self.q <= 1:
            raise ValueError(f"bernoulli keep probability must be in (0, 1], got {self.q}")

    def omega(self, d: int) -> float:
        return 1.0 / self.q - 1.0

    def draw(self, rng: np.random.Generator, shape: tuple[int, ...], d: int) -> np.ndarray:
        """The keep mask, shape + (d,): rng.random(shape + (d,)) < q, filled in blocks of rows."""
        keep = np.empty(shape + (d,), dtype=bool)
        rows = keep.reshape(-1, d)
        buf = np.empty((max(1, DRAW_BUFFER_BYTES // (8 * d)), d))
        for start in range(0, len(rows), len(buf)):
            part = buf[: len(rows) - start]
            rng.random(out=part)
            np.less(part, self.q, out=rows[start : start + len(part)])
        return keep

    def apply(self, X: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """mask * (X / q): a dropped coordinate is 0.0 times x/q, so -0.0 where x < 0.

        Multiplying by the mask is faster than selecting with np.where.  Where
        x/q is inf or NaN (only after a gradient has overflowed) a dropped
        coordinate is NaN, not 0, and numpy warns outside the kernel's errstate.
        """
        return np.multiply(draws, X / self.q)

    def keep_scale(self, d: int) -> tuple[float, float]:
        return self.q, 1.0 / self.q


COMPRESSORS: dict[str, type[Compressor]] = {cls.name: cls for cls in (Identity, RandK, BernoulliScale)}

