"""Unbiased compression operators with certified variance parameter omega.

Every compressor Q satisfies E[Q(x)] = x and E||Q(x) - x||^2 <= omega ||x||^2.
Compression is split in two: draw takes the randomness for a whole array of
vectors from a generator in a fixed order, and apply compresses each vector
with its share of it, so apply(X, draw(rng, X.shape[:-1], d)) compresses
every row of X independently.  apply broadcasts X against the leading shape
of draws, so one vector shared by many draws is never tiled.  Draws work
through one reused buffer of DRAW_BUFFER_BYTES: Bernoulli fills its keep mask
in blocks of rows, and rng.random fills rows in C order, so the stream is the
one of a single rng.random(shape + (d,)) call; rand_k runs its shuffle on
blocks of rows of a (rows, d) index table, never on a table for all vectors.

outcomes(d) lists every outcome s: the kept coordinates keep[s], scaled by one
common factor, with probability prob[s].  exact_moments sums over that table,
never calling draw or apply: it is the independent oracle for both properties.
The table has C(d, k) rows for rand_k and 2^d for Bernoulli, so above
RANDK_ENUM_LIMIT rows or BERNOULLI_ENUM_LIMIT coordinates outcomes raises
UnsupportedSizeError and the verifier samples instead.  Both moments are sums
over coordinates, so a per-coordinate enumeration could drop these limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RANDK_ENUM_LIMIT = 10**4
BERNOULLI_ENUM_LIMIT = 16
DRAW_BUFFER_BYTES = 2**17  # uniforms of a Bernoulli draw, or rand_k index table, held at a time


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
        """Compress each vector X[..., :] with its entry of draws; X broadcasts against draws."""
        raise NotImplementedError

    def outcomes(self, d: int) -> tuple[np.ndarray, np.ndarray, float]:
        """The outcome table for dimension d: keep (S, d) bool, prob (S,), scale.

        Outcome s maps x to scale * x on the coordinates keep[s] and to 0
        elsewhere.  Raises UnsupportedSizeError where the table is too large.
        """
        raise NotImplementedError

    def exact_moments(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact (E[Q(x)], E||Q(x) - x||^2) of every vector x in X (..., d), summed over the outcome table.

        Returns means (..., d) and mean squared errors (...); row i equals the
        call on X[i] bit for bit.  Memory is O(S (d + rows)), never (rows, S, d).
        """
        X = np.asarray(X, dtype=float)
        keep, prob, scale = self.outcomes(X.shape[-1])
        # squared error of outcome s: a kept coordinate adds (scale - 1)^2 x_j^2, a dropped one x_j^2
        err = np.einsum("sd,...d->...s", np.where(keep, (scale - 1.0) ** 2, 1.0), X * X)
        mean = scale * np.einsum("s,sd->d", prob, keep) * X
        return mean, (err * prob).sum(axis=-1)  # a sum along the last axis keeps rows independent

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
        return np.array(np.broadcast_to(X, draws.shape[:-1] + X.shape[-1:]), dtype=float)

    def outcomes(self, d: int) -> tuple[np.ndarray, np.ndarray, float]:
        return np.ones((1, d), dtype=bool), np.ones(1), 1.0

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
        """The kept coordinates, shape + (k,).

        The k swap targets rng.integers(j, d, size=shape) are taken first, in
        order of j, into the output; the shuffle then runs on row blocks of
        one reused (rows, d) index table of DRAW_BUFFER_BYTES.
        """
        self._check(d)
        m = math.prod(shape)
        out = np.empty((m, self.k), dtype=np.int64)
        for j in range(self.k):
            out[:, j] = rng.integers(j, d, size=shape).reshape(m)
        table = np.empty((max(1, DRAW_BUFFER_BYTES // (8 * d)), d), dtype=np.int64)
        all_rows = np.arange(len(table))
        for start in range(0, m, len(table)):
            block = out[start : start + len(table)]
            idx, rows = table[: len(block)], all_rows[: len(block)]
            idx[:] = np.arange(d)
            for j, r in enumerate(block.T):
                idx[rows, j], idx[rows, r] = idx[rows, r], idx[rows, j]
            block[:] = idx[:, : self.k]
        return out.reshape(shape + (self.k,))

    def apply(self, X: np.ndarray, draws: np.ndarray) -> np.ndarray:
        d = X.shape[-1]
        lead = np.broadcast_shapes(X.shape[:-1], draws.shape[:-1])
        X, keep = np.broadcast_to(X, lead + (d,)), np.broadcast_to(draws, lead + (self.k,))
        out = np.zeros(lead + (d,))
        np.put_along_axis(out, keep, np.take_along_axis(X, keep, axis=-1) * (d / self.k), axis=-1)
        return out

    def outcomes(self, d: int) -> tuple[np.ndarray, np.ndarray, float]:
        """The C(d, k) subsets in lexicographic order, each with probability 1/C(d, k)."""
        self._check(d)
        total = math.comb(d, self.k)
        if total > RANDK_ENUM_LIMIT:
            raise UnsupportedSizeError(f"C({d},{self.k}) = {total} outcomes exceed {RANDK_ENUM_LIMIT}")
        # increasing index prefixes that still extend to k indices; position j takes last + 1 .. d - k + j
        idx = np.arange(d - self.k + 1)[:, None]
        for j in range(1, self.k):
            last = idx[:, -1]
            counts = d - self.k + j - last
            ends = np.cumsum(counts)
            nxt = np.arange(ends[-1]) + np.repeat(last + 1 - (ends - counts), counts)
            idx = np.column_stack([np.repeat(idx, counts, axis=0), nxt])
        keep = np.zeros((total, d), dtype=bool)
        keep[np.arange(total)[:, None], idx] = True
        return keep, np.full(total, 1.0 / total), d / self.k

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
        return np.where(draws, X / self.q, 0.0)

    def outcomes(self, d: int) -> tuple[np.ndarray, np.ndarray, float]:
        """The 2^d keep masks, row s keeping the coordinates of the set bits of s."""
        if d > BERNOULLI_ENUM_LIMIT:
            raise UnsupportedSizeError(f"2^{d} outcomes exceed 2^{BERNOULLI_ENUM_LIMIT}")
        keep = ((np.arange(2**d)[:, None] >> np.arange(d)) & 1).astype(bool)
        kept = keep.sum(axis=1)
        return keep, self.q**kept * (1.0 - self.q) ** (d - kept), 1.0 / self.q

    def describe(self) -> str:
        return f"bernoulli (q = {self.q:g}, omega = 1/q - 1)"

