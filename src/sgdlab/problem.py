"""Synthetic strongly convex finite-sum problems with certified constants.

A problem is f(x) = (1/n) * sum_i f_i(x) where every component is either a
quadratic  f_i(x) = 0.5 x'A_i x - b_i'x  or a ridge-regularized logistic loss
f_i(x) = log(1 + exp(-y_i a_i'x)) + 0.5*ridge*||x||^2.  All gradients are
analytic; L, mu and x* are computed exactly (quadratic) or from certified
closed forms and Newton's method (logistic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

try:  # np.einsum runs this C routine; calling it directly skips about 1 us of dispatch per call
    from numpy._core.multiarray import c_einsum as einsum
except ImportError:  # numpy < 2: the same computation through np.einsum
    einsum = np.einsum

SYMMETRY_ATOL = 1e-12
OPT_GRAD_RTOL = 1e-10
LOGISTIC_OPT_TOL = 1e-12


class ProblemError(ValueError):
    """Invalid or rejected problem (e.g. not strongly convex)."""


def _sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    # tanh form is stable for large |z|
    return 0.5 * (1.0 + np.tanh(0.5 * z))


class FiniteSumProblem:
    """Base class; concrete families are QuadraticSum and LogisticSum, which define eval_f and grad_i."""

    n: int
    d: int
    family: str

    def eval_full_grad(self, x: np.ndarray) -> np.ndarray:
        """Exact average of all component gradients at one point."""
        self._check_dim(x)
        return self.full_grads(x)

    def full_grads(self, X: np.ndarray) -> np.ndarray:
        """Full gradient at every row of X (..., d), fixed reduction order."""
        g = einsum("...nd->...d", self.component_grads(X))
        g /= self.n
        return g

    def component_grads(self, x: np.ndarray) -> np.ndarray:
        """All component gradients: (n, d) at one point, (..., n, d) at a batch (..., d)."""
        return self.grad_i(slice(None), np.asarray(x)[..., None, :])

    def grad_i(self, i, x: np.ndarray) -> np.ndarray:
        """Gradients of components i at x, broadcasting their leading axes, unchecked.

        i is an index, index array or slice into the n components and x has
        last axis d; the caller guarantees both, as the estimators do for the
        indices they draw themselves; no range or shape check runs here.
        Batched contractions use einsum (np.einsum's C routine): its rows do
        not depend on how many rows share the call, which keeps trajectories
        independent of batching.  The result is a new array.
        """
        raise NotImplementedError

    def _check_dim(self, x: np.ndarray) -> None:
        if np.shape(x)[-1:] != (self.d,):
            raise ValueError(f"expected vectors of dimension {self.d}, got shape {np.shape(x)}")


@dataclass
class QuadraticSum(FiniteSumProblem):
    """Average of quadratics 0.5 x'A_i x - b_i'x with symmetric PSD A_i."""

    A: np.ndarray  # (n, d, d)
    b: np.ndarray  # (n, d)
    family: str = field(default="quadratic", init=False)

    def __post_init__(self) -> None:
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.A.ndim != 3 or self.A.shape[1] != self.A.shape[2]:
            raise ProblemError(f"A must be (n, d, d), got {self.A.shape}")
        if self.b.shape != self.A.shape[:2]:
            raise ProblemError(f"b must be (n, d) = {self.A.shape[:2]}, got {self.b.shape}")
        self.n, self.d = self.b.shape
        if self.n < 1 or self.d < 1:
            raise ProblemError("need n >= 1 and d >= 1")
        if not (np.isfinite(self.A).all() and np.isfinite(self.b).all()):
            raise ProblemError("matrices and offsets must be finite")
        skew = np.abs(self.A - self.A.transpose(0, 2, 1)).max()
        if skew > SYMMETRY_ATOL:
            raise ProblemError(f"component matrices not symmetric (max |A - A'| = {skew:g})")
        # cached averages for fast objective and full-gradient evaluation
        self._A_mean = self.A.sum(axis=0) / self.n
        self._b_mean = self.b.sum(axis=0) / self.n

    def grad_i(self, i, x: np.ndarray) -> np.ndarray:
        if isinstance(i, slice):
            A, b = self.A[i], self.b[i]
        else:
            A, b = self.A.take(i, axis=0), self.b.take(i, axis=0)
        g = einsum("...ij,...j->...i", A, x)
        g -= b
        return g

    def eval_f(self, x: np.ndarray) -> float:
        self._check_dim(x)
        return float(0.5 * x @ (self._A_mean @ x) - self._b_mean @ x)

    def full_grads(self, X: np.ndarray) -> np.ndarray:
        g = einsum("ij,...j->...i", self._A_mean, X)
        g -= self._b_mean
        return g


@dataclass
class LogisticSum(FiniteSumProblem):
    """Average of logistic losses on (a_i, y_i) with an L2 ridge term."""

    features: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,), entries in {-1, +1}
    ridge: float

    family: str = field(default="logistic", init=False)

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        if self.features.ndim != 2:
            raise ProblemError(f"features must be (n, d), got {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ProblemError("labels must be a vector of length n")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ProblemError("labels must be -1 or +1")
        if not np.isfinite(self.features).all():
            raise ProblemError("features must be finite")
        self.ridge = float(self.ridge)
        if not (math.isfinite(self.ridge) and self.ridge >= 0):
            raise ProblemError(f"ridge coefficient must be finite and >= 0, got {self.ridge:g}")
        self.n, self.d = self.features.shape
        if self.n < 1 or self.d < 1:
            raise ProblemError("need n >= 1 and d >= 1")
        # signed features y_i a_i: labels are +-1, so every sign flip below is exact
        self._signed = self.labels[:, None] * self.features

    def _margins(self, x: np.ndarray) -> np.ndarray:
        return self.labels * (self.features @ x)

    def grad_i(self, i, x: np.ndarray) -> np.ndarray:
        # -y s(-t) a with t = y a'x and s(z) = (1 + tanh(z/2)) / 2, from the signed features ya
        ya = self._signed[i] if isinstance(i, slice) else self._signed.take(i, axis=0)
        c = np.tanh(-0.5 * einsum("...j,...j->...", ya, x))
        c += 1.0
        c *= -0.5
        g = c[..., None] * ya
        g += self.ridge * x
        return g

    def eval_f(self, x: np.ndarray) -> float:
        self._check_dim(x)
        t = self._margins(x)
        return float(np.mean(np.logaddexp(0.0, -t)) + 0.5 * self.ridge * (x @ x))


@dataclass(frozen=True)
class ProblemConstants:
    """Certified constants of a problem: smoothness, curvature, optimum.

    sigma_star_sq = (1/n) sum_i ||grad f_i(x*)||^2 is the sampling variance at
    the optimum (the compressed-gradient literature calls it zeta*^2).
    grads_at_star caches every component gradient at x* for estimators that
    need them.
    """

    L: float
    mu: float
    L_i: np.ndarray
    L_max: float
    x_star: np.ndarray
    f_star: float
    sigma_star_sq: float
    grads_at_star: np.ndarray  # (n, d)
    min_curv_dir: np.ndarray | None = None  # unit eigenvector of the smallest average curvature


def _eigh_solve(evals: np.ndarray, evecs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # solve (V diag(evals) V') x = rhs via the eigendecomposition
    return evecs @ ((evecs.T @ rhs) / evals)


def _logistic_optimum(problem: LogisticSum) -> np.ndarray:
    """Newton's method from x = 0 with the Hessian A' diag(s(1-s)) A / n + ridge I.

    Each step x - t H^{-1} g halves t from 1 until ||grad f|| <= (1 - t/2) ||g||:
    the Newton direction descends ||grad f||^2 everywhere, while a test on f
    stalls once f stops changing in floating point.  Stops at ||g|| <=
    LOGISTIC_OPT_TOL max(1, ||x||), at the round-off floor (no t >= 2^-50
    passes) or after 100 steps; compute_constants certifies the result.
    """
    A, x = problem.features, np.zeros(problem.d)
    g = problem.eval_full_grad(x)
    for _ in range(100):
        g_norm = float(np.linalg.norm(g))
        if g_norm <= LOGISTIC_OPT_TOL * max(1.0, float(np.linalg.norm(x))):
            break
        m = problem._margins(x)
        hess = (A.T * (_sigmoid(m) * _sigmoid(-m))) @ A / problem.n + problem.ridge * np.eye(problem.d)
        direction = np.linalg.solve(hess, g)
        for t in 0.5 ** np.arange(51):
            x_new = x - t * direction
            g_new = problem.eval_full_grad(x_new)
            if np.linalg.norm(g_new) <= (1.0 - 0.5 * t) * g_norm:
                break
        else:
            break
        x, g = x_new, g_new
    return x


def compute_constants(problem: FiniteSumProblem) -> ProblemConstants:
    """Certify L, mu, per-component L_i, L_max, and the optimum of a problem.

    Quadratic: eigenvalues of the component and average matrices; x* solved
    through the eigendecomposition of the average matrix.  Logistic: L_i =
    0.25 ||a_i||^2 + ridge, L = 0.25 lmax((1/n) sum a_i a_i') + ridge, and
    mu = ridge (the only globally valid curvature lower bound); x* found by
    Newton's method.

    Raises ProblemError when mu is not strictly positive or x* fails the
    certificate ||grad f(x*)|| <= OPT_GRAD_RTOL max(1, ||x*||) < inf.
    """
    if isinstance(problem, QuadraticSum):
        L_i = np.array([np.linalg.eigvalsh(problem.A[k])[-1] for k in range(problem.n)])
        evals, evecs = np.linalg.eigh(problem._A_mean)
        mu = float(evals[0])
        L = float(evals[-1])
        if mu <= 0:
            raise ProblemError(f"average curvature mu = {mu:g} is not strictly positive")
        x_star = _eigh_solve(evals, evecs, problem._b_mean)
        min_curv_dir = evecs[:, 0].copy()
        first = np.flatnonzero(min_curv_dir)[0]
        if min_curv_dir[first] < 0:
            min_curv_dir = -min_curv_dir
    elif isinstance(problem, LogisticSum):
        if problem.ridge <= 0:
            raise ProblemError("logistic problems need ridge > 0 for strong convexity")
        sq_norms = np.sum(problem.features**2, axis=1)
        L_i = 0.25 * sq_norms + problem.ridge
        gram = problem.features.T @ problem.features / problem.n
        L = float(0.25 * np.linalg.eigvalsh(gram)[-1] + problem.ridge)
        mu = problem.ridge
        x_star = _logistic_optimum(problem)
        min_curv_dir = None
    else:
        raise TypeError(f"unsupported problem type {type(problem).__name__}")

    L_max = float(np.max(L_i))
    grads_at_star = problem.component_grads(x_star)
    grad_norm = float(np.linalg.norm(grads_at_star.sum(axis=0) / problem.n))
    with np.errstate(over="ignore"):  # an x* whose norm overflows float64 cannot be certified
        norm_star = float(np.linalg.norm(x_star))
    if not grad_norm <= OPT_GRAD_RTOL * max(1.0, norm_star) < math.inf:
        raise ProblemError(f"optimum certificate failed: ||grad f(x*)|| = {grad_norm:g}, ||x*|| = {norm_star:g}")
    sigma_star_sq = float(np.mean(np.sum(grads_at_star**2, axis=1)))
    return ProblemConstants(
        L=L,
        mu=mu,
        L_i=L_i,
        L_max=L_max,
        x_star=x_star,
        f_star=problem.eval_f(x_star),
        sigma_star_sq=sigma_star_sq,
        grads_at_star=grads_at_star,
        min_curv_dir=min_curv_dir,
    )


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ProblemError(f"seed must be a non-negative integer, got {seed}")


def _random_rotation(d: int, rng: np.random.Generator) -> np.ndarray:
    # Haar-ish orthogonal matrix: QR of a Gaussian with sign-fixed diagonal
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def random_quadratic(
    n: int,
    d: int,
    *,
    eig_lo: float = 1.0,
    eig_hi: float = 3.0,
    shift_scale: float = 1.0,
    seed: int = 0,
) -> QuadraticSum:
    """Seeded random quadratic sum with prescribed per-component spectrum.

    Every A_i is Q' diag(linspace(eig_lo, eig_hi, d)) Q with an independent
    random rotation Q, so L_i = eig_hi for all i and the condition number of
    each component is eig_hi/eig_lo.  b_i = shift_scale * standard normal;
    shift_scale = 0 gives b = 0, i.e. all components share the minimizer 0
    (interpolation regime).
    """
    if n < 1 or d < 1:
        raise ProblemError("need n >= 1 and d >= 1")
    _check_seed(seed)
    if not 0 < eig_lo <= eig_hi:
        raise ProblemError("need 0 < eig_lo <= eig_hi")
    rng = np.random.default_rng(seed)
    spectrum = np.linspace(eig_lo, eig_hi, d) if d > 1 else np.array([eig_hi])
    A = np.empty((n, d, d))
    for i in range(n):
        Q = _random_rotation(d, rng)
        A[i] = (Q * spectrum) @ Q.T
        A[i] = 0.5 * (A[i] + A[i].T)  # kill round-off asymmetry
    b = shift_scale * rng.standard_normal((n, d)) if shift_scale != 0 else np.zeros((n, d))
    return QuadraticSum(A=A, b=b)


def random_logistic(
    n: int,
    d: int,
    *,
    ridge: float = 0.1,
    feature_scale: float = 1.0,
    seed: int = 0,
) -> LogisticSum:
    """Seeded random logistic problem with planted labels."""
    if n < 1 or d < 1:
        raise ProblemError("need n >= 1 and d >= 1")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    feats = feature_scale * rng.standard_normal((n, d))
    planted = rng.standard_normal(d)
    labels = np.where(feats @ planted >= 0, 1.0, -1.0)
    # flip a few labels so the data is not perfectly separable
    flips = rng.random(n) < 0.1
    labels[flips] = -labels[flips]
    return LogisticSum(features=feats, labels=labels, ridge=ridge)
