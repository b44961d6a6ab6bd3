"""Unbiased gradient estimators, their variance trackers, and parameter certificates.

Each estimator is one batched rule g = step(x, state, randomness) with
E[g | x, state] = grad f(x), and carries a certificate (A, B, C, D1, D2, rho)
such that

    E||g||^2          <= 2A (f(x) - f*) + B sigma_k^2 + D1
    E[sigma_{k+1}^2]  <= (1 - rho) sigma_k^2 + 2C (f(x) - f*) + D2

where sigma_k^2 is the estimator's shift-quality tracker (identically zero for
estimators without variance reduction).

draw(problem, rng, m) takes the randomness of m steps of one trajectory (or of
m replicas of one step) from rng in a fixed order; step(problem, constants, X,
state, draws) returns the estimates G (R, d) at the R rows of X and advances
the batched state in place.  Row r of the result depends only on row r of the
inputs.  X may also be one row (1, d) shared by all R rows of the state and
draws, as for the replicas of one verifier point: the result is then, bit for
bit, the one for X tiled R times, and G may keep one row where it depends on
neither (gd).  G belongs to the caller: it shares no memory with X, the
state, the draws, the problem or the constants, so the caller may scale it
in place.  Draw order per kind (m entries each, in this order):

    gd                  nothing
    sgd, sgd_star       rng.integers(n, size=m)
    lsvrg               rng.integers(n, size=m), then rng.random(m)
    noisy_gd            rng.standard_normal((m, d))
    rcd                 rng.integers(d, size=m)
    cdgd, diana         the compressor's draw for shape (m, n)

exact_moments(problem, constants, state, x) is the exact oracle: it returns
(E[g], E||g||^2, E[sigma_{k+1}^2]) at one state in closed form or by
enumerating the finite outcome space, with None for sigma_next where the kind
has no sigma.  Compressed kinds sum their compressor's per-coordinate moments,
so they are exact for every d; the assumption verifier still samples above
the compressor's sampled_above.  The oracle never calls draw or step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .compressor import Compressor, Identity
from .problem import FiniteSumProblem, ProblemConstants, einsum


@dataclass(frozen=True)
class Certificate:
    """Parameter tuple certifying the two estimator inequalities above (defaults: no sigma)."""

    A: float
    B: float = 0.0
    C: float = 0.0
    D1: float = 0.0
    D2: float = 0.0
    rho: float = 1.0
    has_sigma: bool = False

    def __post_init__(self) -> None:
        for name in ("A", "B", "C", "D1", "D2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"certificate constant {name} must be finite and >= 0, got {v}")
        if not 0 < self.rho <= 1:
            raise ValueError(f"certificate rho must be in (0, 1], got {self.rho}")
        if not self.has_sigma and (self.B != 0 or self.C != 0 or self.D2 != 0):
            raise ValueError("B, C, D2 must be 0 when the sigma sequence is identically zero")


@dataclass
class EstimatorState:
    """Estimator state of one trajectory, or of a batch of R trajectories.

    Shifted methods keep one shift per component: shifts[i] is grad f_i(w) at
    the LSVRG reference point w, or the learned DIANA shift h_i.  shift_mean
    is the mean of the shifts where the method reads it (LSVRG's grad f(w)),
    else None; stateless methods leave both None.  sigma_sq always equals the
    shift quality (1/n) sum_i ||shifts[i] - grad f_i(x*)||^2.  step tracks it
    because an LSVRG refresh updates it in O(hits n d), where forming it from
    the shifts would cost O(R n d) at every recorded step.

    One state holds a float sigma_sq, shifts (n, d) and shift_mean (d); a
    batch holds the same fields with a leading axis of length R, and rows =
    np.arange(R), with which a step indexes one entry per row.  init_state
    and the exact oracles use one state, step advances a batch.
    """

    sigma_sq: float | np.ndarray = 0.0
    shifts: np.ndarray | None = None
    shift_mean: np.ndarray | None = None
    rows: np.ndarray | None = None

    def copy(self) -> "EstimatorState":
        cp = lambda a: None if a is None else a.copy()
        return EstimatorState(self.sigma_sq, cp(self.shifts), cp(self.shift_mean), cp(self.rows))

    def tile(self, R: int) -> "EstimatorState":
        """A batch of R copies of this state."""
        rep = lambda a: None if a is None else np.repeat(a[None], R, axis=0)
        return EstimatorState(
            np.full(R, float(self.sigma_sq)), rep(self.shifts), rep(self.shift_mean), np.arange(R)
        )

    def with_shifts(self, shifts: np.ndarray, constants: ProblemConstants) -> "EstimatorState":
        """One state with the shift table shifts (n, d); sigma_sq and any shift_mean follow from it."""
        mean = None if self.shift_mean is None else shifts.mean(axis=0)
        return EstimatorState(shift_quality(shifts, constants), shifts, mean)

    def row(self, r: int) -> "EstimatorState":
        """A copy of state r of this batch."""
        cp = lambda a: None if a is None else a[r].copy()
        return EstimatorState(float(self.sigma_sq[r]), cp(self.shifts), cp(self.shift_mean))


def shift_quality(shifts: np.ndarray, constants: ProblemConstants) -> float | np.ndarray:
    """(1/n) sum_i ||shifts[i] - grad f_i(x*)||^2, the sigma_k^2 of a shift table.

    shifts is one table (n, d) or a batch of them (R, n, d).
    """
    diff = shifts - constants.grads_at_star
    return einsum("...ij,...ij->...", diff, diff) / diff.shape[-2]


class Estimator:
    """Base class; subclasses implement one batched sampling rule each.

    A subclass is its kind's one declaration: its ESTIMATORS key name, a one-line summary, the
    certificate formula that `sgdlab list` prints, and its dataclass fields, which are its config keys.
    """

    name = "base"
    summary = ""
    formula = ""

    def init_state(
        self, problem: FiniteSumProblem, constants: ProblemConstants, x0: np.ndarray
    ) -> EstimatorState:
        return EstimatorState()

    def draw(self, problem: FiniteSumProblem, rng: np.random.Generator, m: int) -> tuple[np.ndarray, ...]:
        """Randomness of m steps, in the documented order; every array has leading axis m."""
        return ()

    def step(
        self,
        problem: FiniteSumProblem,
        constants: ProblemConstants,
        X: np.ndarray,
        state: EstimatorState,
        draws,
    ) -> np.ndarray:
        """Estimates G (R, d) at the rows of X (R, d) or (1, d); advances the batched state in place.

        draws holds one entry per row along the leading axis of each array; a
        one-row X is shared by all rows.  G is a new array that the caller owns.
        """
        raise NotImplementedError

    def certificate(self, problem: FiniteSumProblem, constants: ProblemConstants) -> Certificate:
        raise NotImplementedError

    def exact_moments(self, problem, constants, state, x) -> tuple:
        """Exact (E[g], E||g||^2, E[sigma_next^2]) at one state and x; sigma_next is None without sigma."""
        raise NotImplementedError

    def resolved_fields(self, d: int) -> dict[str, float]:
        """The values of the 'auto' (None) fields at dimension d, as a manifest records them."""
        return {}


@dataclass
class FullGradient(Estimator):
    """Deterministic gradient descent: g = grad f(x)."""

    name = "gd"
    summary = "full gradient descent"
    formula = "A=L, B=0, C=0, D1=0, D2=0, rho=1"

    def step(self, problem, constants, X, state, draws):
        return problem.full_grads(X)

    def certificate(self, problem, constants):
        return Certificate(A=constants.L)

    def exact_moments(self, problem, constants, state, x):
        g = problem.eval_full_grad(x)
        return g, float(g @ g), None


@dataclass
class UniformSGD(Estimator):
    """g = grad f_i(x) with i uniform; certified via expected smoothness L_max."""

    name = "sgd"
    summary = "uniform-sampling SGD"
    formula = "A=2*L_max, B=0, C=0, D1=2*sigma_star^2, D2=0, rho=1"

    def draw(self, problem, rng, m):
        return (rng.integers(problem.n, size=m),)

    def step(self, problem, constants, X, state, draws):
        (i,) = draws
        return problem.grad_i(i, X)

    def certificate(self, problem, constants):
        return Certificate(A=2.0 * constants.L_max, D1=2.0 * constants.sigma_star_sq)

    def exact_moments(self, problem, constants, state, x):
        grads = problem.component_grads(x)
        return grads.sum(axis=0) / problem.n, float(np.mean(np.sum(grads**2, axis=1))), None


@dataclass
class NoisyGradient(Estimator):
    """g = grad f(x) + sigma * z with z standard Gaussian per coordinate.

    Total injected variance is d * sigma^2, which is the D1 constant.
    """

    sigma: float = 0.1
    name = "noisy_gd"
    summary = "gradient descent with Gaussian noise of level sigma per coordinate"
    formula = "A=L, B=0, C=0, D1=d*sigma^2, D2=0, rho=1"

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("noise level sigma must be >= 0")

    def draw(self, problem, rng, m):
        return (rng.standard_normal((m, problem.d)),)

    def step(self, problem, constants, X, state, draws):
        (z,) = draws
        return problem.full_grads(X) + self.sigma * z

    def certificate(self, problem, constants):
        return Certificate(A=constants.L, D1=problem.d * self.sigma**2)

    def exact_moments(self, problem, constants, state, x):
        g = problem.eval_full_grad(x)
        return g, float(g @ g + problem.d * self.sigma**2), None


@dataclass
class SGDStar(Estimator):
    """Idealized variance reduction: g = grad f_i(x) - grad f_i(x*)."""

    name = "sgd_star"
    summary = "SGD shifted by the optimal gradients (not implementable in practice)"
    formula = "A=L_max, B=0, C=0, D1=0, D2=0, rho=1"

    def draw(self, problem, rng, m):
        return (rng.integers(problem.n, size=m),)

    def step(self, problem, constants, X, state, draws):
        (i,) = draws
        G = problem.grad_i(i, X)
        G -= constants.grads_at_star.take(i, axis=0)
        return G

    def certificate(self, problem, constants):
        return Certificate(A=constants.L_max)

    def exact_moments(self, problem, constants, state, x):
        rows = problem.component_grads(x) - constants.grads_at_star
        return rows.sum(axis=0) / problem.n, float(np.mean(np.sum(rows**2, axis=1))), None


@dataclass
class LSVRG(Estimator):
    """Loopless SVRG: g = grad f_i(x) - grad f_i(w) + grad f(w).

    The reference point w is refreshed to the current iterate with probability
    p each step.  A draw of m steps takes the m component indices first and
    the m refresh coins second, from the same stream.
    """

    p: float = 0.1
    name = "lsvrg"
    summary = "loopless SVRG (refresh probability p)"
    formula = "A=2*L_max, B=2, C=p*L_max, D1=0, D2=0, rho=p"

    def __post_init__(self) -> None:
        if not 0 < self.p <= 1:
            raise ValueError(f"refresh probability p must be in (0, 1], got {self.p}")

    def init_state(self, problem, constants, x0):
        shifts = problem.component_grads(x0)
        return EstimatorState(shift_quality(shifts, constants), shifts, problem.full_grads(x0))

    def draw(self, problem, rng, m):
        return rng.integers(problem.n, size=m), rng.random(m)

    def step(self, problem, constants, X, state, draws):
        i, coin = draws
        G = problem.grad_i(i, X)
        G -= state.shifts[state.rows, i]
        G += state.shift_mean
        hit = (coin < self.p).nonzero()[0]
        if hit.size:
            # re-anchor the hit rows at their iterates; a one-row X is shared by every row
            W = X if len(X) == 1 else X[hit]
            shifts = state.shifts[hit] = problem.component_grads(W)
            state.sigma_sq[hit] = shift_quality(shifts, constants)
            state.shift_mean[hit] = problem.full_grads(W)
        return G

    def certificate(self, problem, constants):
        return Certificate(
            A=2.0 * constants.L_max, B=2.0, C=self.p * constants.L_max, rho=self.p, has_sigma=True
        )

    def exact_moments(self, problem, constants, state, x):
        grads = problem.component_grads(x)
        rows = grads - state.shifts + state.shift_mean
        # two-branch expectation over the refresh coin
        sigma_next = (1.0 - self.p) * state.sigma_sq + self.p * shift_quality(grads, constants)
        return rows.sum(axis=0) / problem.n, float(np.mean(np.sum(rows**2, axis=1))), sigma_next


@dataclass
class CDGD(Estimator):
    """Compressed distributed GD: g = (1/n) sum_i Q(grad f_i(x)).

    Workers compress independently; no shift learning, so heterogeneous optima
    leave a compression-noise floor proportional to omega * sigma*^2 / n.
    """

    compressor: Compressor = field(default_factory=Identity)
    name = "cdgd"
    summary = "compressed distributed GD: workers average compressed gradients"
    formula = "A=L+2*omega*L_max/n, B=0, C=0, D1=2*omega*sigma_star^2/n, D2=0, rho=1"

    def draw(self, problem, rng, m):
        return (self.compressor.draw(rng, (m, problem.n), problem.d),)

    def step(self, problem, constants, X, state, draws):
        (q,) = draws
        G = einsum("rnd->rd", self.compressor.apply(problem.component_grads(X), q))
        G /= problem.n
        return G

    def certificate(self, problem, constants):
        omega = self.compressor.omega(problem.d)
        return Certificate(
            A=constants.L + 2.0 * omega * constants.L_max / problem.n,
            D1=2.0 * omega * constants.sigma_star_sq / problem.n,
        )

    def exact_moments(self, problem, constants, state, x):
        grads = problem.component_grads(x)
        means, mses = self.compressor.exact_moments(grads)
        # independent workers: E||g||^2 = ||grad f(x)||^2 + (1/n^2) sum_i mse_i
        full = grads.sum(axis=0) / problem.n
        return means.sum(axis=0) / problem.n, float(full @ full + mses.sum() / problem.n**2), None


@dataclass
class DIANA(Estimator):
    """Distributed compression with learned shifts h_i.

    Per worker: Delta_i = Q(grad f_i(x) - h_i), g_i = h_i + Delta_i, and
    h_i <- h_i + alpha * Delta_i.  alpha = None resolves to 1/(1 + omega).
    """

    compressor: Compressor = field(default_factory=Identity)
    alpha: float | None = None
    name = "diana"
    summary = "DIANA: workers compress differences to learned shifts (alpha, auto = 1/(1 + omega))"
    formula = "A=2*L+2*omega*L_max/n, B=2+2*omega/n, C=alpha*L_max, D1=0, D2=0, rho=alpha"

    def resolved_alpha(self, d: int) -> float:
        omega = self.compressor.omega(d)
        alpha = 1.0 / (1.0 + omega) if self.alpha is None else self.alpha
        if not 0 < alpha <= 1.0 / (1.0 + omega):
            raise ValueError(f"alpha must be in (0, 1/(1+omega)] = (0, {1.0/(1.0+omega):g}], got {alpha}")
        return alpha

    def resolved_fields(self, d: int) -> dict[str, float]:
        return {"alpha": self.resolved_alpha(d)}

    def init_state(self, problem, constants, x0):
        h = np.zeros((problem.n, problem.d))
        return EstimatorState(sigma_sq=shift_quality(h, constants), shifts=h)

    def draw(self, problem, rng, m):
        return (self.compressor.draw(rng, (m, problem.n), problem.d),)

    def step(self, problem, constants, X, state, draws):
        (q,) = draws
        alpha = self.resolved_alpha(problem.d)
        delta = self.compressor.apply(problem.component_grads(X) - state.shifts, q)
        G = einsum("rnd->rd", state.shifts + delta)
        G /= problem.n
        delta *= alpha
        state.shifts += delta
        state.sigma_sq[:] = shift_quality(state.shifts, constants)
        return G

    def certificate(self, problem, constants):
        omega = self.compressor.omega(problem.d)
        alpha = self.resolved_alpha(problem.d)
        return Certificate(
            A=2.0 * constants.L + 2.0 * omega * constants.L_max / problem.n,
            B=2.0 + 2.0 * omega / problem.n,
            C=alpha * constants.L_max,
            rho=alpha,
            has_sigma=True,
        )

    def exact_moments(self, problem, constants, state, x):
        alpha = self.resolved_alpha(problem.d)
        grads = problem.component_grads(x)
        u = grads - state.shifts
        means, mses = self.compressor.exact_moments(u)
        full = grads.sum(axis=0) / problem.n
        e = state.shifts - constants.grads_at_star
        # E||e_i + alpha Delta_i||^2 with E[Delta_i] = u_i, E||Delta_i||^2 = ||u_i||^2 + mse_i
        per_worker = (
            np.sum(e**2, axis=1)
            + 2.0 * alpha * np.sum(e * u, axis=1)
            + alpha**2 * (np.sum(u**2, axis=1) + mses)
        )
        return (
            (state.shifts + means).sum(axis=0) / problem.n,
            float(full @ full + mses.sum() / problem.n**2),
            float(np.mean(per_worker)),
        )


@dataclass
class RCD(Estimator):
    """Randomized coordinate descent: g = d * (grad f(x))_i e_i, i uniform."""

    name = "rcd"
    summary = "randomized coordinate descent (uniform coordinates)"
    formula = "A=d*L, B=0, C=0, D1=0, D2=0, rho=1"

    def draw(self, problem, rng, m):
        return (rng.integers(problem.d, size=m),)

    def step(self, problem, constants, X, state, draws):
        (j,) = draws
        G = np.zeros((len(j), problem.d))
        F = problem.full_grads(X)
        # a one-row X is shared by every row
        G[state.rows, j] = problem.d * (F[0, j] if len(F) == 1 else F[state.rows, j])
        return G

    def certificate(self, problem, constants):
        return Certificate(A=problem.d * constants.L)

    def exact_moments(self, problem, constants, state, x):
        g = problem.eval_full_grad(x)
        return g, float(problem.d * (g @ g)), None


ESTIMATORS: dict[str, type[Estimator]] = {
    cls.name: cls for cls in (FullGradient, UniformSGD, NoisyGradient, SGDStar, LSVRG, CDGD, DIANA, RCD)
}
