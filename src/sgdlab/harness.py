"""Trajectory simulation, Monte-Carlo aggregation, and certificate verification.

Runs x <- x - gamma*g trajectories for any registered estimator, aggregates
the Lyapunov value V_k = ||x^k - x*||^2 + M gamma^2 sigma_k^2 over independent
trials, and checks (a) that the estimator's certificate inequalities hold at
randomly explored states and (b) that the empirical mean trajectory is
dominated by the closed-form bound.

One kernel runs everything: Estimator.step advances a batch of rows at once,
R trials of a trajectory or S replicas of one verifier state.  Randomness is
organized in counter-derived streams (stream layout STREAM_LAYOUT): trial r
draws from default_rng([seed, 0, r]) in whole chunks of STREAM_CHUNK
steps (a full chunk even when fewer steps remain, so steps 1..K do not depend
on K), the initial direction from default_rng([seed, 1]), verification
point j from default_rng([seed, 2, j]).  Every batched contraction is an
einsum (np.einsum's C routine, problem.einsum), whose rows do not depend on
the batch size, so results are bitwise the same however trials are split
into blocks and replicas into chunks.

A stepsize grid is resolved once: the certificate, M, x0 and sigma0^2 do
not depend on gamma, so ResolvedExperiment.at_gamma(gamma) gives the same run
at another stepsize, with that gamma's bound curve (an inadmissible or NaN
gamma raises StepsizeError).  run_monte_carlo(resolved, gammas) steps the
whole grid as one run of the kernel.  Its rows are the (gamma, trial) pairs,
gamma-major: each trial's draws are taken once per chunk and tiled across the
gammas, so every gamma sees the same random numbers (common random numbers),
and each row equals its gamma's own run bit for bit.  A single run is the
grid of one gamma.  Trial blocks hold all the gammas of a range of trials and
are sized from the memory budget BLOCK_BYTES.  A divergence raises one
TrajectoryError naming the first non-finite iteration and its trial, with
the stepsize of that row as its gamma attribute.

A trajectory step does only the estimator's arithmetic and buffers its
squared distances; the finiteness check and the records are settled once
per chunk of STREAM_CHUNK steps.  The step takes its draws by iterating the
chunk and updates in place, G *= gamma; X -= G, which gives the bits of
X - gamma * G: Estimator.step returns a new array that its caller owns.  The
estimators index components they drew themselves, so they call the problem's
unchecked grad_i.

Verifier replicas share their point as one row that is evaluated once, and
run in chunks of REPLICA_BYTES per (rows, n, d) array, small enough to stay
in cache.  Both sampled checks have one shape: they use common random
numbers, draw in blocks of DRAW_BYTES per array of the replicas' rows, fill
a block's values chunk by chunk and fold the block into running moments
with _merge.  The blocks fix the draws and the merge; the chunks fix
nothing.  The assumption check's replicas draw from one stream,
default_rng([seed, 2, 2**34]), in blocks per (rows, n, d) array, and each
block serves every point of a group in turn.  A group holds DRAW_BYTES of
points, as (n, d) arrays, so point j's numbers depend on neither num_points
nor the grouping.  The compressor check draws one mask per replica, in
blocks per (probes, rows, d) array, and applies it to every probe.  Both
checks sample only above the compressor's sampled_above (Bernoulli: 16).

Stream layout 3 is the layout above.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .compressor import Compressor
from .estimator import Certificate, Estimator, EstimatorState
from .problem import FiniteSumProblem, ProblemConstants, compute_constants, einsum
from .theory import BoundCurve, bound_curve, default_M, lyapunov_value, max_stepsize

TRIAL_STREAM = 0
INIT_STREAM = 1
VERIFY_STREAM = 2
STREAM_LAYOUT = 3  # version of the draw order documented in estimator.py, recorded in the manifest
STREAM_CHUNK = 256  # steps a trial draws at a time

BLOCK_BYTES = 16 * 2**20  # memory budget of one trial block
ROW_TEMPS = 6  # (n, d) float arrays one row of a step holds: state, gradients, temporaries
# Two budgets (2 CPUs): one for both of 128 KiB slowed the d = 20 compressor check 114 -> 125 ms; of
# 512 KiB, verify_assumption at 100 points (n = 10, d = 20) 2.6 -> 4.5 s; of 1 MiB, 2 points 74 -> 114 ms.
REPLICA_BYTES = 2**17  # size of one (rows, n, d) float array of a verifier replica chunk
DRAW_BYTES = 2**20  # sampled replicas drawn at a time, fixing the stream, and points sharing them, as (n, d) floats each

BOUND_SLACK_REL = 0.1  # relative slack of verify_bound on the bound
BOUND_SLACK_STAT = 4.0  # standard errors of the mean V that verify_bound allows
EXACT_MARGIN_RTOL = 1e-10
WARMUP_STEPS = 64  # steps of the verifier's warm-up trajectory
COMPRESSOR_PROBES = 5  # probe vectors of verify_compressor, the last one all ones
TAIL_FRACTION = 0.1  # trailing share of the records that tail_mean averages


class TrajectoryError(RuntimeError):
    """A trajectory produced a non-finite iterate; gamma is the stepsize of its row."""

    def __init__(self, message: str, gamma: float | None = None):
        super().__init__(message)
        self.gamma = gamma


def _row_bytes(resolved: "ResolvedExperiment") -> int:
    """Bytes one row of a trial block holds.

    A row holds one chunk of its draws, ROW_TEMPS (n, d) float arrays and its
    two columns of per-step buffers, squared distances and sigma_k^2, of
    STREAM_CHUNK floats each.
    """
    problem = resolved.problem
    probe = resolved.estimator.draw(problem, np.random.default_rng(0), STREAM_CHUNK)
    draw_bytes = sum(a.nbytes for a in probe)
    return draw_bytes + 8 * ROW_TEMPS * problem.n * problem.d + 2 * 8 * STREAM_CHUNK


@dataclass
class ExperimentConfig:
    """One experiment: problem + estimator + run parameters.

    The fields after problem and estimator are the keys of a config's [run]
    section, read and written in this order with these defaults (see config).
    gamma, lyapunov_m, and record_every accept "auto" (resolved against the
    certificate: gamma = max admissible stepsize, M = 2B/rho, record stride =
    max(1, K // 1000)).
    """

    problem: FiniteSumProblem
    estimator: Estimator
    gamma: float | str = "auto"
    lyapunov_m: float | str = "auto"
    steps: int = 1000
    trials: int = 1
    seed: int = 0
    record_every: int | str = "auto"
    x0_radius: float = 1.0
    x0_mode: str = "random"

    def validate(self) -> None:
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.steps >= 2**63:  # the recorded iterations are int64
            raise ValueError(f"steps must be < 2**63, got {self.steps}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if not self.x0_radius >= 0:  # written as not (...) so that NaN is rejected
            raise ValueError(f"x0_radius must be >= 0, got {self.x0_radius}")
        if self.x0_mode not in ("random", "min_curvature"):
            raise ValueError(f"x0_mode must be 'random' or 'min_curvature', got {self.x0_mode!r}")
        if isinstance(self.gamma, str) and self.gamma != "auto":
            raise ValueError(f"gamma must be a number or 'auto', got {self.gamma!r}")
        if isinstance(self.lyapunov_m, str) and self.lyapunov_m != "auto":
            raise ValueError(f"lyapunov_m must be a number or 'auto', got {self.lyapunov_m!r}")
        if isinstance(self.record_every, str) and self.record_every != "auto":
            raise ValueError(f"record_every must be an integer or 'auto', got {self.record_every!r}")
        if not isinstance(self.record_every, str) and self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")

    def resolve(self) -> "ResolvedExperiment":
        """Materialize all 'auto' fields against the problem's certificate."""
        self.validate()
        constants = compute_constants(self.problem)
        cert = self.estimator.certificate(self.problem, constants)
        M = default_M(cert) if self.lyapunov_m == "auto" else float(self.lyapunov_m)
        gmax = max_stepsize(cert, constants.mu, M)
        gamma = gmax if self.gamma == "auto" else float(self.gamma)

        if self.x0_mode == "min_curvature":
            if constants.min_curv_dir is None:
                raise ValueError(f"x0_mode='min_curvature' is not available for {self.problem.family} problems")
            u = constants.min_curv_dir
        else:
            raw = np.random.default_rng([self.seed, INIT_STREAM]).standard_normal(self.problem.d)
            u = raw / np.linalg.norm(raw)
        x0 = constants.x_star + self.x0_radius * u
        # a start whose distance overflows is reported by the run as a TrajectoryError
        with np.errstate(over="ignore", invalid="ignore"):
            state0 = self.estimator.init_state(self.problem, constants, x0)

        stride = max(1, self.steps // 1000) if self.record_every == "auto" else int(self.record_every)
        ks = list(range(0, self.steps + 1, stride))
        if ks[-1] != self.steps:
            ks.append(self.steps)

        return ResolvedExperiment(
            problem=self.problem,
            estimator=self.estimator,
            constants=constants,
            certificate=cert,
            gamma=gamma,
            M=M,
            steps=self.steps,
            trials=self.trials,
            seed=self.seed,
            record_ks=np.array(ks, dtype=np.int64),
            x0=x0,
            sigma0_sq=state0.sigma_sq,
            curve=_bound(cert, constants, M, x0, state0.sigma_sq, gamma),
        )


@dataclass
class ResolvedExperiment:
    """ExperimentConfig with every derived quantity materialized."""

    problem: FiniteSumProblem
    estimator: Estimator
    constants: ProblemConstants
    certificate: Certificate
    gamma: float
    M: float
    steps: int
    trials: int
    seed: int
    record_ks: np.ndarray
    x0: np.ndarray
    sigma0_sq: float
    curve: BoundCurve

    def at_gamma(self, gamma: float) -> "ResolvedExperiment":
        """The same run at stepsize gamma, with that gamma's bound curve; StepsizeError if gamma is inadmissible."""
        gamma = float(gamma)
        curve = _bound(self.certificate, self.constants, self.M, self.x0, self.sigma0_sq, gamma)
        return replace(self, gamma=gamma, curve=curve)


def _bound(cert: Certificate, constants: ProblemConstants, M: float, x0, sigma0_sq, gamma: float) -> BoundCurve:
    """Bound curve at gamma from V0 = ||x0 - x*||^2 + M gamma^2 sigma0^2 (inf for an overflowing start)."""
    curve = bound_curve(cert, constants.mu, gamma, M, 0.0)  # checks gamma before V0 can square it
    with np.errstate(over="ignore", invalid="ignore"):
        diff0 = x0 - constants.x_star
        V0 = lyapunov_value(float(diff0 @ diff0), sigma0_sq, gamma, M)
    return replace(curve, V0=V0)


@dataclass
class TrajectoryStats:
    """Monte-Carlo summaries per recorded iteration, plus the theory bound."""

    ks: np.ndarray
    mean_dist_sq: np.ndarray
    mean_sigma_sq: np.ndarray
    mean_V: np.ndarray
    std_V: np.ndarray
    bound_V: np.ndarray
    trials: int
    gamma: float
    M: float
    roundoff: float  # float64 resolution of sqrt(V) along the run, see verify_bound


def _roundoff(resolved: ResolvedExperiment) -> float:
    """Absolute term c of verify_bound, with unit round-off u.

    A gradient or shift evaluated at a point of norm X sums d products of size
    up to L_max X and component gradients of total norm sqrt(n) sigma*, so it
    is off by u (L_max X + sqrt(n) sigma*) per coordinate; where it
    underflows, rounding is absolute and adds up to the smallest subnormal s,
    so e(X) = sqrt(d) (u (L_max X + sqrt(n) sigma*) + s).  1 / (1 - sqrt(1-r))
    is evaluated as (1 + sqrt(1-r)) / r, which does not cancel.
    """
    problem, c, gamma, curve = resolved.problem, resolved.constants, resolved.gamma, resolved.curve
    u, s = 0.5 * np.finfo(float).eps, np.finfo(float).smallest_subnormal
    root_d, w = math.sqrt(problem.d), gamma * math.sqrt(resolved.M)

    def e(X: float) -> float:
        return root_d * (u * (c.L_max * X + math.sqrt(problem.n * c.sigma_star_sq)) + s)

    norm_star = float(np.linalg.norm(c.x_star))
    X = norm_star + math.hypot(math.sqrt(curve.V0), math.sqrt(curve.floor))  # ||x*|| + sqrt(V0 + floor)
    rho = u * X + (gamma + w) * e(X)
    beta = u * (1.0 + (gamma + w) * root_d * c.L_max)
    G = min(resolved.steps, (1.0 + math.sqrt(1.0 - curve.rate)) / curve.rate)
    residual = float(np.linalg.norm(c.grads_at_star.sum(axis=0) / problem.n))
    offset = (residual + e(norm_star)) / c.mu
    delta = offset * (1.0 + w * c.L_max) + w * e(norm_star)
    return (rho * G / (1.0 - beta * G) if beta * G < 1.0 else math.inf) + 2.0 * delta


def run_trajectory(
    resolved: ResolvedExperiment, trials: range, gammas: Sequence[float] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Run the seeded trajectories of a range of trials at a grid of stepsizes as one batch.

    gammas defaults to (resolved.gamma,).  Returns (dist_sq, sigma_sq), each
    (len(gammas) * len(trials), len(record_ks)); row g * len(trials) + i is
    trial trials[i] at gammas[g], and it does not depend on which other
    trials or gammas share the batch.  Raises TrajectoryError at the first
    iteration, k = 0 included, at which some row's squared distance to x* is
    not finite, naming the row's trial and, in its gamma attribute, its gamma.

    A step only advances X and writes the squared distances of its rows into
    a (STREAM_CHUNK, rows) buffer, and sigma_k^2 into another where k is
    recorded.  The finiteness test and the copies into the results run once
    per chunk; rows that diverged mid-chunk step on as inf or nan, which no
    step reads back into another row, until the chunk is settled.
    """
    problem, est, constants = resolved.problem, resolved.estimator, resolved.constants
    x_star, ks = constants.x_star, resolved.record_ks
    gammas = [float(g) for g in ([resolved.gamma] if gammas is None else gammas)]
    rngs = [np.random.default_rng([resolved.seed, TRIAL_STREAM, r]) for r in trials]
    R, G = len(rngs), len(gammas)
    rows = G * R
    # a float factor where there is one gamma: a (rows, 1) column costs more per step
    gamma = gammas[0] if G == 1 else np.repeat(gammas, R)[:, None]
    dist = np.empty((rows, len(ks)))
    sig = np.empty((rows, len(ks)))
    X = np.tile(resolved.x0, (rows, 1))
    diff = np.empty_like(X)
    d2buf = np.empty((STREAM_CHUNK, rows))
    sigbuf = np.empty((STREAM_CHUNK, rows))
    recorded = set(ks.tolist())

    def settle(first: int, d2: np.ndarray, sigma: np.ndarray) -> None:
        # d2[t] and sigma[t] belong to iteration first + t; ks[lo:hi] are the recorded ones
        finite = np.isfinite(d2)
        if not finite.all():
            t, row = np.unravel_index(np.argmin(finite), finite.shape)
            g, i = divmod(int(row), R)
            raise TrajectoryError(
                f"non-finite iterate at iteration {first + t} in trial {trials[i]}", gamma=gammas[g]
            )
        lo, hi = np.searchsorted(ks, [first, first + len(d2)])
        dist[:, lo:hi] = d2[ks[lo:hi] - first].T
        sig[:, lo:hi] = sigma[ks[lo:hi] - first].T

    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        state = est.init_state(problem, constants, resolved.x0).tile(rows)
        np.subtract(X, x_star, out=diff)
        einsum("rd,rd->r", diff, diff, out=d2buf[0])
        sigbuf[0] = state.sigma_sq
        settle(0, d2buf[:1], sigbuf[:1])
        for start in range(0, resolved.steps, STREAM_CHUNK):
            # chunk[j][t] holds draw array j of step start + t + 1 for every row: the
            # trials' draws in trial order, repeated once per gamma
            per_trial = [est.draw(problem, rng, STREAM_CHUNK) for rng in rngs]
            chunk = [np.stack(arrays * G, axis=1) for arrays in zip(*per_trial)]
            T = min(STREAM_CHUNK, resolved.steps - start)
            # zip(*chunk) gives each step's draws; a kind without draws (gd) steps on ()
            step_draws = zip(*chunk) if chunk else itertools.repeat(())
            for t, draws, d2 in zip(range(T), step_draws, d2buf):
                g = est.step(problem, constants, X, state, draws)
                g *= gamma  # the step's result is ours to scale
                X -= g
                np.subtract(X, x_star, out=diff)
                einsum("rd,rd->r", diff, diff, out=d2)
                if start + t + 1 in recorded:
                    sigbuf[t] = state.sigma_sq
            settle(start + 1, d2buf[:T], sigbuf[:T])
    return dist, sig


def run_monte_carlo(
    config: ExperimentConfig | ResolvedExperiment, gammas: Sequence[float] | None = None
) -> TrajectoryStats | list[TrajectoryStats]:
    """Run all trials in blocks of the memory budget and aggregate in trial order.

    With gammas, the run steps every gamma of the grid in one kernel and
    returns one TrajectoryStats per gamma, each bitwise what the run at that
    gamma gives alone.  Raises ValueError on an empty grid and StepsizeError
    on an inadmissible gamma.
    """
    resolved = config.resolve() if isinstance(config, ExperimentConfig) else config
    grid = [resolved] if gammas is None else [resolved.at_gamma(g) for g in gammas]
    if not grid:
        raise ValueError("a stepsize grid needs at least one gamma")
    G, R, nrec = len(grid), resolved.trials, len(resolved.record_ks)
    block = max(1, BLOCK_BYTES // (G * _row_bytes(resolved)))
    dist = np.empty((G, R, nrec))
    sig = np.empty((G, R, nrec))
    for start in range(0, R, block):
        stop = min(R, start + block)
        d, s = run_trajectory(resolved, range(start, stop), [e.gamma for e in grid])
        dist[:, start:stop] = d.reshape(G, stop - start, nrec)
        sig[:, start:stop] = s.reshape(G, stop - start, nrec)

    stats = []
    for e, dist_g, sig_g in zip(grid, dist, sig):
        V = lyapunov_value(dist_g, sig_g, e.gamma, e.M)
        with np.errstate(under="ignore"):
            std_V = V.std(axis=0, ddof=1) if R > 1 else np.zeros(nrec)
            bound_V = np.asarray(e.curve.bound_at(e.record_ks), dtype=float)
            stats.append(
                TrajectoryStats(
                    ks=e.record_ks.copy(),
                    mean_dist_sq=dist_g.mean(axis=0),
                    mean_sigma_sq=sig_g.mean(axis=0),
                    mean_V=V.mean(axis=0),
                    std_V=std_V,
                    bound_V=bound_V,
                    trials=R,
                    gamma=e.gamma,
                    M=e.M,
                    roundoff=_roundoff(e),
                )
            )
    return stats[0] if gammas is None else stats


def tail_mean(values: np.ndarray) -> float:
    """Mean over the trailing TAIL_FRACTION of the recorded values (>= 1 entry)."""
    n = max(1, int(math.ceil(TAIL_FRACTION * len(values))))
    return float(np.mean(values[-n:]))


# --------------------------------------------------------------------------
# verification


@dataclass
class Check:
    """One verified inequality: PASS iff margin >= -tol."""

    name: str
    margin: float
    tol: float
    exact: bool
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.margin >= -self.tol

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        mode = "exact" if self.exact else "sampled"
        extra = f" {self.detail}" if self.detail else ""
        return f"{status} {self.name} margin={self.margin:.6e} tol={self.tol:.3e} [{mode}]{extra}"


@dataclass
class Report:
    """A list of checks with an overall verdict."""

    title: str
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def worst(self) -> Check | None:
        return min(self.checks, key=lambda c: c.margin + c.tol, default=None)

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        worst = self.worst()
        where = f" worst={worst.name} margin={worst.margin:.6e}" if worst else ""
        return f"{status} {self.title} checks={len(self.checks)}{where}"


def _merge(mean: np.ndarray, m2: np.ndarray, count: int, values: np.ndarray) -> None:
    """Merge values (..., rows) into the running mean and m2 of count earlier ones; values become deviations."""
    size = values.shape[-1]
    block_mean = values.mean(axis=-1)
    values -= block_mean[..., None]
    delta = block_mean - mean
    mean += delta * (size / (count + size))
    m2 += einsum("...r,...r->...", values, values) + delta**2 * (count * size / (count + size))


def _mc_moments(est, problem, constants, points, seed, samples):
    """Monte-Carlo E||g||^2 and E[sigma_next^2] at each (state, x) of points, from one step of replicas.

    Every point's replicas take the same draws (common random numbers): the
    stream default_rng([seed, VERIFY_STREAM, 2**34]) is drawn in blocks of
    DRAW_BYTES per (rows, n, d) array, which fix it, and each block serves
    the points in turn.  A point's replicas start from (x, state), share the
    one row x, and run in chunks of REPLICA_BYTES (one row at least).  Each
    point merges each block into its running moments (_merge), so its numbers
    depend on neither the other points nor the chunk size.  An empty list of
    points draws nothing.
    Returns one ((mean, standard error), (mean, standard error)) per point.
    """
    if not points:
        return []
    row_bytes = 8 * problem.n * problem.d
    block, chunk = max(1, DRAW_BYTES // row_bytes), max(1, REPLICA_BYTES // row_bytes)
    rng = np.random.default_rng([seed, VERIFY_STREAM, 2**34])
    mean, m2 = np.zeros((2, len(points), 2))
    values = np.empty((2, min(block, samples)))  # (||g||^2, sigma_next^2) of one point's block
    for first in range(0, samples, block):
        size = min(block, samples - first)
        draws = est.draw(problem, rng, size)
        for p, (state, x) in enumerate(points):
            for lo in range(0, size, chunk):
                hi = min(size, lo + chunk)
                batch = state.tile(hi - lo)
                G = est.step(problem, constants, x[None], batch, [a[lo:hi] for a in draws])
                einsum("rd,rd->r", G, G, out=values[0, lo:hi])
                values[1, lo:hi] = batch.sigma_sq
            _merge(mean[p], m2[p], first, values[:, :size])
    se = np.sqrt(m2 / ((samples - 1) * samples))
    return [tuple((float(m), float(e)) for m, e in zip(*point)) for point in zip(mean, se)]


def _perturbed_state(constants: ProblemConstants, base: EstimatorState, rng) -> EstimatorState:
    """Randomly re-anchor the shift table around the optimal shifts grad f_i(x*).

    Mode 0 keeps the base table, mode 1 draws shifts at a log-spread radius,
    mode 2 scales the base table's offsets by c in [-2, 2].  A state without
    a table is copied and draws nothing.  Any table is a valid state:
    EstimatorState.with_shifts derives the rest of the state from it.
    """
    if base.shifts is None:
        return base.copy()
    mode = int(rng.integers(3))
    star = constants.grads_at_star
    if mode == 1:
        radius = 10.0 ** rng.uniform(-3, 1) * max(1.0, math.sqrt(constants.sigma_star_sq))
        shifts = star + radius * rng.standard_normal(star.shape)
    elif mode == 2:
        shifts = star + rng.uniform(-2.0, 2.0) * (base.shifts - star)
    else:
        shifts = base.shifts.copy()
    return base.with_shifts(shifts, constants)


def verify_assumption(
    problem: FiniteSumProblem,
    constants: ProblemConstants,
    estimator: Estimator,
    num_points: int = 100,
    samples_per_point: int = 10000,
    seed: int = 0,
    certificate: Certificate | None = None,
) -> Report:
    """Check the two certificate inequalities at randomly explored states.

    States are drawn from a short warm-up trajectory plus random
    perturbations: iterates at log-spread radii around x*, points along the
    warm-up line (including reflections), and shift tables perturbed around
    the optimal shifts.  The left-hand sides come from the estimator's exact
    oracle (exact_moments); above its compressor's sampled_above (Bernoulli
    compression above 16 coordinates) they come from samples_per_point
    Monte-Carlo replicas that both inequalities share, and that every point
    of a group of DRAW_BYTES draws in common (see _mc_moments).  Exact
    margins must be >= -1e-10 * RHS, sampled margins >= -4 standard errors.

    Passing a certificate overrides the estimator's own; this is how mutation
    tests inject corrupted constants.
    """
    if num_points < 1:
        raise ValueError(f"num_points must be >= 1, got {num_points}")
    own_cert = estimator.certificate(problem, constants)
    cert = own_cert if certificate is None else certificate
    sampled = problem.d > getattr(estimator, "compressor", Compressor).sampled_above
    scale = max(1.0, float(np.linalg.norm(constants.x_star)))

    # short warm-up run caching (iterate, state) pairs
    warm_rng = np.random.default_rng([seed, VERIFY_STREAM, 2**32])
    u = warm_rng.standard_normal(problem.d)
    x = constants.x_star + scale * u / np.linalg.norm(u)
    gamma = 0.5 * max_stepsize(own_cert, constants.mu, default_M(own_cert))
    state = estimator.init_state(problem, constants, x)
    warm: list[tuple[np.ndarray, EstimatorState]] = [(x.copy(), state.copy())]
    X, batch = x[None, :], state.tile(1)
    draws = estimator.draw(problem, warm_rng, WARMUP_STEPS)
    for t in range(WARMUP_STEPS):
        X = X - gamma * estimator.step(problem, constants, X, batch, [a[t : t + 1] for a in draws])
        warm.append((X[0].copy(), batch.row(0)))

    def explore(j: int):
        """Point j's iterate, state, right-hand sides and exact left-hand sides (None where it samples)."""
        rng = np.random.default_rng([seed, VERIFY_STREAM, j])
        xw, sw = warm[int(rng.integers(len(warm)))]
        radius = 10.0 ** rng.uniform(-3, 1) * scale
        udir = rng.standard_normal(problem.d)
        udir /= np.linalg.norm(udir)
        mode = int(rng.integers(3))
        if mode == 0:
            xp = constants.x_star + radius * udir
        elif mode == 1:
            xp = xw + radius * udir
        else:
            c = rng.uniform(-2.0, 2.0)
            xp = constants.x_star + c * (xw - constants.x_star) + 1e-3 * radius * udir
        sp = _perturbed_state(constants, sw, rng)

        gap = problem.eval_f(xp) - constants.f_star
        sides = [("second_moment", 2.0 * cert.A * gap + cert.B * sp.sigma_sq + cert.D1)]
        if cert.has_sigma:
            sides.append(("sigma_recursion", (1.0 - cert.rho) * sp.sigma_sq + 2.0 * cert.C * gap + cert.D2))
        if sampled:
            return xp, sp, sides, None
        _, second, sigma_next = estimator.exact_moments(problem, constants, sp, xp)
        return xp, sp, sides, [(second, 0.0), (sigma_next, 0.0)]

    report = Report(title=f"assumption[{estimator.name}]")
    group = max(1, DRAW_BYTES // (8 * problem.n * problem.d))
    for start in range(0, num_points, group):
        js = range(start, min(num_points, start + group))
        points = [explore(j) for j in js]
        sampled_points = [(sp, xp) for xp, sp, _, lhs in points if lhs is None]
        moments = iter(_mc_moments(estimator, problem, constants, sampled_points, seed, samples_per_point))
        for j, (_, _, sides, lhs) in zip(js, points):
            exact = lhs is not None
            # left-hand sides as (value, standard error)
            for (name, rhs), (value, se) in zip(sides, lhs if exact else next(moments)):
                tol = EXACT_MARGIN_RTOL * abs(rhs) if exact else 4.0 * se
                report.checks.append(Check(f"{name}[{j}]", rhs - value, tol, exact=exact))
    return report


def verify_bound(stats: TrajectoryStats) -> Report:
    """Check mean_V(k) <= (sqrt(bound_V(k) (1 + BOUND_SLACK_REL)) + c)^2 + BOUND_SLACK_STAT std_V(k)/sqrt(R).

    c = stats.roundoff is the float64 floor of sqrt(V), below which a bound
    cannot be checked.  Stack the iterate and the shift table weighted by w =
    gamma sqrt(M) as z, so that V_k = ||z_k - z*||^2, and let s_k =
    sqrt(E[V_k]).  A computed step is the exact one plus the rounding of x_k
    and (gamma + w) times the round-off e(||x_k||) of the gradients and shifts
    (see _roundoff): an error of norm <= rho(||x_k||), rho(X) = u X + (gamma +
    w) e(X), affine with slope beta = u (1 + (gamma + w) sqrt(d) L_max).
    Minkowski's inequality gives sqrt(E||x_k||^2) <= ||x*|| + s_k and s_{k+1}
    <= sqrt((1-r) s_k^2 + N) + sqrt(E[rho(||x_k||)^2]), so by induction s_k <=
    sqrt(bound_k) + e_k with e_0 = 0 and, as bound_k <= V0 + floor,

        e_{k+1} = sqrt(1-r) e_k + rho(X) + beta e_k,   X = ||x*|| + sqrt(V0 + floor),

    whose beta e_k is second order (u times the accumulated error).  For k <=
    K, e_k <= (rho(X) + beta max_{j<k} e_j) G, G = min(K, 1 / (1 - sqrt(1-r)))
    >= sum_{j<k} (1-r)^{j/2} (the horizon caps G where r is tiny), so e_k <=
    E = rho(X) G / (1 - beta G), the solution of E = (rho(X) + beta E) G (inf
    where beta G >= 1).  The stored x* is within delta = ||grad f(x*)|| / mu
    of the exact optimum (strong convexity), which adds 2 delta, and the
    shifts at x* inherit it through L_max.  An unbounded c is one FAIL check,
    bound[round-off floor]: no bound can be checked above it.
    """
    report = Report(title="bound_domination")
    if not math.isfinite(stats.roundoff):
        detail = f"round-off floor c={stats.roundoff:.6e} is unbounded, so no bound can be checked"
        report.checks.append(Check("bound[round-off floor]", -math.inf, 0.0, exact=False, detail=detail))
        return report
    se = stats.std_V / math.sqrt(stats.trials)
    limit = (np.sqrt(stats.bound_V * (1.0 + BOUND_SLACK_REL)) + stats.roundoff) ** 2 + BOUND_SLACK_STAT * se
    margins = limit - stats.mean_V
    worst = int(np.argmin(margins))
    for idx in range(len(stats.ks)):
        if idx == worst or margins[idx] < 0:
            detail = f"mean_V={stats.mean_V[idx]:.6e} bound_V={stats.bound_V[idx]:.6e}"
            check = Check(f"bound[k={stats.ks[idx]}]", float(margins[idx]), 0.0, exact=False, detail=detail)
            report.checks.append(check)
    if np.all(margins >= 0):
        detail = f"checked {len(stats.ks)} recorded iterations"
        report.checks.append(Check("bound[all recorded k]", float(margins[worst]), 0.0, exact=False, detail=detail))
    return report


def _compression_moments(compressor, X: np.ndarray, rng, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample means and standard errors of (Q(x) - x, ||Q(x) - x||^2) for each row x of X.

    Streams like _mc_moments: every row is compressed `samples` times with
    the same draws (common random numbers), one compressor.draw(rng, (1,
    rows), d) per block of DRAW_BYTES per (probes, rows, d) array, which
    takes the numbers of a (rows, 1) draw: the stream fills it in C order.
    Blocks and chunks are probe-major, so each probe's errors are contiguous.
    Returns two (probes, d + 1) arrays; column d is the squared error.
    """
    probes, d = X.shape
    row_bytes = 8 * probes * d
    block, chunk = max(1, DRAW_BYTES // row_bytes), max(1, REPLICA_BYTES // row_bytes)
    mean, m2 = np.zeros((2, probes, d + 1))
    values = np.empty((probes, d + 1, min(block, samples)))
    X = X[:, None, :]
    for first in range(0, samples, block):
        size = min(block, samples - first)
        masks = compressor.draw(rng, (1, size), d)
        for lo in range(0, size, chunk):
            hi = min(size, lo + chunk)
            E = compressor.apply(X, masks[:, lo:hi])
            E -= X
            values[:, :d, lo:hi] = E.transpose(0, 2, 1)
            einsum("prd,prd->pr", E, E, out=values[:, d, lo:hi])
        _merge(mean, m2, first, values[..., :size])
    return mean, np.sqrt(m2 / ((samples - 1) * samples))


def verify_compressor(compressor, d: int, seed: int = 0) -> Report:
    """Check unbiasedness and the omega variance certificate on COMPRESSOR_PROBES probe vectors.

    Exact from the compressor's per-coordinate moments (exact_moments) up to
    a relative 1e-12.  Above the compressor's sampled_above (Bernoulli above
    16 coordinates, only the policy for where this check samples), the probes
    are compressed 10^5 times with the same draws and a 4-standard-error
    slack; the sampled variance check also allows the exact check's round-off.
    """
    rng = np.random.default_rng([seed, VERIFY_STREAM, 2**33])
    omega = compressor.omega(d)
    report = Report(title=f"compressor[{compressor.name}]")
    probes = np.array([rng.standard_normal(d) for _ in range(COMPRESSOR_PROBES - 1)] + [np.ones(d)])
    exact = d <= compressor.sampled_above
    if exact:
        mean, mse = compressor.exact_moments(probes)
    else:
        mean, se = _compression_moments(compressor, probes, rng, 10**5)
    for idx, x in enumerate(probes):
        norm_sq = float(x @ x)
        if exact:
            unbiased = (1e-12 * max(1.0, norm_sq) - float(np.max(np.abs(mean[idx] - x))), 0.0)
            variance = (omega * norm_sq * (1.0 + 1e-12) - float(mse[idx]), 0.0)
        else:
            unbiased = (float(np.min(4.0 * se[idx, :d] - np.abs(mean[idx, :d]))), 0.0)
            variance = (omega * norm_sq - float(mean[idx, d]), 4.0 * float(se[idx, d]) + 1e-12 * omega * norm_sq)
        report.checks.append(Check(f"unbiased[{idx}]", *unbiased, exact=exact))
        report.checks.append(Check(f"variance[{idx}]", *variance, exact=exact))
    return report
