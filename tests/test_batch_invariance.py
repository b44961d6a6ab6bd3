"""Batch invariance of the trajectory kernel and the sampled verifier.

Every output must be the same, bit for bit, however trials are split into
blocks and verifier replicas into chunks, and the first K steps of a run must
not depend on how many steps follow them.  A step at one row shared by all
replicas must give what the step at that row tiled gives.  A stepsize grid
run as one batch must give each gamma what its own run gives.
"""

import dataclasses
import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgdlab import harness
from sgdlab.compressor import BernoulliScale, RandK
from sgdlab.estimator import (
    CDGD,
    DIANA,
    LSVRG,
    RCD,
    Estimator,
    FullGradient,
    NoisyGradient,
    SGDStar,
    UniformSGD,
)
from sgdlab.harness import (
    STREAM_CHUNK,
    ExperimentConfig,
    _mc_moments,
    _perturbed_state,
    run_monte_carlo,
    run_trajectory,
)
from sgdlab.problem import FiniteSumProblem, compute_constants, random_logistic, random_quadratic
from sgdlab.theory import StepsizeError

DIMS = (1, 5, 20, 50)
FAMILIES = ("quadratic", "logistic")
COMPRESSORS = {"rand_k": RandK(k=1), "bernoulli": BernoulliScale(q=0.5)}
KINDS = {
    "gd": lambda comp: FullGradient(),
    "sgd": lambda comp: UniformSGD(),
    "noisy_gd": lambda comp: NoisyGradient(sigma=0.3),
    "sgd_star": lambda comp: SGDStar(),
    "lsvrg": lambda comp: LSVRG(p=0.3),
    "cdgd": lambda comp: CDGD(compressor=comp),
    "diana": lambda comp: DIANA(compressor=comp),
    "rcd": lambda comp: RCD(),
}
BOUNDED = settings(max_examples=3, deadline=None)


@functools.lru_cache(maxsize=None)
def _problem(family, d):
    if family == "quadratic":
        prob = random_quadratic(3, d, eig_lo=1.0, eig_hi=3.0, shift_scale=1.0, seed=d)
    else:
        prob = random_logistic(3, d, ridge=0.5, seed=d)
    return prob, compute_constants(prob)


def _resolved(kind, family, d, compressor, seed, trials, steps):
    prob, _ = _problem(family, d)
    est = KINDS[kind](COMPRESSORS[compressor])
    cfg = ExperimentConfig(
        problem=prob, estimator=est, steps=steps, trials=trials, seed=seed, record_every=1
    )
    return cfg.resolve()


def _grid(kind, family, d, compressor, seed, trials, steps, fractions):
    """The run at the maximal stepsize, a grid of fractions of it, and each gamma's own resolve.

    The own resolves start again from the config, so at_gamma is never the
    judge of its own results.
    """
    prob, _ = _problem(family, d)
    cfg = ExperimentConfig(
        problem=prob, estimator=KINDS[kind](COMPRESSORS[compressor]), steps=steps, trials=trials,
        seed=seed, record_every=1,
    )
    resolved = cfg.resolve()
    gammas = [f * resolved.gamma for f in fractions]
    return resolved, gammas, [dataclasses.replace(cfg, gamma=g).resolve() for g in gammas]


def _blocks(resolved, trials, size):
    parts = [run_trajectory(resolved, range(a, min(trials, a + size))) for a in range(0, trials, size)]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", sorted(KINDS))
@BOUNDED
@given(
    seed=st.integers(0, 2**32 - 1),
    trials=st.integers(8, 12),
    steps=st.integers(1, 10),
    compressor=st.sampled_from(sorted(COMPRESSORS)),
)
def test_trajectory_rows_do_not_depend_on_the_trial_block(kind, family, seed, trials, steps, compressor):
    for d in DIMS:
        resolved = _resolved(kind, family, d, compressor, seed, trials, steps)
        whole = run_trajectory(resolved, range(trials))
        for size in (1, 7):
            for blocked, full in zip(_blocks(resolved, trials, size), whole):
                np.testing.assert_array_equal(blocked, full, err_msg=f"d={d} block={size}")


@pytest.mark.parametrize("kind", sorted(KINDS))
@BOUNDED
@given(
    family=st.sampled_from(FAMILIES),
    d=st.sampled_from(DIMS),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 20),
    compressor=st.sampled_from(sorted(COMPRESSORS)),
)
def test_first_steps_do_not_depend_on_the_run_length(kind, family, d, seed, steps, compressor):
    short = run_trajectory(_resolved(kind, family, d, compressor, seed, 3, steps), range(3))
    longer = _resolved(kind, family, d, compressor, seed, 3, steps + STREAM_CHUNK)
    for prefix, full in zip(short, run_trajectory(longer, range(3))):
        np.testing.assert_array_equal(prefix, full[:, : steps + 1])


@pytest.mark.parametrize("kind", sorted(KINDS))
@BOUNDED
@given(
    family=st.sampled_from(FAMILIES),
    d=st.sampled_from(DIMS),
    seed=st.integers(0, 2**32 - 1),
    samples=st.integers(2, 40),
    chunk=st.integers(1, 9),
    compressor=st.sampled_from(sorted(COMPRESSORS)),
)
def test_sampled_moments_do_not_depend_on_the_replica_chunk(
    kind, family, d, seed, samples, chunk, compressor
):
    prob, cons = _problem(family, d)
    est = KINDS[kind](COMPRESSORS[compressor])
    rng = np.random.default_rng(seed)
    x = cons.x_star + rng.standard_normal(d)
    state = _perturbed_state(cons, est.init_state(prob, cons, rng.standard_normal(d)), rng)

    def moments(budget):
        with mock.patch.object(harness, "REPLICA_BYTES", budget):
            return _mc_moments(est, prob, cons, [(state, x)], seed, samples)

    row_bytes = 8 * prob.n * d  # one row of a (rows, n, d) float array
    assert moments(chunk * row_bytes) == moments(harness.REPLICA_BYTES)


@BOUNDED
@given(
    d=st.sampled_from(DIMS),
    seed=st.integers(0, 2**32 - 1),
    samples=st.integers(2, 300),
    chunk=st.integers(1, 9),
    compressor=st.sampled_from(sorted(COMPRESSORS)),
    probes=st.integers(1, harness.COMPRESSOR_PROBES),
)
@example(d=20, seed=0, samples=10**4, chunk=326, compressor="bernoulli", probes=5)  # 2**18 bytes against 2**17
@example(d=20, seed=0, samples=10**4, chunk=51, compressor="rand_k", probes=1)  # about 2**13 bytes against 2**17
def test_sampled_compressor_moments_do_not_depend_on_the_replica_chunk(d, seed, samples, chunk, compressor, probes):
    comp = COMPRESSORS[compressor]
    X = np.random.default_rng(seed).standard_normal((probes, d))

    def moments(budget):
        with mock.patch.object(harness, "REPLICA_BYTES", budget):
            mean, se = harness._compression_moments(comp, X, np.random.default_rng([seed, 1]), samples)
        return mean.tobytes(), se.tobytes()

    row_bytes = 8 * X.size  # one row of a (probes, rows, d) float array
    assert moments(chunk * row_bytes) == moments(harness.REPLICA_BYTES)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", sorted(KINDS))
@BOUNDED
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(8, 16),
    compressor=st.sampled_from(sorted(COMPRESSORS)),
)
def test_a_shared_row_steps_like_its_tiles(kind, family, seed, rows, compressor):
    for d in (1, 5, 20):
        prob, cons = _problem(family, d)
        est = KINDS[kind](COMPRESSORS[compressor])
        rng = np.random.default_rng(seed)
        x = cons.x_star + rng.standard_normal(d)
        state = _perturbed_state(cons, est.init_state(prob, cons, rng.standard_normal(d)), rng)
        draws = est.draw(prob, rng, rows)
        shared, tiled = state.tile(rows), state.tile(rows)
        G = est.step(prob, cons, x[None], shared, draws)
        G_tiled = est.step(prob, cons, np.tile(x, (rows, 1)), tiled, draws)
        np.testing.assert_array_equal(np.broadcast_to(G, G_tiled.shape), G_tiled, err_msg=f"d={d}")
        for field in ("sigma_sq", "shifts", "shift_mean"):
            np.testing.assert_array_equal(getattr(shared, field), getattr(tiled, field), err_msg=f"d={d}")


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", sorted(KINDS))
@BOUNDED
@given(
    d=st.sampled_from(DIMS),
    seed=st.integers(0, 2**32 - 1),
    trials=st.integers(2, 6),
    steps=st.integers(1, 10),
    fractions=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4),
    block_trials=st.integers(1, 5),
    compressor=st.sampled_from(sorted(COMPRESSORS)),
)
# always one grid of several gammas and trials per block: tiling the draws trial-major fails it
@example(d=5, seed=0, trials=5, steps=3, fractions=[1.0, 0.5, 0.25], block_trials=2, compressor="bernoulli")
def test_grid_rows_equal_each_gammas_own_run(
    kind, family, d, seed, trials, steps, fractions, block_trials, compressor
):
    """Rows are (gamma, trial) pairs, gamma-major, and each equals the gamma's own run bit for bit.

    The whole grid is one batch of every trial; run_monte_carlo splits it
    into blocks of block_trials trials, each holding every gamma.
    """
    resolved, gammas, own_runs = _grid(kind, family, d, compressor, seed, trials, steps, fractions)
    own = [run_trajectory(e, range(trials)) for e in own_runs]
    G, R = len(gammas), trials
    whole = run_trajectory(resolved, range(trials), gammas)
    for g in range(G):
        for rows, ref in zip(whole, own[g]):
            np.testing.assert_array_equal(rows[g * R : (g + 1) * R], ref, err_msg=f"gamma {g}")

    blocks = []

    def recorded(resolved, block, gammas):
        out = run_trajectory(resolved, block, gammas)
        blocks.append((block, out))
        return out

    budget = block_trials * G * harness._row_bytes(resolved)
    with mock.patch.object(harness, "BLOCK_BYTES", budget), mock.patch.object(harness, "run_trajectory", recorded):
        stats = run_monte_carlo(resolved, gammas)
    assert [b for b, _ in blocks] == [range(a, min(R, a + block_trials)) for a in range(0, R, block_trials)]
    for g, (e, s) in enumerate(zip(own_runs, stats)):
        for j in (0, 1):  # dist, sigma: this gamma's rows of every block, in trial order
            rows = np.concatenate([out[j].reshape(G, len(b), -1)[g] for b, out in blocks])
            np.testing.assert_array_equal(rows, own[g][j], err_msg=f"gamma {g}")
        alone = run_monte_carlo(e)
        for name in ("mean_dist_sq", "mean_sigma_sq", "mean_V", "std_V", "bound_V"):
            np.testing.assert_array_equal(getattr(s, name), getattr(alone, name), err_msg=f"{name} gamma {g}")
        assert (s.gamma, s.M, s.roundoff) == (alone.gamma, alone.M, alone.roundoff)


def _assert_fields_equal(a, b, where):
    """Dataclasses a and b agree field by field; arrays and floats bitwise, shared objects by identity."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, (FiniteSumProblem, Estimator)):
            assert x is y, f"{where}.{f.name}"
        elif dataclasses.is_dataclass(x):
            _assert_fields_equal(x, y, f"{where}.{f.name}")
        elif isinstance(x, np.ndarray) or x is None:
            np.testing.assert_array_equal(x, y, err_msg=f"{where}.{f.name}", strict=True)
        else:
            assert np.array(x).tobytes() == np.array(y).tobytes(), f"{where}.{f.name}: {x!r} != {y!r}"


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_at_gamma_equals_a_resolve_at_that_gamma(kind, family):
    resolved, gammas, own_runs = _grid(kind, family, 5, "bernoulli", 7, 3, 4, [1.0, 0.3, 1e-3])
    for gamma, own in zip(gammas, own_runs):
        run = resolved.at_gamma(gamma)
        _assert_fields_equal(run, own, f"gamma={gamma!r}")
        # V0 is the mean V_0 that the trials record, ||x0 - x*||^2 + M gamma^2 sigma_0^2
        assert run.curve.V0 == pytest.approx(run_monte_carlo(run).mean_V[0], rel=1e-12, abs=0)
    for bad in (2.0 * resolved.gamma, float("nan"), 0.0, -resolved.gamma):
        with pytest.raises(StepsizeError):
            resolved.at_gamma(bad)


def test_an_empty_stepsize_grid_is_an_error():
    resolved = _resolved("sgd", "quadratic", 5, "rand_k", 3, 4, 5)
    with pytest.raises(ValueError, match="at least one gamma"):
        run_monte_carlo(resolved, [])
