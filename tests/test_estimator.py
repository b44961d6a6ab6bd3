"""Estimator sampling rules, sigma trackers, and certificates."""

import math

import numpy as np
import pytest

from sgdlab.compressor import BernoulliScale, Identity, RandK
from sgdlab.estimator import (
    CDGD,
    DIANA,
    ESTIMATORS,
    LSVRG,
    RCD,
    FullGradient,
    NoisyGradient,
    SGDStar,
    UniformSGD,
)
from sgdlab.harness import STREAM_CHUNK, ExperimentConfig, run_trajectory, verify_assumption
from sgdlab.problem import QuadraticSum, compute_constants, random_logistic, random_quadratic

PROBLEM = random_quadratic(6, 4, eig_lo=1.0, eig_hi=3.0, shift_scale=1.0, seed=21)
CONSTANTS = compute_constants(PROBLEM)

ALL_KINDS = [
    FullGradient(),
    UniformSGD(),
    NoisyGradient(sigma=0.2),
    SGDStar(),
    LSVRG(p=0.2),
    CDGD(compressor=RandK(k=1)),
    DIANA(compressor=RandK(k=1)),
    RCD(),
]


def _ids(kinds):
    return [k.name for k in kinds]


# ---------------------------------------------------------------- certificates


def test_certificate_full_gradient():
    c = FullGradient().certificate(PROBLEM, CONSTANTS)
    assert (c.A, c.B, c.C, c.D1, c.D2, c.rho) == (CONSTANTS.L, 0, 0, 0, 0, 1)
    assert not c.has_sigma


def test_certificate_uniform_sgd_expected_smoothness():
    c = UniformSGD().certificate(PROBLEM, CONSTANTS)
    assert c.A == 2 * CONSTANTS.L_max
    assert c.D1 == 2 * CONSTANTS.sigma_star_sq
    assert (c.B, c.C, c.D2, c.rho) == (0, 0, 0, 1)


def test_certificate_noisy_gradient_total_variance():
    c = NoisyGradient(sigma=0.5).certificate(PROBLEM, CONSTANTS)
    assert c.A == CONSTANTS.L
    assert c.D1 == pytest.approx(PROBLEM.d * 0.25, rel=1e-15)


def test_certificate_sgd_star():
    c = SGDStar().certificate(PROBLEM, CONSTANTS)
    assert (c.A, c.B, c.C, c.D1, c.D2, c.rho) == (CONSTANTS.L_max, 0, 0, 0, 0, 1)


def test_certificate_lsvrg():
    p = 0.25
    c = LSVRG(p=p).certificate(PROBLEM, CONSTANTS)
    assert c.A == 2 * CONSTANTS.L_max
    assert c.B == 2.0
    assert c.C == pytest.approx(p * CONSTANTS.L_max, rel=1e-15)
    assert c.rho == p and c.has_sigma


def test_certificate_cdgd():
    omega = 3.0  # rand-1 in d=4
    c = CDGD(compressor=RandK(k=1)).certificate(PROBLEM, CONSTANTS)
    n = PROBLEM.n
    assert c.A == pytest.approx(CONSTANTS.L + 2 * omega * CONSTANTS.L_max / n, rel=1e-15)
    assert c.D1 == pytest.approx(2 * omega * CONSTANTS.sigma_star_sq / n, rel=1e-15)
    assert (c.B, c.C, c.D2, c.rho) == (0, 0, 0, 1)


def test_certificate_diana():
    omega = 3.0
    alpha = 1 / (1 + omega)
    c = DIANA(compressor=RandK(k=1)).certificate(PROBLEM, CONSTANTS)
    n = PROBLEM.n
    assert c.A == pytest.approx(2 * CONSTANTS.L + 2 * omega * CONSTANTS.L_max / n, rel=1e-15)
    assert c.B == pytest.approx(2 + 2 * omega / n, rel=1e-15)
    assert c.C == pytest.approx(alpha * CONSTANTS.L_max, rel=1e-15)
    assert c.rho == pytest.approx(alpha, rel=1e-15) and c.has_sigma


def test_certificate_rcd():
    c = RCD().certificate(PROBLEM, CONSTANTS)
    assert c.A == pytest.approx(PROBLEM.d * CONSTANTS.L, rel=1e-15)
    assert not c.has_sigma


@pytest.mark.parametrize("est", ALL_KINDS, ids=_ids(ALL_KINDS))
def test_certificate_formulas_evaluate_to_the_certificate(est):
    # the formula text `sgdlab list` prints must not drift from certificate()
    assert sorted(_ids(ALL_KINDS)) == sorted(ESTIMATORS)
    assert ESTIMATORS[est.name] is type(est)
    compressor = getattr(est, "compressor", None)
    names = {
        "L": CONSTANTS.L,
        "L_max": CONSTANTS.L_max,
        "sigma_star": math.sqrt(CONSTANTS.sigma_star_sq),
        "n": PROBLEM.n,
        "d": PROBLEM.d,
        "p": getattr(est, "p", None),
        "sigma": getattr(est, "sigma", None),
        "omega": None if compressor is None else compressor.omega(PROBLEM.d),
        "alpha": est.resolved_alpha(PROBLEM.d) if isinstance(est, DIANA) else None,
    }
    terms = [term.split("=") for term in type(est).formula.split(", ")]
    assert [key for key, _ in terms] == ["A", "B", "C", "D1", "D2", "rho"]
    cert = est.certificate(PROBLEM, CONSTANTS)
    for key, formula in terms:
        value = eval(formula.replace("^", "**"), {"__builtins__": {}}, names)
        assert value == pytest.approx(getattr(cert, key), rel=1e-12, abs=0.0), (key, formula)


# ---------------------------------------------------------------- init_state


def test_lsvrg_init_at_optimum_has_zero_sigma():
    st = LSVRG(p=0.1).init_state(PROBLEM, CONSTANTS, CONSTANTS.x_star)
    assert st.sigma_sq == 0.0


def test_diana_init_sigma_is_variance_at_solution():
    st = DIANA(compressor=RandK(k=1)).init_state(PROBLEM, CONSTANTS, CONSTANTS.x_star + 1.0)
    assert st.sigma_sq == pytest.approx(CONSTANTS.sigma_star_sq, rel=1e-15)


def test_stateless_kinds_have_zero_sigma():
    for est in (FullGradient(), UniformSGD(), SGDStar(), RCD()):
        st = est.init_state(PROBLEM, CONSTANTS, np.ones(PROBLEM.d))
        assert st.sigma_sq == 0.0 and st.shifts is None and st.shift_mean is None


# ---------------------------------------------------------------- sampling rules


def _replicas(est, x, state, rng, samples, problem=PROBLEM, constants=CONSTANTS):
    """One step of `samples` replicas of (x, state); returns (G, advanced batch state)."""
    batch = state.tile(samples)
    X = np.tile(x, (samples, 1))
    return est.step(problem, constants, X, batch, est.draw(problem, rng, samples)), batch


def test_sgd_star_is_exactly_zero_at_optimum():
    est = SGDStar()
    st = est.init_state(PROBLEM, CONSTANTS, CONSTANTS.x_star)
    G, _ = _replicas(est, CONSTANTS.x_star, st, np.random.default_rng(5), 50)
    assert np.all(G == 0.0)


def test_lsvrg_with_reference_at_x_returns_full_gradient():
    est = LSVRG(p=0.0001)
    x = np.array([0.3, -1.0, 2.0, 0.7])
    st = est.init_state(PROBLEM, CONSTANTS, x)
    (g,), _ = _replicas(est, x, st, np.random.default_rng(6), 1)
    np.testing.assert_array_equal(g, PROBLEM.eval_full_grad(x))


def test_diana_identity_alpha_one_telescopes():
    est = DIANA(compressor=Identity(), alpha=1.0)
    x = np.array([1.0, 0.5, -0.5, 2.0])
    st = est.init_state(PROBLEM, CONSTANTS, x)
    (g,), batch = _replicas(est, x, st, np.random.default_rng(7), 1)
    np.testing.assert_allclose(g, PROBLEM.eval_full_grad(x), rtol=1e-15)
    np.testing.assert_allclose(batch.shifts[0], PROBLEM.component_grads(x), rtol=1e-15)


def test_rcd_two_point_outcome_space():
    prob = QuadraticSum(A=np.eye(2)[None], b=np.zeros((1, 2)))
    cons = compute_constants(prob)
    x = np.array([1.0, 3.0])  # grad f = (1, 3)
    est = RCD()
    st = est.init_state(prob, cons, x)
    G, _ = _replicas(est, x, st, np.random.default_rng(8), 100, prob, cons)
    assert {tuple(g) for g in G} == {(2.0, 0.0), (0.0, 6.0)}
    np.testing.assert_allclose(est.exact_moments(prob, cons, st, x)[0], [1.0, 3.0], rtol=1e-15)


def _replay_layout_v2(est, shadow_chunk, check_step, trial=3, seed=1234):
    """Replay trial `trial` step by step from a shadow of its stream.

    shadow_chunk(shadow) must draw one chunk of STREAM_CHUNK steps the way
    stream layout 2 documents it; check_step(draws, x, before, G, after) checks
    one step against the estimator's rule.  The replayed squared distances
    must equal run_trajectory's bit for bit, across a chunk boundary.
    """
    steps = STREAM_CHUNK + 20
    cfg = ExperimentConfig(
        problem=PROBLEM, estimator=est, gamma=0.05, steps=steps, trials=trial + 1,
        seed=seed, record_every=1,
    )
    resolved = cfg.resolve()
    shadow = np.random.default_rng([seed, 0, trial])
    X = resolved.x0[None, :].copy()
    batch = est.init_state(PROBLEM, CONSTANTS, resolved.x0).tile(1)
    dist = []
    for k in range(steps + 1):
        if k > 0:
            t = (k - 1) % STREAM_CHUNK
            if t == 0:
                chunk = shadow_chunk(shadow)
            draws = [a[t : t + 1] for a in chunk]
            before = batch.row(0)
            G = est.step(PROBLEM, CONSTANTS, X, batch, draws)
            check_step([a[0] for a in draws], X[0], before, G[0], batch.row(0))
            X -= 0.05 * G
        diff = X - CONSTANTS.x_star
        dist.append(np.einsum("rd,rd->r", diff, diff)[0])
    (traced,), _ = run_trajectory(resolved, range(trial, trial + 1))
    np.testing.assert_array_equal(traced, dist)


def test_lsvrg_randomness_order_index_then_coin():
    # stream layout 2: a chunk draws all of its component indices, then all of its refresh coins,
    # which it thresholds once into the refresh mask random(c) < p
    est = LSVRG(p=0.5)
    chunk = lambda shadow: (shadow.integers(PROBLEM.n, size=STREAM_CHUNK), shadow.random(STREAM_CHUNK) < est.p)
    i, refresh = est.draw(PROBLEM, np.random.default_rng(5), STREAM_CHUNK)
    shadow_i, shadow_refresh = chunk(np.random.default_rng(5))
    np.testing.assert_array_equal(i, shadow_i)
    assert refresh.dtype == bool
    np.testing.assert_array_equal(refresh, shadow_refresh)
    refreshes = []

    def check_step(draws, x, before, g, after):
        i, refresh = int(draws[0]), bool(draws[1])
        expected = PROBLEM.grad_i(i, x) - before.shifts[i] + before.shift_mean
        np.testing.assert_array_equal(g, expected)
        # a refresh re-anchors the shift table at the current iterate
        np.testing.assert_array_equal(after.shifts, PROBLEM.component_grads(x) if refresh else before.shifts)
        mean = PROBLEM.eval_full_grad(x) if refresh else before.shift_mean
        np.testing.assert_array_equal(after.shift_mean, mean)
        refreshes.append(refresh)

    _replay_layout_v2(est, chunk, check_step)
    assert 0 < sum(refreshes) < len(refreshes)


def test_diana_rand_k_stream_layout():
    # stream layout 2: swap j of the partial Fisher-Yates shuffle draws
    # integers(j, d) for every (step, worker) of the chunk at once; the draw is the keep mask
    k, d, n = 2, PROBLEM.d, PROBLEM.n
    est = DIANA(compressor=RandK(k=k))
    alpha = est.resolved_alpha(d)

    def chunk(shadow):
        swaps = [shadow.integers(j, d, size=(STREAM_CHUNK, n)) for j in range(k)]
        keep = np.zeros((STREAM_CHUNK, n, d), dtype=bool)
        for t in range(STREAM_CHUNK):
            for i in range(n):
                perm = list(range(d))
                for j in range(k):
                    r = swaps[j][t, i]
                    perm[j], perm[r] = perm[r], perm[j]
                keep[t, i, perm[:k]] = True
        return (keep,)

    def check_step(draws, x, before, g, after):
        (keep,) = draws
        u = PROBLEM.component_grads(x) - before.shifts
        delta = np.zeros_like(u)
        for i in range(n):
            delta[i, keep[i]] = u[i, keep[i]] * (d / k)
        np.testing.assert_allclose(g, (before.shifts + delta).sum(axis=0) / n, rtol=1e-13, atol=1e-15)
        np.testing.assert_array_equal(after.shifts, before.shifts + alpha * delta)

    _replay_layout_v2(est, chunk, check_step)


# ------------------------------------------------- the step's result is the caller's

OWNED_KINDS = ALL_KINDS + [CDGD(compressor=BernoulliScale(q=0.5)), DIANA(compressor=BernoulliScale(q=0.5))]
OWNED_IDS = [e.name + (f"-{e.compressor.name}" if hasattr(e, "compressor") else "") for e in OWNED_KINDS]
LOGISTIC = random_logistic(6, 4, ridge=0.3, seed=22)
FAMILY_PROBLEMS = {"quadratic": (PROBLEM, CONSTANTS), "logistic": (LOGISTIC, compute_constants(LOGISTIC))}


def _arrays(obj) -> dict:
    """Copies of every array an object holds: its fields, a state's sigma_sq, a draw tuple's entries."""
    items = enumerate(obj) if isinstance(obj, tuple) else vars(obj).items()
    return {name: np.copy(v) for name, v in items if isinstance(v, (np.ndarray, float))}


@pytest.mark.parametrize("family", sorted(FAMILY_PROBLEMS))
@pytest.mark.parametrize("est", OWNED_KINDS, ids=OWNED_IDS)
@pytest.mark.parametrize("rows", [1, 7], ids=["shared-row", "tiled"])
def test_step_result_belongs_to_the_caller(est, family, rows):
    """Scaling G in place, as the trajectory kernel does, changes nothing the step read or wrote."""
    problem, constants = FAMILY_PROBLEMS[family]
    rng = np.random.default_rng(23)
    R = 7
    X = constants.x_star + rng.standard_normal((rows, problem.d))
    state = est.init_state(problem, constants, rng.standard_normal(problem.d)).tile(R)
    draws = est.draw(problem, rng, R)
    G = est.step(problem, constants, X, state, draws)
    read = {"X": (X,), "state": state, "draws": tuple(draws), "problem": problem, "constants": constants}
    held = {name: _arrays(obj) for name, obj in read.items()}
    assert held["problem"] and held["constants"] and (held["draws"] or est.name == "gd")
    G *= 2.0
    for name, obj in read.items():
        after = _arrays(obj)
        assert after.keys() == held[name].keys()
        for key, value in after.items():
            np.testing.assert_array_equal(value, held[name][key], err_msg=f"{name}.{key}")


# --------------------------------------------------- unbiasedness (exact + MC)


@pytest.mark.parametrize(
    "est",
    [UniformSGD(), SGDStar(), LSVRG(p=0.3), RCD(), CDGD(compressor=RandK(k=1)), DIANA(compressor=RandK(k=1))],
    ids=_ids([UniformSGD(), SGDStar(), LSVRG(p=0.3), RCD(), CDGD(compressor=RandK(k=1)), DIANA(compressor=RandK(k=1))]),
)
def test_exact_mean_is_full_gradient(est):
    rng = np.random.default_rng(31)
    atol = 1e-10 * max(1.0, float(np.linalg.norm(CONSTANTS.x_star)))
    for _ in range(20):
        x = CONSTANTS.x_star + rng.standard_normal(PROBLEM.d)
        st = est.init_state(PROBLEM, CONSTANTS, rng.standard_normal(PROBLEM.d))
        mean, _, _ = est.exact_moments(PROBLEM, CONSTANTS, st, x)
        target = PROBLEM.eval_full_grad(x)
        scale = max(1.0, float(np.abs(target).max()))
        np.testing.assert_allclose(mean, target, rtol=1e-12, atol=1e-12 * scale + atol)


@pytest.mark.parametrize(
    "est,samples",
    [
        (NoisyGradient(sigma=0.3), 10**5),
        (UniformSGD(), 2 * 10**4),
        (LSVRG(p=0.3), 2 * 10**4),
        (CDGD(compressor=RandK(k=2)), 2 * 10**4),
        (DIANA(compressor=RandK(k=2)), 2 * 10**4),
    ],
    ids=["noisy_gd", "sgd", "lsvrg", "cdgd", "diana"],
)
def test_statistical_unbiasedness_through_sampler(est, samples):
    rng = np.random.default_rng(37)
    points = 20 if est.name == "noisy_gd" else 5
    for _ in range(points):
        x = CONSTANTS.x_star + rng.standard_normal(PROBLEM.d)
        st0 = est.init_state(PROBLEM, CONSTANTS, rng.standard_normal(PROBLEM.d))
        draws, _ = _replicas(est, x, st0, rng, samples)
        se = draws.std(axis=0, ddof=1) / np.sqrt(samples)
        dev = np.abs(draws.mean(axis=0) - PROBLEM.eval_full_grad(x))
        assert np.all(dev <= 4.0 * se + 1e-12)


# ----------------------------------- certificate inequalities at random states


@pytest.mark.parametrize("est", ALL_KINDS, ids=_ids(ALL_KINDS))
def test_assumption_inequalities_hold(est):
    report = verify_assumption(
        PROBLEM, CONSTANTS, est, num_points=25, samples_per_point=4000, seed=100
    )
    assert report.passed, "\n".join(c.line() for c in report.checks if not c.passed)


def test_sigma_recursion_exact_two_branch_lsvrg():
    est = LSVRG(p=0.4)
    rng = np.random.default_rng(50)
    x = CONSTANTS.x_star + rng.standard_normal(PROBLEM.d)
    st = est.init_state(PROBLEM, CONSTANTS, rng.standard_normal(PROBLEM.d))
    # brute expectation over the refresh coin
    sigma_x = float(
        np.mean(np.sum((PROBLEM.component_grads(x) - CONSTANTS.grads_at_star) ** 2, axis=1))
    )
    expected = (1 - est.p) * st.sigma_sq + est.p * sigma_x
    assert est.exact_moments(PROBLEM, CONSTANTS, st, x)[2] == pytest.approx(expected, rel=1e-14)


def test_diana_sigma_recursion_matches_monte_carlo():
    est = DIANA(compressor=RandK(k=1))
    rng = np.random.default_rng(51)
    x = CONSTANTS.x_star + rng.standard_normal(PROBLEM.d)
    st = est.init_state(PROBLEM, CONSTANTS, x)
    st.shifts = CONSTANTS.grads_at_star + 0.5 * rng.standard_normal(st.shifts.shape)
    st.sigma_sq = float(np.mean(np.sum((st.shifts - CONSTANTS.grads_at_star) ** 2, axis=1)))
    _, _, exact = est.exact_moments(PROBLEM, CONSTANTS, st, x)
    samples = 20000
    _, batch = _replicas(est, x, st, rng, samples)
    vals = batch.sigma_sq
    se = vals.std(ddof=1) / np.sqrt(samples)
    assert abs(vals.mean() - exact) <= 4 * se


# ----------------------------------------------------------- state consistency


@pytest.mark.parametrize("est", [LSVRG(p=0.5), DIANA(compressor=RandK(k=1))], ids=["lsvrg", "diana"])
def test_sigma_tracker_matches_recomputation(est):
    rng = np.random.default_rng(60)
    x = CONSTANTS.x_star + rng.standard_normal(PROBLEM.d)
    X, batch = x[None, :], est.init_state(PROBLEM, CONSTANTS, x).tile(1)
    draws = est.draw(PROBLEM, rng, 40)
    for t in range(40):
        X = X - 0.05 * est.step(PROBLEM, CONSTANTS, X, batch, [a[t : t + 1] for a in draws])
        st = batch.row(0)
        fresh = float(np.mean(np.sum((st.shifts - CONSTANTS.grads_at_star) ** 2, axis=1)))
        assert st.sigma_sq == pytest.approx(fresh, rel=1e-12, abs=1e-300)


def test_parameter_validation():
    with pytest.raises(ValueError, match="refresh probability"):
        LSVRG(p=0.0)
    with pytest.raises(ValueError, match="refresh probability"):
        LSVRG(p=1.5)
    with pytest.raises(ValueError, match="sigma"):
        NoisyGradient(sigma=-1.0)
    with pytest.raises(ValueError, match="alpha"):
        DIANA(compressor=RandK(k=1), alpha=0.9).certificate(PROBLEM, CONSTANTS)
