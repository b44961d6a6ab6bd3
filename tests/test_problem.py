"""Problem definitions: values, analytic gradients, certified constants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgdlab.problem as problem_module
from sgdlab.problem import (
    OPT_GRAD_RTOL,
    LogisticSum,
    ProblemError,
    QuadraticSum,
    compute_constants,
    random_logistic,
    random_quadratic,
)

I2 = np.eye(2)


def quad(A_list, b_list):
    return QuadraticSum(A=np.array(A_list, dtype=float), b=np.array(b_list, dtype=float))


def test_eval_f_centered_quadratic():
    p = quad([I2], [[0, 0]])
    assert p.eval_f(np.zeros(2)) == 0.0
    assert p.eval_f(np.array([1.0, 1.0])) == 1.0


def test_eval_f_two_component_hand_value():
    # f1(1,1) = 0.5*(1+2) = 1.5, f2(1,1) = 0.5*(3+1) = 2.0, mean = 1.75
    p = quad([np.diag([1.0, 2.0]), np.diag([3.0, 1.0])], [[0, 0], [0, 0]])
    assert p.eval_f(np.array([1.0, 1.0])) == pytest.approx(1.75, rel=1e-15)


def test_grad_i_identity_hessian():
    p = quad([I2], [[0, 0]])
    np.testing.assert_array_equal(p.grad_i(0, np.array([3.0, 4.0])), [3.0, 4.0])


def test_grad_i_hand_value():
    p = quad([np.diag([1.0, 2.0])], [[1.0, 0.0]])
    np.testing.assert_allclose(p.grad_i(0, np.array([1.0, 1.0])), [0.0, 2.0], atol=0)


def test_logistic_grad_at_zero():
    # sigmoid(0) = 0.5, so grad = -0.5 * a
    p = LogisticSum(features=np.array([[1.0, 0.0]]), labels=np.array([1.0]), ridge=0.0)
    np.testing.assert_allclose(p.grad_i(0, np.zeros(2)), [-0.5, 0.0], rtol=1e-15)


def test_full_grad_single_component():
    p = quad([np.diag([2.0, 5.0])], [[1.0, -1.0]])
    x = np.array([0.3, -0.7])
    np.testing.assert_array_equal(p.eval_full_grad(x), p.grad_i(0, x))


def test_full_grad_two_components_hand_value():
    p = quad([np.diag([1.0, 2.0]), np.diag([3.0, 1.0])], [[0, 0], [0, 0]])
    np.testing.assert_allclose(p.eval_full_grad(np.array([1.0, 1.0])), [2.0, 1.5], rtol=1e-15)


def test_full_grad_vanishes_at_shared_minimizer():
    p = random_quadratic(5, 4, shift_scale=0.0, seed=3)
    c = compute_constants(p)
    assert np.linalg.norm(p.eval_full_grad(c.x_star)) <= 1e-12


def test_constants_two_component_hand_values():
    p = quad([np.diag([1.0, 2.0]), np.diag([3.0, 1.0])], [[0, 0], [0, 0]])
    c = compute_constants(p)
    assert c.L_max == 3.0
    assert c.L == pytest.approx(2.0, rel=1e-14)
    assert c.mu == pytest.approx(1.5, rel=1e-14)
    np.testing.assert_allclose(c.x_star, [0.0, 0.0], atol=1e-14)
    assert c.sigma_star_sq == 0.0


def test_constants_identity():
    p = quad([np.eye(4)], [np.zeros(4)])
    c = compute_constants(p)
    assert c.L == pytest.approx(1.0) and c.mu == pytest.approx(1.0)
    np.testing.assert_allclose(c.x_star, np.zeros(4), atol=1e-15)


def test_constants_heterogeneous_offsets():
    # grad f_i(x*) = -b_i at x* = 0, so sigma*^2 = (1 + 1)/2 = 1
    p = quad([I2, I2], [[1.0, 0.0], [-1.0, 0.0]])
    c = compute_constants(p)
    np.testing.assert_allclose(c.x_star, [0.0, 0.0], atol=1e-15)
    assert c.sigma_star_sq == pytest.approx(1.0, rel=1e-14)


def test_quadratic_optimum_matches_dense_solve_oracle():
    for seed in range(5):
        p = random_quadratic(6, 8, shift_scale=2.0, seed=seed)
        c = compute_constants(p)
        oracle = np.linalg.solve(p.A.mean(axis=0), p.b.mean(axis=0))
        np.testing.assert_allclose(c.x_star, oracle, rtol=1e-12)


def _finite_diff_grad(fval, x, h=1e-6):
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (fval(x + e) - fval(x - e)) / (2 * h)
    return g


def _component(p, i):
    """Component i of p as a one-component problem, whose eval_f is f_i."""
    if isinstance(p, QuadraticSum):
        return QuadraticSum(p.A[i : i + 1], p.b[i : i + 1])
    return LogisticSum(p.features[i : i + 1], p.labels[i : i + 1], p.ridge)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    problems = [
        random_quadratic(4, 3, shift_scale=1.5, seed=1),
        random_logistic(6, 3, ridge=0.2, seed=2),
    ]
    checks = 0
    while checks < 100:
        p = problems[checks % 2]
        i = int(rng.integers(p.n))
        x = rng.standard_normal(p.d)
        fd = _finite_diff_grad(_component(p, i).eval_f, x)
        an = p.grad_i(i, x)
        denom = max(1.0, float(np.linalg.norm(an)))
        assert np.linalg.norm(an - fd) / denom <= 1e-5
        checks += 1


@pytest.mark.parametrize(
    "problem",
    [
        random_quadratic(5, 4, shift_scale=1.0, seed=4),
        random_logistic(8, 4, ridge=0.3, seed=5),
    ],
    ids=["quadratic", "logistic"],
)
def test_smoothness_and_strong_convexity_certificates(problem):
    c = compute_constants(problem)
    rng = np.random.default_rng(17)
    for _ in range(100):
        x = 3.0 * rng.standard_normal(problem.d)
        y = 3.0 * rng.standard_normal(problem.d)
        gx, gy = problem.eval_full_grad(x), problem.eval_full_grad(y)
        assert np.linalg.norm(gx - gy) <= c.L * np.linalg.norm(x - y) * (1 + 1e-10)
        i = int(rng.integers(problem.n))
        gi_x, gi_y = problem.grad_i(i, x), problem.grad_i(i, y)
        assert np.linalg.norm(gi_x - gi_y) <= c.L_i[i] * np.linalg.norm(x - y) * (1 + 1e-10)
        lower = problem.eval_f(x) + gx @ (y - x) + 0.5 * c.mu * np.sum((y - x) ** 2)
        assert problem.eval_f(y) >= lower - 1e-10


@pytest.mark.parametrize(
    "problem",
    [
        random_quadratic(5, 4, shift_scale=1.0, seed=6),
        random_logistic(10, 3, ridge=0.5, seed=7),
    ],
    ids=["quadratic", "logistic"],
)
def test_optimality_certificate(problem):
    c = compute_constants(problem)
    grad_norm = np.linalg.norm(problem.eval_full_grad(c.x_star))
    assert grad_norm <= 1e-10 * max(1.0, np.linalg.norm(c.x_star))


def test_logistic_constants_formulas():
    p = random_logistic(7, 3, ridge=0.25, seed=9)
    c = compute_constants(p)
    np.testing.assert_allclose(c.L_i, 0.25 * np.sum(p.features**2, axis=1) + 0.25)
    assert c.mu == 0.25


def test_rejects_asymmetric_matrix():
    A = np.array([[[1.0, 0.5], [0.0, 1.0]]])
    with pytest.raises(ProblemError, match="symmetric"):
        QuadraticSum(A=A, b=np.zeros((1, 2)))


def test_rejects_degenerate_curvature():
    p = quad([np.diag([1.0, 0.0])], [[0, 0]])
    with pytest.raises(ProblemError, match="strictly positive"):
        compute_constants(p)


def test_rejects_unregularized_logistic():
    p = LogisticSum(features=np.eye(2), labels=np.array([1.0, -1.0]), ridge=0.0)
    with pytest.raises(ProblemError, match="ridge"):
        compute_constants(p)


def test_rejects_bad_labels():
    with pytest.raises(ProblemError, match="labels"):
        LogisticSum(features=np.eye(2), labels=np.array([1.0, 2.0]), ridge=0.1)


@pytest.mark.parametrize("features", [np.zeros((2, 0)), np.zeros((0, 3))], ids=["d=0", "n=0"])
def test_rejects_empty_logistic(features):
    labels = np.ones(len(features))
    with pytest.raises(ProblemError, match="n >= 1 and d >= 1"):
        LogisticSum(features=features, labels=labels, ridge=1.0)


def test_dimension_errors():
    p = quad([I2], [[0, 0]])
    with pytest.raises(ValueError, match="dimension"):
        p.eval_f(np.zeros(3))
    with pytest.raises(ValueError, match="dimension"):
        p.eval_full_grad(np.zeros(3))


def test_constants_ordering_invariant():
    problems = [
        random_quadratic(5, 4, shift_scale=1.0, seed=s) for s in range(3)
    ] + [random_logistic(8, 4, ridge=0.3, seed=s) for s in range(3)]
    for p in problems:
        c = compute_constants(p)
        assert 0 < c.mu <= c.L <= c.L_max * (1 + 1e-12)


def test_generator_is_seeded_and_prescribes_spectrum():
    p1 = random_quadratic(3, 4, seed=42)
    p2 = random_quadratic(3, 4, seed=42)
    np.testing.assert_array_equal(p1.A, p2.A)
    np.testing.assert_array_equal(p1.b, p2.b)
    for i in range(3):
        np.testing.assert_allclose(
            np.linalg.eigvalsh(p1.A[i]), np.linspace(1.0, 3.0, 4), rtol=1e-12
        )


@pytest.mark.parametrize("generate", [random_quadratic, random_logistic], ids=["quadratic", "logistic"])
def test_generators_reject_a_negative_seed_by_name(generate):
    with pytest.raises(ProblemError, match="seed must be a non-negative integer, got -1"):
        generate(3, 2, seed=-1)


@settings(max_examples=100, deadline=None)
@given(
    shape=st.sampled_from([(10, 50), (5, 20), (3, 8), (40, 4), (60, 3), (25, 1)]),
    log_ridge=st.floats(-9.0, 1.0),
    log_scale=st.floats(-3.0, 2.0),
    seed=st.integers(0, 2**16),
)
def test_logistic_optimum_meets_the_certificate(shape, log_ridge, log_scale, seed):
    # separable (n < d) and non-separable (n > d) data, ridge down to 1e-9
    n, d = shape
    p = random_logistic(n, d, ridge=10.0**log_ridge, feature_scale=10.0**log_scale, seed=seed)
    c = compute_constants(p)
    grad_norm = np.linalg.norm(p.eval_full_grad(c.x_star))
    assert grad_norm <= OPT_GRAD_RTOL * max(1.0, np.linalg.norm(c.x_star))


def test_nan_optimum_fails_the_certificate(monkeypatch):
    p = random_logistic(5, 3, ridge=0.1, seed=1)
    monkeypatch.setattr(problem_module, "_logistic_optimum", lambda prob: np.full(prob.d, np.nan))
    with pytest.raises(ProblemError, match="optimum certificate failed"):
        compute_constants(p)


@pytest.mark.parametrize(
    "make",
    [
        lambda: QuadraticSum(A=np.array([[[np.nan]]]), b=np.zeros((1, 1))),
        lambda: QuadraticSum(A=np.eye(2)[None], b=np.array([[np.inf, 0.0]])),
        lambda: LogisticSum(features=np.array([[np.nan, 1.0]]), labels=np.array([1.0]), ridge=0.1),
        lambda: LogisticSum(features=np.eye(2), labels=np.array([1.0, -1.0]), ridge=np.inf),
        lambda: LogisticSum(features=np.eye(2), labels=np.array([1.0, -1.0]), ridge=np.nan),
    ],
    ids=["quadratic-nan-matrix", "quadratic-inf-offset", "logistic-nan-feature", "ridge-inf", "ridge-nan"],
)
def test_rejects_non_finite_input(make):
    with pytest.raises(ProblemError, match="finite"):
        make()


@pytest.mark.parametrize("family", ["quadratic", "logistic"])
@pytest.mark.parametrize("d", [1, 5, 20, 33])
def test_component_and_full_grads_equal_the_two_calls_bit_for_bit(family, d):
    problem = random_quadratic(7, d, seed=d) if family == "quadratic" else random_logistic(7, d, ridge=0.1, seed=d)
    rng = np.random.default_rng(d)
    for shape in [(d,), (1, d), (6, d)]:
        for scale in (1e-3, 1.0, 1e3):
            X = scale * rng.standard_normal(shape)
            G, g = problem.component_and_full_grads(X)
            expected_G, expected_g = problem.component_grads(X), problem.full_grads(X)
            assert G.shape == expected_G.shape and g.shape == expected_g.shape
            assert G.tobytes() == expected_G.tobytes() and g.tobytes() == expected_g.tobytes()
