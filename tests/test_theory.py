"""Bound evaluation: admissible stepsizes, contraction/floor, recursion oracle."""

import math

import numpy as np
import pytest

from sgdlab.estimator import Certificate
from sgdlab.theory import (
    StepsizeError,
    bound_curve,
    default_M,
    max_stepsize,
    recursion_oracle,
)


def gd_cert(L):
    return Certificate(A=L, B=0, C=0, D1=0, D2=0, rho=1, has_sigma=False)


def lsvrg_cert(L_max, p):
    return Certificate(A=2 * L_max, B=2, C=p * L_max, D1=0, D2=0, rho=p, has_sigma=True)


def diana_cert(L, L_max, n, omega, alpha):
    return Certificate(
        A=2 * L + 2 * omega * L_max / n,
        B=2 + 2 * omega / n,
        C=alpha * L_max,
        D1=0,
        D2=0,
        rho=alpha,
        has_sigma=True,
    )


def test_default_M_matches_named_weights():
    assert default_M(lsvrg_cert(L_max=3.0, p=0.1)) == pytest.approx(4 / 0.1, rel=1e-15)
    assert default_M(gd_cert(2.0)) == 0.0
    omega, n, alpha = 4.0, 10, 0.2
    cert = diana_cert(L=2.0, L_max=3.0, n=n, omega=omega, alpha=alpha)
    assert default_M(cert) == pytest.approx((4 + 4 * omega / n) / alpha, rel=1e-15)


def test_max_stepsize_named_values():
    L_max, p, mu = 3.0, 0.05, 1.0
    cert = lsvrg_cert(L_max, p)
    assert max_stepsize(cert, mu, default_M(cert)) == pytest.approx(1 / (6 * L_max), rel=1e-12)
    assert max_stepsize(gd_cert(L=2.0), mu, 0.0) == pytest.approx(0.5, rel=1e-15)
    d, L = 7, 2.0
    rcd = gd_cert(d * L)
    assert max_stepsize(rcd, mu, 0.0) == pytest.approx(1 / (d * L), rel=1e-15)
    # pure noiseless degenerate certificate: only the 1/mu branch remains
    free = Certificate(A=0, B=0, C=0, D1=0, D2=0, rho=1, has_sigma=False)
    assert max_stepsize(free, 2.0, 0.0) == 0.5


def test_bound_curve_ubv_floor():
    L, mu, sigma_sq = 2.0, 0.5, 3.0
    cert = Certificate(A=L, B=0, C=0, D1=sigma_sq, D2=0, rho=1, has_sigma=False)
    gamma = 1 / L
    curve = bound_curve(cert, mu, gamma, 0.0, V0=1.0)
    assert curve.contraction == pytest.approx(1 - gamma * mu, rel=1e-15)
    assert curve.floor == pytest.approx(gamma * sigma_sq / mu, rel=1e-12)


def test_bound_curve_expected_smoothness_floor():
    L_max, mu, sig_star = 3.0, 1.0, 0.8
    cert = Certificate(A=2 * L_max, B=0, C=0, D1=2 * sig_star, D2=0, rho=1, has_sigma=False)
    gamma = 1 / (2 * L_max)
    curve = bound_curve(cert, mu, gamma, 0.0, V0=2.0)
    assert curve.floor == pytest.approx(2 * gamma * sig_star / mu, rel=1e-12)


def test_bound_curve_lsvrg_rate():
    L_max, p, mu = 3.0, 0.05, 1.0
    cert = lsvrg_cert(L_max, p)
    M = default_M(cert)
    gamma = 1 / (6 * L_max)
    curve = bound_curve(cert, mu, gamma, M, V0=1.0)
    assert curve.contraction == pytest.approx(1 - min(gamma * mu, p / 2), rel=1e-12)
    assert curve.floor == 0.0


def test_bound_curve_cdgd_floor():
    L, L_max, n, omega, mu, zeta = 2.0, 3.0, 10, 4.0, 1.0, 0.6
    cert = Certificate(
        A=L + 2 * omega * L_max / n,
        B=0,
        C=0,
        D1=2 * omega * zeta / n,
        D2=0,
        rho=1,
        has_sigma=False,
    )
    gamma = max_stepsize(cert, mu, 0.0)
    curve = bound_curve(cert, mu, gamma, 0.0, V0=1.0)
    assert curve.floor == pytest.approx(2 * gamma * omega * zeta / (n * mu), rel=1e-12)


def test_bound_at_values():
    cert = gd_cert(1.0)
    curve = bound_curve(cert, mu=0.1, gamma=1.0, M=0.0, V0=1.0)
    assert curve.bound_at(0) == pytest.approx(1.0, rel=1e-15)
    assert curve.bound_at(10) == pytest.approx(0.9**10, rel=1e-15)  # 0.3486784401
    assert curve.bound_at(10**4) < 1e-300  # underflows cleanly when D1 = D2 = 0


def test_recursion_is_geometric_when_noiseless():
    cert = lsvrg_cert(3.0, 0.2)
    M = default_M(cert)
    gamma = max_stepsize(cert, 1.0, M)
    seq = recursion_oracle(cert, 1.0, gamma, M, V0=2.0, K=50)
    curve = bound_curve(cert, 1.0, gamma, M, V0=2.0)
    np.testing.assert_allclose(seq, 2.0 * curve.contraction ** np.arange(51), rtol=1e-12)


def test_floor_is_recursion_fixed_point():
    cert = Certificate(A=2.0, B=0, C=0, D1=1.5, D2=0, rho=1, has_sigma=False)
    gamma = 0.3
    curve = bound_curve(cert, 1.0, gamma, 0.0, V0=0.0)
    seq = recursion_oracle(cert, 1.0, gamma, 0.0, V0=curve.floor, K=200)
    assert np.all(seq <= curve.floor * (1 + 1e-12))
    np.testing.assert_allclose(seq, curve.floor, rtol=1e-9)


def _random_certificate(rng):
    has_sigma = bool(rng.random() < 0.5)
    if has_sigma:
        cert = Certificate(
            A=float(rng.uniform(0.1, 10)),
            B=float(rng.uniform(0, 5)),
            C=float(rng.uniform(0, 3)),
            D1=float(rng.uniform(0, 2)),
            D2=float(rng.uniform(0, 2)),
            rho=float(rng.uniform(0.01, 1.0)),
            has_sigma=True,
        )
    else:
        cert = Certificate(
            A=float(rng.uniform(0.1, 10)),
            B=0,
            C=0,
            D1=float(rng.uniform(0, 2)),
            D2=0,
            rho=1.0,
            has_sigma=False,
        )
    return cert


def test_closed_form_dominates_recursion_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        cert = _random_certificate(rng)
        mu = float(rng.uniform(0.05, 5))
        M = default_M(cert) * float(rng.uniform(1.0, 3.0)) if cert.has_sigma else 0.0
        gamma = max_stepsize(cert, mu, M) * float(rng.uniform(0.05, 1.0))
        V0 = float(rng.uniform(0, 10))
        seq = recursion_oracle(cert, mu, gamma, M, V0, K=1000)
        curve = bound_curve(cert, mu, gamma, M, V0)
        closed = curve.bound_at(np.arange(1001))
        assert np.all(closed >= seq - 1e-12 * np.maximum(closed, 1e-300))


def test_floor_monotone_in_stepsize():
    cert = Certificate(A=4.0, B=0, C=0, D1=2.0, D2=0, rho=1, has_sigma=False)
    mu = 1.0
    gmax = max_stepsize(cert, mu, 0.0)
    floors = [bound_curve(cert, mu, g, 0.0, 1.0).floor for g in np.linspace(0.05, 1.0, 20) * gmax]
    assert all(b >= a - 1e-15 for a, b in zip(floors, floors[1:]))


def test_contraction_below_one():
    rng = np.random.default_rng(7)
    for _ in range(50):
        cert = _random_certificate(rng)
        mu = float(rng.uniform(0.05, 5))
        M = default_M(cert) if cert.has_sigma else 0.0
        gamma = max_stepsize(cert, mu, M) * float(rng.uniform(0.05, 1.0))
        assert bound_curve(cert, mu, gamma, M, 1.0).contraction < 1.0


def test_stepsize_rejection_reports_maximum():
    cert = gd_cert(4.0)
    with pytest.raises(StepsizeError, match="admissible maximum"):
        bound_curve(cert, 1.0, 0.3, 0.0, 1.0)
    max_str = f"{max_stepsize(cert, 1.0, 0.0):g}"
    with pytest.raises(StepsizeError, match=max_str):
        bound_curve(cert, 1.0, 0.3, 0.0, 1.0)
    # NaN fails every comparison, so it must not pass as an admissible stepsize
    with pytest.raises(StepsizeError, match="stepsize must be > 0, got nan"):
        bound_curve(cert, 1.0, float("nan"), 0.0, 1.0)


def test_invalid_lyapunov_weight_rejected():
    cert = lsvrg_cert(3.0, 0.1)
    with pytest.raises(StepsizeError, match="B/rho"):
        max_stepsize(cert, 1.0, cert.B / cert.rho)  # boundary value is not enough
    with pytest.raises(StepsizeError, match="M must be >= 0, got nan"):
        max_stepsize(cert, 1.0, float("nan"))
    with pytest.raises(StepsizeError, match="M must be >= 0, got nan"):
        bound_curve(gd_cert(4.0), 1.0, 0.1, float("nan"), 1.0)


def test_an_overflowing_auto_lyapunov_weight_is_rejected_as_the_weight():
    # rho = 1e-320 makes the auto weight 2B/rho overflow; max_stepsize would then be 1/(A + C inf) = 0
    cert = lsvrg_cert(3.0, 1e-320)
    M = default_M(cert)
    assert M == math.inf
    with pytest.raises(StepsizeError, match=r"M must be finite, got inf \(the auto M = 2B/rho is inf at B = 2, rho = "):
        max_stepsize(cert, 1.0, M)


def test_full_stepsize_edge_gives_zero_contraction():
    cert = gd_cert(0.5)  # 1/mu < 1/A, so gamma = 1/mu is admissible
    curve = bound_curve(cert, 1.0, 1.0, 0.0, 1.0)
    assert curve.contraction == 0.0
    assert curve.bound_at(3) == 0.0


def test_bound_curve_keeps_a_rate_that_one_minus_it_rounds_away():
    # gamma mu = 1e-17 < 2^-53: the contraction rounds to 1, the stored rate does not
    mu, gamma = 0.5, 2e-17
    curve = bound_curve(gd_cert(1.0), mu, gamma, 0.0, 1.0)
    assert curve.contraction == 1.0 and curve.rate == gamma * mu


def test_a_rate_that_rounds_to_zero_is_rejected():
    with pytest.raises(StepsizeError, match="needs r > 0"):
        bound_curve(gd_cert(1.0), 0.2, 5e-324, 0.0, 1.0)


def test_a_stepsize_whose_square_overflows_gives_floor_zero_where_d1_and_m_are_zero():
    # gamma = 1/mu = 1e200: gamma**2 overflows float64, but D1 + M D2 = 0 never multiplies it
    cert = gd_cert(1e-200)
    curve = bound_curve(cert, 1e-200, 1e200, 0.0, V0=1.0)
    assert curve.floor == 0.0 and curve.contraction == pytest.approx(0.0, abs=1e-15)
    seq = recursion_oracle(cert, 1e-200, 1e200, 0.0, V0=1.0, K=3)
    assert seq[0] == 1.0 and np.isfinite(seq).all()


def test_certificate_invariants():
    with pytest.raises(ValueError, match="rho"):
        Certificate(A=1, B=0, C=0, D1=0, D2=0, rho=0.0, has_sigma=False)
    with pytest.raises(ValueError, match="must be 0"):
        Certificate(A=1, B=1, C=0, D1=0, D2=0, rho=0.5, has_sigma=False)
    with pytest.raises(ValueError, match="finite"):
        Certificate(A=-1, B=0, C=0, D1=0, D2=0, rho=1, has_sigma=False)
