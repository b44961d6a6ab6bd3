"""Closed-form convergence bound for certified SGD-type methods.

Given a certificate (A, B, C, D1, D2, rho), a strong-convexity constant mu,
a stepsize gamma <= min{1/mu, 1/(A + C M)} and a Lyapunov weight M > B/rho,
the expected Lyapunov value V_k = ||x^k - x*||^2 + M gamma^2 sigma_k^2 obeys

    E[V_k] <= (1 - r)^k V_0 + (D1 + M D2) gamma^2 / r,
    r = min{gamma mu, rho - B/M}.

For certificates without a sigma sequence the min collapses to gamma*mu and
M plays no role (V_k is just the squared distance).  lyapunov_value and
noise_term are the one place V and the per-step noise (D1 + M D2) gamma^2 are
formed; neither squares gamma where its factor is 0, so an admissible
stepsize whose square overflows float64 still runs where the weight is inert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import Certificate


class StepsizeError(ValueError):
    """Stepsize or Lyapunov weight violates the admissibility conditions."""


def default_M(cert: Certificate) -> float:
    """Default Lyapunov weight: 2B/rho, so that rho - B/M = rho/2.

    Returns 0 when the certificate has no sigma sequence (the weight is
    inert there).
    """
    if not cert.has_sigma:
        return 0.0
    return 2.0 * cert.B / cert.rho


def _check_M(cert: Certificate, M: float) -> None:
    # written as not (...) so that NaN, which fails every comparison, is rejected
    if not M >= 0:
        raise StepsizeError(f"Lyapunov weight M must be >= 0, got {M}")
    if cert.B > 0 and not M * cert.rho > cert.B:
        raise StepsizeError(f"need M > B/rho = {cert.B / cert.rho:g}, got M = {M:g}")


def max_stepsize(cert: Certificate, mu: float, M: float) -> float:
    """Largest admissible stepsize min{1/mu, 1/(A + C*M)}."""
    if mu <= 0:
        raise StepsizeError(f"mu must be > 0, got {mu}")
    _check_M(cert, M)
    denom = cert.A + cert.C * M
    if denom <= 0:
        return 1.0 / mu
    return min(1.0 / mu, 1.0 / denom)


def lyapunov_value(dist_sq, sigma_sq, gamma: float, M: float):
    """V = ||x - x*||^2 + M gamma^2 sigma^2, elementwise; dist_sq itself where M = 0."""
    if M == 0:
        return dist_sq
    return dist_sq + M * gamma**2 * sigma_sq


def noise_term(cert: Certificate, gamma: float, M: float) -> float:
    """Per-step noise (D1 + M D2) gamma^2 of the recursion; 0 where D1 + M D2 = 0."""
    factor = cert.D1 + M * cert.D2
    return factor * gamma**2 if factor > 0 else 0.0


@dataclass(frozen=True)
class BoundCurve:
    """Evaluated bound: E[V_k] <= V0 * contraction^k + floor."""

    gamma: float
    M: float
    contraction: float
    floor: float
    V0: float

    def bound_at(self, k) -> float | np.ndarray:
        """Bound value at iteration k (scalar or array of iterations)."""
        k = np.asarray(k)
        if np.any(k < 0):
            raise ValueError("iteration index must be >= 0")
        with np.errstate(under="ignore"):
            out = self.V0 * self.contraction ** np.asarray(k, dtype=float) + self.floor
        return float(out) if out.ndim == 0 else out


def bound_curve(cert: Certificate, mu: float, gamma: float, M: float, V0: float) -> BoundCurve:
    """Build the bound curve, validating the stepsize condition (a NaN stepsize is rejected)."""
    if not gamma > 0:
        raise StepsizeError(f"stepsize must be > 0, got {gamma}")
    if V0 < 0:
        raise StepsizeError(f"V0 must be >= 0, got {V0}")
    gmax = max_stepsize(cert, mu, M)
    if not gamma <= gmax * (1.0 + 1e-12):
        raise StepsizeError(f"stepsize {gamma:g} exceeds the admissible maximum {gmax:g}")
    if cert.has_sigma:
        rate = min(gamma * mu, cert.rho - cert.B / M)
    else:
        rate = gamma * mu
    noise = noise_term(cert, gamma, M)
    floor = noise / rate if noise > 0 else 0.0
    return BoundCurve(gamma=gamma, M=M, contraction=1.0 - rate, floor=floor, V0=V0)


def recursion_oracle(
    cert: Certificate, mu: float, gamma: float, M: float, V0: float, K: int
) -> np.ndarray:
    """Iterate the one-step recursion v <- contraction * v + (D1 + M D2) gamma^2.

    Returns the K+1 values v_0..v_K.  The closed-form bound majorizes this
    sequence (the geometric series in the proof is summed to infinity), which
    is the property tests check.
    """
    curve = bound_curve(cert, mu, gamma, M, V0)
    step = noise_term(cert, gamma, M)
    out = np.empty(K + 1)
    v = float(V0)
    out[0] = v
    with np.errstate(under="ignore"):
        for t in range(1, K + 1):
            v = curve.contraction * v + step
            out[t] = v
    return out
