"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints one `ACCEPT <nn> <name>: PASS` line (visible with -s / -v).
Monte-Carlo horizons are chosen so the theory bound stays well above the
float64 convergence floor (~1e-31 squared distance): beyond that point the
real-analysis bound decays below what any double-precision trajectory can
represent, so domination checks are run where they are numerically
meaningful, and long single runs cover the deep-convergence targets.
"""

import dataclasses
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from sgdlab.compressor import BernoulliScale, RandK
from sgdlab.estimator import (
    CDGD,
    DIANA,
    LSVRG,
    RCD,
    Certificate,
    FullGradient,
    NoisyGradient,
    SGDStar,
    UniformSGD,
)
from sgdlab.harness import (
    ExperimentConfig,
    run_monte_carlo,
    run_trajectory,
    tail_mean,
    verify_assumption,
    verify_bound,
)
from sgdlab.problem import QuadraticSum, compute_constants, random_quadratic
from sgdlab.theory import bound_curve, default_M, max_stepsize, recursion_oracle

# shared seeded problems -----------------------------------------------------

# criterion 1/6: single random quadratic, d=10, condition number 100
COND100 = random_quadratic(1, 10, eig_lo=1.0, eig_hi=100.0, shift_scale=1.0, seed=101)
COND100_C = compute_constants(COND100)

# criteria 2/3/4/8: heterogeneous sum, n=20, d=5, sigma*^2 > 0
HET = random_quadratic(20, 5, eig_lo=1.0, eig_hi=3.0, shift_scale=1.0, seed=71)
HET_C = compute_constants(HET)

# criterion 5: heterogeneous optima for the compression contrast, n=10, d=5
COMP = random_quadratic(10, 5, eig_lo=1.0, eig_hi=3.0, shift_scale=1.0, seed=55)
COMP_C = compute_constants(COMP)


def _announce(num, name, t0, detail=""):
    extra = f" {detail}" if detail else ""
    print(f"ACCEPT {num:02d} {name}: PASS ({time.perf_counter() - t0:.1f}s){extra}")


def test_criterion_01_deterministic_gd_exactness():
    t0 = time.perf_counter()
    gamma = 1.0 / COND100_C.L
    cfg = ExperimentConfig(
        problem=COND100, estimator=FullGradient(), gamma=gamma, steps=2000, trials=1,
        seed=11, record_every=1,
    )
    (dist,), _ = run_trajectory(cfg.resolve(), range(1))
    rate = 1.0 - gamma * COND100_C.mu
    bound = dist[0] * rate ** np.arange(2001)
    assert np.all(dist <= bound * (1.0 + 1e-10))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _announce(1, "deterministic GD dominated by (1-gamma*mu)^k", t0)


def test_criterion_02_uniform_sgd_floor():
    t0 = time.perf_counter()
    assert HET_C.sigma_star_sq > 0
    gamma = 1.0 / (4.0 * HET_C.L_max)
    K = math.ceil(20.0 / (gamma * HET_C.mu))
    cfg = ExperimentConfig(
        problem=HET, estimator=UniformSGD(), gamma=gamma, steps=K, trials=2000,
        seed=202, record_every=1,
    )
    resolved = cfg.resolve()
    floor = 2.0 * gamma * HET_C.sigma_star_sq / HET_C.mu
    assert resolved.curve.floor == pytest.approx(floor, rel=1e-12)
    stats = run_monte_carlo(resolved)
    assert verify_bound(stats).passed
    tail = tail_mean(stats.mean_dist_sq)
    tail_se = tail_mean(stats.std_V) / math.sqrt(stats.trials)
    assert 0.02 * floor <= tail <= 1.1 * floor + 4.0 * tail_se
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _announce(2, "uniform SGD plateaus at 2*gamma*sigma*^2/mu", t0, f"tail/floor={tail/floor:.3f}")


def test_criterion_03_lsvrg_exact_convergence():
    t0 = time.perf_counter()
    p = 1.0 / HET.n
    gamma = 1.0 / (6.0 * HET_C.L_max)
    mc = ExperimentConfig(
        problem=HET, estimator=LSVRG(p=p), gamma=gamma, steps=2000, trials=1000,
        seed=303, record_every=2,
    )
    resolved = mc.resolve()
    expected = 1.0 - min(gamma * HET_C.mu, p / 2.0)
    assert resolved.curve.contraction == pytest.approx(expected, rel=1e-12)
    assert resolved.curve.floor == 0.0
    stats = run_monte_carlo(resolved)
    assert verify_bound(stats).passed

    single = ExperimentConfig(
        problem=HET, estimator=LSVRG(p=p), gamma=gamma, steps=5000, trials=1,
        seed=303, record_every=5,
    )
    (sdist,), _ = run_trajectory(single.resolve(), range(1))
    assert sdist[-1] <= 1e-10 * sdist[0]
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _announce(3, "LSVRG converges linearly with constant stepsize", t0,
              f"single-run rel dist {sdist[-1] / sdist[0]:.2e}")


def test_criterion_04_sgd_star():
    t0 = time.perf_counter()
    gamma = 1.0 / HET_C.L_max
    run = ExperimentConfig(
        problem=HET, estimator=SGDStar(), gamma=gamma, steps=200, trials=1,
        seed=404, record_every=1,
    )
    (dist,), _ = run_trajectory(run.resolve(), range(1))
    assert dist[-1] <= 1e-10 * dist[0]

    mc = ExperimentConfig(
        problem=HET, estimator=SGDStar(), gamma=gamma, steps=40, trials=300,
        seed=405, record_every=1,
    )
    assert verify_bound(run_monte_carlo(mc)).passed

    # exact fixed point: every sampled gradient at x* is exactly the zero vector
    est = SGDStar()
    state = est.init_state(HET, HET_C, HET_C.x_star).tile(200)
    X = np.tile(HET_C.x_star, (200, 1))
    G = est.step(HET, HET_C, X, state, est.draw(HET, np.random.default_rng(406), 200))
    assert np.all(G == 0.0)
    _announce(4, "SGD-star linear convergence and exact fixed point", t0)


def test_criterion_05_cdgd_vs_diana_contrast():
    t0 = time.perf_counter()
    comp = RandK(k=1)
    omega = comp.omega(COMP.d)
    assert omega == 4.0 and COMP_C.sigma_star_sq > 0

    cdgd = ExperimentConfig(
        problem=COMP, estimator=CDGD(compressor=comp), steps=300, trials=2000,
        seed=505, record_every=1,
    )
    rc = cdgd.resolve()
    floor = 2.0 * rc.gamma * omega * COMP_C.sigma_star_sq / (COMP.n * COMP_C.mu)
    assert rc.curve.floor == pytest.approx(floor, rel=1e-12)
    stats_c = run_monte_carlo(rc)
    tail = tail_mean(stats_c.mean_dist_sq)
    tail_se = tail_mean(stats_c.std_V) / math.sqrt(stats_c.trials)
    assert 0.0 < tail <= 1.1 * floor + 4.0 * tail_se

    # DIANA: alpha = 1/(1+omega), M = 2B/alpha, linear to the exact optimum
    diana = ExperimentConfig(
        problem=COMP, estimator=DIANA(compressor=comp), steps=700, trials=1000,
        seed=506, record_every=1,
    )
    rd = diana.resolve()
    cert = rd.certificate
    assert cert.rho == pytest.approx(1.0 / (1.0 + omega), rel=1e-15)
    assert rd.M == pytest.approx(2.0 * cert.B / cert.rho, rel=1e-15)
    # in this regime the bound contracts at exactly (1 - gamma*mu) per step
    assert rd.curve.contraction == pytest.approx(1.0 - rd.gamma * COMP_C.mu, rel=1e-12)
    assert rd.curve.floor == 0.0
    assert verify_bound(run_monte_carlo(rd)).passed

    single = ExperimentConfig(
        problem=COMP, estimator=DIANA(compressor=comp), steps=2000, trials=1,
        seed=507, record_every=10,
    )
    (sdist,), _ = run_trajectory(single.resolve(), range(1))
    assert sdist[-1] <= 1e-10 * sdist[0]
    _announce(5, "CDGD plateaus at its compression floor, DIANA converges", t0,
              f"cdgd tail/floor={tail/floor:.3f} diana rel dist {sdist[-1]/sdist[0]:.2e}")


def test_criterion_06_rcd_linear_convergence():
    t0 = time.perf_counter()
    gamma = 1.0 / (COND100.d * COND100_C.L)
    cfg = ExperimentConfig(
        problem=COND100, estimator=RCD(), gamma=gamma, steps=2000, trials=1000,
        seed=606, record_every=2,
    )
    resolved = cfg.resolve()
    assert resolved.curve.contraction == pytest.approx(1.0 - gamma * COND100_C.mu, rel=1e-12)
    assert verify_bound(run_monte_carlo(resolved)).passed
    _announce(6, "RCD dominated by (1-gamma*mu)^k at gamma=1/(dL)", t0)


def test_criterion_07_compressor_certificates():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    for d in range(1, 7):
        for k in range(1, d + 1):
            comp = RandK(k=k)
            omega = comp.omega(d)
            for x in (rng.standard_normal(d), np.ones(d), np.arange(1.0, d + 1.0)):
                mean, mse = comp.exact_moments(x)
                np.testing.assert_allclose(mean, x, rtol=1e-12, atol=1e-12 * max(1.0, np.abs(x).max()))
                target = omega * float(x @ x)
                if target == 0.0:
                    assert mse == 0.0
                else:
                    assert mse == pytest.approx(target, rel=1e-12)
    for d in (1, 4, 8, 12):
        for q in (0.25, 0.5, 0.9):
            comp = BernoulliScale(q=q)
            x = rng.standard_normal(d)
            mean, mse = comp.exact_moments(x)
            np.testing.assert_allclose(mean, x, rtol=1e-12, atol=1e-12)
            assert mse <= comp.omega(d) * float(x @ x) * (1.0 + 1e-12)
    _announce(7, "rand-k exact (mse = omega*||x||^2), bernoulli within omega", t0)


# criterion 8 fixtures: per-preset problems on which halving A is falsifiable.
# sgd / lsvrg / diana need aligned or projection-structured curvature so the
# second-moment inequality is tight somewhere reachable by the state sampler.
SGD_ADV = QuadraticSum(
    A=np.array([np.diag([8.0, 1.0]), np.diag([1.0, 1.0])]),
    b=np.array([[-1.0, 0.0], [1.0, 0.0]]),
)
LSVRG_ADV = QuadraticSum(
    A=np.array([np.diag([4.0, 0.0])] + [np.diag([0.0, 4.0])] * 3),
    b=np.zeros((4, 2)),
)
DIANA_ADV = QuadraticSum(
    A=np.array([2.0 * np.eye(5), 2.0 * np.eye(5)]),
    b=np.array([[1.0, 0.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0, 0.0]]),
)

MUTATION_SUITE = [
    (FullGradient(), HET),
    (UniformSGD(), SGD_ADV),
    (NoisyGradient(sigma=0.3), HET),
    (SGDStar(), HET),
    (LSVRG(p=0.2), LSVRG_ADV),
    (CDGD(compressor=RandK(k=1)), HET),
    (DIANA(compressor=RandK(k=1)), DIANA_ADV),
    (RCD(), HET),
]


def test_criterion_08_assumption_verifier_and_mutation():
    t0 = time.perf_counter()
    for est, extra_problem in MUTATION_SUITE:
        problems = [HET] if extra_problem is HET else [HET, extra_problem]
        for prob in problems:
            cons = compute_constants(prob)
            report = verify_assumption(
                prob, cons, est, num_points=100, samples_per_point=3000, seed=808
            )
            assert report.passed, f"{est.name} failed honest verification:\n" + "\n".join(
                c.line() for c in report.checks if not c.passed
            )
        cons = compute_constants(extra_problem)
        cert = est.certificate(extra_problem, cons)
        halved = dataclasses.replace(cert, A=cert.A * 0.5)
        mutated = verify_assumption(
            extra_problem, cons, est, num_points=100, samples_per_point=3000,
            seed=808, certificate=halved,
        )
        failed = [c for c in mutated.checks if not c.passed]
        assert failed, f"halving A went undetected for {est.name}"
        # every suite kind has an exact oracle at these sizes, noisy_gd included
        assert all(c.exact for c in failed), f"{est.name} failed sampled checks"
    _announce(8, "assumption verifier passes honest certificates, catches halved A", t0)


def test_criterion_09_theory_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    for _ in range(100):
        has_sigma = bool(rng.random() < 0.5)
        if has_sigma:
            cert = Certificate(
                A=float(rng.uniform(0.1, 10)), B=float(rng.uniform(0, 5)),
                C=float(rng.uniform(0, 3)), D1=float(rng.uniform(0, 2)),
                D2=float(rng.uniform(0, 2)), rho=float(rng.uniform(0.01, 1.0)),
                has_sigma=True,
            )
        else:
            cert = Certificate(
                A=float(rng.uniform(0.1, 10)), B=0, C=0,
                D1=float(rng.uniform(0, 2)), D2=0, rho=1.0, has_sigma=False,
            )
        mu = float(rng.uniform(0.05, 5))
        M = default_M(cert) * float(rng.uniform(1.0, 3.0)) if has_sigma else 0.0
        gamma = max_stepsize(cert, mu, M) * float(rng.uniform(0.05, 1.0))
        V0 = float(rng.uniform(0, 10))
        seq = recursion_oracle(cert, mu, gamma, M, V0, K=1000)
        closed = bound_curve(cert, mu, gamma, M, V0).bound_at(np.arange(1001))
        assert np.all(closed >= seq - 1e-12 * np.maximum(closed, 1e-300))

    # closed-form specializations used by criteria 1-6
    L, mu = HET_C.L, HET_C.mu
    gd = FullGradient().certificate(HET, HET_C)
    g = 1.0 / L
    curve = bound_curve(gd, mu, g, 0.0, 1.0)
    assert curve.contraction == pytest.approx(1 - g * mu, rel=1e-12) and curve.floor == 0.0

    noise = NoisyGradient(sigma=0.5)
    ubv = noise.certificate(HET, HET_C)
    curve = bound_curve(ubv, mu, g, 0.0, 1.0)
    assert curve.floor == pytest.approx(g * ubv.D1 / mu, rel=1e-12)

    es = UniformSGD().certificate(HET, HET_C)
    g_es = 1.0 / (2.0 * HET_C.L_max)
    curve = bound_curve(es, mu, g_es, 0.0, 1.0)
    assert curve.floor == pytest.approx(2.0 * g_es * HET_C.sigma_star_sq / mu, rel=1e-12)

    p = 0.05
    lsvrg = LSVRG(p=p).certificate(HET, HET_C)
    M = default_M(lsvrg)
    g_vr = 1.0 / (6.0 * HET_C.L_max)
    curve = bound_curve(lsvrg, mu, g_vr, M, 1.0)
    assert curve.contraction == pytest.approx(1 - min(g_vr * mu, p / 2), rel=1e-12)
    assert curve.floor == 0.0

    comp = RandK(k=1)
    omega = comp.omega(COMP.d)
    cd = CDGD(compressor=comp).certificate(COMP, COMP_C)
    g_cd = max_stepsize(cd, COMP_C.mu, 0.0)
    curve = bound_curve(cd, COMP_C.mu, g_cd, 0.0, 1.0)
    assert curve.floor == pytest.approx(
        2.0 * g_cd * omega * COMP_C.sigma_star_sq / (COMP.n * COMP_C.mu), rel=1e-12
    )

    di = DIANA(compressor=comp).certificate(COMP, COMP_C)
    M_di = default_M(di)
    g_di = max_stepsize(di, COMP_C.mu, M_di)
    curve = bound_curve(di, COMP_C.mu, g_di, M_di, 1.0)
    assert curve.contraction == pytest.approx(1 - g_di * COMP_C.mu, rel=1e-12)
    _announce(9, "closed form dominates recursion; specializations match", t0)


CRIT3_CONFIG = """
[problem]
family = quadratic
n = 20
d = 5
seed = 71
eig_lo = 1.0
eig_hi = 3.0
shift_scale = 1.0

[estimator]
kind = lsvrg
p = 0.05

[run]
gamma = {gamma}
steps = 2000
trials = 1000
seed = 303
record_every = 2
"""


def test_criterion_10_reproducibility_across_processes(tmp_path):
    """Two `sgdlab run` processes on one config write the same CSV, byte for byte.

    That the output does not depend on how trials are split into blocks is
    shown in test_batch_invariance.py.
    """
    t0 = time.perf_counter()
    gamma = 1.0 / (6.0 * HET_C.L_max)
    cfg = tmp_path / "crit3.ini"
    cfg.write_text(CRIT3_CONFIG.format(gamma=repr(gamma)))
    outputs = []
    for run in ("first", "second"):
        outdir = tmp_path / run
        proc = subprocess.run(
            [sys.executable, "-m", "sgdlab.cli", "run", "--config", str(cfg),
             "--out", str(outdir), "--quiet"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((outdir / "trajectory.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 1002
    _announce(10, "bitwise-identical CSV across two processes", t0)
