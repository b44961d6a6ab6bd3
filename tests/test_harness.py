"""Trajectory runner, Monte-Carlo aggregation, verifiers, reproducibility."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from sgdlab.compressor import BernoulliScale, RandK
from sgdlab.estimator import CDGD, DIANA, LSVRG, RCD, FullGradient, NoisyGradient, SGDStar, UniformSGD
from sgdlab import harness
from sgdlab.harness import (
    STREAM_CHUNK,
    TRIAL_STREAM,
    VERIFY_STREAM,
    ExperimentConfig,
    TrajectoryError,
    _mc_moments,
    _perturbed_state,
    run_monte_carlo,
    run_trajectory,
    tail_mean,
    verify_assumption,
    verify_bound,
    verify_compressor,
)
from sgdlab.problem import compute_constants, random_logistic, random_quadratic

HET = random_quadratic(20, 5, eig_lo=1.0, eig_hi=3.0, shift_scale=1.0, seed=71)
HET_CONST = compute_constants(HET)


class HalfOmega(BernoulliScale):
    """A Bernoulli compressor that claims half its omega."""

    def omega(self, d):
        return 0.5 * super().omega(d)


class ScaledStepSGD(UniformSGD):
    """Uniform SGD whose step is 1.2 times its estimate."""

    def step(self, problem, constants, X, state, draws):
        return 1.2 * super().step(problem, constants, X, state, draws)


class HalfScaleBernoulli(BernoulliScale):
    """A Bernoulli compressor whose apply scales a kept coordinate by 1/(2q), not 1/q."""

    def apply(self, X, draws):
        return np.where(draws, X / (2.0 * self.q), 0.0)


class NeverRefreshLSVRG(LSVRG):
    """LSVRG whose refresh mask is never set, so its reference point stays at x0."""

    def draw(self, problem, rng, m):
        i, refresh = super().draw(problem, rng, m)
        return i, np.zeros_like(refresh)


KERNEL_XFAIL = pytest.mark.xfail(
    strict=True, reason="no check of verify compares step or apply with the oracle at d <= 16 (ROADMAP item 2)"
)


@pytest.mark.parametrize(
    "est",
    [
        pytest.param(ScaledStepSGD(), marks=KERNEL_XFAIL, id="sgd-step-x1.2"),
        pytest.param(DIANA(compressor=HalfScaleBernoulli(q=0.5)), marks=KERNEL_XFAIL, id="diana-apply-over-2q"),
        pytest.param(CDGD(compressor=HalfScaleBernoulli(q=0.5)), marks=KERNEL_XFAIL, id="cdgd-apply-over-2q"),
        pytest.param(NeverRefreshLSVRG(), id="lsvrg-never-refreshes"),
    ],
)
def test_a_kernel_fault_fails_some_report_of_verify(est):
    """The reports of `sgdlab verify` on a kernel whose step or apply is wrong: one of them must FAIL."""
    prob = random_quadratic(10, 5, seed=3)
    cons = compute_constants(prob)
    reports = [verify_assumption(prob, cons, est, num_points=100, seed=1)]
    if hasattr(est, "compressor"):
        reports.append(verify_compressor(est.compressor, prob.d, seed=1))
    config = ExperimentConfig(problem=prob, estimator=est, steps=1000, trials=20, seed=1)
    reports.append(verify_bound(run_monte_carlo(config.resolve())))
    assert not all(report.passed for report in reports), [report.summary() for report in reports]


class WhereBernoulli(BernoulliScale):
    """The reference Bernoulli apply: a dropped coordinate is selected as +0.0 by np.where."""

    def apply(self, X, draws):
        return np.where(draws, X / self.q, 0.0)


WHERE_PROBLEMS = {"quadratic": random_quadratic, "logistic": random_logistic}


@pytest.mark.parametrize("d", [3, 12, 20])
@pytest.mark.parametrize("family", sorted(WHERE_PROBLEMS))
@pytest.mark.parametrize("q", [0.05, 0.25, 1.0])
@pytest.mark.parametrize("kind", [DIANA, CDGD], ids=["diana", "cdgd"])
def test_bernoulli_apply_gives_every_bit_of_the_where_reference(kind, q, family, d):
    """The mask product keeps a -0.0 where np.where gave +0.0; no output of a run or of verify sees it.

    The runs take more than one draw chunk and record every step; verify is
    exact at d = 12 and sampled at d = 20, above Bernoulli's sampled_above.
    """
    prob = WHERE_PROBLEMS[family](8, d, seed=d)
    cons = compute_constants(prob)
    runs, lines = [], []
    for comp in (BernoulliScale(q=q), WhereBernoulli(q=q)):
        est = kind(compressor=comp)
        config = ExperimentConfig(problem=prob, estimator=est, steps=300, trials=3, seed=7, record_every=1)
        stats = run_monte_carlo(config)
        runs.append([stats.mean_V.tobytes(), stats.std_V.tobytes(), stats.mean_sigma_sq.tobytes()])
        if d > 3:
            reports = [verify_compressor(comp, d, seed=3), verify_assumption(prob, cons, est, num_points=3, seed=3)]
            lines.append([line for report in reports for line in report.lines()])
    assert runs[0] == runs[1]
    assert lines[:1] == lines[1:]


def test_gd_trajectory_dominated_by_geometric_decay():
    prob = random_quadratic(1, 6, eig_lo=1.0, eig_hi=10.0, shift_scale=1.0, seed=2)
    cfg = ExperimentConfig(
        problem=prob, estimator=FullGradient(), steps=400, trials=1, seed=3, record_every=1
    )
    resolved = cfg.resolve()
    (dist,), _ = run_trajectory(resolved, range(1))
    cons = resolved.constants
    rate = 1.0 - resolved.gamma * cons.mu
    bound = dist[0] * rate ** np.arange(401)
    assert np.all(dist <= bound * (1 + 1e-12))


def test_sgd_star_fixed_point_at_optimum():
    cfg = ExperimentConfig(
        problem=HET,
        estimator=SGDStar(),
        steps=50,
        trials=1,
        seed=4,
        record_every=1,
        x0_radius=0.0,  # start exactly at x*
    )
    (dist,), (sig,) = run_trajectory(cfg.resolve(), range(1))
    assert np.all(dist == 0.0) and np.all(sig == 0.0)


def test_zero_steps_records_only_initial_point():
    cfg = ExperimentConfig(problem=HET, estimator=UniformSGD(), steps=0, trials=3, seed=5)
    stats = run_monte_carlo(cfg)
    assert list(stats.ks) == [0]
    assert stats.mean_dist_sq[0] == pytest.approx(1.0, rel=1e-12)  # unit radius start


def test_single_trial_stats_equal_trajectory():
    cfg = ExperimentConfig(
        problem=HET, estimator=LSVRG(p=0.1), steps=200, trials=1, seed=6, record_every=10
    )
    resolved = cfg.resolve()
    stats = run_monte_carlo(resolved)
    (dist,), (sig,) = run_trajectory(resolved, range(1))
    np.testing.assert_array_equal(stats.mean_dist_sq, dist)
    np.testing.assert_array_equal(stats.mean_sigma_sq, sig)
    assert stats.std_V[0] == 0.0


def test_bitwise_reproducibility_and_parallel_independence():
    cfg = ExperimentConfig(
        problem=HET, estimator=LSVRG(p=0.05), steps=300, trials=12, seed=99, record_every=25
    )
    a, b = run_monte_carlo(cfg), run_monte_carlo(cfg)
    np.testing.assert_array_equal(a.mean_dist_sq, b.mean_dist_sq)
    np.testing.assert_array_equal(a.mean_sigma_sq, b.mean_sigma_sq)
    np.testing.assert_array_equal(a.mean_V, b.mean_V)
    np.testing.assert_array_equal(a.std_V, b.std_V)
    np.testing.assert_array_equal(a.bound_V, b.bound_V)
    # trial blocks of 1, 5 and 12 give every trial the same trajectory bits
    resolved = cfg.resolve()
    whole = run_trajectory(resolved, range(12))
    for size in (1, 5):
        blocks = [run_trajectory(resolved, range(a, min(12, a + size))) for a in range(0, 12, size)]
        for part, full in zip(zip(*blocks), whole):
            np.testing.assert_array_equal(np.concatenate(part), full)


def test_lyapunov_consistency():
    cfg = ExperimentConfig(
        problem=HET, estimator=DIANA(compressor=RandK(k=1)), steps=150, trials=8, seed=13,
        record_every=10,
    )
    stats = run_monte_carlo(cfg)
    recombined = stats.mean_dist_sq + stats.M * stats.gamma**2 * stats.mean_sigma_sq
    np.testing.assert_allclose(stats.mean_V, recombined, rtol=1e-12)


def test_verify_bound_deterministic_gd_tight_slack(monkeypatch):
    monkeypatch.setattr(harness, "BOUND_SLACK_REL", 1e-12)
    monkeypatch.setattr(harness, "BOUND_SLACK_STAT", 0.0)
    prob = random_quadratic(1, 4, eig_lo=1.0, eig_hi=8.0, shift_scale=1.0, seed=8)
    cfg = ExperimentConfig(
        problem=prob, estimator=FullGradient(), steps=500, trials=1, seed=9, record_every=1
    )
    stats = run_monte_carlo(cfg)
    assert verify_bound(stats).passed


def test_verify_bound_trivial_from_optimum():
    cfg = ExperimentConfig(
        problem=HET, estimator=SGDStar(), steps=100, trials=4, seed=10, x0_radius=0.0
    )
    stats = run_monte_carlo(cfg)
    assert np.all(stats.mean_V == 0.0)
    assert verify_bound(stats).passed


def test_verify_bound_flags_violations():
    cfg = ExperimentConfig(problem=HET, estimator=FullGradient(), steps=20, trials=1, seed=11)
    stats = run_monte_carlo(cfg)
    stats.mean_V = stats.mean_V + 10.0 * stats.bound_V + 1.0  # inflate past any slack
    report = verify_bound(stats)
    assert not report.passed
    assert any("bound[k=" in c.name for c in report.checks if not c.passed)


def test_verify_assumption_exact_margins_for_gd():
    report = verify_assumption(HET, HET_CONST, FullGradient(), num_points=30, seed=12)
    assert report.passed
    assert all(c.exact for c in report.checks)
    # the GD inequality ||grad f||^2 <= 2L (f - f*) is tight somewhere: margins
    # must be nonnegative but not uniformly huge
    margins = np.array([c.margin for c in report.checks])
    assert np.all(margins >= 0.0)


def test_verify_assumption_includes_sigma_recursion():
    report = verify_assumption(HET, HET_CONST, LSVRG(p=0.2), num_points=20, seed=14)
    assert report.passed
    names = {c.name.split("[")[0] for c in report.checks}
    assert names == {"second_moment", "sigma_recursion"}


def test_verify_assumption_rejects_corrupted_certificate():
    est = UniformSGD()
    # a certificate that halves A on a problem with aligned curvature must fail
    prob = random_quadratic(2, 2, eig_lo=1.0, eig_hi=4.0, shift_scale=1.0, seed=90)
    cons = compute_constants(prob)
    cert = est.certificate(prob, cons)
    halved = dataclasses.replace(cert, A=cert.A * 0.5)
    report = verify_assumption(prob, cons, est, num_points=100, seed=15, certificate=halved)
    assert not report.passed


HALVED_B_PROBLEM = random_quadratic(6, 4, seed=0)


def _halved_b():
    """LSVRG (p = 0.2) on HALVED_B_PROBLEM, its constants and its certificate with B halved."""
    est, cons = LSVRG(p=0.2), compute_constants(HALVED_B_PROBLEM)
    cert = est.certificate(HALVED_B_PROBLEM, cons)
    return est, cons, dataclasses.replace(cert, B=0.5 * cert.B)


def test_a_halved_b_certificate_is_false_at_some_state():
    """The second-moment slack 2A (f - f*) + B sigma^2 + D1 - E||g||^2 of LSVRG on a quadratic is a quadratic
    form in z = (x - x*, shifts - grads_at_star); polarized from exact_moments, its least eigenvector is a
    state where the certificate with B halved is false by 7.7% of its right-hand side."""
    prob, (est, cons, halved) = HALVED_B_PROBLEM, _halved_b()
    n, d = prob.n, prob.d

    def state(z):
        x = cons.x_star + z[:d]
        return x, est.init_state(prob, cons, x).with_shifts(cons.grads_at_star + z[d:].reshape(n, d), cons)

    def sides(z, cert):
        x, s = state(z)
        rhs = 2.0 * cert.A * (prob.eval_f(x) - cons.f_star) + cert.B * s.sigma_sq + cert.D1
        return rhs - est.exact_moments(prob, cons, s, x)[1], rhs

    basis = np.eye(d + n * d)
    at = lambda z: sides(z, halved)[0]
    zero, diag = at(np.zeros(len(basis))), [at(e) for e in basis]
    form = np.array([[0.5 * (at(a + b) - diag[j] - diag[k] + zero) for k, b in enumerate(basis)]
                     for j, a in enumerate(basis)])
    z = np.linalg.eigh(form)[1][:, 0]
    slack, rhs = sides(z, halved)
    assert slack < -0.05 * rhs < 0, (slack, rhs)
    sound_slack, sound_rhs = sides(z, est.certificate(prob, cons))
    assert sound_slack >= -1e-10 * sound_rhs


@pytest.mark.xfail(strict=True, reason="the 100 explored states miss where a halved B is false (ROADMAP item 5)")
def test_verify_assumption_rejects_a_halved_b():
    est, cons, halved = _halved_b()
    assert not verify_assumption(HALVED_B_PROBLEM, cons, est, num_points=100, seed=0, certificate=halved).passed


def _warm_states(est, steps=12, seed=40):
    """States along a short trajectory, the raw material the verifier perturbs."""
    rng = np.random.default_rng(seed)
    x = HET_CONST.x_star + rng.standard_normal(HET.d)
    state = est.init_state(HET, HET_CONST, x)
    states = [state.copy()]
    X, batch = x[None, :], state.tile(1)
    draws = est.draw(HET, rng, steps)
    for t in range(steps):
        X = X - 0.05 * est.step(HET, HET_CONST, X, batch, [a[t : t + 1] for a in draws])
        states.append(batch.row(0))
    return states


SHIFTED = [LSVRG(p=0.3), DIANA(compressor=RandK(k=1))]


@pytest.mark.parametrize(
    "est",
    SHIFTED + [NoisyGradient(sigma=0.3), CDGD(compressor=RandK(k=2))],
    ids=["lsvrg", "diana", "noisy_gd", "cdgd-rand_k-2"],
)
def test_sampled_moments_agree_with_exact_oracles(est):
    """Every point of one call shares the replicas' draws; each point's moments still match its oracle."""
    samples = 4000
    has_sigma = est.certificate(HET, HET_CONST).has_sigma
    points = []
    for j, base in enumerate(_warm_states(est)[::2]):
        rng = np.random.default_rng([42, j])
        state = _perturbed_state(HET_CONST, base, rng)
        points.append((state, HET_CONST.x_star + rng.standard_normal(HET.d)))
    sampled = _mc_moments(est, HET, HET_CONST, points, 42, samples)
    for j, ((state, x), ((m2, se2), (msig, sesig))) in enumerate(zip(points, sampled)):
        _, exact2, exact_sig = est.exact_moments(HET, HET_CONST, state, x)
        assert abs(m2 - exact2) <= 4.0 * se2, (j, m2, exact2, se2)
        assert (exact_sig is None) == (not has_sigma)
        if has_sigma:
            assert abs(msig - exact_sig) <= 4.0 * sesig, (j, msig, exact_sig, sesig)


@pytest.mark.parametrize("family", ["quadratic", "logistic"])
@pytest.mark.parametrize(
    "est",
    [NoisyGradient(sigma=0.3), CDGD(compressor=RandK(k=2)), DIANA(compressor=RandK(k=2))],
    ids=["noisy_gd", "cdgd-rand_k-2", "diana-rand_k-2"],
)
def test_noisy_gd_and_rand_k_are_verified_exactly(est, family):
    if family == "quadratic":
        prob = random_quadratic(8, 6, eig_lo=1.0, eig_hi=3.0, shift_scale=1.0, seed=51)
    else:
        prob = random_logistic(8, 5, ridge=0.1, seed=51)
    report = verify_assumption(prob, compute_constants(prob), est, num_points=50, seed=52)
    assert report.passed, "\n".join(report.lines())
    assert all(line.endswith("[exact]") for line in report.lines())


def test_rand_k_is_exact_above_any_subset_count():
    """C(30, 5) = 142,506 subsets: both checks take the O(d) closed form, which sampling confirms."""
    comp, d = RandK(k=5), 30
    compressor_report = verify_compressor(comp, d, seed=5)
    prob = random_quadratic(6, d, eig_lo=1.0, eig_hi=3.0, shift_scale=1.0, seed=53)
    est = DIANA(compressor=comp)
    assumption_report = verify_assumption(prob, compute_constants(prob), est, num_points=10, seed=54)
    for report in (compressor_report, assumption_report):
        assert report.passed, "\n".join(report.lines())
        assert all(line.endswith("[exact]") for line in report.lines())
    rng = np.random.default_rng(55)
    X = np.array([rng.standard_normal(d), np.ones(d)])
    # means of Q(x) - x, then of the error, for both rows under the same draws
    sampled, se = harness._compression_moments(comp, X, rng, 10**5)
    for x, row, row_se in zip(X, sampled, se):
        mean, mse = comp.exact_moments(x)
        assert np.all(np.abs(row[:d] - (mean - x)) <= 4.0 * row_se[:d])
        # all ones: every error is the same, so se is 0 and only round-off remains
        assert abs(row[d] - mse) <= 4.0 * row_se[d] + 1e-12 * mse, (row[d], mse, row_se[d])


@pytest.mark.parametrize("d,exact", [(16, True), (17, False), (20, False)])
def test_verify_samples_bernoulli_only_above_its_sampled_above(d, exact):
    """The boundary the benchmark's verify_diana workload relies on: exact at d = 12, sampled at d = 20."""
    comp = BernoulliScale(q=0.25)
    prob = random_quadratic(4, d, eig_lo=1.0, eig_hi=3.0, shift_scale=1.0, seed=56)
    est, cons = DIANA(compressor=comp), compute_constants(prob)
    for report in (
        verify_compressor(comp, d, seed=57),
        verify_assumption(prob, cons, est, num_points=2, samples_per_point=500, seed=58),
    ):
        assert report.passed, "\n".join(report.lines())
        assert [c.exact for c in report.checks] == [exact] * len(report.checks)


def test_sampled_verifier_on_diana_bernoulli():
    prob = random_quadratic(6, 17, eig_lo=1.0, eig_hi=3.0, shift_scale=1.0, seed=43)
    cons = compute_constants(prob)
    est = DIANA(compressor=BernoulliScale(q=0.4))  # d = 17 is above sampled_above: sampled
    report = verify_assumption(prob, cons, est, num_points=4, samples_per_point=2000, seed=44)
    assert report.passed, "\n".join(report.lines())
    assert {c.name.split("[")[0] for c in report.checks} == {"second_moment", "sigma_recursion"}
    assert not any(c.exact for c in report.checks)


def test_a_sampled_point_does_not_depend_on_the_other_points_the_groups_or_the_chunks(monkeypatch):
    """Point j's replicas take the shared blocks, so its lines are the same in any company and chunking."""
    prob = random_quadratic(4, 17, eig_lo=1.0, eig_hi=3.0, shift_scale=1.0, seed=64)
    cons = compute_constants(prob)
    est = DIANA(compressor=BernoulliScale(q=0.25))  # 2^17 keep-masks: sampled
    row_bytes = 8 * prob.n * prob.d
    monkeypatch.setattr(harness, "DRAW_BYTES", 8 * row_bytes)  # blocks of 8 replicas, groups of 8 points
    monkeypatch.setattr(harness, "REPLICA_BYTES", 3 * row_bytes)  # chunks of 3 rows, which do not divide a block

    def lines(num_points):
        return verify_assumption(prob, cons, est, num_points=num_points, samples_per_point=500, seed=65).lines()

    ten = lines(10)  # groups of points 0-7 and 8-9
    assert len(ten) == 20 and all(line.endswith("[sampled]") for line in ten)
    assert lines(8) == ten[:16]
    assert lines(1) == ten[:2]
    monkeypatch.setattr(harness, "REPLICA_BYTES", 8 * row_bytes)  # one chunk per block
    assert lines(10) == ten


def test_sampled_assumption_check_catches_corrupted_certificates():
    """A halved A and a compressor that claims half its omega still FAIL where the check samples."""
    prob = random_quadratic(6, 17, eig_lo=1.0, eig_hi=3.0, shift_scale=0.0, seed=62)
    cons = compute_constants(prob)
    est = CDGD(compressor=BernoulliScale(q=0.4))  # 2^17 keep-masks: sampled
    cert = est.certificate(prob, cons)
    halved = dataclasses.replace(cert, A=cert.A * 0.5)
    for report in (
        verify_assumption(prob, cons, est, num_points=10, samples_per_point=2000, seed=63, certificate=halved),
        verify_assumption(prob, cons, DIANA(compressor=HalfOmega(q=0.4)), num_points=10, samples_per_point=2000, seed=63),
    ):
        assert not any(c.exact for c in report.checks)
        assert not report.passed, "\n".join(report.lines())


@pytest.mark.parametrize(
    "est", SHIFTED + [UniformSGD(), RCD()], ids=["lsvrg", "diana", "sgd", "rcd"]
)
def test_perturbed_states_are_consistent_shift_tables(est):
    for j, base in enumerate(_warm_states(est) * 3):
        state = _perturbed_state(HET_CONST, base, np.random.default_rng([45, j]))
        if state.shifts is None:
            assert state.sigma_sq == 0.0 and state.shift_mean is None
            continue
        diff = state.shifts - HET_CONST.grads_at_star
        assert state.sigma_sq == pytest.approx(np.mean(np.sum(diff**2, axis=1)), rel=1e-12)
        if state.shift_mean is not None:
            np.testing.assert_allclose(state.shift_mean, state.shifts.mean(axis=0), rtol=1e-12)


def test_sampled_compressor_check_catches_halved_omega():
    report = verify_compressor(HalfOmega(q=0.5), 17, seed=5)  # 2^17 keep-masks: sampled
    variance = [c for c in report.checks if c.name.startswith("variance[")]
    assert len(variance) == 5 and not any(c.exact for c in variance)
    assert not any(c.passed for c in variance)


@pytest.mark.parametrize("comp,d", [(BernoulliScale(q=0.5), 17)], ids=["bernoulli"])
def test_sampled_compressor_check_matches_one_shot_moments(comp, d):
    """Chunked compressions with merged moments give the margins of all 10^5 compressions at once.

    Each block of DRAW_BYTES per (probes, rows, d) array takes one draw,
    concatenated here, that every probe shares.
    """
    samples, omega = 10**5, comp.omega(d)
    block = harness.DRAW_BYTES // (8 * harness.COMPRESSOR_PROBES * d)
    report = verify_compressor(comp, d, seed=5)
    rng = np.random.default_rng([5, VERIFY_STREAM, 2**33])
    probes = [rng.standard_normal(d) for _ in range(4)] + [np.ones(d)]
    sizes = [min(block, samples - s) for s in range(0, samples, block)]
    keep = np.concatenate([comp.draw(rng, (size, 1), d) for size in sizes])
    for idx, x in enumerate(probes):
        norm_sq = float(x @ x)
        draws = comp.apply(x, keep)[:, 0]
        se_mean = draws.std(axis=0, ddof=1) / math.sqrt(samples)
        err = np.sum((draws - x) ** 2, axis=1)
        se_err = float(err.std(ddof=1)) / math.sqrt(samples)
        expected = [
            (float(np.min(4.0 * se_mean - np.abs(draws.mean(axis=0) - x))), 0.0),
            (omega * norm_sq - float(err.mean()), 4.0 * se_err + 1e-12 * omega * norm_sq),
        ]
        for check, (margin, tol) in zip(report.checks[2 * idx : 2 * idx + 2], expected):
            assert not check.exact and check.passed
            assert check.margin == pytest.approx(margin, rel=0, abs=1e-12 * omega * norm_sq)
            assert check.tol == pytest.approx(tol, rel=0, abs=1e-12 * omega * norm_sq)


def test_sampled_compressor_check_passes_keep_all_bernoulli():
    """With q = 1 every error Q(x) - x is 0: a sampled mean of Q(x) that rounds away from x would fail it."""
    report = verify_compressor(BernoulliScale(q=1.0), 20, seed=5)
    assert not any(c.exact for c in report.checks)
    assert report.passed, "\n".join(report.lines())


def _traced_peak_bytes(fn) -> tuple[object, int]:
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampled_compressor_check_streams_through_a_small_working_set():
    """10^5 compressions of a d = 20 probe never hold more than the draws and a few chunks."""
    report, peak = _traced_peak_bytes(lambda: verify_compressor(BernoulliScale(q=0.25), 20))
    assert report.passed and not any(c.exact for c in report.checks)
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_sampled_assumption_check_streams_through_a_small_working_set():
    """10^4 replicas of a DIANA point at n = 10, d = 20 share the point and stream in chunks."""
    prob = random_quadratic(10, 20, eig_lo=1.0, eig_hi=3.0, shift_scale=1.0, seed=46)
    cons = compute_constants(prob)
    est = DIANA(compressor=BernoulliScale(q=0.25))  # 2^20 keep-masks: sampled
    report, peak = _traced_peak_bytes(lambda: verify_assumption(prob, cons, est, num_points=2, seed=47))
    assert report.passed and not any(c.exact for c in report.checks)
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_sampled_assumption_check_keeps_a_small_working_set_at_100_points():
    """100 points share each replica block: they hold O(points) floats and one block, not every replica."""
    prob = random_quadratic(10, 17, eig_lo=1.0, eig_hi=3.0, shift_scale=1.0, seed=66)
    cons = compute_constants(prob)
    est = DIANA(compressor=BernoulliScale(q=0.25))  # 2^17 keep-masks: sampled
    report, peak = _traced_peak_bytes(lambda: verify_assumption(prob, cons, est, num_points=100, seed=67))
    assert report.passed and not any(c.exact for c in report.checks)
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_sampled_checks_draw_one_block_at_a_time():
    """At n = 50, d = 100 all 10^4 DIANA replicas' keep masks take 50 MB, 10^5 compressions' 10 MB."""
    prob = random_quadratic(50, 100, eig_lo=1.0, eig_hi=3.0, shift_scale=1.0, seed=48)
    cons = compute_constants(prob)
    comp = BernoulliScale(q=0.25)
    est = DIANA(compressor=comp)
    report, peak = _traced_peak_bytes(lambda: verify_assumption(prob, cons, est, num_points=1, seed=49))
    assert report.passed and not any(c.exact for c in report.checks)
    assert peak < 8 * 2**20, f"verify_assumption peak {peak / 2**20:.1f} MiB"
    report, peak = _traced_peak_bytes(lambda: verify_compressor(comp, 100, seed=49))
    assert report.passed and not any(c.exact for c in report.checks)
    assert peak < 2 * 2**20, f"verify_compressor peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize(
    "est", [DIANA(compressor=BernoulliScale(q=0.4)), CDGD(compressor=RandK(k=1)), NoisyGradient(sigma=0.3)],
    ids=["diana-bernoulli", "cdgd-rand_k-1", "noisy_gd"],
)
def test_sampled_stream_of_one_draw_array_does_not_depend_on_the_draw_block(est, monkeypatch):
    """Bernoulli masks, rand_k with k = 1 and Gaussian noise draw the same in blocks as in one call.

    Each block's moments merge into the running ones, so the sums agree to round-off, not bit for bit.
    """
    x = HET_CONST.x_star + 0.5
    state = est.init_state(HET, HET_CONST, x)
    row_bytes, samples = 8 * HET.n * HET.d, 3000

    def moments(rows_per_block):
        monkeypatch.setattr(harness, "DRAW_BYTES", rows_per_block * row_bytes)
        return np.array(_mc_moments(est, HET, HET_CONST, [(state, x)], 50, samples))

    np.testing.assert_allclose(moments(7), moments(samples), rtol=1e-12, atol=0)


def test_the_numpy_einsum_fallback_gives_the_same_bytes(monkeypatch):
    """Under numpy < 2, problem, estimator and harness call np.einsum instead of its C routine.

    A short trajectory of each problem family and both sampled checks must give the same bytes on that path.
    """
    from sgdlab import estimator, problem

    logistic = random_logistic(8, 4, ridge=0.1, seed=72)
    ests = [FullGradient(), LSVRG(p=0.2), DIANA(compressor=BernoulliScale(q=0.5))]
    diana = DIANA(compressor=BernoulliScale(q=0.25))
    x = HET_CONST.x_star + 0.5
    point = (_perturbed_state(HET_CONST, diana.init_state(HET, HET_CONST, x), np.random.default_rng(73)), x)
    X = np.random.default_rng(74).standard_normal((harness.COMPRESSOR_PROBES, 20))

    def outputs():
        runs = [
            run_trajectory(ExperimentConfig(prob, est, steps=STREAM_CHUNK + 3, trials=3).resolve(), range(3))
            for prob in (HET, logistic)
            for est in ests
        ]
        moments = _mc_moments(diana, HET, HET_CONST, [point], 76, 500)
        compression = harness._compression_moments(diana.compressor, X, np.random.default_rng(77), 2000)
        return [a.tobytes() for run in runs for a in run], moments, [a.tobytes() for a in compression]

    expected = outputs()
    for module in (problem, estimator, harness):
        monkeypatch.setattr(module, "einsum", np.einsum)
    assert outputs() == expected


def test_variance_reduction_signature():
    """VR methods drive the tail to ~0; plain SGD and CDGD plateau at the floor."""
    d0 = 1.0  # unit start radius
    for est in (SGDStar(), LSVRG(p=0.05), DIANA(compressor=RandK(k=1))):
        cfg = ExperimentConfig(problem=HET, estimator=est, steps=10, trials=24, seed=16)
        resolved = cfg.resolve()
        rate = min(
            resolved.gamma * resolved.constants.mu,
            resolved.certificate.rho - resolved.certificate.B / resolved.M
            if resolved.certificate.has_sigma
            else math.inf,
        )
        K = math.ceil(20.0 / rate)
        cfg = dataclasses.replace(cfg, steps=K)
        stats = run_monte_carlo(cfg)
        assert tail_mean(stats.mean_dist_sq) <= 1e-8 * d0, est.name

    for est in (UniformSGD(), CDGD(compressor=RandK(k=1))):
        cfg = ExperimentConfig(problem=HET, estimator=est, steps=400, trials=64, seed=17)
        resolved = cfg.resolve()
        assert resolved.curve.floor > 0
        stats = run_monte_carlo(cfg)
        tail = tail_mean(stats.mean_dist_sq)
        assert tail >= 0.1 * resolved.curve.floor, est.name
        assert verify_bound(stats).passed, est.name


def test_overflow_raises_diagnostic_error():
    cfg = ExperimentConfig(problem=HET, estimator=FullGradient(), steps=500, trials=1, seed=18)
    resolved = dataclasses.replace(cfg.resolve(), gamma=50.0)  # far beyond stability
    with pytest.raises(TrajectoryError, match="iteration"):
        run_trajectory(resolved, range(1))


def test_overflow_names_the_same_step_for_any_record_stride():
    messages = []
    for stride in (1, 25):
        cfg = ExperimentConfig(
            problem=HET, estimator=FullGradient(), steps=500, trials=3, seed=18,
            record_every=stride,
        )
        resolved = dataclasses.replace(cfg.resolve(), gamma=50.0)
        with pytest.raises(TrajectoryError) as info:
            run_monte_carlo(resolved)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    step = int(messages[0].split("iteration ")[1].split()[0])
    # GD at gamma = 50 overflows between two recorded iterations of stride 25
    assert step % 25 != 0 and messages[0].endswith("in trial 0")


def _replay_trajectory(resolved, trials):
    """Reference kernel: check every iterate and record it at the step that made it."""
    problem, est, constants = resolved.problem, resolved.estimator, resolved.constants
    gamma, x_star, ks = resolved.gamma, constants.x_star, resolved.record_ks
    rngs = [np.random.default_rng([resolved.seed, TRIAL_STREAM, r]) for r in trials]
    dist = np.empty((len(rngs), len(ks)))
    sig = np.empty((len(rngs), len(ks)))
    X = np.tile(resolved.x0, (len(rngs), 1))
    ptr = 0
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        state = est.init_state(problem, constants, resolved.x0).tile(len(rngs))

        def check_and_record(k):
            nonlocal ptr
            diff = X - x_star
            d2 = np.einsum("rd,rd->r", diff, diff)
            if not np.isfinite(d2).all():
                row = int(np.argmin(np.isfinite(d2)))
                raise TrajectoryError(f"non-finite iterate at iteration {k} in trial {trials[row]}")
            if ptr < len(ks) and ks[ptr] == k:
                dist[:, ptr], sig[:, ptr] = d2, state.sigma_sq
                ptr += 1

        check_and_record(0)
        for start in range(0, resolved.steps, STREAM_CHUNK):
            per_trial = [est.draw(problem, rng, STREAM_CHUNK) for rng in rngs]
            chunk = [np.stack(arrays, axis=1) for arrays in zip(*per_trial)]
            for t in range(min(STREAM_CHUNK, resolved.steps - start)):
                X -= gamma * est.step(problem, constants, X, state, [a[t] for a in chunk])
                check_and_record(start + t + 1)
    return dist, sig


KERNEL_SETUPS = {
    "gd": FullGradient,
    "sgd": UniformSGD,
    "noisy_gd": lambda: NoisyGradient(sigma=0.3),
    "sgd_star": SGDStar,
    "lsvrg": lambda: LSVRG(p=0.3),
    "cdgd-rand_k": lambda: CDGD(compressor=RandK(k=2)),
    "cdgd-bernoulli": lambda: CDGD(compressor=BernoulliScale(q=0.5)),
    "diana-rand_k": lambda: DIANA(compressor=RandK(k=2)),
    "diana-bernoulli": lambda: DIANA(compressor=BernoulliScale(q=0.5)),
    "rcd": RCD,
}
KERNEL_PROBLEMS = {
    "quadratic": random_quadratic(4, 5, eig_lo=1.0, eig_hi=3.0, shift_scale=1.0, seed=81),
    "logistic": random_logistic(4, 5, ridge=0.5, seed=82),
}


@pytest.mark.parametrize("family", sorted(KERNEL_PROBLEMS))
@pytest.mark.parametrize("setup", sorted(KERNEL_SETUPS))
def test_chunked_kernel_records_what_the_per_step_kernel_records(setup, family):
    """Settling the checks and records once per chunk changes no bit of dist or sigma."""
    for steps, record_every in ((300, 1), (517, 7), (2049, "auto")):
        cfg = ExperimentConfig(
            problem=KERNEL_PROBLEMS[family], estimator=KERNEL_SETUPS[setup](), steps=steps, trials=4,
            seed=19, record_every=record_every,
        )
        resolved = cfg.resolve()
        dist, sig = run_trajectory(resolved, range(1, 4))
        ref_dist, ref_sig = _replay_trajectory(resolved, range(1, 4))
        np.testing.assert_array_equal(dist, ref_dist)
        np.testing.assert_array_equal(sig, ref_sig)


@dataclasses.dataclass
class _PoisonedSGD(UniformSGD):
    """Uniform SGD whose step number `at` sends row `row` to infinity."""

    at: int = 1
    row: int = 0
    calls: int = 0

    def step(self, problem, constants, X, state, draws):
        G = super().step(problem, constants, X, state, draws)
        self.calls += 1
        if self.calls == self.at:
            G[self.row] = np.inf
        return G


def _trajectory_error(run, resolved, trials):
    with pytest.raises(TrajectoryError) as info:
        run(resolved, trials)
    return str(info.value)


@pytest.mark.parametrize("at", [1, 100, STREAM_CHUNK, STREAM_CHUNK + 1])
def test_chunked_kernel_names_the_first_diverging_step_and_trial(at):
    """A row that diverges mid-chunk or at a chunk edge is reported as the per-step check reported it."""
    cfg = ExperimentConfig(problem=HET, estimator=UniformSGD(), steps=600, trials=4, seed=20, record_every=50)
    resolved = cfg.resolve()
    messages = [
        _trajectory_error(run, dataclasses.replace(resolved, estimator=_PoisonedSGD(at=at, row=2)), range(3, 7))
        for run in (run_trajectory, _replay_trajectory)
    ]
    assert messages[0] == messages[1] == f"non-finite iterate at iteration {at} in trial 5"


@pytest.mark.parametrize("setup", ["sgd", "lsvrg", "cdgd-rand_k", "diana-bernoulli"])
def test_chunked_kernel_reports_an_overflow_as_the_per_step_kernel(setup):
    """Trials that overflow at a too large stepsize: same iteration, same trial as the reference."""
    cfg = ExperimentConfig(problem=HET, estimator=KERNEL_SETUPS[setup](), steps=800, trials=5, seed=18)
    resolved = dataclasses.replace(cfg.resolve(), gamma=1.2)
    messages = [_trajectory_error(run, resolved, range(5)) for run in (run_trajectory, _replay_trajectory)]
    assert messages[0] == messages[1]


def test_tail_mean_window():
    vals = np.arange(100, dtype=float)
    assert tail_mean(vals) == pytest.approx(np.mean(np.arange(90, 100)))
    assert tail_mean(np.array([3.0])) == 3.0


def test_config_validation_errors():
    with pytest.raises(ValueError, match="trials"):
        ExperimentConfig(problem=HET, estimator=FullGradient(), trials=0).validate()
    with pytest.raises(ValueError, match="x0_mode"):
        ExperimentConfig(problem=HET, estimator=FullGradient(), x0_mode="nope").validate()
    with pytest.raises(ValueError, match="gamma"):
        ExperimentConfig(problem=HET, estimator=FullGradient(), gamma="fast").validate()


def test_nan_x0_radius_is_rejected_by_name():
    # NaN fails every comparison, so a check written as x0_radius < 0 let it start the run
    cfg = ExperimentConfig(problem=HET, estimator=FullGradient(), x0_radius=float("nan"))
    with pytest.raises(ValueError, match="x0_radius must be >= 0, got nan"):
        cfg.validate()
    with pytest.raises(ValueError, match="x0_radius must be >= 0, got nan"):
        run_monte_carlo(cfg)


def test_negative_seed_is_rejected_by_name():
    cfg = ExperimentConfig(problem=HET, estimator=FullGradient(), seed=-1)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        cfg.resolve()


def test_logistic_problem_end_to_end():
    from sgdlab.problem import random_logistic

    prob = random_logistic(12, 4, ridge=0.4, seed=33)
    cons = compute_constants(prob)
    report = verify_assumption(prob, cons, LSVRG(p=0.1), num_points=25, seed=34)
    assert report.passed
    cfg = ExperimentConfig(
        problem=prob, estimator=LSVRG(p=0.1), steps=600, trials=32, seed=35,
        record_every=5,
    )
    stats = run_monte_carlo(cfg)
    assert verify_bound(stats).passed
    assert stats.mean_dist_sq[-1] < 1e-3 * stats.mean_dist_sq[0]


def test_min_curvature_start_mode():
    prob = random_quadratic(1, 5, eig_lo=1.0, eig_hi=9.0, shift_scale=0.5, seed=19)
    cfg = ExperimentConfig(
        problem=prob, estimator=FullGradient(), steps=3, trials=1, seed=20,
        x0_mode="min_curvature",
    )
    resolved = cfg.resolve()
    cons = resolved.constants
    # starting along the softest eigendirection: GD contracts at exactly 1 - gamma*mu
    (dist,), _ = run_trajectory(resolved, range(1))
    rate = (1.0 - resolved.gamma * cons.mu) ** 2
    np.testing.assert_allclose(dist[1:] / dist[:-1], rate, rtol=1e-10)


def test_verify_bound_round_off_term_does_not_hide_a_too_fast_bound():
    # GD from the least-curvature direction contracts V by exactly (1 - gamma mu)^2
    # per step; a bound that claims twice that rate must fail while it is still
    # far above the round-off floor
    prob = random_quadratic(3, 4, eig_lo=1.0, eig_hi=4.0, shift_scale=1.0, seed=21)
    cons = compute_constants(prob)
    gamma = 0.1 / cons.L
    cfg = ExperimentConfig(
        problem=prob, estimator=FullGradient(), gamma=gamma, steps=200, x0_mode="min_curvature"
    )
    resolved = cfg.resolve()
    assert verify_bound(run_monte_carlo(resolved)).passed
    true_rate = 1.0 - (1.0 - gamma * cons.mu) ** 2
    resolved.curve = dataclasses.replace(resolved.curve, rate=2.0 * true_rate)
    stats = run_monte_carlo(resolved)
    assert stats.bound_V[-1] > 1e6 * stats.roundoff**2
    report = verify_bound(stats)
    assert not report.passed
    assert any(c.name == f"bound[k={stats.ks[-1]}]" for c in report.checks if not c.passed)
