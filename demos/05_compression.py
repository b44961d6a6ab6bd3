"""Compressed gradients: naive averaging stalls, shifted compression does not.

Ten workers send rand-1-sparsified gradients (omega = 4, a 5x message cut).
CDGD averages the compressed gradients directly and inherits a noise floor
proportional to omega * zeta*^2 / n.  DIANA compresses differences to learned
shifts h_i and converges to the exact optimum at the same communication cost.
"""

from sgdlab import (
    CDGD,
    DIANA,
    ExperimentConfig,
    RandK,
    compute_constants,
    random_quadratic,
    run_monte_carlo,
)

problem = random_quadratic(10, 5, eig_lo=1.0, eig_hi=3.0, shift_scale=1.0, seed=55)
constants = compute_constants(problem)
comp = RandK(k=1)
omega = comp.omega(problem.d)

cdgd_cfg = ExperimentConfig(
    problem=problem, estimator=CDGD(compressor=comp), steps=800, trials=500,
    seed=505, record_every=1,
)
diana_cfg = ExperimentConfig(
    problem=problem, estimator=DIANA(compressor=comp), steps=800, trials=500,
    seed=506, record_every=1,
)
cdgd_res = cdgd_cfg.resolve()
cdgd = run_monte_carlo(cdgd_res)
diana = run_monte_carlo(diana_cfg)

print(f"workers n={problem.n}, rand-1 in d={problem.d} -> omega={omega:.0f}")
print(f"certified CDGD floor: {cdgd_res.curve.floor:.5f}")
print()
print(f"{'k':>6s} {'cdgd dist_sq':>14s} {'diana dist_sq':>14s}")
for k in (0, 25, 50, 100, 200, 400, 800):
    print(f"{k:6d} {cdgd.mean_dist_sq[k]:14.4e} {diana.mean_dist_sq[k]:14.4e}")

print()
print("same compressor, same bandwidth: learning the shifts h_i is what turns")
print("a biased-looking plateau into exact linear convergence.")
