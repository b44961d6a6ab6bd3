"""Variance reduction removes the noise floor entirely.

Same problem, same oracle budget per step: uniform SGD stalls, while LSVRG
(learned shifts) and SGD-star (oracle shifts) drive the distance to machine
precision with a constant stepsize.
"""

from sgdlab import (
    LSVRG,
    ExperimentConfig,
    SGDStar,
    UniformSGD,
    compute_constants,
    random_quadratic,
    run_monte_carlo,
)

problem = random_quadratic(20, 5, eig_lo=1.0, eig_hi=3.0, shift_scale=1.0, seed=71)
constants = compute_constants(problem)

runs = [
    ("sgd", UniformSGD(), 1.0 / (4.0 * constants.L_max)),
    ("lsvrg", LSVRG(p=1.0 / problem.n), 1.0 / (6.0 * constants.L_max)),
    ("sgd_star", SGDStar(), 1.0 / constants.L_max),
]

K = 2000
print(f"{'k':>6s}" + "".join(f" {name:>12s}" for name, _, _ in runs))
curves = []
for name, est, gamma in runs:
    config = ExperimentConfig(
        problem=problem, estimator=est, gamma=gamma, steps=K, trials=200,
        seed=404, record_every=1,
    )
    curves.append(run_monte_carlo(config).mean_dist_sq)

for k in (0, 50, 100, 250, 500, 1000, 2000):
    print(f"{k:6d}" + "".join(f" {c[k]:12.3e}" for c in curves))

print()
print("sgd flattens out near its floor; lsvrg and sgd_star keep contracting")
print("linearly (the tiny terminal values are float64 round-off, not a floor).")
