"""Uniform SGD plateaus at a floor proportional to the stepsize.

With heterogeneous components the sampling variance at the optimum is
positive, so constant-stepsize SGD stalls at 2*gamma*sigma*^2/mu.  Halving
gamma halves the certified floor, and the measured plateau follows: the
classic accuracy/speed trade-off, reproduced here as a small stepsize sweep.
"""

import math

from sgdlab import (
    ExperimentConfig,
    UniformSGD,
    compute_constants,
    random_quadratic,
    run_monte_carlo,
    tail_mean,
)

problem = random_quadratic(20, 5, eig_lo=1.0, eig_hi=3.0, shift_scale=1.0, seed=71)
constants = compute_constants(problem)
gamma_max = 1.0 / (4.0 * constants.L_max)

print(f"sigma*^2 = {constants.sigma_star_sq:.4f}, mu = {constants.mu:.4f}")
print()
print(f"{'gamma':>10s} {'floor':>10s} {'tail':>10s} {'tail/floor':>11s}")
for gamma in (gamma_max, gamma_max / 2, gamma_max / 4):
    K = math.ceil(20.0 / (gamma * constants.mu))
    config = ExperimentConfig(
        problem=problem,
        estimator=UniformSGD(),
        gamma=gamma,
        steps=K,
        trials=1000,
        seed=202,
        record_every=1,
    )
    resolved = config.resolve()
    stats = run_monte_carlo(resolved)
    tail = tail_mean(stats.mean_dist_sq)
    print(f"{gamma:10.5f} {resolved.curve.floor:10.5f} {tail:10.5f} {tail / resolved.curve.floor:11.3f}")

print()
print("the plateau tracks the floor linearly in gamma (the ratio stays put),")
print("so higher accuracy requires a smaller stepsize or variance reduction.")
