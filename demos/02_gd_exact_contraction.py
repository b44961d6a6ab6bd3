"""Deterministic gradient descent never crosses its certified bound.

On a condition-number-100 quadratic with gamma = 1/L, the squared distance
decays at least as fast as (1 - gamma*mu)^k.  The run below prints both
curves at a few checkpoints; the ratio column shows how much slack the
worst-case bound leaves on a concrete instance.
"""

import numpy as np

from sgdlab import ExperimentConfig, FullGradient, compute_constants, random_quadratic, run_monte_carlo

problem = random_quadratic(1, 10, eig_lo=1.0, eig_hi=100.0, shift_scale=1.0, seed=101)
constants = compute_constants(problem)
gamma = 1.0 / constants.L

config = ExperimentConfig(
    problem=problem,
    estimator=FullGradient(),
    gamma=gamma,
    steps=2000,
    trials=1,
    seed=11,
    record_every=1,
)
stats = run_monte_carlo(config)

print(f"condition number L/mu = {constants.L / constants.mu:.1f}, gamma = 1/L = {gamma:.4f}")
print()
print(f"{'k':>6s} {'dist_sq':>12s} {'bound':>12s} {'dist/bound':>11s}")
for k in (0, 10, 50, 100, 500, 1000, 2000):
    i = int(np.searchsorted(stats.ks, k))
    ratio = stats.mean_dist_sq[i] / stats.bound_V[i]
    print(f"{k:6d} {stats.mean_dist_sq[i]:12.4e} {stats.bound_V[i]:12.4e} {ratio:11.4f}")

violations = int(np.sum(stats.mean_dist_sq > stats.bound_V * (1 + 1e-10)))
print()
print(f"recorded iterations above the bound (1e-10 slack): {violations} / {len(stats.ks)}")
