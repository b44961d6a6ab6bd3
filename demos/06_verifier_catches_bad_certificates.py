"""The assumption verifier is falsifiable: corrupt a constant and it fails.

verify_assumption samples random (iterate, state) pairs and checks the two
certificate inequalities with enumerated expectations.  An honest certificate
passes everywhere; halving A flips the margin sign wherever the inequality is
tight.  This is the mutation test that keeps the verifier honest.
"""

from dataclasses import replace

import numpy as np

from sgdlab import UniformSGD, QuadraticSum, compute_constants, verify_assumption

# two components with aligned top curvature so the smoothness bound is tight
problem = QuadraticSum(
    A=np.array([np.diag([8.0, 1.0]), np.diag([1.0, 1.0])]),
    b=np.array([[-1.0, 0.0], [1.0, 0.0]]),
)
constants = compute_constants(problem)
est = UniformSGD()

honest = verify_assumption(problem, constants, est, num_points=100, seed=808)
print(honest.summary())

cert = est.certificate(problem, constants)
halved = replace(cert, A=cert.A * 0.5)
mutated = verify_assumption(problem, constants, est, num_points=100, seed=808, certificate=halved)
print(mutated.summary())
print()
print("checks that flipped after halving A:")
for check in mutated.checks:
    if not check.passed:
        print(" ", check.line())
