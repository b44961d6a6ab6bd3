"""sgdlab: SGD-type methods with machine-checkable convergence certificates.

The package couples every gradient estimator (GD, uniform SGD, SGD-star,
LSVRG, CDGD, DIANA, RCD, ...) with a parameter certificate for its second
moment and variance-reduction recursion, evaluates the resulting closed-form
convergence bound, and verifies by Monte-Carlo simulation that trajectories
are dominated by the bound.
"""

__version__ = "0.1.0"

from .compressor import COMPRESSORS, BernoulliScale, Compressor, Identity, RandK
from .estimator import (
    CDGD,
    DIANA,
    ESTIMATORS,
    LSVRG,
    RCD,
    Certificate,
    Estimator,
    EstimatorState,
    FullGradient,
    NoisyGradient,
    SGDStar,
    UniformSGD,
)
from .harness import (
    ExperimentConfig,
    Report,
    TrajectoryStats,
    run_monte_carlo,
    run_trajectory,
    tail_mean,
    verify_assumption,
    verify_bound,
    verify_compressor,
)
from .problem import (
    PROBLEMS,
    FiniteSumProblem,
    LogisticSum,
    ProblemConstants,
    ProblemError,
    QuadraticSum,
    compute_constants,
    random_logistic,
    random_quadratic,
)
from .theory import BoundCurve, StepsizeError, bound_curve, default_M, max_stepsize, recursion_oracle

__all__ = [
    "BernoulliScale",
    "BoundCurve",
    "CDGD",
    "COMPRESSORS",
    "Certificate",
    "Compressor",
    "DIANA",
    "ESTIMATORS",
    "Estimator",
    "EstimatorState",
    "ExperimentConfig",
    "FiniteSumProblem",
    "FullGradient",
    "Identity",
    "LSVRG",
    "LogisticSum",
    "NoisyGradient",
    "PROBLEMS",
    "ProblemConstants",
    "ProblemError",
    "QuadraticSum",
    "RCD",
    "RandK",
    "Report",
    "SGDStar",
    "StepsizeError",
    "TrajectoryStats",
    "UniformSGD",
    "bound_curve",
    "compute_constants",
    "default_M",
    "max_stepsize",
    "random_logistic",
    "random_quadratic",
    "recursion_oracle",
    "run_monte_carlo",
    "run_trajectory",
    "tail_mean",
    "verify_assumption",
    "verify_bound",
    "verify_compressor",
]
