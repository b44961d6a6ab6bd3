"""Inputs of the benchmark workloads: generated problems, CLI commands, draw counts.

Every problem is generated here from the run's seed and handed to the program
as explicit arrays (`matrices`/`offsets` or `features`/`labels`), so the
program only ever sees generated inputs.  The sizes are chosen so that the
work of a round does not depend on the seed: the quadratic workloads cost the
same per step for any draw, and the logistic problem is a random rotation of
one fixed data set, which leaves the solver's iteration count unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

WORKLOADS = ("run_lsvrg", "verify_diana", "sweep_logistic")

# run_lsvrg: criterion-3 shape (heterogeneous quadratic, LSVRG with p = 1/n)
LSVRG_N, LSVRG_D, LSVRG_P = 20, 5, 0.05
LSVRG_STEPS, LSVRG_TRIALS, LSVRG_RECORD = 2000, 25, 2

# verify_diana: one command above BERNOULLI_ENUM_LIMIT (sampled), one below (exact)
DIANA_N, DIANA_Q = 10, 0.25
DIANA_STEPS, DIANA_TRIALS = 100, 8
DIANA_CASES = (("sampled", 20, 2), ("exact", 12, 1))  # (mode, d, --points)
SAMPLES_PER_POINT = 10_000  # verify_assumption's default
COMPRESSOR_PROBES = 5  # verify_compressor's default

# sweep_logistic: separable (n < d) logistic with a small ridge
LOGISTIC_N, LOGISTIC_D, LOGISTIC_RIDGE = 10, 50, 2e-4
LOGISTIC_BASE_SEED = 8  # fixed data set; each run draws a rotation of it
SWEEP_FRACTIONS = (0.8, 0.4, 0.2)  # stepsizes as fractions of the largest admissible one
SWEEP_STEPS, SWEEP_TRIALS, SWEEP_RECORD = 500, 10, 10

X0_RADIUS = 1.0


@dataclass
class Command:
    """One `sgdlab` invocation and the independent check of its output."""

    config: Path
    args: list[str]  # arguments after `sgdlab`
    out: Path  # directory the command writes to (removed before every launch)
    check: Callable[[Path, str], list[str]]  # (out dir, stdout) -> problems found


@dataclass
class Workload:
    name: str
    commands: list[Command]
    draws: int  # estimator draws one round asks for (see README)


def _config_text(sections: dict[str, dict[str, object]]) -> str:
    parts = []
    for name, body in sections.items():
        parts.append(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items()))
    return "\n".join(parts)


def _write_config(path: Path, problem: dict, estimator: dict, run: dict) -> Path:
    path.write_text(_config_text({"problem": problem, "estimator": estimator, "run": run}))
    return path


def _rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def heterogeneous_quadratic(rng: np.random.Generator, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Components Q_i' diag(linspace(1, 3, d)) Q_i with random rotations, b_i ~ N(0, I)."""
    spectrum = np.linspace(1.0, 3.0, d)
    A = np.empty((n, d, d))
    for i in range(n):
        q = _rotation(rng, d)
        a = (q * spectrum) @ q.T
        A[i] = 0.5 * (a + a.T)
    return A, rng.standard_normal((n, d))


def rotated_logistic(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A random rotation, row permutation and sign flip of one fixed separable data set.

    Gradient descent is rotation-equivariant, so the program's solver takes
    the same number of iterations on every draw; unrotated random draws of the
    same size need 57k to 355k iterations.
    """
    base = np.random.default_rng(LOGISTIC_BASE_SEED)
    feats = base.standard_normal((LOGISTIC_N, LOGISTIC_D))
    labels = np.where(feats @ base.standard_normal(LOGISTIC_D) >= 0, 1.0, -1.0)
    perm = rng.permutation(LOGISTIC_N)
    signs = rng.choice([-1.0, 1.0], size=LOGISTIC_N)
    feats = (feats @ _rotation(rng, LOGISTIC_D))[perm] * signs[:, None]
    return feats, labels[perm] * signs


def _quadratic_section(A: np.ndarray, b: np.ndarray) -> dict:
    return {"family": "quadratic", "matrices": json.dumps(A.tolist()), "offsets": json.dumps(b.tolist())}


def _program_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _read(path: Path) -> str:
    return path.read_text() if path.is_file() else ""


def run_lsvrg(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    A, b = heterogeneous_quadratic(rng, LSVRG_N, LSVRG_D)
    config = _write_config(
        workdir / "run_lsvrg.ini",
        _quadratic_section(A, b),
        {"kind": "lsvrg", "p": repr(LSVRG_P)},
        {
            "gamma": "auto",
            "lyapunov_m": "auto",
            "steps": LSVRG_STEPS,
            "trials": LSVRG_TRIALS,
            "seed": _program_seed(rng),
            "record_every": LSVRG_RECORD,
            "x0_radius": repr(X0_RADIUS),
        },
    )
    out = workdir / "run_lsvrg"

    def check(out: Path, stdout: str) -> list[str]:
        return checks.check_run_lsvrg(
            A, LSVRG_P, X0_RADIUS, LSVRG_TRIALS, LSVRG_STEPS, LSVRG_RECORD,
            _read(out / "trajectory.csv"), _read(out / "manifest"),
        )

    command = Command(config, ["run", "--config", str(config), "--out", str(out), "--quiet"], out, check)
    return Workload("run_lsvrg", [command], LSVRG_TRIALS * LSVRG_STEPS)


def verify_diana(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    commands, draws = [], 0
    for mode, d, points in DIANA_CASES:
        A, b = heterogeneous_quadratic(rng, DIANA_N, d)
        config = _write_config(
            workdir / f"verify_diana_d{d}.ini",
            _quadratic_section(A, b),
            {"kind": "diana", "compressor": "bernoulli", "q": repr(DIANA_Q), "alpha": "auto"},
            {
                "steps": DIANA_STEPS,
                "trials": DIANA_TRIALS,
                "seed": _program_seed(rng),
                "record_every": 1,
                "x0_radius": repr(X0_RADIUS),
            },
        )

        def check(out: Path, stdout: str, mode=mode, points=points) -> list[str]:
            return checks.check_verify(stdout, points, COMPRESSOR_PROBES, mode)

        out = workdir / f"verify_diana_d{d}"
        commands.append(Command(config, ["verify", "--config", str(config), "--points", str(points)], out, check))
        draws += DIANA_TRIALS * DIANA_STEPS
        if mode == "sampled":  # both inequalities of every point are sampled
            draws += 2 * points * SAMPLES_PER_POINT
    return Workload("verify_diana", commands, draws)


def sweep_logistic(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    feats, labels = rotated_logistic(rng)
    # uniform SGD admits gamma <= min(1/mu, 1/(2 L_max)) with L_i = ||a_i||^2/4 + ridge
    l_max = float(np.max(0.25 * np.sum(feats**2, axis=1) + LOGISTIC_RIDGE))
    gamma_max = min(1.0 / LOGISTIC_RIDGE, 1.0 / (2.0 * l_max))
    gammas = [f * gamma_max for f in SWEEP_FRACTIONS]
    config = _write_config(
        workdir / "sweep_logistic.ini",
        {
            "family": "logistic",
            "features": json.dumps(feats.tolist()),
            "labels": json.dumps(labels.tolist()),
            "ridge": repr(LOGISTIC_RIDGE),
        },
        {"kind": "sgd"},
        {
            "steps": SWEEP_STEPS,
            "trials": SWEEP_TRIALS,
            "seed": _program_seed(rng),
            "record_every": SWEEP_RECORD,
            "x0_radius": repr(X0_RADIUS),
        },
    )
    out = workdir / "sweep_logistic"

    def check(out: Path, stdout: str) -> list[str]:
        return checks.check_sweep(
            feats, labels, LOGISTIC_RIDGE, gammas, X0_RADIUS, SWEEP_STEPS, SWEEP_RECORD,
            _read(out / "sweep.csv"),
        )

    args = ["sweep", "--config", str(config), "--out", str(out), "--quiet",
            "--gammas", ",".join(repr(g) for g in gammas)]
    return Workload("sweep_logistic", [Command(config, args, out, check)],
                    len(gammas) * SWEEP_TRIALS * SWEEP_STEPS)


def build(name: str, seed: int, workdir: Path) -> Workload:
    return {"run_lsvrg": run_lsvrg, "verify_diana": verify_diana, "sweep_logistic": sweep_logistic}[name](
        seed, workdir
    )
