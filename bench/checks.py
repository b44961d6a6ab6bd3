"""Independent checks of the program's outputs.

Nothing here imports sgdlab: constants, certificates and optima are
recomputed with numpy from the generated inputs, or the output is held to a
property the method must have.  Each check returns a list of problems, each
starting with the name of the check that found it; an empty list means the
output is correct.
"""

from __future__ import annotations

import configparser
import math

import numpy as np

RTOL = 1e-9  # recomputed closed forms vs the program's 17-digit output
FLOOR_RTOL = 1e-6  # the program's logistic optimum is only certified to ||grad|| <= 1e-12 max(1, ||x||)
BOUND_SLACK_REL = 0.1  # the slack verify_bound allows
BOUND_SLACK_STAT = 4.0
TAIL_FRACTION = 0.1  # tail_mean's default


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * abs(b)


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def _numeric_table(text: str, header: list[str]) -> np.ndarray | None:
    if not text.strip():
        return None
    got, rows = parse_csv(text)
    if got != header or not rows:
        return None
    try:
        return np.array([[float(v) for v in row] for row in rows])
    except ValueError:
        return None


def check_run_lsvrg(
    A: np.ndarray,
    p: float,
    x0_radius: float,
    trials: int,
    steps: int,
    record_every: int,
    csv_text: str,
    manifest_text: str,
) -> list[str]:
    """trajectory.csv and manifest of `sgdlab run` with LSVRG on a quadratic sum."""
    table = _numeric_table(csv_text, ["k", "mean_dist_sq", "mean_sigma_sq", "mean_V", "std_V", "bound_V"])
    if table is None:
        return ["csv: trajectory.csv is missing or malformed"]
    manifest = configparser.ConfigParser(interpolation=None)
    try:
        manifest.read_string(manifest_text)
        m_gamma = float(manifest["run"]["gamma"])
        m_M = float(manifest["run"]["lyapunov_m"])
        m_contraction = float(manifest["certificate"]["contraction"])
        m_floor = float(manifest["certificate"]["floor"])
    except (configparser.Error, KeyError, ValueError):
        return ["manifest: manifest is missing or malformed"]

    # certificate of LSVRG: A = 2 L_max, B = 2, C = p L_max, rho = p; M = 2B/rho
    mu = float(np.linalg.eigvalsh(A.mean(axis=0))[0])
    l_max = float(max(np.linalg.eigvalsh(a)[-1] for a in A))
    M = 2.0 * 2.0 / p
    gamma = min(1.0 / mu, 1.0 / (2.0 * l_max + p * l_max * M))
    contraction = 1.0 - min(gamma * mu, p - 2.0 / M)

    problems = []
    if not _close(m_gamma, gamma, RTOL):
        problems.append(f"gamma: manifest {m_gamma!r}, recomputed {gamma!r}")
    if not _close(m_M, M, RTOL):
        problems.append(f"lyapunov_m: manifest {m_M!r}, recomputed {M!r}")
    if not _close(m_contraction, contraction, RTOL) or m_floor != 0.0:
        problems.append(f"contraction: manifest {m_contraction!r} floor {m_floor!r}, recomputed {contraction!r} and 0")

    k, dist, sigma, mean_V, std_V, bound_V = table.T
    expected_ks = np.arange(0, steps + 1, record_every)
    if len(k) != len(expected_ks) or np.any(k != expected_ks):
        problems.append(f"rows: recorded iterations are not 0..{steps} every {record_every}")
        return problems
    ratio = bound_V / bound_V[0]
    if not np.allclose(ratio, contraction**k, rtol=RTOL, atol=0.0):
        worst = int(np.argmax(np.abs(ratio / contraction**k - 1.0)))
        problems.append(f"bound_ratio: bound_V[k]/bound_V[0] = {ratio[worst]!r} at k={int(k[worst])}, "
                        f"contraction^k = {contraction ** k[worst]!r}")
    if not _close(dist[0], x0_radius**2, 1e-12):
        problems.append(f"start_dist: mean_dist_sq[0] = {dist[0]!r}, x0_radius^2 = {x0_radius**2!r}")
    if not std_V[0] <= 1e-12 * mean_V[0]:
        problems.append(f"start_std: std_V[0] = {std_V[0]!r} for identical starting points")
    if not _close(mean_V[0], bound_V[0], 1e-12) or not _close(mean_V[0], dist[0] + M * gamma**2 * sigma[0], 1e-12):
        problems.append(f"start_V: mean_V[0] = {mean_V[0]!r}, bound_V[0] = {bound_V[0]!r}, "
                        f"dist + M gamma^2 sigma = {dist[0] + M * gamma**2 * sigma[0]!r}")
    limit = bound_V * (1.0 + BOUND_SLACK_REL) + BOUND_SLACK_STAT * std_V / math.sqrt(trials)
    above = np.flatnonzero(~(mean_V <= limit))
    if len(above):
        i = int(above[0])
        problems.append(f"domination: mean_V = {mean_V[i]!r} above the bound limit {limit[i]!r} at k={int(k[i])}")
    return problems


def logistic_optimum(features: np.ndarray, labels: np.ndarray, ridge: float) -> np.ndarray:
    """Damped Newton iteration for the ridge-regularised logistic loss."""
    n, d = features.shape

    def value(x):
        return float(np.mean(np.logaddexp(0.0, -labels * (features @ x))) + 0.5 * ridge * (x @ x))

    x = np.zeros(d)
    for _ in range(200):
        s = 0.5 * (1.0 + np.tanh(-0.5 * labels * (features @ x)))  # sigmoid(-margin)
        grad = -(features.T @ (labels * s)) / n + ridge * x
        if np.linalg.norm(grad) <= 1e-14 * max(1.0, float(np.linalg.norm(x))):
            return x
        hess = (features.T * (s * (1.0 - s))) @ features / n + ridge * np.eye(d)
        step = np.linalg.solve(hess, grad)
        t, f0, slope = 1.0, value(x), float(grad @ step)
        while value(x - t * step) > f0 - 0.25 * t * slope and t > 1e-12:
            t *= 0.5
        x_new = x - t * step
        if np.array_equal(x_new, x):  # converged to round-off
            return x
        x = x_new
    return x


def check_sweep(
    features: np.ndarray,
    labels: np.ndarray,
    ridge: float,
    gammas: list[float],
    x0_radius: float,
    steps: int,
    record_every: int,
    csv_text: str,
) -> list[str]:
    """sweep.csv of `sgdlab sweep` with uniform SGD on a logistic problem."""
    if not csv_text.strip():
        return ["csv: sweep.csv is missing"]
    header, rows = parse_csv(csv_text)
    if (header != ["gamma", "tail_mean_dist_sq", "floor", "status"] or len(rows) != len(gammas)
            or any(len(row) != 4 for row in rows)):
        return [f"csv: expected {len(gammas)} rows under the sweep header, got {len(rows)}"]

    x_star = logistic_optimum(features, labels, ridge)
    s = 0.5 * (1.0 + np.tanh(-0.5 * labels * (features @ x_star)))
    grads = -(labels * s)[:, None] * features + ridge * x_star
    sigma_star_sq = float(np.mean(np.sum(grads**2, axis=1)))
    mu = ridge
    ks = np.arange(0, steps + 1, record_every)
    tail_start = int(ks[-max(1, math.ceil(TAIL_FRACTION * len(ks)))])

    problems = []
    for row, gamma in zip(rows, gammas):
        status = row[3]
        if status != "ok":
            problems.append(f"status: gamma={gamma!r} has status {status!r}")
            continue
        try:
            g, tail, floor = (float(v) for v in row[:3])
        except ValueError:
            problems.append(f"csv: unreadable row {row!r}")
            continue
        if not _close(g, gamma, 1e-15):
            problems.append(f"gamma: row gamma {g!r}, requested {gamma!r}")
        expected_floor = 2.0 * gamma * sigma_star_sq / mu  # D1 gamma^2 / (gamma mu), D1 = 2 sigma*^2
        if not _close(floor, expected_floor, FLOOR_RTOL):
            problems.append(f"floor: gamma={gamma!r} floor {floor!r}, recomputed {expected_floor!r}")
        # the tail averages k >= tail_start, where the bound is at most its value at tail_start
        bound = x0_radius**2 * (1.0 - gamma * mu) ** tail_start + expected_floor
        if not (0.0 < tail <= bound * (1.0 + BOUND_SLACK_REL)):
            problems.append(f"tail: gamma={gamma!r} tail {tail!r} not in (0, {bound * (1.0 + BOUND_SLACK_REL)!r}]")
    return problems


def check_verify(stdout: str, points: int, probes: int, mode: str) -> list[str]:
    """Output of `sgdlab verify` (without --quiet) for an estimator with a compressor.

    Expects three reports in order: the compressor (2 checks per probe), the
    assumption verifier (2 checks per point, all in `mode`) and the bound
    (the worst row plus the all-rows check), every line PASS.
    """
    expected = [("compressor[", 2 * probes, mode), ("assumption[", 2 * points, mode), ("bound_domination", 2, None)]
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    problems = []
    pending: list[str] = []
    reports = []
    for line in lines:
        if " checks=" in line:
            reports.append((line, pending))
            pending = []
        else:
            pending.append(line)
    if pending:
        problems.append(f"lines: {len(pending)} check lines after the last summary")
    if len(reports) != len(expected):
        return problems + [f"reports: expected {len(expected)} reports, got {len(reports)}"]
    for (summary, check_lines), (title, count, want_mode) in zip(reports, expected):
        name = summary.split()[1] if len(summary.split()) > 1 else ""
        if not name.startswith(title):
            problems.append(f"reports: expected a {title} report, got {summary!r}")
            continue
        if f" checks={count}" not in summary or len(check_lines) != count:
            problems.append(f"count: {name} printed {len(check_lines)} checks, summary {summary!r}, expected {count}")
        for line in [summary] + check_lines:
            if not line.startswith("PASS "):
                problems.append(f"pass: {line!r}")
        if want_mode is not None:
            wrong = [ln for ln in check_lines if f"[{want_mode}]" not in ln]
            if wrong:
                problems.append(f"mode: {name} has {len(wrong)} checks not [{want_mode}], e.g. {wrong[0]!r}")
    return problems
