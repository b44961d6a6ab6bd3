"""Command-line front end: run, verify, sweep, list.

Exit codes: 0 = success / all checks PASS, 1 = a verification check FAILed
or a trajectory diverged (non-finite iterate), 2 = usage or configuration
error, a derived constant that overflows float64, or an output path that
cannot be written.  Errors are reported as one `error: ...` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .config import ConfigError, manifest_text, parse_config, stats_csv_text
from .estimator import CERTIFICATE_FORMULAS, ESTIMATORS
from .harness import (
    TrajectoryError,
    run_monte_carlo,
    tail_mean,
    verify_assumption,
    verify_bound,
    verify_compressor,
)
from .theory import StepsizeError


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, metavar="PATH", help="experiment config file")
    p.add_argument("--out", default=".", metavar="DIR", help="output directory (default: .)")
    p.add_argument("--seed", type=int, default=None, metavar="U64", help="override base seed")
    p.add_argument("--trials", type=int, default=None, metavar="R", help="override trial count")
    p.add_argument("--quiet", action="store_true", help="suppress per-check output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgdlab",
        description="SGD-type methods with machine-checkable convergence certificates",
    )
    parser.add_argument("--version", action="version", version=f"sgdlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a Monte-Carlo experiment, write CSV + manifest")
    _add_common(run_p)

    verify_p = sub.add_parser("verify", help="verify certificates and bound domination")
    _add_common(verify_p)
    verify_p.add_argument(
        "--points", type=int, default=100, help="states checked by the assumption verifier"
    )

    sweep_p = sub.add_parser("sweep", help="tail plateau vs stepsize over a gamma grid")
    _add_common(sweep_p)
    sweep_p.add_argument(
        "--gammas", required=True, metavar="G1,G2,...", help="comma-separated stepsize grid"
    )

    sub.add_parser("list", help="list estimators, compressors, and problem generators")
    return parser


def _load(args):
    loaded = parse_config(args.config)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        loaded.experiment.base_seed = args.seed
    if args.trials is not None:
        loaded.experiment.trials = args.trials
    return loaded


def _cmd_run(args) -> int:
    loaded = _load(args)
    resolved = loaded.experiment.resolve()
    stats = run_monte_carlo(resolved)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "trajectory.csv").write_text(stats_csv_text(stats), newline="\n")
    (outdir / "manifest").write_text(manifest_text(loaded, resolved, __version__), newline="\n")
    if not args.quiet:
        print(f"wrote {outdir / 'trajectory.csv'} ({len(stats.ks)} rows) and {outdir / 'manifest'}")
        print(
            f"gamma={resolved.gamma:.6g} M={resolved.M:.6g} "
            f"contraction={resolved.curve.contraction:.6g} floor={resolved.curve.floor:.6g}"
        )
        print(f"final mean_V={stats.mean_V[-1]:.6e} bound_V={stats.bound_V[-1]:.6e}")
    return 0


def _cmd_verify(args) -> int:
    loaded = _load(args)
    resolved = loaded.experiment.resolve()
    reports = []
    compressor = getattr(resolved.estimator, "compressor", None)
    if compressor is not None:
        reports.append(
            verify_compressor(compressor, resolved.problem.d, seed=resolved.base_seed)
        )
    reports.append(
        verify_assumption(
            resolved.problem,
            resolved.constants,
            resolved.estimator,
            num_points=args.points,
            seed=resolved.base_seed,
        )
    )
    stats = run_monte_carlo(resolved)
    reports.append(verify_bound(stats))

    for report in reports:
        if not args.quiet:
            for line in report.lines():
                print(line)
        print(report.summary())
    return 0 if all(r.passed for r in reports) else 1


def _at_gamma(resolved, gamma: float):
    """The run at gamma, or the StepsizeError that rejects gamma."""
    try:
        return resolved.at_gamma(gamma)
    except StepsizeError as exc:
        return exc


def _cmd_sweep(args) -> int:
    loaded = _load(args)
    try:
        grid = [float(tok) for tok in args.gammas.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"--gammas must be comma-separated numbers, got {args.gammas!r}") from None
    if not grid:
        raise ConfigError("--gammas produced an empty grid")

    # one resolve for the whole grid; every admissible gamma then runs in one kernel call
    try:
        resolved = replace(loaded.experiment, gamma="auto").resolve()
        entries = [(gamma, _at_gamma(resolved, gamma)) for gamma in grid]
    except StepsizeError as exc:  # the configured lyapunov_m admits no stepsize
        entries = [(gamma, exc) for gamma in grid]
    admissible = [gamma for gamma, entry in entries if not isinstance(entry, StepsizeError)]
    stats = iter(run_monte_carlo(resolved, admissible) if admissible else [])

    lines = ["gamma,tail_mean_dist_sq,floor,status"]
    for gamma, entry in entries:
        if isinstance(entry, StepsizeError):
            lines.append("%.17g,,,rejected: %s" % (gamma, entry))
            if not args.quiet:
                print(f"gamma={gamma:.6g} rejected: {entry}")
            continue
        tail = tail_mean(next(stats).mean_dist_sq)
        lines.append("%.17g,%.17g,%.17g,ok" % (gamma, tail, entry.curve.floor))
        if not args.quiet:
            print(f"gamma={gamma:.6g} tail={tail:.6e} floor={entry.curve.floor:.6e}")

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "sweep.csv").write_text("\n".join(lines) + "\n", newline="\n")
    if not args.quiet:
        print(f"wrote {outdir / 'sweep.csv'}")
    return 0


def _cmd_list(args) -> int:
    print("estimators:")
    for name in sorted(ESTIMATORS):
        print(f"  {name:10s} {ESTIMATORS[name]().describe()}")
        print(f"  {'':10s} certificate: {CERTIFICATE_FORMULAS[name]}")
    print("compressors:")
    print("  identity   no compression (omega = 0)")
    print("  rand_k     keep a random k-subset scaled by d/k (omega = d/k - 1)")
    print("  bernoulli  keep coordinates independently w.p. q scaled by 1/q (omega = 1/q - 1)")
    print("problem generators:")
    print("  quadratic  random rotations of a prescribed spectrum; offsets set the")
    print("             heterogeneity (shift_scale = 0 gives a shared minimizer)")
    print("  logistic   random features with planted labels and an L2 ridge")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "verify": _cmd_verify,
        "sweep": _cmd_sweep,
        "list": _cmd_list,
    }[args.command]
    try:
        return handler(args)
    except TrajectoryError as exc:
        print(f"error: {exc} at gamma={exc.gamma!r}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # float ** raises where * gives inf: a config too large for float64
        print(f"error: floating-point overflow: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
