"""Command-line front end: run, verify, sweep, list.

Exit codes: 0 = success / all checks PASS, 1 = a verification check FAILed
or a trajectory diverged (non-finite iterate), 2 = usage or configuration
error, a derived constant that overflows float64, a config whose arrays do
not fit in memory, or an output path that cannot be written, 141 = the
reader of stdout closed it before the output was written (128 + SIGPIPE, as
a shell reports a process that a closed pipe ended).  Errors are reported
as one `error: ...` line on stderr; a closed stdout prints nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .config import ConfigError, manifest_text, parse_config, stats_csv_text
from .compressor import COMPRESSORS
from .estimator import ESTIMATORS
from .harness import (
    TrajectoryError,
    run_monte_carlo,
    tail_mean,
    verify_assumption,
    verify_bound,
    verify_compressor,
)
from .problem import PROBLEMS
from .theory import StepsizeError


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, metavar="PATH", help="experiment config file")
    p.add_argument("--seed", type=int, default=None, metavar="U64", help="override the [run] seed")
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
    for p in (run_p, sweep_p):  # verify writes no file
        p.add_argument("--out", default=".", metavar="DIR", help="output directory (default: .)")

    sub.add_parser("list", help="list estimators, compressors, and problem families")
    return parser


def _load(args):
    loaded = parse_config(args.config)
    for key in ("seed", "trials"):
        if getattr(args, key) is not None:
            setattr(loaded.experiment, key, getattr(args, key))
    try:
        loaded.experiment.validate()
    except ValueError as exc:  # the config was valid, so validate() names an option's field
        raise ConfigError(f"--{exc}") from None
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
    if args.points < 1:
        raise ConfigError(f"--points must be >= 1, got {args.points}")
    loaded = _load(args)
    resolved = loaded.experiment.resolve()
    reports = []
    compressor = getattr(resolved.estimator, "compressor", None)
    if compressor is not None:
        reports.append(verify_compressor(compressor, resolved.problem.d, seed=resolved.seed))
    reports.append(
        verify_assumption(
            resolved.problem,
            resolved.constants,
            resolved.estimator,
            num_points=args.points,
            seed=resolved.seed,
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
    for name, cls in sorted(ESTIMATORS.items()):
        print(f"  {name:10s} {cls.summary}")
        print(f"  {'':10s} certificate: {cls.formula}")
    print("compressors:")
    for name, cls in sorted(COMPRESSORS.items()):
        print(f"  {name:10s} {cls.summary}")
    print("problem families:")
    for name, cls in sorted(PROBLEMS.items()):
        print(f"  {name:10s} {cls.summary}")
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
        code = handler(args)
        sys.stdout.flush()  # a closed stdout raises here, not in the interpreter's final flush
        return code
    except BrokenPipeError:
        # nothing more can be written; the final flush of what is buffered goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except TrajectoryError as exc:
        print(f"error: {exc} at gamma={exc.gamma!r}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # float ** raises where * gives inf: a config too large for float64
        print(f"error: floating-point overflow: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy cannot allocate an array that the config sizes
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
