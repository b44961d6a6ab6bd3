#!/usr/bin/env python3
"""Print SHA-256 digests of sgdlab's reproducible outputs, to compare two source trees.

    python3 tools/output_digest.py [--src DIR] > digests.txt
    python3 tools/output_digest.py --compare BASE.txt CHANGE.txt

The tool drives the command-line interface only (`python -W error -m
sgdlab.cli` with PYTHONPATH=DIR; DIR defaults to the src/ beside this tool),
so it runs against an older src/ as well, and a warning on a digested path
fails it.  Its first lines are the header: `stream_layout N` as the run
manifests record it ([tool] stream) and `version V` ([tool] version).
Then, for every estimator kind (cdgd and diana with a rand_k and a bernoulli
compressor, and cdgd with rand_k keeping 3 of 4 coordinates, where a kept
coordinate can follow a chain of two swaps) on a generated quadratic and a
generated logistic problem, one line `<kind>/<family> trajectory.csv
<sha256>` and one `... manifest <sha256>` from `sgdlab run`, one
`sweep/<family> sweep.csv <sha256>` per family from `sgdlab sweep` over a
grid with an inadmissible entry, and one `explicit-lsvrg/<family> ...` pair
per family from `sgdlab run` on a problem given as explicit JSON arrays
(`matrices`/`offsets`, `features`/`labels`/`ridge`), which this tool
generates with numpy.  The runs take 300 steps, more than one draw chunk,
and record every step.  One more pair, `every-run-key/quadratic ...`, runs
diana with rand_k (k = 1) on the generated quadratic with every [run] key
set, none of them to "auto" or its default, so the config reader and the
manifest writer of each key are digested too.  Last, one `verify/<case>
stdout <sha256>` line per `sgdlab verify` case: DIANA with a Bernoulli
compressor (q = 0.25, n = 10) at d = 20, where the assumption and compressor
checks sample, and at d = 12, where they are exact, and lsvrg on each family.

--compare prints every line that differs, "-" from BASE and "+" from CHANGE.
It exits 1 when the two files have the same header but any other line
differs: an output may change only together with the stream layout version.
With different headers it reports the change of layout and exits 0, so the
list shows what the new layout moved.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

FAMILIES = {
    "quadratic": {"family": "quadratic", "n": "6", "d": "4", "seed": "3"},
    "logistic": {"family": "logistic", "n": "6", "d": "4", "seed": "3", "ridge": "0.1"},
}
ESTIMATORS = {
    "gd": {"kind": "gd"},
    "sgd": {"kind": "sgd"},
    "noisy_gd": {"kind": "noisy_gd", "sigma": "0.3"},
    "sgd_star": {"kind": "sgd_star"},
    "lsvrg": {"kind": "lsvrg", "p": "0.2"},
    "cdgd-rand_k": {"kind": "cdgd", "compressor": "rand_k", "k": "2"},
    "cdgd-rand_k-3": {"kind": "cdgd", "compressor": "rand_k", "k": "3"},
    "cdgd-bernoulli": {"kind": "cdgd", "compressor": "bernoulli", "q": "0.5"},
    "diana-rand_k": {"kind": "diana", "compressor": "rand_k", "k": "2"},
    "diana-bernoulli": {"kind": "diana", "compressor": "bernoulli", "q": "0.5"},
    "rcd": {"kind": "rcd"},
}
RUN = {"steps": "300", "trials": "5", "seed": "11", "record_every": "1"}
EVERY_RUN_KEY = RUN | {"gamma": "0.01", "lyapunov_m": "40", "record_every": "7", "x0_radius": "0.5",
                       "x0_mode": "min_curvature"}
EVERY_RUN_KEY_ESTIMATOR = {"kind": "diana", "compressor": "rand_k", "k": "1"}
SWEEP_ESTIMATOR = "lsvrg"
SWEEP_GAMMAS = "0.05,0.01,0.002,100"  # the last entry is rejected
DIANA_BERNOULLI = {"kind": "diana", "compressor": "bernoulli", "q": "0.25"}
VERIFY = {  # case: (problem, estimator, --points)
    "diana-bernoulli-d20": ({"family": "quadratic", "n": "10", "d": "20", "seed": "3"}, DIANA_BERNOULLI, "2"),
    "diana-bernoulli-d12": ({"family": "quadratic", "n": "10", "d": "12", "seed": "3"}, DIANA_BERNOULLI, "2"),
    "lsvrg": (FAMILIES["quadratic"], ESTIMATORS["lsvrg"], "20"),
    "lsvrg-logistic": (FAMILIES["logistic"], ESTIMATORS["lsvrg"], "20"),
}
EXPLICIT_ESTIMATOR = "lsvrg"
HEADER = ("stream_layout", "version")


def explicit_problems() -> dict[str, dict[str, str]]:
    """One [problem] section of explicit JSON arrays per family, as bench/workloads.py writes them."""
    rng, n, d = np.random.default_rng(5), 6, 4
    A = np.empty((n, d, d))
    for i in range(n):
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        a = (q * np.linspace(1.0, 3.0, d)) @ q.T
        A[i] = 0.5 * (a + a.T)
    b, features = rng.standard_normal((n, d)), rng.standard_normal((n, d))
    labels = np.where(features @ rng.standard_normal(d) >= 0, 1.0, -1.0)
    return {
        "quadratic": {"family": "quadratic", "matrices": json.dumps(A.tolist()), "offsets": json.dumps(b.tolist())},
        "logistic": {"family": "logistic", "features": json.dumps(features.tolist()),
                     "labels": json.dumps(labels.tolist()), "ridge": "0.1"},
    }


def write_config(path: Path, problem: dict, estimator: dict, run: dict = RUN) -> None:
    config = configparser.ConfigParser(interpolation=None)
    config["problem"], config["estimator"], config["run"] = problem, estimator, run
    with path.open("w") as fh:
        config.write(fh)


def sgdlab(src: Path, *args: str) -> str:
    """Stdout of one sgdlab command, which must exit 0 without a warning."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-W", "error", "-m", "sgdlab.cli", *args]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"sgdlab {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(src: Path) -> list[str]:
    lines: list[str] = []
    explicit = explicit_problems()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for family, problem in FAMILIES.items():
            for name, estimator in ESTIMATORS.items():
                case = work / f"{name}-{family}"
                case.mkdir()
                write_config(case / "config.ini", problem, estimator)
                sgdlab(src, "run", "--config", str(case / "config.ini"), "--out", str(case), "--quiet")
                if not lines:
                    manifest = configparser.ConfigParser(interpolation=None)
                    manifest.read(case / "manifest")
                    tool = manifest["tool"]
                    lines += [f"stream_layout {tool['stream']}", f"version {tool['version']}"]
                for output in ("trajectory.csv", "manifest"):
                    lines.append(f"{name}/{family} {output} {sha256(case / output)}")
            case = work / f"sweep-{family}"
            case.mkdir()
            write_config(case / "config.ini", problem, ESTIMATORS[SWEEP_ESTIMATOR])
            sgdlab(src, "sweep", "--config", str(case / "config.ini"), "--out", str(case), "--quiet",
                   "--gammas", SWEEP_GAMMAS)
            lines.append(f"sweep/{family} sweep.csv {sha256(case / 'sweep.csv')}")
            case = work / f"explicit-{family}"
            case.mkdir()
            write_config(case / "config.ini", explicit[family], ESTIMATORS[EXPLICIT_ESTIMATOR])
            sgdlab(src, "run", "--config", str(case / "config.ini"), "--out", str(case), "--quiet")
            for output in ("trajectory.csv", "manifest"):
                lines.append(f"explicit-{EXPLICIT_ESTIMATOR}/{family} {output} {sha256(case / output)}")
        case = work / "every-run-key"
        case.mkdir()
        write_config(case / "config.ini", FAMILIES["quadratic"], EVERY_RUN_KEY_ESTIMATOR, EVERY_RUN_KEY)
        sgdlab(src, "run", "--config", str(case / "config.ini"), "--out", str(case), "--quiet")
        for output in ("trajectory.csv", "manifest"):
            lines.append(f"every-run-key/quadratic {output} {sha256(case / output)}")
        for name, (problem, estimator, points) in VERIFY.items():
            case = work / f"verify-{name}"
            case.mkdir()
            write_config(case / "config.ini", problem, estimator)
            stdout = sgdlab(src, "verify", "--config", str(case / "config.ini"), "--points", points)
            lines.append(f"verify/{name} stdout {hashlib.sha256(stdout.encode()).hexdigest()}")
    return lines


def compare(base: Path, change: Path) -> int:
    old, new = base.read_text().splitlines(), change.read_text().splitlines()
    # by the name before the digest or value, the base's line first
    differ = sorted(set(old) ^ set(new), key=lambda line: (line.rsplit(" ", 1)[0], line in new))
    for line in differ:
        print(("-" if line in old else "+") + " " + line)
    old_head, new_head = [l for l in old if l.startswith(HEADER)], [l for l in new if l.startswith(HEADER)]
    if old_head != new_head:
        print(f"header changed: {old_head} -> {new_head}; {len(differ)} lines differ, listed above")
        return 0
    if not differ:
        print("all digests match")
        return 0
    print(f"{len(differ)} lines differ under the unchanged header {new_head}")
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="the src/ directory whose sgdlab to run")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "CHANGE"),
                        help="compare two outputs of this tool instead")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    print("\n".join(digests(args.src.resolve())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
