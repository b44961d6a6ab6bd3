#!/usr/bin/env python3
"""A/B the benchmark on two trees in alternating pairs and write a BENCH_*.json record.

    python3 tools/bench_pairs.py --parent ../parent --change . --workload verify_diana \\
        --seeds 101-110 --out BENCH_8.json --claim wall_s --title "..."

--parent and --change are two git checkouts of the repository.  Each side runs
COMMAND from its own checkout, so it times its own src/ with its own bench/ at
bench/run.py's default run length.  Pair i runs both sides on seed i, the
parent first when i is even.  The scaled medians that bench/run.py prints on
its last line are the runs.  Each side is named by its HEAD and the git tree id
of its src/ as checked out, staged or not.

Per metric of BENCHMARK.json's end_to_end list the record gives each side's
runs, median and quartiles over the pairs (statistics.quantiles, inclusive),
the pairs the change wins, the ratio of the medians and the parent's quartile
distance.  Workloads already in --out are kept and a rerun workload is
replaced, so one record collects several invocations; a record made on other
trees or another machine is not extended.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

COMMAND = "python3 bench/run.py --workload <workload> --seed <seed>"
PROTOCOL = (
    "alternating parent/change pairs, parent first on even pairs; each side runs bench/ and src/ "
    "from its own checkout at bench/run.py's default run length; values are the scaled medians bench/run.py prints; quartiles "
    "are over the pairs (statistics.quantiles, inclusive)"
)


def parse_seeds(text: str) -> list[int]:
    """'101-110' or '3,5,8' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def describe_tree(tree: Path) -> dict:
    """HEAD and the git tree id of src/ with the changes to tracked files, staged or not."""

    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True, check=True).stdout.strip()

    head = git("rev-parse", "HEAD")
    snapshot = git("stash", "create") or head  # stash create prints nothing for a clean tree
    return {"head": head, "src_tree": git("rev-parse", f"{snapshot}:src")}


def machine() -> dict:
    model = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,  # bench/run.py gives every command one BLAS thread
    }


def bench_once(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "runs": values}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    p, c = summarize(parent), summarize(change)
    return {
        "better": better,
        "parent": p,
        "change": c,
        "change_wins": wins,
        "median_ratio": c["median"] / p["median"],
        "parent_iqr": p["q3"] - p["q1"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="git checkout of the repository at the parent")
    parser.add_argument("--change", type=Path, required=True, help="git checkout of the repository with the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 101-110 or 3,5,8")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_*.json record to write or extend")
    parser.add_argument("--title", help="what the change does")
    parser.add_argument("--claim", help="the end-to-end metric the change claims to improve on this workload")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two pairs")
    parent, change = args.parent.resolve(), args.change.resolve()
    sides = {"parent": describe_tree(parent), "change": describe_tree(change), "machine": machine()}
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    for key, value in sides.items():
        if record.get(key, value) != value:
            parser.error(f"{args.out} was made with another {key}: {record[key]}")
    metrics = json.loads((change / "BENCHMARK.json").read_text())["end_to_end"]
    better = {m["name"]: m["better"] for m in metrics}
    if args.claim is not None and args.claim not in better:
        parser.error(f"--claim must be one of {', '.join(better)}")

    runs = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(bench_once(parent if side == "parent" else change, args.workload, seed))
        line = ", ".join(f"{s} {runs[s][-1]['metrics']['wall_s']['value']:.4g}" for s in ("parent", "change"))
        print(f"{args.workload} seed {seed}: wall_s {line}", flush=True)

    if args.title:
        record["title"] = args.title
    if args.claim:
        record["claim"] = {"workload": args.workload, "metric": args.claim, "better": better[args.claim]}
    record["command"], record["protocol"] = COMMAND, PROTOCOL
    record.update(sides)
    all_runs = runs["parent"] + runs["change"]
    record.setdefault("workloads", {})[args.workload] = {
        "pairs": len(args.seeds),
        "seeds": args.seeds,
        "all_correct": all(r["correct"] for r in all_runs),
        "failed": sum(r["failed"] for r in all_runs),
        "metrics": {
            name: compare(
                [r["metrics"][name]["value"] for r in runs["parent"]],
                [r["metrics"][name]["value"] for r in runs["change"]],
                direction,
            )
            for name, direction in better.items()
        },
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    for name, m in record["workloads"][args.workload]["metrics"].items():
        print(f"{name}: parent {m['parent']['median']:.4g} change {m['change']['median']:.4g} "
              f"wins {m['change_wins']}/{len(args.seeds)} parent IQR {m['parent_iqr']:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
