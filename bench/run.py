#!/usr/bin/env python3
"""sgdlab benchmark: run a workload through the `sgdlab` CLI, check its outputs, print metrics.

    python3 bench/run.py --workload run_lsvrg --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --seconds 40        # every workload in turn

Run from anywhere; the program is taken from `src/` next to this directory.
A run repeats whole rounds of the workload's commands until the next round
would end after `--seconds`, checks every output independently
(checks.py) and prints one JSON object as its last line of output.

--trace 0 measures the end-to-end metrics: each round times a set-up probe
(interpreter start, `import sgdlab`, `parse_config`, the first `resolve`)
and then the command itself, each in its own process, and scales the times
to a reference machine speed (calibration_s).  --trace 1 runs every command
once plainly and once under tracer.py and reports the per-layer metrics and
the tracing overhead.  Metrics are medians over the rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
CHILD_TIMEOUT_S = 120.0

import tracer  # noqa: E402  (bench/ is on sys.path when this file runs as a script)
import workloads  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("draws_per_s", "1/s"), ("peak_rss_mb", "MB"))

# Times are scaled to a reference machine speed, measured by a fixed kernel
# before and after every process of a round: on a small shared machine the
# speed drifts by up to 1.6x for minutes at a time, which no number of rounds
# averages out.
CALIBRATION_STEPS = 16_000
CALIBRATION_REFERENCE_S = 0.09  # the kernel's time at the reference speed

# set-up probe: everything `sgdlab run/verify/sweep` does before its first trajectory step or verifier point
SETUP_PROBE = "import sys; from sgdlab.cli import parse_config; parse_config(sys.argv[1]).experiment.resolve()"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one worker process and one BLAS thread: on a small shared machine more would time the scheduler
    env.update(SGDLAB_THREADS="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def calibration_s() -> float:
    """Time a fixed kernel shaped like sgdlab's trial loop: one small matrix-vector step per draw."""
    rng = np.random.default_rng(0)
    A, b, x = rng.standard_normal((20, 5, 5)), rng.standard_normal((20, 5)), np.zeros(5)
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_STEPS):
        i = int(rng.integers(20))
        x -= 1e-3 * (A[i] @ x - b[i])
    return time.perf_counter() - t0


@dataclass
class Launch:
    """Outcome of one child process."""

    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


def launch(argv: list[str], env: dict[str, str], log: Path) -> Launch:
    """Run argv to completion; wall time from spawn to reap, peak RSS from wait4."""
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                  out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


class Round:
    """One round: every command of the workload, checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # operations that failed
        self.problems: list[str] = []  # wrong outputs of operations that succeeded
        self.wall_s = 0.0
        self.setup_s = 0.0
        self.rss_mb = 0.0
        self.speed = 1.0  # reference kernel time / this round's kernel time
        self.traced_wall_s = 0.0
        self.traces: list[dict] = []

    def run_command(self, cmd: workloads.Command, env, workdir: Path, tag: str, traced: bool) -> Launch | None:
        """Run one command (plainly or under the tracer) and check its output; None if it failed."""
        self.attempted += 1
        shutil.rmtree(cmd.out, ignore_errors=True)
        log = workdir / f"{tag}.log"
        if traced:
            trace_path = workdir / f"{tag}.trace.json"
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_path), *cmd.args]
        else:
            argv = [sys.executable, "-m", "sgdlab.cli", *cmd.args]
        result = launch(argv, env, log)
        if result.code != 0:
            self.failed += 1
            self.errors.append(f"{tag}: exit {result.code}: {result.stderr.strip()[-400:]}")
            return None
        self.problems += [f"{tag}: {p}" for p in cmd.check(cmd.out, result.stdout)]
        if traced:
            self.traces.append(json.loads(trace_path.read_text()))
        return result


def setup_probe(cmd: workloads.Command, env, workdir: Path) -> Launch:
    return launch([sys.executable, "-c", SETUP_PROBE, str(cmd.config)], env, workdir / "probe.log")


def plain_round(wl: workloads.Workload, env, workdir: Path) -> Round:
    rnd = Round()
    kernel_s = [calibration_s()]
    for i, cmd in enumerate(wl.commands):
        probe = setup_probe(cmd, env, workdir)
        kernel_s.append(calibration_s())
        if probe.code != 0:
            rnd.attempted += 1
            rnd.failed += 1
            rnd.errors.append(f"probe {i}: exit {probe.code}: {probe.stderr.strip()[-400:]}")
            continue
        rnd.setup_s += probe.wall_s
        result = rnd.run_command(cmd, env, workdir, f"cmd{i}", traced=False)
        kernel_s.append(calibration_s())
        if result is not None:
            rnd.wall_s += result.wall_s
            rnd.rss_mb = max(rnd.rss_mb, result.rss_mb)
    rnd.speed = CALIBRATION_REFERENCE_S / statistics.fmean(kernel_s)
    return rnd


def traced_round(wl: workloads.Workload, env, workdir: Path) -> Round:
    rnd = Round()
    for i, cmd in enumerate(wl.commands):
        plain = rnd.run_command(cmd, env, workdir, f"cmd{i}", traced=False)
        traced = rnd.run_command(cmd, env, workdir, f"cmd{i}-traced", traced=True)
        if plain is not None and traced is not None:
            rnd.wall_s += plain.wall_s
            rnd.traced_wall_s += traced.wall_s
    return rnd


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run whole rounds of one workload for about `seconds`; return the result object."""
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    try:
        wl = workloads.build(name, seed, workdir)
        env = child_env()
        launch([sys.executable, "-c", "import sgdlab.cli"], env, workdir / "warm.log")  # fills the bytecode caches
        one_round = traced_round if trace else plain_round
        rounds: list[Round] = []
        start = time.perf_counter()
        while True:
            rounds.append(one_round(wl, env, workdir))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(rounds) > seconds:
                break
        if trace and rounds[-1].traces:
            (OUT_DIR / f"{name}.trace.json").write_text(json.dumps(rounds[-1].traces))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    good = [r for r in rounds if r.failed == 0]
    for message in [m for r in rounds for m in r.errors + r.problems][:20]:
        print(f"{name}: {message}", file=sys.stderr)
    result = {
        "correct": not any(r.problems for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {},
    }
    if not good:
        return result
    if trace:
        per_round = [tracer.layer_metrics(r.traces) for r in good]
        for metric, unit in tracer.LAYER_METRICS:
            result["metrics"][metric] = {"value": statistics.median(m[metric] for m in per_round), "unit": unit}
        overhead = statistics.median(r.traced_wall_s - r.wall_s for r in good)
        result["metrics"]["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        values = {
            "wall_s": [r.wall_s * r.speed for r in good],
            "setup_s": [r.setup_s * r.speed for r in good],
            "draws_per_s": [wl.draws / ((r.wall_s - r.setup_s) * r.speed) for r in good],
            "peak_rss_mb": [r.rss_mb for r in good],
        }
        for metric, unit in END_TO_END:
            result["metrics"][metric] = {"value": statistics.median(values[metric]), "unit": unit}
        print(f"{name}: unscaled medians wall_s {statistics.median(r.wall_s for r in good):.4g} s, "
              f"setup_s {statistics.median(r.setup_s for r in good):.4g} s; "
              f"machine speed {statistics.median(r.speed for r in good):.3g} x reference")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its child (see launch)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "sgdlab" / "cli.py").is_file():
        print(f"error: the sgdlab sources are not at {ROOT / 'src' / 'sgdlab'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        res = results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:34s} {m['value']:.6g} {m['unit']}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    if not final["metrics"]:
        print("error: no round completed", file=sys.stderr)
        return 1
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
