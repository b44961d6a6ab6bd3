"""Self-test of the benchmark: real outputs pass its checks, corrupted outputs fail them.

    python3 -m pytest -q bench/test_bench.py

Runs one real round of every workload (about 15 s), then feeds each check a
copy of the output with one field damaged and expects that check, by name,
to report it.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    """{workload name: (Workload, [stdout of each command])} from one plain round each."""
    env = run.child_env()
    out = {}
    for name in workloads.WORKLOADS:
        workdir = tmp_path_factory.mktemp(name)
        wl = workloads.build(name, SEED, workdir)
        stdouts = []
        for i, cmd in enumerate(wl.commands):
            result = run.launch([sys.executable, "-m", "sgdlab.cli", *cmd.args], env, workdir / f"cmd{i}.log")
            assert result.code == 0, result.stderr
            stdouts.append(result.stdout)
        out[name] = (wl, stdouts)
    return out


def _names(problems: list[str]) -> set[str]:
    return {p.split(":", 1)[0] for p in problems}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_real_outputs_pass(rounds, name):
    wl, stdouts = rounds[name]
    for cmd, stdout in zip(wl.commands, stdouts):
        assert cmd.check(cmd.out, stdout) == []


def _damaged_copy(cmd, tmp_path, filename, edit) -> Path:
    """Copy the command's output directory and apply edit(text) -> text to one file."""
    copy = tmp_path / "out"
    shutil.copytree(cmd.out, copy)
    path = copy / filename
    path.write_text(edit(path.read_text()) if path.exists() else "")
    return copy


def _edit_csv(edit_rows):
    def edit(text):
        lines = text.strip().split("\n")
        rows = [ln.split(",") for ln in lines[1:]]
        rows = edit_rows(rows)
        return "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"

    return edit


def _scale(rows, col, factor, which=slice(None)):
    for row in rows[which]:
        row[col] = repr(float(row[col]) * factor)
    return rows


def _set(rows, row, col, value):
    rows[row][col] = repr(value)
    return rows


def _above_limit(rows):
    # mean_V above bound_V (1 + 0.1) + 4 std_V / sqrt(R) in the last row
    bound, std = float(rows[-1][5]), float(rows[-1][4])
    limit = bound * 1.1 + 4.0 * std / math.sqrt(workloads.LSVRG_TRIALS)
    return _set(rows, -1, 3, 2.0 * limit + 1e-300)


def _manifest_edit(key, fn):
    def edit(text):
        lines = []
        for ln in text.split("\n"):
            k, sep, v = ln.partition(" = ")
            lines.append(f"{k} = {fn(float(v))!r}" if sep and k == key else ln)
        return "\n".join(lines)

    return edit


LSVRG_DAMAGE = [
    ("gamma", "manifest", _manifest_edit("gamma", lambda v: v * (1 + 1e-6))),
    ("lyapunov_m", "manifest", _manifest_edit("lyapunov_m", lambda v: v + 1.0)),
    ("contraction", "manifest", _manifest_edit("contraction", lambda v: v * (1 - 1e-6))),
    ("start_V", "trajectory.csv", _edit_csv(lambda r: _scale(r, 5, 1.001))),  # whole bound_V column
    ("bound_ratio", "trajectory.csv", _edit_csv(lambda r: _scale(r, 5, 1.001, slice(1, None)))),
    ("start_dist", "trajectory.csv", _edit_csv(lambda r: _scale(r, 1, 1.01, slice(0, 1)))),
    ("start_std", "trajectory.csv", _edit_csv(lambda r: _set(r, 0, 4, 1e-3))),
    ("domination", "trajectory.csv", _edit_csv(_above_limit)),
    ("rows", "trajectory.csv", _edit_csv(lambda r: r[:-1])),
    ("csv", "trajectory.csv", lambda text: ""),
]


@pytest.mark.parametrize("check,filename,edit", LSVRG_DAMAGE, ids=[d[0] for d in LSVRG_DAMAGE])
def test_run_lsvrg_check_rejects(rounds, tmp_path, check, filename, edit):
    wl, stdouts = rounds["run_lsvrg"]
    cmd = wl.commands[0]
    assert check in _names(cmd.check(_damaged_copy(cmd, tmp_path, filename, edit), stdouts[0]))


def _sweep_status(rows):
    rows[2][3] = "rejected: stepsize exceeds the admissible maximum"
    return rows


SWEEP_DAMAGE = [
    ("floor", _edit_csv(lambda r: _scale(r, 2, 1.01, slice(0, 1)))),
    ("tail", _edit_csv(lambda r: _scale(r, 1, 10.0, slice(1, 2)))),
    ("gamma", _edit_csv(lambda r: _scale(r, 0, 1 + 1e-9, slice(0, 1)))),
    ("status", _edit_csv(_sweep_status)),
    ("csv", _edit_csv(lambda r: r[:-1])),
]


@pytest.mark.parametrize("check,edit", SWEEP_DAMAGE, ids=[d[0] for d in SWEEP_DAMAGE])
def test_sweep_logistic_check_rejects(rounds, tmp_path, check, edit):
    wl, stdouts = rounds["sweep_logistic"]
    cmd = wl.commands[0]
    assert check in _names(cmd.check(_damaged_copy(cmd, tmp_path, "sweep.csv", edit), stdouts[0]))


def _first_line(marker, edit):
    def apply(stdout):
        lines = stdout.split("\n")
        i = next(i for i, ln in enumerate(lines) if marker in ln)
        lines[i:i + 1] = edit(lines[i])
        return "\n".join(lines)

    return apply


def _swap_mode(line):
    if "[sampled]" in line:
        return line.replace("[sampled]", "[exact]")
    return line.replace("[exact]", "[sampled]")


VERIFY_DAMAGE = [
    ("pass", _first_line("second_moment[", lambda ln: [ln.replace("PASS", "FAIL", 1)])),
    ("count", _first_line("sigma_recursion[", lambda ln: [])),
    ("reports", _first_line("checks=", lambda ln: [])),
    ("mode", _first_line("second_moment[", lambda ln: [_swap_mode(ln)])),
]


@pytest.mark.parametrize("command", [0, 1], ids=[case[0] for case in workloads.DIANA_CASES])
@pytest.mark.parametrize("check,edit", VERIFY_DAMAGE, ids=[d[0] for d in VERIFY_DAMAGE])
def test_verify_diana_check_rejects(rounds, check, edit, command):
    wl, stdouts = rounds["verify_diana"]
    cmd = wl.commands[command]
    assert check in _names(cmd.check(cmd.out, edit(stdouts[command])))


def test_traced_counts_match_the_inputs(rounds, tmp_path):
    wl, _ = rounds["run_lsvrg"]
    cmd = wl.commands[0]
    trace_path = tmp_path / "trace.json"
    argv = [sys.executable, str(run.BENCH_DIR / "tracer.py"), str(trace_path), *cmd.args]
    assert run.launch(argv, run.child_env(), tmp_path / "traced.log").code == 0
    assert cmd.check(cmd.out, "") == []
    metrics = tracer.layer_metrics([json.loads(trace_path.read_text())])
    assert set(metrics) == {name for name, _ in tracer.LAYER_METRICS}
    assert metrics["estimator.sample_calls"] == wl.draws
    assert metrics["problem.eval_grad_i_calls"] == wl.draws
    assert metrics["problem.compute_constants_calls"] == 1
    assert 0 < metrics["harness.trial_loop_self_ns"] < metrics["harness.trial_step_ns"]
    assert metrics["harness.verify_point_sampled_ms"] == 0 and metrics["compressor.compress_batch_calls"] == 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    traced = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert traced == list(tracer.LAYER_METRICS) + [("trace.overhead_s", "s")]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
