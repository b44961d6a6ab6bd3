"""CLI subcommands: run, verify, sweep, list; exit codes; CSV/manifest format."""

import configparser
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sgdlab.cli as cli
from sgdlab import harness
from sgdlab.compressor import COMPRESSORS
from sgdlab.config import parse_config
from sgdlab.estimator import ESTIMATORS
from sgdlab.harness import Check, Report, tail_mean
from sgdlab.problem import PROBLEMS, compute_constants
from sgdlab.theory import StepsizeError

ISOTROPIC_GD = """
[problem]
family = quadratic
matrices = [[[1.0, 0.0], [0.0, 1.0]]]
offsets = [[0.0, 0.0]]

[estimator]
kind = gd

[run]
steps = 40
trials = 1
seed = 5
record_every = 1
"""

LSVRG_CONF = """
[problem]
family = quadratic
n = 20
d = 5
seed = 7
eig_lo = 1.0
eig_hi = 3.0
shift_scale = 1.0

[estimator]
kind = lsvrg
p = 0.05

[run]
gamma = auto
steps = 400
trials = 6
seed = 11
record_every = 20
"""


def write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _run_cli_process(*args):
    # run the CLI in its own process so everything it writes to stderr is checked
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, "-m", "sgdlab.cli", *args], env=env, capture_output=True, text=True, timeout=120
    )


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    return header, np.array(rows)


def test_run_writes_csv_and_manifest(tmp_path):
    cfg = write(tmp_path, ISOTROPIC_GD)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 0
    header, rows = read_csv(tmp_path / "out" / "trajectory.csv")
    assert header == ["k", "mean_dist_sq", "mean_sigma_sq", "mean_V", "std_V", "bound_V"]
    assert len(rows) == 41
    # isotropic quadratic at gamma = 1/L: the run matches the bound exactly
    np.testing.assert_allclose(rows[:, 3], rows[:, 5], rtol=1e-12, atol=0.0)
    manifest = (tmp_path / "out" / "manifest").read_text()
    assert "[certificate]" in manifest and "[tool]" in manifest


def test_csv_uses_lf_and_roundtrip_floats(tmp_path):
    cfg = write(tmp_path, LSVRG_CONF)
    out = tmp_path / "o"
    assert cli.main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    raw = (out / "trajectory.csv").read_bytes()
    assert b"\r" not in raw
    header, rows = read_csv(out / "trajectory.csv")
    # 17 significant digits: re-rendering the parsed floats reproduces the text
    second_line = raw.decode().split("\n")[1].split(",")
    assert float(second_line[3]) == rows[0, 3]


def test_zero_steps_gives_single_row(tmp_path):
    cfg = write(tmp_path, ISOTROPIC_GD.replace("steps = 40", "steps = 0"))
    out = tmp_path / "z"
    assert cli.main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    _, rows = read_csv(out / "trajectory.csv")
    assert rows.shape[0] == 1 and rows[0, 0] == 0


def test_lsvrg_auto_gamma_in_manifest(tmp_path):
    cfg = write(tmp_path, LSVRG_CONF)
    out = tmp_path / "m"
    assert cli.main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    manifest = (out / "manifest").read_text()
    gamma = float(
        [ln for ln in manifest.splitlines() if ln.startswith("gamma")][0].split("=")[1]
    )
    from sgdlab.config import parse_config
    from sgdlab.problem import compute_constants

    loaded = parse_config(cfg)
    L_max = compute_constants(loaded.experiment.problem).L_max
    assert gamma == pytest.approx(1.0 / (6.0 * L_max), rel=1e-12)


# each problem family loaded from the explicit arrays its class declares
EXPLICIT_ARRAYS = {
    "quadratic": "matrices = [[[2, 0.5], [0.5, 1]], [[1, 0], [0, 3]]]\noffsets = [[1, 0], [0, -1]]",
    "logistic": "features = [[1, 2], [-1, 0.5], [0.3, -2]]\nlabels = [1, -1, 1]\nridge = 0.1",
}
EXPLICIT_LSVRG = """
[problem]
family = {family}
{arrays}

[estimator]
kind = lsvrg
p = 0.5

[run]
steps = 50
trials = 2
"""
ROUNDTRIP_CONFS = {
    "generated-quadratic": LSVRG_CONF,
    **{f"explicit-{family}": EXPLICIT_LSVRG.format(family=family, arrays=arrays)
       for family, arrays in EXPLICIT_ARRAYS.items()},
}


@pytest.mark.parametrize("name", ROUNDTRIP_CONFS)
def test_manifest_roundtrip_reproduces_csv(tmp_path, name):
    assert sorted(EXPLICIT_ARRAYS) == sorted(PROBLEMS), "every problem family needs an explicit case"
    cfg = write(tmp_path, ROUNDTRIP_CONFS[name])
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert (
        cli.main(["run", "--config", str(out1 / "manifest"), "--out", str(out2), "--quiet"]) == 0
    )
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_manifest_records_stream_layout(tmp_path):
    cfg = write(tmp_path, LSVRG_CONF)
    out = tmp_path / "s"
    assert cli.main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    manifest = configparser.ConfigParser(interpolation=None)
    manifest.read(out / "manifest")
    assert manifest["tool"]["stream"] == "3"


def test_seed_and_trials_overrides(tmp_path):
    cfg = write(tmp_path, LSVRG_CONF)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    cli.main(["run", "--config", cfg, "--out", str(out1), "--quiet", "--seed", "77", "--trials", "2"])
    cli.main(["run", "--config", cfg, "--out", str(out2), "--quiet", "--seed", "77", "--trials", "2"])
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    manifest = (out1 / "manifest").read_text()
    assert "seed = 77" in manifest and "trials = 2" in manifest


def test_unknown_key_is_config_error(tmp_path):
    cfg = write(tmp_path, ISOTROPIC_GD.replace("[run]", "[run]\nturbo = yes"))
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 2


def test_unknown_section_is_config_error(tmp_path):
    cfg = write(tmp_path, ISOTROPIC_GD + "\n[plotting]\nstyle = dark\n")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 2


def test_missing_config_file_is_config_error(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "nope.ini"), "--quiet"]) == 2
    assert "not found" in capsys.readouterr().err


def test_oversized_gamma_reports_maximum(tmp_path, capsys):
    cfg = write(tmp_path, ISOTROPIC_GD.replace("[run]", "[run]\ngamma = 5.0"))
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 2
    assert "admissible maximum" in capsys.readouterr().err


def test_diverging_run_is_a_one_line_error(tmp_path):
    # a start at radius 1e200 overflows ||x0 - x*||^2
    cfg = write(tmp_path, LSVRG_CONF.replace("[run]", "[run]\nx0_radius = 1e200"))
    proc = _run_cli_process("run", "--config", cfg, "--out", str(tmp_path), "--quiet")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
    # the error names the step that overflowed, not the next recorded one (record_every = 20)
    assert "iteration 0 in trial 0" in proc.stderr


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["list", "verify"])
def test_a_closed_stdout_exits_141_and_prints_nothing(tmp_path, command, buffered):
    """A reader that has gone is no configuration error: no `error:` line, no traceback, exit 141."""
    cfg = write(tmp_path, ISOTROPIC_GD)
    args = {"list": [], "verify": ["--config", cfg, "--points", "2"]}
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader closes before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sgdlab.cli", command, *args[command]],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_verify_passes_on_sound_config(tmp_path, capsys):
    cfg = write(tmp_path, LSVRG_CONF)
    code = cli.main(["verify", "--config", cfg, "--points", "15", "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS assumption[lsvrg]" in out
    assert "PASS bound_domination" in out


def test_verify_exit_code_on_failure(tmp_path, monkeypatch):
    cfg = write(tmp_path, LSVRG_CONF)
    fake = Report(title="assumption[lsvrg]", checks=[Check("second_moment[0]", -1.0, 0.0, True)])
    monkeypatch.setattr(cli, "verify_assumption", lambda *a, **k: fake)
    assert cli.main(["verify", "--config", cfg, "--quiet"]) == 1


def test_verify_sampled_bernoulli_variance_allows_round_off(tmp_path):
    # at q = 1/2 every draw's squared error is omega * ||x||^2 up to rounding,
    # so the sampled variance check needs the exact check's round-off slack
    conf = """
[problem]
family = quadratic
n = 6
d = 17
seed = 5

[estimator]
kind = diana
compressor = bernoulli
q = 0.5

[run]
steps = 100
trials = 8
"""
    cfg = write(tmp_path, conf)
    assert cli.main(["verify", "--config", cfg, "--points", "4", "--quiet"]) == 0


def test_verify_includes_compressor_checks(tmp_path, capsys):
    conf = LSVRG_CONF.replace("kind = lsvrg\np = 0.05", "kind = cdgd\ncompressor = rand_k\nk = 1")
    cfg = write(tmp_path, conf)
    code = cli.main(["verify", "--config", cfg, "--points", "10", "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert "compressor[rand_k]" in out


def test_verify_identity_compressor_trivially_passes(tmp_path, capsys):
    # short horizon: this run is deterministic GD contracting at ~0.16/step,
    # so past ~35 steps the bound dips below the float64 convergence floor
    conf = LSVRG_CONF.replace("kind = lsvrg\np = 0.05", "kind = cdgd\ncompressor = identity")
    conf = conf.replace("steps = 400", "steps = 30")
    cfg = write(tmp_path, conf)
    code = cli.main(["verify", "--config", cfg, "--points", "10", "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS compressor[identity]" in out


def test_sweep_interpolation_tail_vanishes(tmp_path):
    conf = """
[problem]
family = quadratic
n = 6
d = 4
seed = 23
shift_scale = 0.0

[estimator]
kind = sgd

[run]
steps = 250
trials = 8
seed = 31
"""
    cfg = write(tmp_path, conf)
    out = tmp_path / "interp"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out), "--quiet",
                     "--gammas", "0.15,0.075"]) == 0
    lines = (out / "sweep.csv").read_text().strip().split("\n")[1:]
    for line in lines:
        gamma, tail, floor, status = line.split(",")
        assert status == "ok"
        assert float(tail) <= 1e-10
        assert float(floor) == 0.0


def test_sweep_cdgd_identity_floor_vanishes(tmp_path):
    conf = """
[problem]
family = quadratic
n = 5
d = 3
seed = 29
shift_scale = 1.0

[estimator]
kind = cdgd
compressor = identity

[run]
steps = 200
trials = 4
seed = 37
"""
    cfg = write(tmp_path, conf)
    out = tmp_path / "cd0"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out), "--quiet",
                     "--gammas", "0.2"]) == 0
    line = (out / "sweep.csv").read_text().strip().split("\n")[1]
    gamma, tail, floor, status = line.split(",")
    assert status == "ok" and float(floor) == 0.0 and float(tail) <= 1e-10


def test_sweep_writes_grid_and_rejects_oversized(tmp_path, capsys):
    conf = LSVRG_CONF.replace("kind = lsvrg\np = 0.05", "kind = sgd").replace(
        "steps = 400", "steps = 200"
    )
    cfg = write(tmp_path, conf)
    out = tmp_path / "sw"
    code = cli.main(["sweep", "--config", cfg, "--out", str(out), "--gammas", "0.05,0.025,9.0,nan"])
    assert code == 0
    text = (out / "sweep.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "gamma,tail_mean_dist_sq,floor,status"
    assert len(lines) == 5
    assert lines[1].endswith(",ok") and lines[2].endswith(",ok")
    assert "rejected" in lines[3]
    assert lines[4].startswith("nan,") and "rejected" in lines[4]


PRESET_ESTIMATOR_SECTIONS = {
    "gd": "kind = gd",
    "sgd": "kind = sgd",
    "noisy_gd": "kind = noisy_gd\nsigma = 0.3",
    "sgd_star": "kind = sgd_star",
    "lsvrg": "kind = lsvrg\np = 0.05",
    "cdgd": "kind = cdgd\ncompressor = rand_k\nk = 1",
    "diana": "kind = diana\ncompressor = rand_k\nk = 1",
    "rcd": "kind = rcd",
}


@pytest.mark.parametrize("kind", sorted(PRESET_ESTIMATOR_SECTIONS))
def test_verify_exits_zero_for_every_preset(tmp_path, kind):
    # short horizon keeps the bound above the float64 convergence floor for
    # the fast deterministic presets
    conf = LSVRG_CONF.replace("kind = lsvrg\np = 0.05", PRESET_ESTIMATOR_SECTIONS[kind])
    conf = conf.replace("steps = 400", "steps = 25").replace("trials = 6", "trials = 50")
    conf = conf.replace("record_every = 20", "record_every = 1")
    cfg = write(tmp_path, conf)
    assert cli.main(["verify", "--config", cfg, "--points", "25", "--quiet"]) == 0


def test_sweep_halving_gamma_halves_the_plateau(tmp_path):
    conf = LSVRG_CONF.replace("kind = lsvrg\np = 0.05", "kind = sgd").replace(
        "steps = 400", "steps = 600"
    ).replace("trials = 6", "trials = 400")
    cfg = write(tmp_path, conf)
    out = tmp_path / "half"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out), "--quiet",
                     "--gammas", "0.08,0.04"]) == 0
    lines = (out / "sweep.csv").read_text().strip().split("\n")[1:]
    tails = [float(ln.split(",")[1]) for ln in lines]
    ratio = tails[1] / tails[0]
    # the floor is linear in gamma: expect the plateau ratio near 0.5
    assert 0.3 * 0.5 <= ratio <= 1.0 * 0.5 + 0.05


SWEEP_SGD = LSVRG_CONF.replace("kind = lsvrg\np = 0.05", "kind = sgd").replace("steps = 400", "steps = 300")


def test_sweep_computes_the_constants_once(tmp_path, monkeypatch):
    calls = []

    def counted(problem):
        calls.append(problem)
        return compute_constants(problem)

    monkeypatch.setattr(harness, "compute_constants", counted)
    cfg = write(tmp_path, SWEEP_SGD)
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path), "--quiet",
                     "--gammas", "0.05,9.0,0.025,0.0125"]) == 0
    assert len(calls) == 1


def test_sweep_rejects_every_gamma_when_no_stepsize_admits_the_lyapunov_weight(tmp_path, capsys):
    cfg = write(tmp_path, LSVRG_CONF.replace("gamma = auto", "gamma = auto\nlyapunov_m = 0"))
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path), "--gammas", "0.05,9.0,nan"]) == 0
    out = capsys.readouterr().out
    rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")[1:]
    assert [row.split(",")[0] for row in rows] == ["0.050000000000000003", "9", "nan"]
    for row in rows:
        assert ",,,rejected: need M > B/rho = " in row and row.endswith("got M = 0")
    assert out.count("rejected: need M > B/rho") == 3


OVERFLOWING_WEIGHT = """
[problem]
family = quadratic
n = 4
d = 3

[estimator]
{estimator}

[run]
steps = 10
"""


@pytest.mark.parametrize(
    "estimator", ["kind = lsvrg\np = 1e-320", "kind = diana\nalpha = 1e-320"], ids=["lsvrg", "diana"]
)
def test_an_overflowing_auto_lyapunov_weight_is_one_error_naming_the_weight(tmp_path, capsys, estimator):
    # the auto M = 2B/rho is inf, which admits only gamma = 0: the error names M, not the stepsize
    cfg = write(tmp_path, OVERFLOWING_WEIGHT.format(estimator=estimator))
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: Lyapunov weight M must be finite, got inf (the auto M = 2B/rho is inf at B = ")
    assert "rho = 9.99989e-321" in err


def test_sweep_rejects_every_gamma_when_the_auto_lyapunov_weight_overflows(tmp_path):
    cfg = write(tmp_path, OVERFLOWING_WEIGHT.format(estimator="kind = lsvrg\np = 1e-320"))
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path), "--quiet", "--gammas", "0.1,0.01"]) == 0
    rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")[1:]
    assert [row.split(",")[0] for row in rows] == ["0.10000000000000001", "0.01"]
    for row in rows:
        assert ",,,rejected: Lyapunov weight M must be finite, got inf (the auto M = 2B/rho is inf" in row


def test_sweep_equals_a_loop_of_runs(tmp_path, capsys):
    """One kernel call for the grid gives what one `run` per stepsize gives, byte for byte."""
    grid = ["0.05", "9.0", "0.025", "nan", "0.0125", "0.05"]
    cfg = write(tmp_path, SWEEP_SGD)
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep"), "--gammas", ",".join(grid)]) == 0
    out = capsys.readouterr().out

    rows, stdout = [], []
    experiment = parse_config(cfg).experiment
    for i, tok in enumerate(grid):
        gamma = experiment.gamma = float(tok)
        try:
            experiment.resolve()
        except StepsizeError as exc:
            rows.append("%.17g,,,rejected: %s" % (gamma, exc))
            stdout.append(f"gamma={gamma:.6g} rejected: {exc}")
            continue
        run_cfg = write(tmp_path, SWEEP_SGD.replace("gamma = auto", f"gamma = {tok}"), name=f"g{i}.ini")
        code = cli.main(["run", "--config", run_cfg, "--out", str(tmp_path / f"run{i}"), "--quiet"])
        assert code == 0
        _, traj = read_csv(tmp_path / f"run{i}" / "trajectory.csv")
        tail = tail_mean(traj[:, 1])
        manifest = configparser.ConfigParser()
        manifest.read(tmp_path / f"run{i}" / "manifest")
        floor = float(manifest["certificate"]["floor"])
        rows.append("%.17g,%.17g,%.17g,ok" % (gamma, tail, floor))
        stdout.append(f"gamma={gamma:.6g} tail={tail:.6e} floor={floor:.6e}")
    assert sum(row.endswith(",ok") for row in rows) == 4
    expected_csv = "gamma,tail_mean_dist_sq,floor,status\n" + "\n".join(rows) + "\n"
    assert (tmp_path / "sweep" / "sweep.csv").read_text() == expected_csv
    assert out == "\n".join(stdout) + f"\nwrote {tmp_path / 'sweep' / 'sweep.csv'}\n"


def test_diverging_sweep_is_a_one_line_error_naming_the_gamma(tmp_path):
    cfg = write(tmp_path, SWEEP_SGD.replace("[run]", "[run]\nx0_radius = 1e200"))
    proc = _run_cli_process("sweep", "--config", cfg, "--out", str(tmp_path), "--quiet",
                            "--gammas", "9.0,0.025,0.05")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
    # 9.0 is rejected, so the first admissible gamma diverges first, at its start
    assert "iteration 0 in trial 0 at gamma=0.025" in proc.stderr


def test_list_prints_every_registered_kind_from_its_class(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for name, cls in [*ESTIMATORS.items(), *COMPRESSORS.items(), *PROBLEMS.items()]:
        assert cls.summary and f"  {name:10s} {cls.summary}\n" in out, name
    for name, cls in ESTIMATORS.items():
        assert cls.formula and f"certificate: {cls.formula}\n" in out, name


def test_list_is_stable_and_names_formulas(capsys):
    assert cli.main(["list"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["list"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "lsvrg" in first and "A=2*L_max" in first
    assert "rcd" in first and "A=d*L" in first
    assert "rand_k" in first and "quadratic" in first


def test_explicit_logistic_config(tmp_path):
    conf = """
[problem]
family = logistic
features = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5]]
labels = [1, -1, 1]
ridge = 0.5

[estimator]
kind = sgd

[run]
steps = 50
trials = 2
seed = 3
"""
    cfg = write(tmp_path, conf)
    out = tmp_path / "log"
    assert cli.main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    _, rows = read_csv(out / "trajectory.csv")
    assert rows.shape[0] >= 2


@pytest.mark.parametrize("ridge", ["1e-6", "1e-9"])
def test_separable_small_ridge_logistic_run(tmp_path, ridge):
    conf = f"""
[problem]
family = logistic
n = 10
d = 50
seed = 7
ridge = {ridge}

[estimator]
kind = sgd
"""
    cfg = write(tmp_path, conf)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0


EXPLICIT_LOGISTIC = """
[problem]
family = logistic
features = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5]]
labels = [1, -1, 1]
ridge = 0.5

[estimator]
kind = sgd

[run]
steps = 20
"""


@pytest.mark.parametrize(
    "old, new",
    [
        ("[1.0, 0.0], [0.0, 1.0]", "[NaN, 0.0], [0.0, 1.0]"),
        ("[1.0, 0.0], [0.0, 1.0]", "[Infinity, 0.0], [0.0, 1.0]"),
        ("ridge = 0.5", "ridge = nan"),
        ("ridge = 0.5", "ridge = inf"),
        ("steps = 20", "steps = 20\ngamma = nan"),
        ("steps = 20", "steps = 20\nx0_radius = nan"),
        ("steps = 20", "steps = 20\nx0_radius = inf"),
        ("kind = sgd", "kind = noisy_gd\nsigma = nan"),
    ],
    ids=["nan-feature", "inf-feature", "nan-ridge", "inf-ridge", "nan-gamma", "nan-radius", "inf-radius", "nan-sigma"],
)
def test_non_finite_input_is_a_one_line_config_error(tmp_path, capsys, old, new):
    assert old in EXPLICIT_LOGISTIC
    cfg = write(tmp_path, EXPLICIT_LOGISTIC.replace(old, new))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "finite" in err


@pytest.mark.parametrize(
    "conf, args, key",
    [
        (LSVRG_CONF.replace("seed = 11", "seed = -1"), ["run"], "[run] seed"),
        (LSVRG_CONF.replace("seed = 7", "seed = -1"), ["run"], "[problem] seed"),
        (LSVRG_CONF, ["run", "--seed", "-1"], "--seed"),
        (LSVRG_CONF, ["run", "--trials", "0"], "--trials"),
        (LSVRG_CONF, ["verify", "--points", "0"], "--points"),
        (ISOTROPIC_GD.replace("[[[1.0, 0.0], [0.0, 1.0]]]", "[[[1.0, 0.0], [0.0]]]"), ["run"], "[problem] matrices"),
        (ISOTROPIC_GD.replace("[[[1.0, 0.0], [0.0, 1.0]]]", '"x"'), ["run"], "[problem] matrices"),
        (ISOTROPIC_GD.replace("[[[1.0, 0.0]", "[[[1" + "0" * 400 + ", 0.0]"), ["run"], "[problem] matrices"),
        (ISOTROPIC_GD.replace("steps = 40", "steps = 1" + "0" * 30), ["run"], "[run] steps"),
    ],
    ids=["negative-run-seed", "negative-problem-seed", "negative-seed-option", "zero-trials-option",
         "zero-points-option", "ragged-matrices", "string-matrices", "float-overflowing-matrices", "int64-overflowing-steps"],
)
def test_malformed_input_is_a_one_line_error_naming_the_key(tmp_path, monkeypatch, capsys, conf, args, key):
    cfg = write(tmp_path, conf)
    monkeypatch.chdir(tmp_path)  # where `run` would write its outputs
    assert cli.main([args[0], "--config", cfg, "--quiet", *args[1:]]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {key} must be ")


def test_zero_width_logistic_features_are_a_one_line_config_error(tmp_path):
    conf = """
[problem]
family = logistic
features = [[], []]
labels = [1, -1]
ridge = 1

[estimator]
kind = sgd
"""
    proc = _run_cli_process("verify", "--config", write(tmp_path, conf))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ") and "d >= 1" in proc.stderr


def test_non_finite_quadratic_matrix_is_a_config_error(tmp_path, capsys):
    cfg = write(tmp_path, ISOTROPIC_GD.replace("[[[1.0, 0.0]", "[[[NaN, 0.0]"))
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 2
    assert "finite" in capsys.readouterr().err


def test_out_naming_a_file_is_a_one_line_error(tmp_path):
    cfg = write(tmp_path, ISOTROPIC_GD)
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    proc = _run_cli_process("run", "--config", cfg, "--out", str(blocker), "--quiet")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
    assert blocker.read_text() == "not a directory\n"


def test_verify_bound_passes_below_the_round_off_floor(tmp_path, capsys):
    # DIANA reaches x* to float64 resolution long before step 1000, where the
    # bound is 4.5e-37 and the mean V about 3.7e-30
    conf = """
[problem]
family = quadratic
n = 6
d = 17
seed = 5

[estimator]
kind = diana
compressor = bernoulli
q = 0.5
"""
    cfg = write(tmp_path, conf)
    assert cli.main(["verify", "--config", cfg, "--points", "2", "--quiet"]) == 0
    assert "PASS bound_domination" in capsys.readouterr().out


OVERFLOW_BASE = """
[problem]
family = quadratic
n = 4
d = 3
seed = 1

[estimator]
kind = sgd

[run]
steps = 20
trials = 2
seed = 1
"""


def _assert_one_line_error(proc, text):
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ") and text in proc.stderr


def test_sweep_rejects_a_gamma_whose_square_overflows(tmp_path):
    # float ** raises OverflowError at 1e300**2: the stepsize check must come first
    cfg = write(tmp_path, OVERFLOW_BASE)
    proc = _run_cli_process("sweep", "--config", cfg, "--out", str(tmp_path), "--quiet", "--gammas", "0.01,1e300")
    assert proc.returncode == 0 and proc.stderr == ""
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[1].endswith(",ok") and "rejected: stepsize 1e+300 exceeds the admissible maximum" in rows[2]


def test_run_rejects_a_gamma_whose_square_overflows(tmp_path):
    cfg = write(tmp_path, OVERFLOW_BASE.replace("steps = 20", "steps = 20\ngamma = 1e300"))
    proc = _run_cli_process("run", "--config", cfg, "--out", str(tmp_path), "--quiet")
    _assert_one_line_error(proc, "stepsize 1e+300 exceeds the admissible maximum")


@pytest.mark.parametrize(
    "command", [["run"], ["verify"], ["sweep", "--gammas", "0.01"]], ids=["run", "verify", "sweep"]
)
def test_a_noise_level_whose_square_overflows_is_a_one_line_error(tmp_path, command):
    cfg = write(tmp_path, OVERFLOW_BASE.replace("kind = sgd", "kind = noisy_gd\nsigma = 1e200"))
    out = [] if command[0] == "verify" else ["--out", str(tmp_path)]
    proc = _run_cli_process(command[0], "--config", cfg, *out, "--quiet", *command[1:])
    _assert_one_line_error(proc, "floating-point overflow")


def test_verify_takes_no_out_flag(tmp_path):
    """verify writes no file, so an output directory is a usage error."""
    cfg = write(tmp_path, ISOTROPIC_GD)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "x"), "--quiet"])
    assert exc.value.code == 2


TINY_RATE_GD = """
[problem]
family = quadratic
n = 4
d = 3
seed = 1

[estimator]
kind = gd

[run]
gamma = 1e-17
steps = 50
"""


def test_a_rate_below_the_float_spacing_of_one_runs_clean(tmp_path):
    """gamma mu < 2^-53, so 1 - rate rounds to 1: the round-off term must still be finite and warn nothing."""
    cfg = write(tmp_path, TINY_RATE_GD)
    for args in (["run", "--out", str(tmp_path)], ["sweep", "--out", str(tmp_path), "--gammas", "1e-17,1e-3"]):
        proc = _run_cli_process(args[0], "--config", cfg, "--quiet", *args[1:])
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    proc = _run_cli_process("verify", "--config", cfg, "--quiet")
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    (bound,) = [line for line in proc.stdout.splitlines() if "bound_domination" in line]
    margin = float(bound.split("margin=")[1])
    assert bound.startswith("PASS") and np.isfinite(margin) and margin > 0


ZERO_RATE_GD = """
[problem]
family = quadratic
n = 1
d = 2
seed = 1
eig_lo = 0.2

[estimator]
kind = gd

[run]
gamma = 5e-324
"""


@pytest.mark.parametrize("command", ["run", "verify"])
def test_a_rate_that_rounds_to_zero_is_a_one_line_error(tmp_path, command):
    """gamma mu underflows to 0, and the bound needs a rate > 0."""
    out = ["--out", str(tmp_path)] if command == "run" else []
    proc = _run_cli_process(command, "--config", write(tmp_path, ZERO_RATE_GD), *out, "--quiet")
    _assert_one_line_error(proc, "the bound needs r > 0")


def test_sweep_rejects_a_gamma_whose_rate_rounds_to_zero(tmp_path):
    cfg = write(tmp_path, ZERO_RATE_GD)
    proc = _run_cli_process("sweep", "--config", cfg, "--out", str(tmp_path), "--quiet", "--gammas", "5e-324,0.01")
    assert proc.returncode == 0 and proc.stderr == ""
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert "rejected: stepsize 4.94066e-324 gives the rate r = 0" in rows[1] and rows[2].endswith(",ok")


def _tiny_curvature_gd(shift):
    """OVERFLOW_BASE with mu = L = 1e-200 and kind gd, so gamma = 1/L = 1e200."""
    problem = f"seed = 1\neig_lo = 1e-200\neig_hi = 1e-200\n{shift}\n[estimator]\nkind = gd"
    return OVERFLOW_BASE.replace("seed = 1\n\n[estimator]\nkind = sgd", problem)


@pytest.mark.parametrize("shift, text", [("", "optimum certificate failed")], ids=["heterogeneous"])
def test_a_curvature_whose_inverse_squared_overflows_is_a_one_line_error(tmp_path, shift, text):
    """With offsets, ||x*|| overflows before the run starts."""
    conf = _tiny_curvature_gd(shift)
    proc = _run_cli_process("run", "--config", write(tmp_path, conf), "--out", str(tmp_path), "--quiet")
    _assert_one_line_error(proc, text)


def test_a_stepsize_whose_square_overflows_runs_where_its_factors_are_zero(tmp_path):
    """gd at gamma = 1e200 on a shared minimizer: M = D1 = 0, so neither V nor the floor squares gamma."""
    cfg = write(tmp_path, _tiny_curvature_gd("shift_scale = 0.0\n"))
    proc = _run_cli_process("run", "--config", cfg, "--out", str(tmp_path), "--quiet")
    assert proc.returncode == 0 and proc.stderr == ""
    _, rows = read_csv(tmp_path / "trajectory.csv")
    assert rows.shape == (21, 6) and np.isfinite(rows).all()
    # gamma mu is 1 up to round-off, so every step lands next to x* = 0
    assert rows[0, 3] == 1.0 and rows[-1, 3] <= rows[-1, 5]
    proc = _run_cli_process("sweep", "--config", cfg, "--out", str(tmp_path), "--quiet", "--gammas", "1e200,5e199")
    assert proc.returncode == 0 and proc.stderr == ""
    rows = [row.split(",") for row in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
    assert [row[3] for row in rows] == ["ok", "ok"]
    assert all(np.isfinite(float(row[1])) and float(row[2]) == 0.0 for row in rows)


@pytest.mark.parametrize(
    "problem, run",
    [
        # random_quadratic's (n, d, d) matrix stack: 7.11 PiB
        ("family = quadratic\nn = 1000000000\nd = 1000", ""),
        # run_monte_carlo's (gammas, trials, records) results
        ("family = quadratic\nn = 4\nd = 3", "trials = 1000000000000000"),
    ],
    ids=["matrices", "trials"],
)
def test_a_config_too_large_for_memory_is_a_one_line_error(tmp_path, problem, run):
    """Both arrays exceed any 64-bit address space, so the allocation fails without touching memory."""
    cfg = write(tmp_path, f"[problem]\n{problem}\n[estimator]\nkind = gd\n[run]\n{run}\n")
    proc = _run_cli_process("run", "--config", cfg, "--out", str(tmp_path), "--quiet")
    _assert_one_line_error(proc, "error: out of memory: Unable to allocate")


@pytest.mark.parametrize("family", ["quadratic", "logistic"])
@pytest.mark.parametrize(
    "key, size", [("d", 2**63 - 1), ("d", 2**63), ("n", 2**63)], ids=["d-2^63-1", "d-2^63", "n-2^63"]
)
def test_a_generated_size_above_2_62_is_a_one_line_error_naming_the_key(tmp_path, capsys, family, key, size):
    sizes = {"n": 2, "d": 2, key: size}
    problem = f"family = {family}\nn = {sizes['n']}\nd = {sizes['d']}\nseed = 0"
    cfg = write(tmp_path, f"[problem]\n{problem}\n[estimator]\nkind = gd\n")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: [problem] {key} must be <= 2**62, got {size}\n"


@pytest.mark.parametrize(
    "problem, text",
    [
        ("family = quadratic\nshift_scale = 1e300", "optimum certificate failed"),
        ("family = quadratic\nshift_scale = 1.7976931348623157e308", "must be finite"),
        ("family = logistic\nfeature_scale = 1e300", "optimum certificate failed"),
    ],
    ids=["quadratic-norm", "quadratic-offsets", "logistic-newton"],
)
def test_an_overflowing_generated_problem_prints_only_its_error_line(tmp_path, capsys, problem, text):
    cfg = write(tmp_path, f"[problem]\n{problem}\nn = 3\nd = 2\nseed = 0\n[estimator]\nkind = sgd\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning before the error line fails the test
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and text in err


SIGMA0_OVERFLOW = """
[problem]
family = quadratic
n = 2
d = 3
seed = 0
eig_hi = 1e300
shift_scale = 3

[estimator]
kind = lsvrg
p = 0.2

[run]
steps = 3
trials = 2
record_every = 3
"""


@pytest.mark.parametrize(
    "command", [["run"], ["verify"], ["sweep", "--gammas", "1e-302"]], ids=["run", "verify", "sweep"]
)
def test_an_overflowing_sigma0_at_a_finite_start_is_a_one_line_error(tmp_path, monkeypatch, capsys, command):
    """sigma0^2 = inf and gamma^2 = 0 would make V0 = 0 * inf: resolve rejects it before any run."""
    cfg = write(tmp_path, SIGMA0_OVERFLOW)
    monkeypatch.chdir(tmp_path)  # where run and sweep would write their outputs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command[0], "--config", cfg, "--quiet", *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: sigma0^2 = inf at x0 is not finite")


BOUND_FOUND_REASON = (
    "verify_bound's statistical slack fails sound runs that sit on their bound (ROADMAP items 3 and 4)"
)


@pytest.mark.xfail(strict=True, reason=BOUND_FOUND_REASON)
def test_verify_passes_noisy_gd_at_its_floor_with_one_trial(tmp_path, capsys):
    """At d = 1 and gamma mu = 1, E[V_k] equals the bound's floor from k = 1 on, and one trial has no error estimate."""
    conf = "[problem]\nfamily = quadratic\nn = 4\nd = 1\nseed = 0\n[estimator]\nkind = noisy_gd\nsigma = 0.1\n"
    assert cli.main(["verify", "--config", write(tmp_path, conf), "--trials", "1", "--quiet"]) == 0


# generated sgd with no [run] section: one trial of 1000 steps
DEFAULT_RUN_SGD = "[problem]\nfamily = quadratic\nn = 10\nd = 5\nseed = 0\n[estimator]\nkind = sgd\n"


@pytest.mark.xfail(strict=True, reason=BOUND_FOUND_REASON)
def test_verify_passes_sgd_with_the_default_run(tmp_path, capsys):
    """One trajectory at its floor exceeds 1.1 x floor at some k, and one trial has no standard error: verify
    prints FAIL bound_domination checks=8 worst=bound[k=972] margin=-2.357870e-01."""
    assert cli.main(["verify", "--config", write(tmp_path, DEFAULT_RUN_SGD), "--quiet"]) == 0


def test_verify_passes_sgd_with_the_default_run_at_20_trials(tmp_path, capsys):
    assert cli.main(["verify", "--config", write(tmp_path, DEFAULT_RUN_SGD), "--trials", "20", "--quiet"]) == 0


def test_verify_passes_gd_where_the_gradient_underflows(tmp_path, capsys):
    """With A_i = 1e-200 I and x* = 0, the gradient underflows near x* and the iterate stalls above a bound
    that decays to 0; the round-off floor's subnormal term covers the stall."""
    conf = (
        "[problem]\nfamily = quadratic\nn = 4\nd = 3\nseed = 1\neig_lo = 1e-200\neig_hi = 1e-200\n"
        "shift_scale = 0.0\n[estimator]\nkind = gd\n"
    )
    path = write(tmp_path, conf)
    for seed in range(4):
        assert cli.main(["verify", "--config", path, "--seed", str(seed), "--quiet"]) == 0


def test_verify_passes_gd_where_gamma_mu_rounds_to_one(tmp_path, capsys):
    """gamma = 1/L = 1e200 makes gamma mu round to 1, so bound_V = 0 from k = 1 on, but the first step
    from the unit-radius start leaves V = 1.3e-32, about (u ||x0||)^2: the round-off floor bounds a step's
    rounding by u ||x_k||, not u ||x*|| = 0."""
    conf = (
        "[problem]\nfamily = quadratic\nn = 4\nd = 3\nseed = 3\neig_lo = 1e-200\neig_hi = 1e-200\n"
        "shift_scale = 0.0\n[estimator]\nkind = gd\n"
    )
    assert cli.main(["verify", "--config", write(tmp_path, conf), "--quiet"]) == 0


def test_verify_fails_where_the_round_off_floor_is_unbounded(tmp_path, capsys):
    """LSVRG at p = 1e-30 weights the shift table's round-off by gamma sqrt(M) = 2 gamma / sqrt(p), so
    beta G >= 1 and the round-off floor is infinite: no bound is checkable, and that is a FAIL, not a
    PASS with margin=inf."""
    conf = (
        "[problem]\nfamily = quadratic\nn = 20\nd = 5\nseed = 1\n"
        "[estimator]\nkind = lsvrg\np = 1e-30\n[run]\nsteps = 1000\ntrials = 4\n"
    )
    assert cli.main(["verify", "--config", write(tmp_path, conf), "--quiet", "--points", "5"]) == 1
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary == "FAIL bound_domination checks=1 worst=bound[round-off floor] margin=-inf"
    assert cli.main(["verify", "--config", write(tmp_path, conf), "--points", "5"]) == 1
    assert "FAIL bound[round-off floor] margin=-inf tol=0.000e+00 [sampled] round-off floor c=inf is unbounded" in (
        capsys.readouterr().out
    )


def _verify_modes(tmp_path, capsys, kind, compressor, d):
    """Modes of the compressor and assumption check lines of `verify` at dimension d; compressor is a config line."""
    conf = (
        f"[problem]\nfamily = quadratic\nn = 4\nd = {d}\nseed = 1\n"
        f"[estimator]\nkind = {kind}\n{compressor}\n[run]\nsteps = 50\n"
    )
    assert cli.main(["verify", "--config", write(tmp_path, conf), "--points", "2"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if " tol=" in line and " bound[" not in line]
    assert {line.split()[1].split("[")[0] for line in lines} >= {"unbiased", "variance", "second_moment"}
    return {line.rsplit("[", 1)[1].rstrip("]") for line in lines}


@pytest.mark.parametrize("kind", ["cdgd", "diana"])
@pytest.mark.parametrize("d,mode", [(16, "exact"), (17, "sampled")])
def test_verify_samples_bernoulli_only_above_its_sampled_above(tmp_path, capsys, kind, d, mode):
    """BernoulliScale.sampled_above = 16 is where both checks switch from the oracle to sampling."""
    assert _verify_modes(tmp_path, capsys, kind, "compressor = bernoulli\nq = 0.25", d) == {mode}


def test_verify_checks_rand_k_exactly_at_any_d(tmp_path, capsys):
    assert _verify_modes(tmp_path, capsys, "diana", "compressor = rand_k\nk = 5", 20) == {"exact"}


@pytest.mark.parametrize(
    "d",
    [
        16,
        pytest.param(
            20,
            marks=pytest.mark.xfail(
                strict=True, reason="10^5 sampled draws may never keep a coordinate at q = 1e-5 (ROADMAP item 2)"
            ),
        ),
    ],
)
def test_verify_passes_a_bernoulli_compressor_that_rarely_keeps(tmp_path, capsys, d):
    """At q = 1e-5 a coordinate is never kept in 10^5 draws with probability (1 - q)^(10^5) = 0.37; its
    error is then constant, so its standard error, and the sampled check's slack, is 0."""
    conf = (
        f"[problem]\nfamily = quadratic\nn = 4\nd = {d}\nseed = 0\n"
        "[estimator]\nkind = cdgd\ncompressor = bernoulli\nq = 1e-5\n[run]\nsteps = 50\ntrials = 4\n"
    )
    assert cli.main(["verify", "--config", write(tmp_path, conf), "--points", "2", "--quiet"]) == 0
