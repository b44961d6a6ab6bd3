"""The config builder: every registered estimator, compressor and problem family builds from its class,
and every field of ExperimentConfig is a [run] key."""

import configparser
import dataclasses
import inspect
import json

import numpy as np
import pytest

from sgdlab import __version__
from sgdlab.compressor import COMPRESSORS
from sgdlab.config import ConfigError, manifest_text, parse_config_text
from sgdlab.estimator import ESTIMATORS
from sgdlab.harness import ExperimentConfig
from sgdlab.problem import PROBLEMS, compute_constants

# a value other than the default for every [run] key, none of them "auto"
RUN = {"gamma": 0.001, "lyapunov_m": 40.0, "steps": 7, "trials": 3, "seed": 5, "record_every": 2, "x0_radius": 0.5,
       "x0_mode": "min_curvature"}
RUN_FIELDS = [f for f in dataclasses.fields(ExperimentConfig) if f.name not in ("problem", "estimator")]
GENERATED_PROBLEM = "[problem]\nfamily = quadratic\nn = 4\nd = 5\nseed = 2\n\n"
ESTIMATOR = "[estimator]\nkind = gd\n"
PROBLEM = GENERATED_PROBLEM + "[run]\n" + "".join(f"{key} = {value}\n" for key, value in RUN.items())
# a valid value for the key of every field of every registered class
VALUES = {"p": "0.25", "sigma": "0.3", "alpha": "0.125", "k": "2", "q": "0.5"}
REQUIRED = ("float", "int")  # field types that a config must name


def _keys(cls, compressor):
    """The [estimator] keys that name every field of cls (and of its compressor), with each field's type."""
    keys = {}
    for f in dataclasses.fields(cls):
        if f.type == "Compressor":
            keys[f.name] = (compressor, f.type)
            keys.update(_keys(COMPRESSORS[compressor], None))
        else:
            keys[f.name] = (VALUES[f.name], f.type)
    return keys


CASES = [
    (kind, compressor)
    for kind, cls in sorted(ESTIMATORS.items())
    for compressor in (sorted(COMPRESSORS) if "Compressor" in [f.type for f in dataclasses.fields(cls)] else [None])
]
IDS = [kind if compressor is None else f"{kind}-{compressor}" for kind, compressor in CASES]


def _text(kind, keys):
    lines = [f"kind = {kind}"] + [f"{key} = {value}" for key, (value, _) in keys.items()]
    return PROBLEM + "[estimator]\n" + "\n".join(lines) + "\n"


def _config_values(obj):
    """The value of every field of an estimator or compressor as a config writes it."""
    values = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            values[f.name] = value.name
            values.update(_config_values(value))
        else:
            values[f.name] = str(value)
    return values


def test_every_registered_compressor_is_a_case():
    assert {c for _, c in CASES} - {None} == set(COMPRESSORS)
    assert {k for k, _ in CASES} == set(ESTIMATORS)


@pytest.mark.parametrize("kind, compressor", CASES, ids=IDS)
def test_a_config_naming_every_field_builds_the_kind_and_its_manifest_reloads_it(kind, compressor):
    keys = _keys(ESTIMATORS[kind], compressor)
    loaded = parse_config_text(_text(kind, keys))
    est = loaded.experiment.estimator
    assert type(est) is ESTIMATORS[kind]
    assert _config_values(est) == {key: value for key, (value, _) in keys.items()}
    manifest = manifest_text(loaded, loaded.experiment.resolve(), __version__)
    reloaded = parse_config_text(manifest).experiment
    assert reloaded.estimator == est
    # the manifest's [run] names every field in field order, and each reloads to the value it was given
    written = configparser.ConfigParser(interpolation=None)
    written.read_string(manifest)
    assert list(written["run"]) == [f.name for f in RUN_FIELDS] == list(RUN)
    assert {key: getattr(reloaded, key) for key in RUN} == {key: getattr(loaded.experiment, key) for key in RUN} == RUN


@pytest.mark.parametrize("kind, compressor", CASES, ids=IDS)
def test_dropping_a_required_field_is_a_one_line_error_naming_its_key(kind, compressor):
    keys = _keys(ESTIMATORS[kind], compressor)
    required = [key for key, (_, kind_type) in keys.items() if kind_type in REQUIRED]
    for key in required:
        kept = {k: v for k, v in keys.items() if k != key}
        with pytest.raises(ConfigError) as info:
            parse_config_text(_text(kind, kept))
        assert str(info.value) == f"[estimator] is missing required key '{key}'"


def test_an_auto_field_defaults_to_auto_and_a_compressor_to_the_class_default():
    loaded = parse_config_text(PROBLEM + "[estimator]\nkind = diana\n")
    assert loaded.experiment.estimator == ESTIMATORS["diana"]()
    manifest = manifest_text(loaded, loaded.experiment.resolve(), __version__)
    # identity compression: omega = 0, so auto alpha resolves to 1
    assert "alpha = 1\n" in manifest


@pytest.mark.parametrize(
    "keys, text",
    [
        ("kind = adam", "[estimator] unknown kind 'adam'; available: " + ", ".join(sorted(ESTIMATORS))),
        (
            "kind = cdgd\ncompressor = top_k",
            "[estimator] unknown compressor 'top_k'; available: " + ", ".join(sorted(COMPRESSORS)),
        ),
        ("kind = lsvrg\np = 2", "[estimator] refresh probability p must be in (0, 1], got 2.0"),
        ("kind = cdgd\ncompressor = rand_k\nk = 1.5", "[estimator] k must be an integer, got '1.5'"),
        ("kind = diana\nalpha = often", "[estimator] alpha must be a finite number or 'auto', got 'often'"),
        ("kind = gd\np = 0.5", "[estimator] has unknown keys: p"),
    ],
    ids=["kind", "compressor", "invalid", "integer", "auto", "unknown-key"],
)
def test_a_bad_estimator_section_is_one_line_naming_the_key(keys, text):
    with pytest.raises(ConfigError) as info:
        parse_config_text(PROBLEM + f"[estimator]\n{keys}\n")
    assert str(info.value) == text


@pytest.mark.parametrize("key", [*RUN, None], ids=[*RUN, "no-run-section"])
def test_a_run_key_reaches_its_field_and_every_omitted_key_is_the_class_default(key):
    run = "" if key is None else f"[run]\n{key} = {RUN[key]}\n"
    experiment = parse_config_text(GENERATED_PROBLEM + ESTIMATOR + run).experiment
    for f in RUN_FIELDS:
        want = RUN[key] if f.name == key else f.default
        assert getattr(experiment, f.name) == want and type(getattr(experiment, f.name)) is type(want), f.name


# (key, a malformed or invalid value, its error after "[run] key "): at least one per [run] key
BAD_RUN = [
    ("gamma", "fast", "must be a finite number or 'auto', got 'fast'"),
    ("lyapunov_m", "nan", "must be a finite number or 'auto', got 'nan'"),
    ("steps", "2.5", "must be an integer, got '2.5'"),
    ("steps", "-1", "must be >= 0, got -1"),
    ("steps", "1" + "0" * 30, "must be < 2**63, got 1" + "0" * 30),
    ("trials", "many", "must be an integer, got 'many'"),
    ("trials", "0", "must be >= 1, got 0"),
    ("seed", "-1", "must be a non-negative integer, got -1"),
    ("seed", "1e3", "must be an integer, got '1e3'"),
    ("record_every", "x", "must be an integer or 'auto', got 'x'"),
    ("record_every", "0", "must be >= 1, got 0"),
    ("x0_radius", "inf", "must be a finite number, got 'inf'"),
    ("x0_radius", "-1", "must be >= 0, got -1.0"),
    ("x0_mode", "nope", "must be 'random' or 'min_curvature', got 'nope'"),
]


def test_every_run_key_is_a_case():
    assert list(RUN) == [f.name for f in RUN_FIELDS]
    assert all(RUN[f.name] != f.default for f in RUN_FIELDS)
    assert {key for key, _, _ in BAD_RUN} == set(RUN)


@pytest.mark.parametrize("key, value, text", BAD_RUN, ids=[f"{key}={value}" for key, value, _ in BAD_RUN])
def test_a_bad_run_key_is_one_line_naming_the_key(key, value, text):
    with pytest.raises(ConfigError) as info:
        parse_config_text(GENERATED_PROBLEM + ESTIMATOR + f"[run]\n{key} = {value}\n")
    assert str(info.value) == f"[run] {key} {text}"


# a value other than the default for every generator parameter of every registered family
GENERATED = {"n": "5", "d": "3", "seed": "4", "eig_lo": "0.5", "eig_hi": "2.5", "shift_scale": "0.75",
             "ridge": "0.2", "feature_scale": "1.5"}


def _problem_text(keys: dict) -> str:
    return "[problem]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items()) + ESTIMATOR


def _generated_keys(family):
    """The [problem] keys of the generated form, one per parameter of the family's generator."""
    params = inspect.signature(PROBLEMS[family].generate).parameters
    return {"family": family} | {name: GENERATED[name] for name in params}


def _explicit_keys(problem):
    """The [problem] keys of the explicit form of a problem, as JSON arrays and reprs of floats."""
    keys = {"family": problem.family}
    for f in dataclasses.fields(problem):
        value = getattr(problem, f.name)
        keys[f.metadata.get("key", f.name)] = json.dumps(value.tolist()) if f.type == "np.ndarray" else repr(value)
    return keys


@pytest.mark.parametrize("family", sorted(PROBLEMS))
def test_every_generator_parameter_is_read_from_its_key(family):
    cls, keys = PROBLEMS[family], _generated_keys(family)
    params = inspect.signature(cls.generate).parameters.values()
    typed = {p.name: {"int": int, "float": float}[p.annotation](keys[p.name]) for p in params}
    assert all(typed[p.name] != p.default for p in params)
    problem, expected = parse_config_text(_problem_text(keys)).experiment.problem, cls.generate(**typed)
    assert type(problem) is cls
    for f in dataclasses.fields(cls):
        np.testing.assert_array_equal(getattr(problem, f.name), getattr(expected, f.name))


@pytest.mark.parametrize("family", sorted(PROBLEMS))
def test_a_generated_problem_as_explicit_arrays_reproduces_its_constants_bit_for_bit(family):
    generated = parse_config_text(_problem_text(_generated_keys(family))).experiment.problem
    explicit = parse_config_text(_problem_text(_explicit_keys(generated))).experiment.problem
    assert type(explicit) is type(generated)
    want, got = compute_constants(generated), compute_constants(explicit)
    for f in dataclasses.fields(want):
        a, b = getattr(want, f.name), getattr(got, f.name)
        assert (a is None and b is None) or np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name


def _required_keys(family):
    """(form, keys, required key) for every key that one form of the family cannot do without."""
    generated = _generated_keys(family)
    params = inspect.signature(PROBLEMS[family].generate).parameters.values()
    explicit = _explicit_keys(PROBLEMS[family].generate(2, 2))
    return [("generated", generated, "family")] + [
        ("generated", generated, p.name) for p in params if p.default is p.empty
    ] + [("explicit", explicit, key) for key in explicit if key != "family"]


REQUIRED_PROBLEM_KEYS = [(f"{family}-{form}-{key}", keys, key) for family in sorted(PROBLEMS)
                         for form, keys, key in _required_keys(family)]


@pytest.mark.parametrize(
    "keys, key", [case[1:] for case in REQUIRED_PROBLEM_KEYS], ids=[case[0] for case in REQUIRED_PROBLEM_KEYS]
)
def test_dropping_a_required_problem_key_is_a_one_line_error_naming_it(keys, key):
    with pytest.raises(ConfigError) as info:
        parse_config_text(_problem_text({k: v for k, v in keys.items() if k != key}))
    assert str(info.value) == f"[problem] is missing required key '{key}'"


@pytest.mark.parametrize(
    "keys, text",
    [
        ({"family": "lasso", "n": "4", "d": "2"},
         "[problem] unknown family 'lasso'; available: " + ", ".join(sorted(PROBLEMS))),
        ({"family": "quadratic", "n": "4", "d": "2", "seed": "-1"},
         "[problem] seed must be a non-negative integer, got -1"),
        ({"family": "logistic", "n": "4", "d": "2", "seed": "-1"},
         "[problem] seed must be a non-negative integer, got -1"),
        ({"family": "quadratic", "n": "4", "d": "2", "eig_lo": "3", "eig_hi": "1"},
         "[problem] need 0 < eig_lo <= eig_hi"),
        ({"family": "quadratic", "matrices": "nope", "offsets": "[[0, 0]]"},
         "[problem] matrices is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ({"family": "quadratic", "matrices": "[[[1" + "0" * 400 + ", 0], [0, 1]]]", "offsets": "[[0, 0]]"},
         "[problem] matrices must be an array of numbers with a regular shape"),
        ({"family": "quadratic", "matrices": "[[[1, 1], [0, 1]]]", "offsets": "[[0, 0]]"},
         "[problem] component matrices not symmetric (max |A - A'| = 1)"),
        ({"family": "logistic", "features": "[[1, 0]]", "labels": "[0]", "ridge": "0.1"},
         "[problem] labels must be -1 or +1"),
        ({"family": "quadratic", "n": "4", "d": "2", "ridge": "0.1"}, "[problem] has unknown keys: ridge"),
        ({"family": "logistic", "features": "[[1, 0]]", "labels": "[1]", "ridge": "0.1", "seed": "1"},
         "[problem] has unknown keys: seed"),
    ],
    ids=["unknown-family", "quadratic-seed", "logistic-seed", "spectrum", "invalid-json", "float-overflow", "asymmetric", "labels",
         "generated-unknown-key", "explicit-unknown-key"],
)
def test_a_bad_problem_section_is_one_line_naming_the_key_or_the_families(keys, text):
    with pytest.raises(ConfigError) as info:
        parse_config_text(_problem_text(keys))
    assert str(info.value) == text and "\n" not in text
