"""The config builder: every registered estimator and compressor builds from its class's fields."""

import dataclasses

import pytest

from sgdlab import __version__
from sgdlab.compressor import COMPRESSORS
from sgdlab.config import ConfigError, manifest_text, parse_config_text
from sgdlab.estimator import ESTIMATORS

PROBLEM = "[problem]\nfamily = quadratic\nn = 4\nd = 5\nseed = 2\n\n[run]\nsteps = 3\n"
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
    assert parse_config_text(manifest).experiment.estimator == est


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
