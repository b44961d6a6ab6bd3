"""Experiment configuration files and run manifests.

Configs are flat INI documents with three sections:

    [problem]    family = a registered problem family (`sgdlab list`),
                 then either one key per parameter of its generator (n, d,
                 seed, ...) or one per field of its class, the explicit JSON
                 arrays (see build_problem)
    [estimator]  kind = a registered estimator (`sgdlab list`), plus one key
                 per field of its class (see build_estimator)
    [run]        one key per field of ExperimentConfig after problem and
                 estimator, with its default (see parse_config_text)

Every value is parsed by its field's annotation in one place (_value): an
integer, a finite number or "auto" where that may be, a string, a JSON array.
Unknown sections or keys are errors.  A manifest written by `sgdlab run` is
itself a valid config (the extra [certificate] and [tool] sections are
ignored on load), with every "auto" materialized to 17 significant digits so
re-running it reproduces the outputs bitwise.
"""

from __future__ import annotations

import configparser
import dataclasses
import inspect
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .compressor import COMPRESSORS
from .estimator import ESTIMATORS
from .harness import STREAM_LAYOUT, ExperimentConfig, ResolvedExperiment
from .problem import PROBLEMS, FiniteSumProblem

FLOAT_FMT = "%.17g"
IGNORED_SECTIONS = ("certificate", "tool")


class ConfigError(ValueError):
    """Malformed or inconsistent configuration file."""


def _fmt(value) -> str:
    """A float to 17 significant digits, anything else by str."""
    return FLOAT_FMT % value if isinstance(value, float) else str(value)


# the [run] keys, in manifest order: every field of ExperimentConfig but its problem and estimator
RUN_FIELDS = [f for f in dataclasses.fields(ExperimentConfig) if f.name not in ("problem", "estimator")]
_REQUIRED = inspect.Parameter.empty  # the default of a required key, as of a parameter without one


class _Section:
    """One INI section with consumed-key access to its raw strings."""

    def __init__(self, name: str, values: dict[str, str]):
        self.name = name
        self.values = dict(values)
        self.seen: set[str] = set()

    def has(self, key: str) -> bool:
        return key in self.values

    def get_str(self, key: str, default=None) -> str:
        """The raw value of key, or default; a missing key whose default is _REQUIRED is an error."""
        self.seen.add(key)
        if key not in self.values:
            if default is _REQUIRED:
                raise ConfigError(f"[{self.name}] is missing required key '{key}'")
            return default
        return self.values[key]

    def reject_unknown(self) -> None:
        unknown = set(self.values) - self.seen
        if unknown:
            raise ConfigError(f"[{self.name}] has unknown keys: {', '.join(sorted(unknown))}")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


# each field annotation's parser of a config string and the error that names what the string must be;
# an array's error quotes no value, which can be any size
_PARSERS = {
    "int": (int, "must be an integer{auto}, got {text!r}"),
    "float": (_finite, "must be a finite number{auto}, got {text!r}"),
    "str": (str, ""),
    "np.ndarray": (lambda text: np.asarray(json.loads(text), dtype=float),
                   "must be an array of numbers with a regular shape"),
}


def _value(section: _Section, annotation: str, key: str, default=_REQUIRED):
    """The value of key, parsed by its (string) annotation's _PARSERS entry; a missing key is default as it is.
    A number annotated `| str` or `| None` may be 'auto', which also reads as default (the field's auto value)."""
    kind, _, auto = annotation.partition(" | ")
    text = section.get_str(key, default)
    if not section.has(key) or auto and text.strip() == "auto":
        return default
    parse, error = _PARSERS[kind]
    try:
        return parse(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"[{section.name}] {key} is not valid JSON: {exc}") from None
    except (TypeError, ValueError, OverflowError):  # OverflowError: a JSON integer beyond float range
        error = error.format(auto=" or 'auto'" if auto else "", text=text)
        raise ConfigError(f"[{section.name}] {key} {error}") from None


def _lookup(registry: dict[str, type], what: str, name: str, section: _Section) -> type:
    if name not in registry:
        raise ConfigError(f"[{section.name}] unknown {what} {name!r}; available: {', '.join(sorted(registry))}")
    return registry[name]


def _make(section: _Section, make, values: dict):
    """make(**values), a ValueError of which (a ProblemError, say) is a one-line ConfigError of the section."""
    try:
        return make(**values)
    except ValueError as exc:
        raise ConfigError(f"[{section.name}] {exc}") from None


def build_problem(section: _Section) -> FiniteSumProblem:
    """The section's PROBLEMS family, from one key per dataclass field (its metadata "key", else its name)
    where the section names an array field's key, else from one key per parameter of the class's generate."""
    cls = _lookup(PROBLEMS, "family", section.get_str("family", _REQUIRED), section)
    fields = {f.metadata.get("key", f.name): f for f in dataclasses.fields(cls)}
    if any(section.has(key) for key, f in fields.items() if f.type == "np.ndarray"):
        make, values = cls, {f.name: _value(section, f.type, key) for key, f in fields.items()}
    else:
        make, params = cls.generate, inspect.signature(cls.generate).parameters.values()
        values = {p.name: _value(section, p.annotation, p.name, p.default) for p in params}
    section.reject_unknown()
    return _make(section, make, values)


def _build(registry: dict[str, type], what: str, kind: str, section: _Section):
    """registry[kind], each dataclass field read from the key of its name by its (string) annotation.

    A float or int field is a required number, float | None a number or 'auto' (None, the default),
    and a Compressor field names a compressor (default: the field's), whose fields are keys here too.
    """
    cls, values = _lookup(registry, what, kind, section), {}
    for f in dataclasses.fields(cls):
        if f.type == "Compressor":
            compressor = section.get_str(f.name, f.default_factory.name)
            values[f.name] = _build(COMPRESSORS, "compressor", compressor, section)
        else:
            values[f.name] = _value(section, f.type, f.name, f.default if "|" in f.type else _REQUIRED)
    return _make(section, cls, values)


def build_estimator(section: _Section):
    """The estimator of the section's kind, each field of its class read from one key (see _build)."""
    est = _build(ESTIMATORS, "kind", section.get_str("kind", _REQUIRED), section)
    section.reject_unknown()
    return est


@dataclass
class LoadedConfig:
    """Parsed experiment plus the raw sections (echoed into manifests)."""

    experiment: ExperimentConfig
    sections: dict[str, dict[str, str]]


def parse_config_text(text: str) -> LoadedConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None
    sections = {name: dict(parser.items(name)) for name in parser.sections() if name not in IGNORED_SECTIONS}
    unknown = set(sections) - {"problem", "estimator", "run"}
    if unknown:
        raise ConfigError(f"unknown sections: {', '.join(sorted(unknown))}")
    for required in ("problem", "estimator"):
        if required not in sections:
            raise ConfigError(f"missing required section [{required}]")

    problem = build_problem(_Section("problem", sections["problem"]))
    estimator = build_estimator(_Section("estimator", sections["estimator"]))

    run = _Section("run", sections.get("run", {}))
    values = {f.name: _value(run, f.type, f.name, f.default) for f in RUN_FIELDS}
    run.reject_unknown()
    experiment = ExperimentConfig(problem=problem, estimator=estimator, **values)
    try:
        experiment.validate()
    except ValueError as exc:
        raise ConfigError(f"[run] {exc}") from None
    return LoadedConfig(experiment=experiment, sections=sections)


def parse_config(path: str | Path) -> LoadedConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text())


def manifest_text(loaded: LoadedConfig, resolved: ResolvedExperiment, version: str) -> str:
    """Render the resolved run as a reloadable INI manifest."""
    out = configparser.ConfigParser(interpolation=None)
    out["problem"] = dict(loaded.sections["problem"])
    est_section = dict(loaded.sections["estimator"])
    for key, value in resolved.estimator.resolved_fields(resolved.problem.d).items():
        est_section[key] = _fmt(value)
    out["estimator"] = est_section

    stride = int(np.diff(resolved.record_ks).max()) if len(resolved.record_ks) > 1 else 1
    run = dataclasses.replace(loaded.experiment, gamma=resolved.gamma, lyapunov_m=resolved.M, record_every=stride)
    out["run"] = {f.name: _fmt(getattr(run, f.name)) for f in RUN_FIELDS}
    cert = dataclasses.asdict(resolved.certificate)  # A, B, C, D1, D2, rho, then has_sigma
    out["certificate"] = {key.lower(): _fmt(value) for key, value in cert.items() if key != "has_sigma"} | {
        "gamma": _fmt(resolved.gamma),
        "m": _fmt(resolved.M),
        "contraction": _fmt(resolved.curve.contraction),
        "floor": _fmt(resolved.curve.floor),
    }
    out["tool"] = {"name": "sgdlab", "version": version, "stream": str(STREAM_LAYOUT)}
    buf = io.StringIO()
    out.write(buf)
    return buf.getvalue()


def stats_csv_text(stats) -> str:
    """Render TrajectoryStats as a deterministic CSV (17 significant digits)."""
    row = ",".join(["%d"] + [FLOAT_FMT] * 5)
    columns = (stats.ks, stats.mean_dist_sq, stats.mean_sigma_sq, stats.mean_V, stats.std_V, stats.bound_V)
    lines = ["k,mean_dist_sq,mean_sigma_sq,mean_V,std_V,bound_V"]
    lines += [row % values for values in zip(*(c.tolist() for c in columns))]
    return "\n".join(lines) + "\n"
