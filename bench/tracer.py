"""Traced run of one sgdlab CLI command, and the per-layer metrics read from it.

    python3 bench/tracer.py TRACE_JSON <sgdlab arguments...>

imports `sgdlab.cli`, wraps the public functions of every module with timers,
runs the command and writes the counts, total and self times of the wrapped
functions, and the spans of the coarse phases, to TRACE_JSON.  A function is
wrapped wherever a module holds a reference to it, because callers such as
`cli` bound the name at import time.  Calls made millions of times keep only
per-name counts and times; the coarse phases also keep one span per call.

run.py imports this file only for `layer_metrics`; the untraced runs install
no wrapper.
"""

from __future__ import annotations

import json
import sys
import time

# (stat name, module, function name) of the coarse phases, one span per call
PHASES = (
    ("config.parse", "config", "parse_config"),
    ("config.write", "config", "stats_csv_text"),
    ("config.write", "config", "manifest_text"),
    ("harness.run_monte_carlo", "harness", "run_monte_carlo"),
    ("harness.verify_assumption", "harness", "verify_assumption"),
    ("harness.verify_compressor", "harness", "verify_compressor"),
    ("harness.verify_bound", "harness", "verify_bound"),
    ("problem.compute_constants", "problem", "compute_constants"),
)
# (stat name, module, base class, method names) of the hot methods, counted only
METHODS = (
    ("estimator.sample", "estimator", "Estimator", ("sample",)),
    ("estimator.exact", "estimator", "Estimator", ("exact_mean", "exact_second_moment", "exact_sigma_next")),
    ("estimator.state_copy", "estimator", "EstimatorState", ("copy",)),
    ("problem.eval_full_grad", "problem", "FiniteSumProblem", ("eval_full_grad",)),
    ("problem.eval_grad_i", "problem", "FiniteSumProblem", ("eval_grad_i",)),
    ("problem.component_grads", "problem", "FiniteSumProblem", ("component_grads",)),
    ("compressor.compress_batch", "compressor", "Compressor", ("compress_batch",)),
    ("compressor.exact_moments", "compressor", "Compressor", ("exact_moments",)),
)


class Tracer:
    """Counts, total and self time per name, plus spans of the coarse phases."""

    def __init__(self) -> None:
        self.origin = time.perf_counter_ns()
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.extra: dict[str, int] = {}
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self._children: list[int] = []  # time spent in wrapped callees, one entry per open call
        self._open_spans: list[int] = []

    def add(self, key: str, value: int) -> None:
        self.extra[key] = self.extra.get(key, 0) + value

    def wrap(self, fn, name: str, span: bool = False, on_return=None):
        stat = self.stats.setdefault(name, [0, 0, 0])
        children, open_spans, spans = self._children, self._open_spans, self.spans
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if span:
                spans.append([name, clock() - self.origin, None, open_spans[-1] if open_spans else -1])
                open_spans.append(len(spans) - 1)
            children.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = children.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - inner
                if children:
                    children[-1] += dt
                if span:
                    spans[open_spans.pop()][2] = clock() - self.origin
            if on_return is not None:
                on_return(self, args, result, dt)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def dump(self) -> dict:
        return {"stats": self.stats, "extra": self.extra, "spans": self.spans}


def _count_trial_steps(tracer: Tracer, args, result, dt: int) -> None:
    tracer.add("trial_steps", int(args[0].steps))  # run_trajectory(resolved, trial_index)


def _count_rows(tracer: Tracer, args, result, dt: int) -> None:
    tracer.add("rows_compressed", int(len(args[1])))  # compress_batch(self, X, rng)


def _count_points(tracer: Tracer, args, result, dt: int) -> None:
    # each verifier point contributes one second_moment check; split the time by mode
    points = [c for c in result.checks if c.name.startswith("second_moment[")]
    if not points:
        return
    exact = sum(1 for c in points if c.exact)
    tracer.add("points_exact", exact)
    tracer.add("points_sampled", len(points) - exact)
    tracer.add("points_exact_ns", dt * exact // len(points))
    tracer.add("points_sampled_ns", dt * (len(points) - exact) // len(points))


HOOKS = {
    "harness.run_trajectory": _count_trial_steps,
    "harness.verify_assumption": _count_points,
    "compressor.compress_batch": _count_rows,
}


def install(tracer: Tracer) -> None:
    """Wrap the phases and hot methods of every loaded sgdlab module."""
    modules = [m for name, m in list(sys.modules.items()) if name == "sgdlab" or name.startswith("sgdlab.")]
    targets = [(name, getattr(sys.modules[f"sgdlab.{mod}"], fn), True) for name, mod, fn in PHASES]
    harness = sys.modules["sgdlab.harness"]
    targets.append(("harness.run_trajectory", harness.run_trajectory, False))
    for name, fn, span in targets:
        wrapped = tracer.wrap(fn, name, span, HOOKS.get(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
    # ExperimentConfig.resolve is a method; every caller finds it on the class
    cls = harness.ExperimentConfig
    cls.resolve = tracer.wrap(cls.resolve, "harness.resolve", span=True)

    for name, mod, base_name, methods in METHODS:
        module = sys.modules[f"sgdlab.{mod}"]
        base = getattr(module, base_name)
        classes = [c for c in vars(module).values() if isinstance(c, type) and issubclass(c, base)]
        for cls in classes:
            for method in methods:
                if method in vars(cls):
                    setattr(cls, method, tracer.wrap(vars(cls)[method], name, False, HOOKS.get(name)))


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter_ns()
    import sgdlab.cli as cli

    import_ns = time.perf_counter_ns() - t0
    tracer = Tracer()
    install(tracer)
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        record = tracer.dump()
        record["import_ns"] = import_ns
        record["exit_code"] = code
        with open(out_path, "w") as fh:
            json.dump(record, fh)
    return code


# ---------------------------------------------------------------------------
# per-layer metrics: (name, unit) in the order BENCHMARK.json lists them

LAYER_METRICS = (
    ("cli.import_ms", "ms"),
    ("config.parse_ms", "ms"),
    ("config.write_ms", "ms"),
    ("harness.resolve_ms", "ms"),
    ("harness.trial_step_ns", "ns"),
    ("harness.trial_loop_self_ns", "ns"),
    ("harness.aggregate_ms", "ms"),
    ("harness.verify_point_sampled_ms", "ms"),
    ("harness.verify_point_exact_ms", "ms"),
    ("harness.verify_compressor_ms", "ms"),
    ("harness.verify_bound_ms", "ms"),
    ("estimator.sample_calls", "count"),
    ("estimator.sample_self_ns", "ns"),
    ("estimator.state_copy_calls", "count"),
    ("estimator.exact_calls", "count"),
    ("estimator.exact_self_ms", "ms"),
    ("problem.compute_constants_calls", "count"),
    ("problem.compute_constants_ms", "ms"),
    ("problem.eval_full_grad_calls", "count"),
    ("problem.eval_full_grad_ns", "ns"),
    ("problem.eval_grad_i_calls", "count"),
    ("problem.eval_grad_i_ns", "ns"),
    ("problem.component_grads_calls", "count"),
    ("problem.component_grads_ns", "ns"),
    ("compressor.compress_batch_calls", "count"),
    ("compressor.rows_compressed", "count"),
    ("compressor.compress_batch_ns", "ns"),
    ("compressor.exact_moments_calls", "count"),
    ("compressor.exact_moments_ms", "ms"),
)


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one round from the trace records of its commands.

    `_calls` are counts, `_ms` totals over the round's commands, `_ns` means
    per call (per trial-step for the harness), `verify_point_*_ms` means per
    verifier point.  A layer the workload never calls reads 0.
    """
    stats: dict[str, list[int]] = {}
    extra: dict[str, int] = {}
    for rec in records:
        for name, (calls, total, self_ns) in rec["stats"].items():
            acc = stats.setdefault(name, [0, 0, 0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_ns
        for key, value in rec["extra"].items():
            extra[key] = extra.get(key, 0) + value

    def calls(name):
        return stats.get(name, [0, 0, 0])[0]

    def total_ms(name):
        return stats.get(name, [0, 0, 0])[1] / 1e6

    def self_ms(name):
        return stats.get(name, [0, 0, 0])[2] / 1e6

    def per(numerator_ns, count):
        return numerator_ns / count if count else 0.0

    steps = extra.get("trial_steps", 0)
    trajectory = stats.get("harness.run_trajectory", [0, 0, 0])
    return {
        "cli.import_ms": sum(rec["import_ns"] for rec in records) / 1e6,
        "config.parse_ms": total_ms("config.parse"),
        "config.write_ms": total_ms("config.write"),
        "harness.resolve_ms": total_ms("harness.resolve"),
        "harness.trial_step_ns": per(trajectory[1], steps),
        "harness.trial_loop_self_ns": per(trajectory[2], steps),
        "harness.aggregate_ms": self_ms("harness.run_monte_carlo"),
        "harness.verify_point_sampled_ms": per(extra.get("points_sampled_ns", 0), extra.get("points_sampled", 0)) / 1e6,
        "harness.verify_point_exact_ms": per(extra.get("points_exact_ns", 0), extra.get("points_exact", 0)) / 1e6,
        "harness.verify_compressor_ms": total_ms("harness.verify_compressor"),
        "harness.verify_bound_ms": total_ms("harness.verify_bound"),
        "estimator.sample_calls": calls("estimator.sample"),
        "estimator.sample_self_ns": per(stats.get("estimator.sample", [0, 0, 0])[2], calls("estimator.sample")),
        "estimator.state_copy_calls": calls("estimator.state_copy"),
        "estimator.exact_calls": calls("estimator.exact"),
        "estimator.exact_self_ms": self_ms("estimator.exact"),
        "problem.compute_constants_calls": calls("problem.compute_constants"),
        "problem.compute_constants_ms": total_ms("problem.compute_constants"),
        **{
            f"problem.{fn}_{kind}": value
            for fn in ("eval_full_grad", "eval_grad_i", "component_grads")
            for kind, value in (
                ("calls", calls(f"problem.{fn}")),
                ("ns", per(stats.get(f"problem.{fn}", [0, 0, 0])[1], calls(f"problem.{fn}"))),
            )
        },
        "compressor.compress_batch_calls": calls("compressor.compress_batch"),
        "compressor.rows_compressed": extra.get("rows_compressed", 0),
        "compressor.compress_batch_ns": per(stats.get("compressor.compress_batch", [0, 0, 0])[1],
                                            calls("compressor.compress_batch")),
        "compressor.exact_moments_calls": calls("compressor.exact_moments"),
        "compressor.exact_moments_ms": total_ms("compressor.exact_moments"),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
