"""Run one `abstainkit` CLI invocation with spans around the package's functions.

Usage: python bench/launch.py SPANS_JSON WORKLOAD INVOCATION -- CLI_ARGS...

The launcher times `import abstainkit.cli`, replaces each function listed in
TRACED with a timing wrapper in every `abstainkit` module namespace that binds
it (so module-internal calls such as `metrics.sensitivity_at_specificity` ->
`specificity_threshold_index` are seen too), runs `cli.main(CLI_ARGS)` and
writes the spans, kept in memory until then, to SPANS_JSON together with
the workload name and invocation id. The package itself is not modified; only
this process's module attributes are.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

# Functions timed per module. `stats` is left out: `compare` needs at least 5
# seeds per method and costs milliseconds. `errors` holds only exception types.
TRACED = {
    "cli": ("main", "_read_raw_scores"),
    "experiments": (
        "read_predictions", "write_predictions", "abstain_indices", "evaluate_metric", "run_experiment",
    ),
    "scoring": (
        "select_abstentions", "smooth_savitzky_golay", "score_windows_sens_at_spec",
        "score_windows_auroc", "baseline_scores", "fumera_threshold_search", "score_examples_kappa",
    ),
    "metrics": (
        "specificity_threshold_index", "running_counts", "sensitivity_at_specificity",
        "kappa_aggregates", "weighted_kappa",
    ),
    "calibration": ("fit_calibrator", "apply_calibrator", "adapt_label_shift_em"),
    "simulate": ("simulate_binary",),
}


def _file_bytes(bound):
    path = bound.arguments["path"]
    return lambda result: {"bytes": os.path.getsize(path)}


def _sample_rows(n_of, default_mode):
    """Monte-Carlo samples times rows: the kernel's operation count."""
    def hook(bound):
        mc = bound.arguments.get("mc")
        mode = bound.arguments.get("mode", default_mode)
        rows = mc.samples * n_of(bound) if mc is not None and mode == "monte_carlo" else 0
        return lambda result: {"sample_rows": rows}
    return hook


def _fumera_counts(bound):
    counts = {"metric_calls": 0, "metric_errors": 0}
    metric = bound.arguments["metric"]

    def counted(*args):
        counts["metric_calls"] += 1
        try:
            return metric(*args)
        except Exception:
            counts["metric_errors"] += 1
            raise

    bound.arguments["metric"] = counted
    grid = bound.arguments.get("grid", 51)
    per_class = len(grid) if hasattr(grid, "__len__") else int(grid)
    n_classes = bound.arguments["val_probs"].entries.shape[1]
    return lambda result: dict(counts, tuples=per_class ** n_classes)


# Counters recorded at a span: a hook sees the bound arguments before the call
# (and may replace them) and returns a function of the result giving the counts.
COUNTERS = {
    "experiments.read_predictions": _file_bytes,
    "experiments.write_predictions": _file_bytes,
    "scoring.score_windows_sens_at_spec": _sample_rows(lambda b: b.arguments["preds"].n, "monte_carlo"),
    "scoring.score_examples_kappa": _sample_rows(lambda b: b.arguments["probs"].n, "deterministic"),
    "scoring.fumera_threshold_search": _fumera_counts,
    "calibration.adapt_label_shift_em": lambda bound: lambda result: {"iterations": result.iterations},
}


class Recorder:
    """Spans of one process, kept in memory; wrappers installed into `abstainkit`."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._replaced = []

    def record(self, name, start, end, parent=None):
        span = {"id": len(self.spans), "name": name, "start": start, "end": end, "parent": parent}
        self.spans.append(span)
        return span

    def wrap(self, name, fn):
        hook = COUNTERS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            finish = None
            if hook:
                bound = signature.bind(*args, **kwargs)
                finish = hook(bound)
                args, kwargs = bound.args, bound.kwargs
            span = self.record(name, 0.0, 0.0, self._open[-1] if self._open else None)
            self._open.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if finish:
                span["counts"] = finish(result)
            return result

        return wrapper

    def install(self):
        """Wrap every TRACED function wherever a loaded `abstainkit` module binds it."""
        modules = [m for key, m in sys.modules.items() if key == "abstainkit" or key.startswith("abstainkit.")]
        for short, names in TRACED.items():
            module = importlib.import_module(f"abstainkit.{short}")
            for attr in names:
                original = getattr(module, attr)
                wrapper = self.wrap(f"{short}.{attr}", original)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
                            self._replaced.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._replaced):
            setattr(holder, key, original)
        self._replaced.clear()


def main(argv) -> int:
    if len(argv) < 4 or argv[3] != "--":
        print("usage: launch.py SPANS_JSON WORKLOAD INVOCATION -- CLI_ARGS...", file=sys.stderr)
        return 2
    spans_path, workload, invocation, cli_args = argv[0], argv[1], argv[2], argv[4:]
    recorder = Recorder()
    start = time.perf_counter()
    cli = importlib.import_module("abstainkit.cli")
    recorder.record("cli.import", start, time.perf_counter())
    recorder.install()
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"workload": workload, "invocation": invocation, "spans": recorder.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
