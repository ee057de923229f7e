"""Tests of the benchmark itself: span arithmetic, wrappers, output checks."""

import json
import os
import time

import numpy as np
import pytest

import launch
import run
import spans
import workloads
from abstainkit import metrics, scoring
from abstainkit.metrics import SortedPredictionSet

# Small inputs: the same chains as the benchmark, cheap enough for the test suite.
SMALL_ROWS = {"binary_grid": 2000, "multiclass_shift": 2000}


def _span(id_, name, start, end, parent=None, counts=None):
    out = {"id": id_, "name": name, "start": start, "end": end, "parent": parent}
    if counts:
        out["counts"] = counts
    return out


def test_self_time_subtracts_the_durations_of_child_spans():
    nested = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, parent=0),
        _span(2, "b", 4.5, 6.0, parent=0),
        _span(3, "leaf", 2.0, 3.0, parent=1),
        _span(4, "late", 9.0, 9.5, parent=0),
    ]
    own = spans.self_times(nested)
    assert own == pytest.approx({0: 10.0 - 3.0 - 1.5 - 0.5, 1: 2.0, 2: 1.5, 3: 1.0, 4: 0.5})


def test_layer_totals_sum_calls_self_time_and_counters_over_invocations():
    first = [
        _span(0, spans.IMPORT_SPAN, 0.0, 1.5),
        _span(1, "scoring.fumera_threshold_search", 2.0, 5.0,
              counts={"metric_calls": 8, "metric_errors": 2, "tuples": 10}),
        _span(2, "experiments.evaluate_metric", 2.5, 3.0, parent=1),
    ]
    second = [_span(0, spans.IMPORT_SPAN, 0.0, 1.0), _span(1, "experiments.evaluate_metric", 1.0, 1.25)]
    totals = spans.layer_totals([first, second])
    assert totals["cli.import_s"] == pytest.approx(2.5)
    assert totals["experiments.evaluate_metric.calls"] == 2
    assert totals["experiments.evaluate_metric.self_s"] == pytest.approx(0.75)
    assert totals["scoring.fumera_threshold_search.self_s"] == pytest.approx(2.5)
    assert totals["scoring.fumera_threshold_search.feasible_ratio"] == pytest.approx(0.6)
    assert "scoring.fumera_threshold_search.tuples" not in totals


def test_wrappers_reach_module_internal_call_sites():
    original = metrics.specificity_threshold_index
    recorder = launch.Recorder()
    recorder.install()
    try:
        assert scoring.specificity_threshold_index is metrics.specificity_threshold_index is not original
        labels = np.array([0, 0, 1, 0, 1, 1, 0, 1], dtype=float)
        preds = SortedPredictionSet(np.linspace(0.05, 0.95, labels.size), labels)
        metrics.sensitivity_at_specificity(preds, 0.5)
    finally:
        recorder.uninstall()
    assert metrics.specificity_threshold_index is original
    (outer,) = [s for s in recorder.spans if s["name"] == "metrics.sensitivity_at_specificity"]
    children = [s["name"] for s in recorder.spans if s["parent"] == outer["id"]]
    assert children.count("metrics.specificity_threshold_index") == 1
    assert children.count("metrics.running_counts") == 1


def _small_pass(name, tmp_path, traced, pinned=None):
    workload = workloads.WORKLOADS[name]
    workload.generate(7, str(tmp_path), SMALL_ROWS[name])
    return run.run_pass(workload, SMALL_ROWS[name], str(tmp_path), traced, time.monotonic() + 150, pinned)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_passes_write_identical_outputs(name, tmp_path):
    plain = _small_pass(name, tmp_path, traced=False)
    traced = _small_pass(name, tmp_path, traced=True)
    assert plain["failed"] == traced["failed"] == 0, plain["problems"] + traced["problems"]
    assert plain["digests"] == traced["digests"]
    assert len(plain["digests"]) == plain["attempted"]

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        listed = {m["name"] for m in json.load(fh)["per_layer"]}
    reported = spans.layer_totals(traced["spans"])
    assert reported and set(reported) <= listed


def test_corrupted_output_counts_as_a_failed_invocation(tmp_path):
    clean = _small_pass("binary_grid", tmp_path, traced=False)
    assert clean["failed"] == 0, clean["problems"]
    (abstain,) = [i for i in workloads.WORKLOADS["binary_grid"].chain(SMALL_ROWS["binary_grid"]) if i.name == "abstain"]
    path = tmp_path / "out" / "abstain.json"
    payload = json.loads(path.read_text())

    broken = dict(payload, indices=payload["indices"][:-1] + payload["indices"][-2:-1])
    path.write_text(json.dumps(broken))
    with pytest.raises(workloads.CheckFailed, match="unique and sorted"):
        workloads.check_invocation(abstain, str(tmp_path), "")

    path.write_text(json.dumps(payload) + " ")  # valid, but not the bytes that were pinned
    with pytest.raises(workloads.CheckFailed, match="digest"):
        workloads.check_invocation(abstain, str(tmp_path), "", clean["digests"]["abstain"])

    path.write_text("{")
    with pytest.raises(workloads.CheckFailed):
        workloads.check_invocation(abstain, str(tmp_path), "")

    wrong = dict(clean["digests"], abstain={"out/abstain.json": "0" * 64})
    rerun = _small_pass("binary_grid", tmp_path, traced=False, pinned=wrong)
    assert (rerun["attempted"], rerun["failed"]) == (3, 1)
