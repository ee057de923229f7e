"""Experiment grid runner: schemas, determinism, and task behavior."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from abstainkit import experiments
from abstainkit.calibration import PriorEstimate, adapt_label_shift_em
from abstainkit.errors import BudgetTooLarge, DidNotConverge, InputNotFound, InvalidSpecificity, SchemaError
from abstainkit.experiments import (
    ExperimentSpec,
    MethodSpec,
    MetricSpec,
    abstain_indices,
    run_experiment,
)
from abstainkit.files import read_predictions, write_predictions
from abstainkit.scoring import MonteCarloConfig


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestPredictionCsv:
    def test_binary_roundtrip(self, tmp_path):
        path = tmp_path / "preds.csv"
        probs = np.array([0.25, 0.5, 0.75])
        labels = np.array([0, 1, 1])
        write_predictions(path, probs, labels)
        _, got_labels, got_probs = read_predictions(path)
        np.testing.assert_array_equal(got_labels, labels)
        np.testing.assert_array_equal(got_probs, probs)

    def test_multiclass_roundtrip_and_header(self, tmp_path):
        path = tmp_path / "preds.csv"
        probs = np.array([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]])
        write_predictions(path, probs, np.array([2, 0]))
        header = path.read_text().splitlines()[0]
        assert header == "id,label,p_0,p_1,p_2"
        _, labels, got = read_predictions(path)
        np.testing.assert_array_equal(labels, [2, 0])
        np.testing.assert_allclose(got, probs, atol=0)

    def test_unlabeled_rows(self, tmp_path):
        path = tmp_path / "preds.csv"
        write_predictions(path, np.array([0.1, 0.9]))
        _, labels, _ = read_predictions(path)
        assert labels is None

    def test_schema_errors(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("identifier,label,prob\n1,0,0.5\n")
        with pytest.raises(SchemaError):
            read_predictions(bad)
        bad.write_text("id,label,q_0,q_1\n1,0,0.5,0.5\n")
        with pytest.raises(SchemaError):
            read_predictions(bad)
        for header in ("id,label,prob\n", "id,label,p_0,p_1\n"):
            bad.write_text(header)
            with pytest.raises(SchemaError, match="no data rows"):
                read_predictions(bad)
        with pytest.raises(InputNotFound):
            read_predictions(tmp_path / "missing.csv")
        for content in (
            "id,label,prob\n0,0,0.2\n1,2,0.7\n",
            "id,label,prob\n0,-1,0.2\n1,1,0.7\n",
            "id,label,p_0,p_1,p_2\n0,7,0.2,0.3,0.5\n1,0,0.6,0.3,0.1\n",
        ):
            bad.write_text(content)
            with pytest.raises(SchemaError, match=r"bad\.csv: labels must lie in \[0, [23]\)"):
                read_predictions(bad)
        for content, kind in (
            ("id,label,prob\n0,1.0,0.2\n1,0,0.7\n", "label"),
            ("id,label,prob\n0,x,0.2\n1,0,0.7\n", "label"),
            ("id,label,prob\n0,1,abc\n1,0,0.7\n", "value"),
            ("id,label,prob\n0,1,\n1,0,0.7\n", "value"),
            ("id,label,p_0,p_1\n0,1,0.5,0.5\n1,0,0.3,\n", "value"),
        ):
            bad.write_text(content)
            with pytest.raises(SchemaError, match=rf"bad\.csv: {kind} cell"):
                read_predictions(bad)


def _small_figure1_spec(tmp_path, **overrides):
    payload = {
        "task": "figure1",
        "methods": ["sens_window", "auroc_window_det", "js_divergence"],
        "budgets": [0.0, 0.2],
        "seeds": [0, 1],
        "metric": {"name": "sens_at_spec", "target_specificity": 0.9},
        "mc_samples": 20,
        "smooth": True,
        "sim": {"n": 500},
        "output": str(tmp_path / "out"),
    }
    payload.update(overrides)
    return ExperimentSpec.from_dict(payload)


class TestFigure1Task:
    def test_schema_ranges_and_budget_zero(self, tmp_path):
        spec = _small_figure1_spec(tmp_path)
        paths = run_experiment(spec)
        rows = _read_rows(paths["results"])
        assert len(rows) == 2 * 3 * 2  # seeds x methods x budgets
        for row in rows:
            post = float(row["post"])
            assert 0.0 <= post <= 1.0
            n = int(row["n"])
            assert int(row["abstained"]) <= int(np.floor(float(row["budget"]) * n))
            if float(row["budget"]) == 0.0:
                assert row["post"] == row["base"]
        manifest = json.loads(open(paths["manifest"]).read())
        assert manifest["rows"] == len(rows)

    def test_rerun_is_byte_identical(self, tmp_path):
        spec_a = _small_figure1_spec(tmp_path, output=str(tmp_path / "a"))
        spec_b = _small_figure1_spec(tmp_path, output=str(tmp_path / "b"))
        body_a = open(run_experiment(spec_a)["results"], "rb").read()
        body_b = open(run_experiment(spec_b)["results"], "rb").read()
        assert body_a == body_b

    def test_rows_sorted_by_seed_method_budget(self, tmp_path):
        spec = _small_figure1_spec(tmp_path)
        rows = _read_rows(run_experiment(spec)["results"])
        keys = [(int(r["seed"]), r["method"], float(r["budget"])) for r in rows]
        assert keys == sorted(keys)


class TestOtherTasks:
    def test_kappa_convergence_emits_decreasing_trend(self, tmp_path):
        spec = ExperimentSpec.from_dict({
            "task": "kappa_convergence",
            "methods": ["kappa_marginal_det"],
            "budgets": [0.2],
            "seeds": [0],
            "metric": {"name": "weighted_kappa"},
            "sim": {"n": 2000, "repeats": 4},
            "output": str(tmp_path / "kc"),
        })
        rows = _read_rows(run_experiment(spec)["results"])
        assert [int(r["mc_samples"]) for r in rows] == [8, 32, 128, 512, 2048]
        diffs = [float(r["mean_abs_diff"]) for r in rows]
        assert diffs[0] > diffs[-1]

    def test_auroc_correlation_columns(self, tmp_path):
        spec = ExperimentSpec.from_dict({
            "task": "auroc_correlation",
            "methods": ["auroc_window_det"],
            "budgets": [0.1],
            "seeds": [0, 1],
            "metric": {"name": "auroc"},
            "mc_samples": 100,
            "output": str(tmp_path / "corr"),
        })
        rows = _read_rows(run_experiment(spec)["results"])
        assert len(rows) == 2
        for row in rows:
            assert -1.0 <= float(row["spearman"]) <= 1.0
            assert -1.0 <= float(row["pearson"]) <= 1.0

    def test_label_shift_rows_cover_both_variants(self, tmp_path):
        spec = ExperimentSpec.from_dict({
            "task": "label_shift",
            "methods": ["sens_window"],
            "budgets": [0.2],
            "seeds": [0],
            "metric": {"name": "sens_at_spec", "target_specificity": 0.95},
            "mc_samples": 10,
            "sim": {"n": 3000},
            "output": str(tmp_path / "ls"),
        })
        rows = _read_rows(run_experiment(spec)["results"])
        assert sorted(int(r["adapted"]) for r in rows) == [0, 1]

    def test_label_shift_unconverged_em_names_the_seed(self, tmp_path, monkeypatch):
        def capped(test_probs, train_priors):
            return dataclasses.replace(adapt_label_shift_em(test_probs, train_priors), converged=False)

        monkeypatch.setattr(experiments, "adapt_label_shift_em", capped)
        spec = ExperimentSpec.from_dict({
            "task": "label_shift",
            "methods": ["max_class_prob"],
            "budgets": [0.2],
            "seeds": [3],
            "metric": {"name": "auroc"},
            "sim": {"n": 3000},
            "output": str(tmp_path / "ls"),
        })
        with pytest.raises(DidNotConverge, match="seed 3"):
            run_experiment(spec)

    def test_custom_task_reads_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        probs = rng.uniform(0, 1, 300)
        labels = (rng.random(300) < probs).astype(int)
        data = tmp_path / "preds.csv"
        write_predictions(data, probs, labels)
        spec = ExperimentSpec.from_dict({
            "task": "custom",
            "methods": ["max_class_prob", "entropy"],
            "budgets": [0.1],
            "seeds": [0],
            "metric": {"name": "auroc"},
            "input": str(data),
            "output": str(tmp_path / "custom"),
        })
        rows = _read_rows(run_experiment(spec)["results"])
        assert len(rows) == 2
        for row in rows:
            assert int(row["abstained"]) == 30

    def test_custom_task_missing_input(self, tmp_path):
        spec = ExperimentSpec.from_dict({
            "task": "custom",
            "methods": ["entropy"],
            "budgets": [0.1],
            "seeds": [0],
            "metric": {"name": "auroc"},
            "input": str(tmp_path / "nope.csv"),
            "output": str(tmp_path / "x"),
        })
        with pytest.raises(InputNotFound):
            run_experiment(spec)

    def test_metric_target_specificity_lies_in_the_open_unit_interval(self):
        for target in (0.0, 1.0, 1.5, -0.1, float("nan")):
            with pytest.raises(InvalidSpecificity):
                MetricSpec("auroc", target)
        assert MetricSpec("auroc", 0.5).target_specificity == 0.5

    @pytest.mark.parametrize("task", ["figure1", "label_shift", "kappa_convergence", "auroc_correlation", "custom"])
    def test_manifest_spec_loads_back_as_an_equal_spec(self, tmp_path, task):
        data = tmp_path / "preds.csv"
        rng = np.random.default_rng(0)
        probs = rng.uniform(0, 1, 200)
        write_predictions(data, probs, (rng.random(200) < probs).astype(int))
        payload = {
            "task": task,
            "methods": ["max_class_prob", {"name": "fumera", "params": {"grid": 5}}],
            "budgets": [0.1],
            "seeds": [0],
            "metric": "auroc",
            "mc_samples": 5,
            "smooth": False,
            "output": str(tmp_path / "out"),
            "sim": {
                "figure1": {"n": 300, "mu_pos": 1.5},
                "label_shift": {"n": 3000},
                "kappa_convergence": {"n": 300, "priors": [0.25, 0.25, 0.25, 0.25]},
                "auroc_correlation": {"abstain_count": 50},
                "custom": {},
            }[task],
        }
        if task == "custom":
            payload["input"] = str(data)
        spec = ExperimentSpec.from_dict(payload)
        manifest = json.loads(open(run_experiment(spec)["manifest"]).read())
        assert manifest["spec"]["metric"] == {"name": "auroc", "target_specificity": None}
        assert ExperimentSpec.from_dict(manifest["spec"]) == spec

    def test_spec_defaults_are_the_fields(self):
        spec = ExperimentSpec("figure1")
        assert ExperimentSpec.from_dict({"task": "figure1"}) == spec
        assert spec.methods == (MethodSpec("sens_window"),) and spec.budgets == (0.3,) and spec.seeds == (0,)
        assert spec.metric == MetricSpec("sens_at_spec", 0.9)
        assert (spec.mc_samples, spec.smooth, spec.output, spec.input, spec.sim) == (100, True, "results", None, {})

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            ExperimentSpec.from_dict({"task": "figure1", "methods": [], "budgets": [0.1], "seeds": [0]})
        with pytest.raises(ValueError, match="unknown task"):
            ExperimentSpec.from_dict({"task": "mystery"})


class TestAbstainIndices:
    def test_window_methods_return_contiguous_sorted_region(self):
        rng = np.random.default_rng(1)
        probs = rng.uniform(0, 1, 200)
        mc = MonteCarloConfig(samples=10, seed=0, smooth=True)
        metric = MetricSpec(name="sens_at_spec", target_specificity=0.9)
        idx, estimate = abstain_indices(MethodSpec("sens_window"), probs, 0.2, metric, mc)
        assert idx.size == 40
        assert 0.0 <= estimate <= 1.0
        order = np.argsort(probs, kind="stable")
        positions = np.searchsorted(probs[order], probs[idx])
        assert positions.max() - positions.min() < 40 + 1

    def test_sens_window_needs_a_target_specificity(self):
        probs = np.linspace(0.01, 0.99, 50)
        with pytest.raises(InvalidSpecificity, match="got None"):
            abstain_indices(MethodSpec("sens_window"), probs, 0.2, MetricSpec("auroc"), MonteCarloConfig(samples=2))

    def test_fumera_respects_budget(self):
        rng = np.random.default_rng(2)
        probs = rng.uniform(0, 1, 120)
        labels = (rng.random(120) < probs).astype(int)
        mc = MonteCarloConfig(samples=5, seed=0)
        metric = MetricSpec(name="auroc")
        idx, _ = abstain_indices(
            MethodSpec("fumera", {"grid": 11}), probs, 0.25, metric, mc, labels=labels
        )
        assert idx.size <= 30

    def test_fumera_rejects_binary_metric_on_multiclass(self):
        # every grid tuple's metric call would fail, leaving nothing abstained
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(3), 60)
        with pytest.raises(SchemaError, match="binary"):
            abstain_indices(
                MethodSpec("fumera", {"grid": 5}), probs, 0.2, MetricSpec(name="auroc"),
                MonteCarloConfig(samples=2), labels=rng.integers(0, 2, 60),
            )

    def test_vector_and_two_column_matrix_agree(self):
        # a binary prediction set is the same input as a `prob` vector or `p_0,p_1` matrix
        rng = np.random.default_rng(5)
        probs = rng.uniform(0, 1, 150)
        labels = (rng.random(150) < probs).astype(int)
        matrix = np.column_stack([1.0 - probs, probs])
        metric = MetricSpec(name="sens_at_spec", target_specificity=0.9)
        mc = MonteCarloConfig(samples=10, seed=0)
        extra = dict(labels=labels, priors=PriorEstimate.from_labels(labels, 2))
        for name in (*experiments.WINDOW_METHODS, *experiments.PRIORITY_METHODS, "fumera"):
            method = MethodSpec(name, {"grid": 11} if name == "fumera" else {})
            (idx_v, est_v), (idx_m, est_m) = (
                abstain_indices(method, p, 0.2, metric, mc, **extra) for p in (probs, matrix)
            )
            assert idx_v.size == 30 or name == "fumera", name
            np.testing.assert_array_equal(idx_v, idx_m, err_msg=name)
            assert est_v == est_m, name

    @pytest.mark.parametrize("shape", ["vector", "matrix"])
    def test_js_divergence_defaults_to_the_label_frequencies(self, shape):
        rng = np.random.default_rng(6)
        if shape == "vector":
            probs, classes = rng.uniform(0, 1, 90), 2
        else:
            probs, classes = rng.dirichlet(np.ones(3), 90), 3
        labels = rng.integers(0, classes, 90)
        args = (MethodSpec("js_divergence"), probs, 0.2, MetricSpec(name="auroc"), MonteCarloConfig(samples=2))
        idx, _ = abstain_indices(*args, labels=labels)
        want, _ = abstain_indices(*args, labels=labels, priors=PriorEstimate.from_labels(labels, classes))
        assert idx.size == 18
        np.testing.assert_array_equal(idx, want)

    def test_zero_budget_returns_empty(self):
        metric = MetricSpec(name="auroc")
        idx, estimate = abstain_indices(
            MethodSpec("entropy"), np.linspace(0.01, 0.99, 50), 0.0, metric,
            MonteCarloConfig(samples=2),
        )
        assert idx.size == 0 and estimate is None

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            MethodSpec("psychic")

    def test_budget_fraction_outside_unit_interval(self):
        for fraction in (1.0, 1.5, -0.1, float("nan")):
            with pytest.raises(BudgetTooLarge):
                abstain_indices(
                    MethodSpec("entropy"), np.linspace(0.01, 0.99, 50), fraction,
                    MetricSpec(name="auroc"), MonteCarloConfig(samples=2),
                )
