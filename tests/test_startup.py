"""What the CLI loads at start-up, and how many threads it runs.

`import abstainkit` loads submodules on first use, so it loads no numpy;
every public name is still the object its submodule defines. Only
`calibrate` (L-BFGS-B calibrator fits) imports scipy, so every other
subcommand, `compare` and the `auroc_correlation` task among them, must run
in a fresh interpreter without ever importing it. The CLI runs OpenBLAS
with one thread unless `OPENBLAS_NUM_THREADS` is set: importing
`abstainkit.cli` sets it to 1 before numpy loads, and a value the user set
wins. Each check runs in its own subprocess, because this test process may
have imported numpy, scipy or `abstainkit.cli` already. No timings are
asserted.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import abstainkit
from abstainkit.files import write_predictions

_SRC = os.path.dirname(os.path.dirname(abstainkit.__file__))
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))

# Runs each (name, argv) through cli.main, then writes the exit codes and the
# scipy modules loaded so far to the JSON file named by argv[1].
_RUN_COMMANDS = """
import json, sys
if sys.argv[3] == "block":
    sys.modules["scipy"] = None  # any import of scipy or scipy.* now fails
from abstainkit.cli import main
codes = {name: main(argv) for name, argv in json.loads(sys.argv[2])}
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
with open(sys.argv[1], "w") as fh:
    json.dump({"codes": codes, "scipy": loaded}, fh)
"""


def _run_commands(tmp_path, commands, block_scipy=False):
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_COMMANDS, str(report), json.dumps(commands),
         "block" if block_scipy else "allow"],
        cwd=tmp_path, env=_ENV, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(report.read_text())


def _write_raw_logits(path, n=300, c=3, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, c, n)
    logits = rng.normal(0, 1, (n, c)) + 2.0 * np.eye(c)[labels]
    lines = ["id,label," + ",".join(f"z_{k}" for k in range(c))]
    for i, (y, row) in enumerate(zip(labels, logits)):
        lines.append(f"{i},{y}," + ",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _child(code, *args, **env):
    """stdout of ``python -c code *args``, with OPENBLAS_NUM_THREADS unset unless given in ``env``.

    An earlier `import abstainkit.cli` in this process may have set it here.
    """
    child_env = {k: v for k, v in _ENV.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", code, *args], env={**child_env, **env},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("module", ["abstainkit", "abstainkit.cli"])
def test_import_leaves_scipy_unloaded(tmp_path, module):
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _child(code) == "[]"


def test_import_leaves_numpy_unloaded():
    assert _child("import sys, abstainkit; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))") \
        == "[]"


def test_every_public_name_is_the_object_its_submodule_defines():
    code = """
import sys, abstainkit
for name in abstainkit.__all__[1:]:
    value = getattr(abstainkit, name)
    assert value.__module__.startswith("abstainkit."), name
    assert getattr(sys.modules[value.__module__], name) is value, name
print(len(abstainkit.__all__))
"""
    assert _child(code) == "35"


def test_star_import_binds_every_public_name():
    code = """
import abstainkit
from abstainkit import *
missing = [name for name in abstainkit.__all__ if globals().get(name) is not getattr(abstainkit, name)]
print(missing)
"""
    assert _child(code) == "[]"


def test_dir_lists_every_public_name():
    code = "import abstainkit; print(sorted(set(abstainkit.__all__) - set(dir(abstainkit))))"
    assert _child(code) == "[]"


def test_an_unknown_attribute_is_an_attribute_error():
    code = """
import abstainkit
try:
    abstainkit.no_such_name
except AttributeError as exc:
    print(exc)
"""
    assert _child(code) == "module 'abstainkit' has no attribute 'no_such_name'"


# Imports abstainkit.cli, then each module named in argv[1:], and prints the
# BLAS thread variable and, where /proc/self/task exists, the thread count.
_BLAS = """
import importlib, os, sys
for module in ["abstainkit.cli", *sys.argv[1:]]:
    importlib.import_module(module)
print(os.environ["OPENBLAS_NUM_THREADS"])
if os.path.isdir("/proc/self/task"):
    print(len(os.listdir("/proc/self/task")))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
@pytest.mark.parametrize("modules", [[], ["scipy.optimize"]], ids=["cli", "cli_and_scipy"])
def test_the_cli_runs_one_blas_thread(modules):
    assert _child(_BLAS, *modules).split() == ["1", "1"]


def test_a_blas_thread_count_the_user_sets_wins():
    assert _child(_BLAS, "scipy.optimize", OPENBLAS_NUM_THREADS="2").split()[0] == "2"


def test_pipeline_runs_with_scipy_blocked(tmp_path):
    (tmp_path / "spec.json").write_text(json.dumps({
        "task": "figure1",
        "methods": ["sens_window", "max_class_prob"],
        "budgets": [0.3],
        "seeds": [0],
        "metric": {"name": "sens_at_spec", "target_specificity": 0.9},
        "mc_samples": 20,
        "sim": {"n": 400},
        "output": "exp",
    }))
    (tmp_path / "corr.json").write_text(json.dumps({
        "task": "auroc_correlation", "seeds": [0, 1, 2], "mc_samples": 8, "sim": {"abstain_count": 20}, "output": "corr",
    }))
    lines = ["seed,method,budget,metric,adapted,base,post,abstained,n"]
    for seed in range(6):
        lines += [f"{seed},a,0.3,auroc,0,0.5,{0.6 + 0.01 * seed!r},30,100",
                  f"{seed},b,0.3,auroc,0,0.5,{0.5 + 0.02 * seed!r},30,100"]
    (tmp_path / "results.csv").write_text("\n".join(lines) + "\n")
    _write_raw_logits(tmp_path / "raw.csv")
    (tmp_path / "cal.json").write_text(json.dumps({"kind": "temperature", "scale": 1.0, "offset": [0.0] * 3}))
    rng = np.random.default_rng(1)
    p = rng.uniform(0, 1, 400)
    write_predictions(tmp_path / "binary.csv", p, (rng.random(400) < p).astype(int))
    commands = [
        ("experiment", ["experiment", "--spec", "spec.json"]),
        ("experiment auroc_correlation", ["experiment", "--spec", "corr.json"]),
        ("compare", ["compare", "--input", "results.csv", "--output", "pvalues.json"]),
        ("apply-calibrator", ["apply-calibrator", "--input", "raw.csv", "--calibrator", "cal.json",
                              "--output", "calibrated.csv"]),
        ("adapt", ["adapt", "--input", "calibrated.csv", "--train-priors", "0.4,0.3,0.3",
                   "--output", "adapted.csv"]),
        ("abstain kappa_marginal_mc", ["abstain", "--input", "adapted.csv", "--method", "kappa_marginal_mc",
                                       "--metric", "weighted_kappa", "--budget", "0.2",
                                       "--mc-samples", "20", "--output", "kappa.json"]),
        ("abstain sens_window", ["abstain", "--input", "binary.csv", "--method", "sens_window",
                                 "--budget", "0.3", "--mc-samples", "20", "--output", "sens.json"]),
        ("evaluate", ["evaluate", "--input", "binary.csv", "--abstain-file", "sens.json"]),
    ]
    report = _run_commands(tmp_path, commands, block_scipy=True)
    assert report["codes"] == {name: 0 for name, _ in commands}
    assert (tmp_path / "exp" / "results.csv").exists()
    assert (tmp_path / "corr" / "results.csv").exists()
    assert json.loads((tmp_path / "pvalues.json").read_text())["methods"] == ["a", "b"]
    assert len(json.loads((tmp_path / "kappa.json").read_text())["indices"]) == 60


def test_compare_leaves_scipy_unloaded(tmp_path):
    lines = ["seed,method,budget,metric,adapted,base,post,abstained,n"]
    for seed in range(6):
        lines += [f"{seed},a,0.3,auroc,0,0.5,{0.6 + 0.01 * seed!r},30,100",
                  f"{seed},b,0.3,auroc,0,0.5,{0.5 + 0.02 * seed!r},30,100"]
    (tmp_path / "results.csv").write_text("\n".join(lines) + "\n")
    argv = ["compare", "--input", "results.csv", "--output", "pvalues.json"]
    report = _run_commands(tmp_path, [("compare", argv)])
    assert report["codes"] == {"compare": 0}
    assert report["scipy"] == []
    assert json.loads((tmp_path / "pvalues.json").read_text())["methods"] == ["a", "b"]


@pytest.mark.parametrize("command, module", [("calibrate", "scipy.optimize")])
def test_scipy_commands_load_it(tmp_path, command, module):
    _write_raw_logits(tmp_path / "raw.csv")
    argv = ["calibrate", "--input", "raw.csv", "--kind", "temperature", "--output", "cal.json"]
    report = _run_commands(tmp_path, [(command, argv)])
    assert report["codes"] == {command: 0}
    assert module in report["scipy"]
