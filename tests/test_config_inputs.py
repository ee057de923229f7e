"""The JSON config inputs of the CLI under one bad field at a time.

Each case starts from a valid `simulate` config, calibrator (with a small
raw-score file it fits) or `experiment` spec, and sets one field to a value
that is wrong for it, or at least unusual. Whatever the value, `main` must
either succeed or exit 1 with one named `AbstainkitError` line and no
output; no exception may escape it and no prediction file may hold `nan`.
"""

import copy
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from abstainkit import errors
from abstainkit.cli import main

_BINARY_SIM = {"positive_prior": 0.1, "mu_pos": 2.0, "mu_neg": -1.0, "sigma_pos": 1.0, "sigma_neg": 2.0,
               "n": 40, "seed": 0}
_MULTICLASS_SIM = {"priors": [0.5, 0.3, 0.2], "means": [-1.0, 0.0, 1.0], "sigmas": [1.0, 1.0, 2.0], "n": 40, "seed": 0}
_RAW = {"binary": "id,label,score\n0,0,-1.0\n1,1,0.5\n2,0,0.2\n3,1,2.0\n",
        "classes": "id,label,z_0,z_1,z_2\n0,0,1.0,0.0,-1.0\n1,1,0.0,2.0,0.5\n2,2,-1.0,0.0,3.0\n3,1,0.5,0.5,0.0\n"}
_SPEC = {"methods": ["entropy"], "budgets": [0.1], "seeds": [0], "metric": {"name": "auroc"}, "mc_samples": 2}

# (command, valid payload, raw-score layout or None, paths of the fields a case may set)
_INPUTS = [
    ("simulate", _BINARY_SIM, None, [(key,) for key in _BINARY_SIM]),
    ("simulate", _MULTICLASS_SIM, None,
     [(key,) for key in _MULTICLASS_SIM] + [(key, c) for key in ("priors", "means", "sigmas") for c in range(3)]),
    ("apply-calibrator", {"kind": "platt", "scale": 1.5, "offset": [0.2]}, "binary", [("scale",), ("offset", 0)]),
    *[("apply-calibrator", {"kind": kind, "scale": 0.5, "offset": [0.1, 0.0, -0.1]}, "classes",
       [("scale",)] + [("offset", c) for c in range(3)])
      for kind in ("temperature", "bias_corrected_temperature")],
    ("experiment", {**_SPEC, "task": "figure1", "sim": {"n": 200}}, None,
     [("sim", key) for key in _BINARY_SIM if key != "seed"] + [("mc_samples",), ("seeds", 0)]),
    ("experiment", {**_SPEC, "task": "kappa_convergence", "metric": {"name": "weighted_kappa"},
                    "sim": {"n": 20, "means": [-1.0, 0.0, 1.0, 2.0]}}, None,
     [("sim", key) for key in ("priors", "sigmas", "n", "repeats")] + [("sim", "means", c) for c in range(4)]
     + [("mc_samples",), ("seeds", 0)]),
    ("experiment", {**_SPEC, "task": "auroc_correlation", "sim": {"abstain_count": 5}}, None,
     [("sim", "abstain_count"), ("mc_samples",), ("seeds", 0)]),
]
_CASES = [(number, path) for number, (_, _, _, paths) in enumerate(_INPUTS) for path in paths]
# no value here is a large size: a huge `n` or `mc_samples` would allocate
_BAD_VALUES = ["1", "", None, True, float("nan"), float("inf"), float("-inf"), [1], {}, -0.1, 1.5]


def _with(payload, path, value):
    payload = copy.deepcopy(payload)
    target = payload
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return payload


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.sampled_from(_CASES), st.sampled_from(_BAD_VALUES))
def test_a_bad_config_field_is_one_named_error_or_a_clean_run(case, value):
    number, path = case
    command, payload, layout, _ = _INPUTS[number]
    with tempfile.TemporaryDirectory() as tmp:
        config, raw, out = (os.path.join(tmp, name) for name in ("config.json", "raw.csv", "out"))
        with open(config, "w") as fh:
            fh.write(json.dumps(_with(payload, path, value)))
        argv = {
            "simulate": ["simulate", "--config", config, "--output", out],
            "apply-calibrator": ["apply-calibrator", "--input", raw, "--calibrator", config, "--output", out],
            "experiment": ["experiment", "--spec", config, "--output", out],
        }[command]
        if layout is not None:
            with open(raw, "w") as fh:
                fh.write(_RAW[layout])
        stderr = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            code = main(argv)
        err = stderr.getvalue()
        if code == 0:
            if command != "experiment":
                with open(out) as fh:
                    assert "nan" not in fh.read().lower()
            return
        assert code == 1
        assert not os.path.exists(out)
        assert err.count("\n") == 1 and err.startswith("error: "), err
        name = err.split(":")[1].strip()
        assert issubclass(getattr(errors, name, type(None)), errors.AbstainkitError), err
