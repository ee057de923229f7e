"""The README's library tour runs, and its spec example loads, against the current API."""

import json
import pathlib
import re

from abstainkit.experiments import ExperimentSpec

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs(capsys):
    tour = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL).group(1)
    exec(compile(tour, str(README), "exec"), {})
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0


def test_spec_example_loads():
    block = re.search(r"```json\n(.*?)```", README.read_text(), re.DOTALL).group(1)
    spec = ExperimentSpec.from_dict(json.loads(block))
    assert spec.task == "figure1" and len(spec.methods) == 3
