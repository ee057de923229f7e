"""The README's library tour runs against the current API."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs(capsys):
    tour = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL).group(1)
    exec(compile(tour, str(README), "exec"), {})
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0
