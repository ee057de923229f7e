"""tests/line_reach.py on a fixture package: a line counts only when a public name runs it."""

import line_reach

_MODULE = '''\
def public():
    return 1


def _helper():
    return 2


def never():
    return 3
'''

_TEST = '''\
from fixture_pkg import mod


def test_calls():
    assert mod.public() == 1
    assert mod._helper() == 2
'''


def test_reports_the_privately_reached_and_the_unrun_line(tmp_path, monkeypatch, capsys):
    package = tmp_path / "src" / "fixture_pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(_MODULE)
    (tmp_path / "test_fixture.py").write_text(_TEST)
    monkeypatch.chdir(tmp_path)
    # the hypothesis plugin and the cache are left out only to keep the child pytest fast and the fixture clean
    status = line_reach.main(["line_reach.py", "src/fixture_pkg", "-q", "-p", "no:cacheprovider",
                              "-p", "no:hypothesispytest", "test_fixture.py"])
    lines = capsys.readouterr().out.splitlines()
    assert status == 1
    assert [line.split(": ")[0] for line in lines] == ["src/fixture_pkg/mod.py:6", "src/fixture_pkg/mod.py:10"]
