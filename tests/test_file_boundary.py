"""The file boundary: only `abstainkit.files` opens a file, and the CLI imports no private name."""

import ast
from pathlib import Path

import abstainkit

PACKAGE = Path(abstainkit.__file__).parent


def test_only_the_files_module_calls_open():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "files.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"
    ]
    assert found == []


def test_the_cli_imports_no_private_name_from_a_sibling_module():
    # the imported name counts, not its alias: `import read_raw_scores as _read_raw_scores` is public
    found = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text()))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names if alias.name.startswith("_")
    ]
    assert found == []
