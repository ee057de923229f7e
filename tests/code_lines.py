"""Print the code-line count of a package: its non-blank lines that are neither
`#` comments nor docstrings (the leading string of a module, class or function).

Run from the repository root as `python tests/code_lines.py [DIR]`; DIR
defaults to `src/abstainkit`. Only the `.py` files directly in DIR count. One
`<module>.py <count>` line is printed per file, then the total on the last line.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path


def code_lines(source: str) -> int:
    """The lines of ``source`` that hold a token other than a comment or a docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in skipped:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/abstainkit")
    counts = {path.name: code_lines(path.read_text()) for path in sorted(root.glob("*.py"))}
    for name, count in counts.items():
        print(name, count)
    print(sum(counts.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
