"""Print every line of a package that its tests never run through a public name.

Run from the repository root as `python tests/line_reach.py [DIR [PYTEST_ARG ...]]`.
DIR defaults to `src/abstainkit` and the pytest arguments to tier-1's,
`-q --continue-on-collection-errors`. pytest runs in a child process with
DIR's parent on PYTHONPATH.

A line of DIR's `.py` files counts as reached when it runs while the
outermost frame of DIR's code on the stack belongs to a public name: every
part of its qualified name is free of a leading `_`, or is a dunder. A line
that only a test's direct call of a private helper runs is unreached. A module
body is an entry of its own, public, whichever import runs it first. The
executable lines are those the compiled code maps to (`co_lines`).

Every Python process of the run is traced, CLI children too: the tool writes a
`sitecustomize.py` into a temporary directory put first on PYTHONPATH, which
runs `trace` at start-up (`sys.settrace` and `threading.settrace`), and each
process writes the lines it reached there at exit. Only the stdlib is used, so
nothing beyond the test tools needs installing. Nothing is written outside the
temporary directory, apart from what the tests write themselves.

Each unreached line is printed as `file:line: source` and the exit status is 1
when there is one. When pytest fails, its output is printed and its exit status
returned.
"""

import marshal
import os
import sys

# A traced process runs this file's `trace` from its sitecustomize; main's imports stay in main,
# so that the traced processes load only what the tracer needs.
_SITECUSTOMIZE = """\
_tool = {tool!r}
_namespace = {{"__name__": "line_reach"}}
with open(_tool, encoding="utf-8") as _fh:
    exec(compile(_fh.read(), _tool, "exec"), _namespace)
_namespace["trace"]({package!r}, {out!r})
"""


def _sources(package: str) -> list:
    """The `.py` files directly in ``package``, the ones `tests/code_lines.py` counts."""
    return sorted(os.path.join(package, name) for name in os.listdir(package) if name.endswith(".py"))


def _public(qualname: str) -> bool:
    return all(not part.startswith("_") or (part.startswith("__") and part.endswith("__"))
               for part in qualname.split("."))


def trace(package: str, out: str) -> None:
    """Trace this process's runs of ``package``'s code; write the lines reached into ``out`` at exit."""
    import atexit
    import threading

    files = set(_sources(package))
    owner = {}  # co_filename -> the package file it names, or None
    pending = {}  # code object -> its lines not yet reached through a public entry
    reached = {}  # package file -> lines reached through a public entry

    def package_file(filename):
        if filename not in owner:
            path = os.path.realpath(filename)
            owner[filename] = path if path in files else None
        return owner[filename]

    def public_entry(frame) -> bool:
        entry = frame
        while frame is not None:
            if package_file(frame.f_code.co_filename):
                entry = frame
                if frame.f_code.co_name == "<module>":
                    break
            frame = frame.f_back
        return _public(getattr(entry.f_code, "co_qualname", entry.f_code.co_name))  # co_qualname: Python 3.11+

    def on_call(frame, event, arg):
        code = frame.f_code
        path = package_file(code.co_filename)
        if path is None:
            return None
        lines = pending.get(code)
        if lines is None:
            lines = pending[code] = {line for _, _, line in code.co_lines() if line}  # a module's line 0 never runs
        if not lines or not public_entry(frame):
            return None
        seen = reached.setdefault(path, set())

        def on_line(frame, event, arg):
            seen.add(frame.f_lineno)
            lines.discard(frame.f_lineno)
            return on_line

        return on_line(frame, event, arg)

    def write():
        sys.settrace(None)
        with open(os.path.join(out, f"{os.getpid()}-{os.urandom(4).hex()}.marshal"), "wb") as fh:
            marshal.dump(reached, fh)

    atexit.register(write)
    threading.settrace(on_call)
    sys.settrace(on_call)


def executable_lines(path: str) -> set:
    """The lines of the source file ``path`` that its compiled code objects map to."""
    with open(path, encoding="utf-8") as fh:
        stack = [compile(fh.read(), path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def main(argv) -> int:
    import subprocess
    import tempfile

    package = os.path.realpath(argv[1] if len(argv) > 1 else "src/abstainkit")
    pytest_args = argv[2:] or ["-q", "--continue-on-collection-errors"]
    reached = {}
    with tempfile.TemporaryDirectory() as out:
        with open(os.path.join(out, "sitecustomize.py"), "w", encoding="utf-8") as fh:
            fh.write(_SITECUSTOMIZE.format(tool=os.path.realpath(__file__), package=package, out=out))
        path = [out, os.path.dirname(package), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run([sys.executable, "-m", "pytest", *pytest_args], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            print(proc.stdout, end="")
            return proc.returncode
        for name in os.listdir(out):
            if name.endswith(".marshal"):
                with open(os.path.join(out, name), "rb") as fh:
                    for file, lines in marshal.load(fh).items():
                        reached.setdefault(file, set()).update(lines)
    unreached = 0
    for file in _sources(package):
        with open(file, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        for line in sorted(executable_lines(file) - reached.get(file, set())):
            print(f"{os.path.relpath(file)}:{line}: {source[line - 1].strip()}")
            unreached += 1
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
