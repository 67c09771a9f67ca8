"""List the executable lines of ``src/semifree`` that the test suite never runs.

The script runs pytest in this process under ``sys.settrace`` (stdlib
only; no coverage package is needed) and records every line of the
package that a traced frame executes. A module's executable lines are
the lines its compiled code objects map to (``co_lines``), docstrings
excluded. The unreached ones are printed per module on stdout, with
their source; pytest's own output goes to stderr.

The tracer makes the suite several times slower, so a test with a
wall-clock bound may fail under it. Each failing test is run once more
in a fresh, untraced pytest: one that passes there is reported as a
tracer artefact, one that fails again as a failure. The exit status is
1 only when some test fails untraced too.

Usage::

    python scripts/line_reach.py            # the whole suite
    python scripts/line_reach.py tests/test_solve.py   # any pytest arguments
"""

from __future__ import annotations

import ast
import contextlib
import os
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "semifree"


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that some compiled instruction maps to, docstrings excluded."""
    source = path.read_text()
    lines: set[int] = set()
    pending = [compile(source, str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        pending.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (
            isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.difference_update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


class _Tracer:
    """Records the executed lines of the package's files, and of no other file."""

    def __init__(self, files: set[str]) -> None:
        self.files = files
        self.hits: dict[str, set[int]] = {}
        # co_filename -> its hit set, or None for a file outside the package.
        self._sets: dict[str, set[int] | None] = {}

    def _hit_set(self, filename: str) -> set[int] | None:
        if filename not in self._sets:
            real = os.path.realpath(filename)
            self._sets[filename] = (
                self.hits.setdefault(real, set()) if real in self.files else None
            )
        return self._sets[filename]

    def __call__(self, frame, event, arg):
        hit = self._hit_set(frame.f_code.co_filename)
        if hit is None:
            return None
        hit.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                hit.add(frame.f_lineno)
            return local

        return local


class _Failures:
    """A pytest plugin that collects the node ids of failing tests."""

    def __init__(self) -> None:
        self.ids: list[str] = []

    def pytest_runtest_logreport(self, report) -> None:
        if report.failed and report.nodeid not in self.ids:
            self.ids.append(report.nodeid)


def main(argv: list[str]) -> int:
    import pytest

    modules = sorted(PACKAGE.glob("*.py"))
    tracer = _Tracer({os.path.realpath(p) for p in modules})
    failures = _Failures()
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    with contextlib.redirect_stdout(sys.stderr):
        threading.settrace(tracer)
        sys.settrace(tracer)
        try:
            pytest.main(["-q", "-p", "no:cacheprovider", *argv], plugins=[failures])
        finally:
            sys.settrace(None)
            threading.settrace(None)

    total = 0
    print("unreached executable lines of src/semifree (docstrings excluded)")
    for path in modules:
        source = path.read_text().splitlines()
        missed = sorted(
            executable_lines(path) - tracer.hits.get(os.path.realpath(path), set())
        )
        total += len(missed)
        print(f"{path.stem}: {len(missed)}")
        for line in missed:
            print(f"  {path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"total: {total}")

    if not failures.ids:
        return 0
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )}
    status = 0
    for nodeid in failures.ids:
        rerun = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", nodeid],
            cwd=ROOT,
            env=env,
            capture_output=True,
        )
        if rerun.returncode == 0:
            print(f"tracer artefact (passes untraced): {nodeid}")
        else:
            print(f"failure (fails untraced too): {nodeid}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
