"""Mutation testing of ``src/semifree``: would the tests notice a small fault?

Each mutant makes one change to one module of the package:

- a comparison flips between ``<`` and ``<=``, ``>`` and ``>=``, or
  ``==`` and ``!=``;
- a binary or augmented ``+`` becomes ``-``, or ``-`` becomes ``+``;
- an int literal of magnitude at most 8 grows by 1.

The sites of each module are found with ``ast`` and located in the
source with ``tokenize``, so a mutant differs from the original by one
token and keeps every other byte. A seeded sample of the sites is run,
one mutant at a time, in one copy of the checkout in a temporary
directory: each mutant is written into the copy's module and the
original is put back after its run, so the files under ``src/`` are
never edited in place. A mutant is *killed* when pytest fails on it
(the report names the first failing test, so a kill by a wall-clock
bound shows as one), *timed out* when its run outlives the wall limit
(counted apart: a hang is a finding of its own), and otherwise
*survives* the subset. Every subset survivor is run once more against
the whole suite, and only a mutant that the whole suite also passes is
reported as a survivor. Before the first such rerun the unmutated copy
runs the whole suite once; if that fails, no rerun can tell a kill
from the failure, so subset survivors are reported as survivors.

Each module's mutants run against its own subset of the tests
(``MODULE_TESTS``): the six test files of the chain engine (about 15 s a
run on 2 CPUs), which ``_solve`` and ``classifier`` keep, plus for
``localization`` and ``fixed_points`` the files that test them most, so
that a mutant the engine files pass need not wait for the whole suite.
``delzant``, ``cli``, ``algebra`` and ``rationals`` run against the
files that test them most instead of the engine's.
``--tests`` names one subset for every module instead. Stdlib only;
pytest runs in a child process,
with ``-x``, the copy's ``src`` first on ``PYTHONPATH`` and no
bytecode written (a mutant may keep its module's size and mtime
second, so a cached one could be stale).

Usage::

    python scripts/mutants.py                              # 40 per engine module, seed 0
    python scripts/mutants.py --modules _solve --sample 10 --seed 3
    python scripts/mutants.py --sample 5 --timeout 60      # 20 mutants in all
    python scripts/mutants.py --site _solve.py:94:30       # one named mutant

The unmutated checkout runs each subset once first; if one fails, no
mutant runs and the exit status is 1. Otherwise it is 0 whatever the mutants
do: the report is the output.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "semifree"

ENGINE_MODULES = ("_solve", "classifier", "localization", "fixed_points")
ENGINE_TESTS = (
    "tests/test_solve.py",
    "tests/test_classifier.py",
    "tests/test_walk.py",
    "tests/test_golden.py",
    "tests/test_orderings.py",
    "tests/test_pairings.py",
)
# The subset of each module that the engine files alone leave weak.
MODULE_TESTS = {
    "localization": ENGINE_TESTS + (
        "tests/test_localization.py",
        "tests/test_tables.py",
        "tests/test_acceptance.py",
        "tests/test_sweep.py",
    ),
    "fixed_points": ENGINE_TESTS + (
        "tests/test_fixed_points.py",
        "tests/test_front_end.py",
        "tests/test_acceptance.py",
        "tests/test_cli.py",
    ),
    "delzant": (
        "tests/test_delzant.py",
        "tests/test_toric_census.py",
        "tests/test_rationals.py",
        "tests/test_cli.py",
        "tests/test_golden.py",
    ),
    "cli": (
        "tests/test_cli.py",
        "tests/test_json.py",
        "tests/test_golden.py",
        "tests/test_agreement.py",
    ),
    "algebra": (
        "tests/test_algebra.py",
        "tests/test_localization.py",
        "tests/test_sweep.py",
        "tests/test_pairings.py",
    ),
    "rationals": (
        "tests/test_rationals.py",
        "tests/test_front_end.py",
        "tests/test_json.py",
        "tests/test_cli.py",
    ),
}
# What a copy of the checkout leaves out: history, caches and outputs.
SKIP_IN_COPY = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out", "*.egg-info"
)

FLIPS = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"),
    ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
    ast.Add: ("+", "-"), ast.Sub: ("-", "+"),
}


@dataclass(frozen=True)
class Site:
    """One mutation: ``old`` becomes ``new`` at (line, column) of ``module``."""

    module: str
    line: int
    col: int  # in characters, 0-based
    old: str
    new: str

    def apply(self, source: str) -> str:
        lines = source.splitlines(keepends=True)
        text = lines[self.line - 1]
        if text[self.col : self.col + len(self.old)] != self.old:
            raise ValueError(f"{self} does not match its source line")
        lines[self.line - 1] = text[: self.col] + self.new + text[self.col + len(self.old) :]
        return "".join(lines)

    def describe(self) -> str:
        return f"{self.module}.py:{self.line}:{self.col + 1}: {self.old} -> {self.new}"


def sites(module: str, source: str) -> list[Site]:
    """Every mutation site of ``source``, in source order."""
    lines = source.splitlines()

    def char_pos(line: int, byte_col: int) -> tuple[int, int]:
        # ast columns count UTF-8 bytes, tokenize columns count characters.
        return line, len(lines[line - 1].encode()[:byte_col].decode())

    tokens = [
        (tok.start, tok.string)
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.OP
    ]

    def operator(after: ast.AST, before: ast.AST, text: str) -> tuple[int, int]:
        # The token ``text`` between the end of ``after`` and the start of
        # ``before``. An f-string is one token before Python 3.12, so an
        # operator inside one is found in the text of its line.
        lo = char_pos(after.end_lineno, after.end_col_offset)
        hi = char_pos(before.lineno, before.col_offset)
        pos = next((pos for pos, s in tokens if lo <= pos <= hi and s == text), None)
        if pos is None and lo[0] == hi[0]:
            col = lines[lo[0] - 1].find(text, lo[1], hi[1])
            pos = (lo[0], col) if col >= 0 else None
        if pos is None:
            raise ValueError(f"{module}.py:{lo[0]}: no {text!r} found")
        return pos

    found: list[Site] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            left = node.left
            for op, right in zip(node.ops, node.comparators):
                if type(op) in FLIPS:
                    old, new = FLIPS[type(op)]
                    found.append(Site(module, *operator(left, right, old), old, new))
                left = right
        elif isinstance(node, ast.BinOp) and type(node.op) in (ast.Add, ast.Sub):
            old, new = FLIPS[type(node.op)]
            found.append(Site(module, *operator(node.left, node.right, old), old, new))
        elif isinstance(node, ast.AugAssign) and type(node.op) in (ast.Add, ast.Sub):
            old, new = FLIPS[type(node.op)]
            found.append(
                Site(module, *operator(node.target, node.value, old + "="), old + "=", new + "=")
            )
        elif (
            isinstance(node, ast.Constant)
            and type(node.value) is int
            and abs(node.value) <= 8
        ):
            line, col = char_pos(node.lineno, node.col_offset)
            end = char_pos(node.end_lineno, node.end_col_offset)[1]
            found.append(Site(module, line, col, lines[line - 1][col:end], str(node.value + 1)))
    return sorted(found, key=lambda s: (s.line, s.col))


def run_tests(checkout: Path, tests: Sequence[str], limit: float) -> tuple[str, str]:
    """``("killed", first failing test)``, ``("survived", "")`` or
    ``("timeout", "")`` for pytest on ``tests`` in ``checkout``."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": os.pathsep.join(
        filter(None, [str(checkout / "src"), os.environ.get("PYTHONPATH")])
    )}
    child = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=checkout,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    try:
        output = child.communicate(timeout=limit)[0]
    except subprocess.TimeoutExpired:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return "timeout", ""
    if child.returncode == 0:
        return "survived", ""
    # pytest's short summary: "FAILED tests/x.py::test_y - reason".
    failed = (
        line.split(" - ")[0].split(" ", 1)[1]
        for line in output.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    )
    return "killed", next(failed, f"pytest exit status {child.returncode}")


def run_mutant(site: Site, checkout: Path, tests: Sequence[str], limit: float) -> tuple[str, str]:
    """``run_tests`` with ``site`` written into ``checkout``, whose
    original module is put back afterwards."""
    target = checkout / "src" / "semifree" / f"{site.module}.py"
    original = target.read_text()
    target.write_text(site.apply(original))
    try:
        return run_tests(checkout, tests, limit)
    finally:
        target.write_text(original)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--modules", nargs="+", default=list(ENGINE_MODULES),
                        help="module names under src/semifree (default: the engine's)")
    parser.add_argument("--sample", type=int, default=40, help="mutants per module (default 40)")
    parser.add_argument("--seed", type=int, default=0, help="the sampling seed (default 0)")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="wall limit in seconds of one subset run, and four times it"
                        " of one whole-suite rerun (default 120)")
    parser.add_argument("--tests", nargs="+",
                        help="the pytest subset of every module (default: each module's"
                        " own, the six engine test files and its own tests)")
    parser.add_argument("--site", action="append", default=[],
                        help="run just the mutant at module.py:line:col, as the report"
                        " names it, instead of a sample (repeatable)")
    args = parser.parse_args(argv)

    if args.site:
        args.modules = sorted({key.split(".py:")[0] for key in args.site})
    sources = {m: (PACKAGE / f"{m}.py").read_text() for m in args.modules}
    by_module = {m: sites(m, source) for m, source in sources.items()}
    if args.site:
        named = {s.describe().split(": ")[0]: s for found in by_module.values() for s in found}
        missing = [key for key in args.site if key not in named]
        if missing:
            parser.error(f"no mutation site at {', '.join(missing)}")
        sample = [named[key] for key in args.site]
    else:
        # Each module draws from its own stream, so its sample does not
        # depend on which other modules run.
        sample = [
            s
            for m in args.modules
            for s in random.Random(f"{args.seed}/{m}").sample(
                by_module[m], min(args.sample, len(by_module[m]))
            )
        ]
    subsets = {m: tuple(args.tests or MODULE_TESTS.get(m, ENGINE_TESTS)) for m in args.modules}
    drawn = "named" if args.site else f"seed {args.seed}"
    print(f"{drawn}; sites: " + ", ".join(f"{m} {len(s)}" for m, s in by_module.items()))

    outcomes: dict[Site, str] = {}
    whole_suite = None  # the unmutated copy's, run before the first rerun
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        checkout = Path(scratch) / "checkout"
        shutil.copytree(ROOT, checkout, ignore=SKIP_IN_COPY)
        # A failing test would count every mutant as killed.
        for tests in dict.fromkeys(subsets.values()):
            outcome, failed = run_tests(checkout, tests, args.timeout)
            if outcome != "survived":
                print(f"the unmutated checkout fails the subset {' '.join(tests)}"
                      f" ({failed or outcome}): no mutant run")
                return 1
        for number, site in enumerate(sample, 1):
            start = time.perf_counter()
            outcome, failed = run_mutant(site, checkout, subsets[site.module], args.timeout)
            if outcome == "survived" and whole_suite is None:
                whole_suite = run_tests(checkout, ["tests"], 4 * args.timeout)
                if whole_suite[0] != "survived":
                    print(f"the unmutated checkout fails the whole suite"
                          f" ({whole_suite[1] or whole_suite[0]}): no survivor is rerun")
            if outcome == "survived" and whole_suite[0] == "survived":
                outcome, failed = run_mutant(site, checkout, ["tests"], 4 * args.timeout)
                outcome = {
                    "killed": "killed by the whole suite",
                    "survived": "survived",
                    "timeout": "timeout (whole suite)",
                }[outcome]
            outcomes[site] = outcome + (f": {failed}" if failed else "")
            print(f"[{number}/{len(sample)}] {site.describe()}: {outcomes[site]}"
                  f" ({time.perf_counter() - start:.1f} s)", flush=True)

    print("\nkill rate per module (a timeout is neither killed nor survived)")
    for module in args.modules:
        mine = [o for s, o in outcomes.items() if s.module == module]
        if not mine:
            continue
        killed = sum(o.startswith("killed") for o in mine)
        timeouts = sum(o.startswith("timeout") for o in mine)
        print(f"{module}: {killed}/{len(mine)} killed ({100 * killed / len(mine):.0f}%),"
              f" {len(mine) - killed - timeouts} survived, {timeouts} timed out")
    for title, prefix in (("survivors", "survived"), ("timeouts", "timeout")):
        listed = sorted((s for s, o in outcomes.items() if o.startswith(prefix)),
                        key=lambda s: (s.module, s.line, s.col))
        print(f"\n{title}: {len(listed)}")
        for site in listed:
            source = sources[site.module].splitlines()[site.line - 1]
            print(f"  {site.describe()}    {source.strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
