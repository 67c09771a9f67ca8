"""Data sets shared by the tests that compare outputs over a corpus.

The family presets and the fuzz pools are the benchmark's own
(``perfbench/workloads.py``), so a test over them covers exactly the
data that the benchmark measures. That module needs only the standard
library to build them. ``enumerated_members`` are the data that
``enumerate`` admits at genus <= 1, b in -2..2. ``middle_orderings`` is
the reference set of crossing orders, and ``filtered_orderings`` the
ones of them that the chain engine's descent is checked against.
"""

from __future__ import annotations

import importlib.util
import itertools
import sys
from functools import lru_cache
from pathlib import Path

from semifree import classifier
from semifree.classifier import family_instance
from semifree.delzant import builtin_examples, extract_fixed_data
from semifree.fixed_points import FixedPointData, classify_type

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@lru_cache(maxsize=None)
def perfbench_module(stem: str):
    """``perfbench/<stem>.py``, loaded from its file as a module."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}", _PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _workloads():
    return perfbench_module("workloads")


def family_presets() -> list[tuple[str, FixedPointData]]:
    """The 71 ``family_instance`` presets of the benchmark, by name."""
    out = []
    for tag, params in _workloads().family_grid():
        args = ",".join(f"{k}={int(v)}" for k, v in sorted(params.items()))
        out.append((f"{tag}({args})", family_instance(tag, **params)))
    return out


def builtin_data() -> list[tuple[str, FixedPointData]]:
    """The fixed point data extracted from each builtin polytope."""
    return [
        (name, extract_fixed_data(polytope))
        for name, polytope in sorted(builtin_examples().items())
    ]


def fuzz_data(seed: int) -> list[tuple[str, FixedPointData]]:
    """Every datum of fuzz pool ``seed``, by name."""
    return [
        (f"fuzz{seed}#{position}", FixedPointData.loads(raw.decode()))
        for position, raw in enumerate(_workloads().fuzz_pool(seed))
    ]


def classified_fuzz_data(seed: int) -> list[tuple[str, FixedPointData]]:
    """The data of fuzz pool ``seed`` that ``classify_type`` accepts."""
    return [
        (name, data)
        for name, data in fuzz_data(seed)
        if classify_type(data) != "unclassified"
    ]


@lru_cache(maxsize=None)
def enumerated_members() -> tuple[tuple[str, FixedPointData], ...]:
    """The members that ``enumerate_types(1, (-2, 2))`` admits, by family."""
    families = classifier.enumerate_types(max_genus=1, b_range=(-2, 2)).families
    return tuple(
        (f"member{family}#{position}", data)
        for family, members in sorted(families.items())
        for position, data in enumerate(members)
    )


def middle_orderings(data: FixedPointData) -> list[tuple[int, ...]]:
    """Every crossing order: each level's middles in every order, levels upward."""
    groups: dict = {}
    for pos, comp in enumerate(data.components):
        if not (comp.is_minimum or comp.is_maximum):
            groups.setdefault(comp.level, []).append(pos)
    pools = [list(itertools.permutations(groups[level])) for level in sorted(groups)]
    return [tuple(itertools.chain.from_iterable(combo)) for combo in itertools.product(*pools)]


def filtered_orderings(data: FixedPointData) -> list[tuple[int, ...]]:
    """The first of the ``middle_orderings`` with each step-key sequence:
    the crossing orders that the chain engine's descent walks, in order."""
    seen, out = set(), []
    for ordering in middle_orderings(data):
        steps = tuple(classifier._step_key(pos, data.components[pos]) for pos in ordering)
        if steps not in seen:
            seen.add(steps)
            out.append(ordering)
    return out
