"""Data sets shared by the tests that compare outputs over a corpus.

The family presets and the fuzz pools are the benchmark's own
(``perfbench/workloads.py``), so a test over them covers exactly the
data that the benchmark measures. That module needs only the standard
library to build them. ``enumerated_members`` are the data that
``enumerate`` admits at genus <= 1, b in -2..2, and ``hard_pool`` the
one-step perturbations of its members at the defaults, which reach the
engine's "yes" side more often than the fuzz pools. ``middle_orderings``
is the reference set of crossing orders, and ``filtered_orderings`` the
ones of them that the chain engine's descent is checked against.
"""

from __future__ import annotations

import importlib.util
import itertools
import random
import sys
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from semifree import classifier
from semifree.cli import RunConfig
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


def _reversed(data: FixedPointData) -> FixedPointData:
    """The datum of the inverse circle: levels mirrored, point indices
    k -> 6 - k, extreme surfaces 0 <-> 4 with their b, b+ <-> b-."""
    top = data.minimum.level + data.maximum.level

    def mirror(c):
        if c.is_point:
            return replace(c, level=top - c.level, index=6 - c.index)
        if c.index == 2:
            return replace(c, level=top - c.level, b_plus=c.b_minus, b_minus=c.b_plus)
        return replace(c, level=top - c.level, index=4 - c.index)

    return FixedPointData(tuple(map(mirror, data.components)), twist=data.twist)


def _perturbed(rng: random.Random, data: FixedPointData) -> tuple[str, FixedPointData]:
    """One move drawn among those that apply to ``data``, and its result."""
    comps = data.components
    middles = [i for i, c in enumerate(comps) if not (c.is_minimum or c.is_maximum)]
    surfaces = [i for i, c in enumerate(comps) if c.is_surface]
    moves = ["reverse", "twist"] + ["level"] * bool(middles) + ["b", "genus"] * bool(surfaces)
    move = rng.choice(moves)
    if move == "reverse":
        return move, _reversed(data)
    if move == "twist":
        return move, replace(data, twist=not data.twist)
    if move == "level":
        i = rng.choice(middles)
        low, high = data.minimum.level, data.maximum.level
        levels = sorted({comps[j].level for j in middles} | {Fraction(low + high, 2)})
        change = {"level": rng.choice(levels)}
    else:
        i = rng.choice(surfaces)
        c = comps[i]
        if move == "genus":
            step = 1 if c.genus == 0 else rng.choice((-1, 1))
            change = {"genus": c.genus + step}
        else:
            delta = rng.choice((-2, -1, 1, 2))
            if c.index != 2:
                change = {"b": c.b + delta}
            elif rng.random() < 0.5:
                change = {"b_plus": c.b_plus + delta}
            else:
                change = {"b_plus": c.b_plus + delta, "b_minus": c.b_minus - delta}
    moved = replace(comps[i], **change)
    label = ",".join(f"{key}={value}" for key, value in change.items())
    rest = comps[:i] + comps[i + 1 :]
    return f"{move}@{i}:{label}", FixedPointData((*rest, moved), twist=data.twist)


@lru_cache(maxsize=None)
def hard_pool(seed: int, draws: int = 4000) -> tuple[tuple[str, FixedPointData], ...]:
    """The distinct data of ``draws`` seeded one-step perturbations of the
    members that ``enumerate`` admits at its defaults, each named by its
    member and its move: a reversal, a twist flip, a middle moved onto a
    middle's level or the extremes' midpoint, +-1 or +-2 on a b or a b+
    (alone or against b-), or a genus step. Nothing is dropped but a
    repeat."""
    defaults = RunConfig(command="enumerate")
    families = classifier.enumerate_types(defaults.max_genus, defaults.b_range).families
    members = [
        (f"member{family}#{position}", data)
        for family, group in sorted(families.items())
        for position, data in enumerate(group)
    ]
    rng = random.Random(seed)
    seen, out = set(), []
    for _ in range(draws):
        name, data = rng.choice(members)
        move, moved = _perturbed(rng, data)
        if moved not in seen:
            seen.add(moved)
            out.append((f"{name}:{move}", moved))
    return tuple(out)


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
