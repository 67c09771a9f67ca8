"""Soundness of the chain engine's skipped orderings.

``_chain_solutions`` and ``_solve_prefix`` walk only the first of the
orderings whose step keys repeat. The references below walk every
ordering with the recursive oracle of ``tests/test_walk.py``, which
shares no walk code with the package, and solve each branch with the
same first-wins rule; they must give the same solutions or the same
error. They run on every datum with more than one ordering, so a skip
that drops an ordering it should walk shows too.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from semifree import classifier
from semifree._solve import SolverStallError, solve_system
from semifree.fixed_points import FixedPointData, InvalidDataError, point, surface
from semifree.localization import MultipleSolutionsError

from corpus import fuzz_data, middle_orderings
from oracles import Poly
from test_walk import _oracle_branches

ERRORS = (InvalidDataError, NotImplementedError, SolverStallError, MultipleSolutionsError)


def _step_keys(data, ordering) -> tuple:
    steps = []
    for pos in ordering:
        comp = data.components[pos]
        if comp.is_surface:
            steps.append(("S", pos, comp.genus, comp.b_plus, comp.b_minus))
        else:
            steps.append(("P", comp.index))
    return tuple(steps)


def _repeats_step_keys(data) -> bool:
    keys = [_step_keys(data, o) for o in middle_orderings(data)]
    return len(set(keys)) < len(keys)


def _reordered(data_sets) -> tuple:
    return tuple(d for d in data_sets if len(middle_orderings(d)) > 1)


@lru_cache(maxsize=None)
def _fuzz_data_reordered() -> tuple:
    return _reordered(data for _, data in fuzz_data(1))


@lru_cache(maxsize=None)
def _shapes_reordered() -> tuple:
    return _reordered(classifier._shapes(range(2), range(-2, 3)))


def _every_branch(data):
    """The branches of every ordering, each walked by the oracle."""
    return [
        branch for ordering in middle_orderings(data) for branch in _oracle_branches(data, ordering)
    ]


def _reference_chain_solutions(data):
    classifier._structural_check(data)
    solutions: dict = {}
    for branch in _every_branch(data):
        for sol in solve_system(list(branch.equations)):
            if sol.free:
                raise MultipleSolutionsError("the Euler chain is underdetermined for this data")
            resolved = classifier._resolve_branch(branch, sol.as_dict())
            if resolved is not None:
                solutions.setdefault(resolved.key, resolved)
    return list(solutions.values())


def _reference_solve_prefix(shape):
    by_square: dict = {}
    for branch in _every_branch(shape):
        try:
            solutions = solve_system(list(branch.equations[:-1]))
        except SolverStallError:
            return None
        for sol in solutions:
            if sol.free:
                return None
            values = sol.as_dict()
            resolved = classifier._resolve_branch(branch, values)
            if resolved is not None:
                square = Poly(branch.equations[-1]).substitute(values).constant_value()
                found = by_square.setdefault(square, {})
                found.setdefault(resolved.key, resolved)
    return {square: list(found.values()) for square, found in by_square.items()}


def _outcome(compute):
    try:
        return compute()
    except ERRORS as exc:
        return (type(exc), str(exc))


def test_some_data_repeat_their_step_keys():
    assert sum(map(_repeats_step_keys, _fuzz_data_reordered())) >= 40
    assert sum(map(_repeats_step_keys, _shapes_reordered())) >= 40


@pytest.mark.parametrize("source", ["fuzz", "shapes"])
def test_skipping_repeated_orderings_keeps_the_chain_solutions(source):
    data_sets = _fuzz_data_reordered() if source == "fuzz" else _shapes_reordered()
    for data in data_sets:
        expected = _outcome(lambda: _reference_chain_solutions(data))
        assert _outcome(lambda: classifier._chain_solutions(data)) == expected, data


def _surface_maximum_shapes_with_repeats() -> list:
    """Shapes under a surface maximum whose index-2 and index-4 points pair up.

    The enumeration never builds these: below a surface maximum it has
    at most one point of each index, so none of its prefix solves
    repeats a step key. Their walks stop early, at rank 4 on a sphere
    or for want of an exceptional class above it.
    """
    shapes = []
    for genus in range(3):
        for b in range(-2, 3):
            for middles in (
                (point(2, 1), point(2, 1), point(4, 2), point(4, 2)),
                (point(2, 1), point(2, 1), surface(2, 2, genus=0), point(4, 3), point(4, 3)),
            ):
                top = surface(4, middles[-1].level + 1, genus=0, b=0)
                minimum = surface(0, 0, genus=genus, b=b)
                shapes.append(FixedPointData((minimum, *middles, top)))
    return shapes


def test_skipping_repeated_orderings_keeps_the_prefix_solutions():
    shapes = [s for s in _shapes_reordered() if not s.maximum.is_point]
    shapes += _surface_maximum_shapes_with_repeats()
    for shape in shapes:
        assert classifier._solve_prefix(shape) == _reference_solve_prefix(shape), shape
