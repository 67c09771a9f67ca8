"""The memoized chain walk against the recursive walk it replaced.

``_advance`` below is the recursive walk the classifier used before the
walk remembered its prefixes; it is kept here as the oracle. It keeps
each chart's Euler class as ``Poly`` entries (``oracles.euler_polys``
and ``with_euler`` translate), forms every equation by ``Poly``
arithmetic on whole pairings (``oracles.dot``) and closes its branches
with ``oracles.terminal_variants``, the engine's former closing step, so
it shares no equation-building code with ``_cross`` and
``_terminal_variants``, which sum each equation in one monomial dict
from number vectors.
The shared walk must give the same branches in the same order, so the
solver sees the same systems and the first-wins choice of a solution is
unchanged.
"""

import pytest

from semifree import classifier
from semifree._solve import Poly
from semifree.fixed_points import FixedPointData, InvalidDataError, point

from corpus import family_presets, fuzz_data, middle_orderings
from oracles import dot, euler_polys, terminal_variants, with_euler


def _advance(data, chart, ordering, equations, crossings, out):
    if not ordering:
        for extra, top in terminal_variants(data, chart):
            out.append(
                classifier._Branch(
                    tuple(equations) + tuple(extra), tuple(crossings), top
                )
            )
        return
    pos, rest = ordering[0], ordering[1:]
    comp = data.components[pos]
    euler = euler_polys(chart)
    if comp.is_surface:
        names = tuple(f"eta{pos}_{i}" for i in range(chart.rank))
        eta = [Poly.var(name) for name in names]
        eqs = list(equations)
        genus = comp.genus or 0
        eqs.append(
            dot(chart.gram, eta, eta)
            - dot(chart.gram, [Poly.const(c) for c in chart.c1], eta)
            + Poly.const(2 - 2 * genus)
        )
        if comp.b_minus is not None:
            eqs.append(dot(chart.gram, euler, eta) + Poly.const(comp.b_minus))
        if comp.b_plus is not None:
            eqs.append(
                dot(chart.gram, euler, eta)
                + dot(chart.gram, eta, eta)
                - Poly.const(comp.b_plus)
            )
        new_chart = with_euler(chart, tuple(e + v for e, v in zip(euler, eta)))
        log = classifier._CrossingLog(pos, chart, names)
        _advance(data, new_chart, rest, eqs, crossings + [log], out)
        return
    if comp.index == 2:
        _advance(data, classifier._blow_up(chart), rest, equations, crossings, out)
        return
    if comp.index == 4:
        for k_class in classifier._blow_down_candidates(chart):
            condition = dot(chart.gram, euler, k_class) - 1
            if isinstance(condition, Poly) and condition.is_constant():
                if condition.constant_value():
                    continue
                extra = []
            elif isinstance(condition, Poly):
                extra = [condition]
            else:
                if condition:
                    continue
                extra = []
            contracted = classifier._blow_down(chart, k_class)
            _advance(data, contracted, rest, equations + extra, crossings, out)
        return
    raise InvalidDataError(f"cannot cross {comp.describe()}")


def _oracle_branches(data, ordering):
    out = []
    _advance(data, classifier._start_chart(data.minimum), ordering, [], [], out)
    return out


def _view(branch):
    """Everything of a branch that the solve and its resolution read."""
    return (
        [e.terms for e in branch.equations],
        [(log.position, log.chart, log.eta_vars) for log in branch.crossings],
        branch.top,
    )


def _outcome(build):
    try:
        return [_view(branch) for branch in build()]
    except (InvalidDataError, NotImplementedError) as exc:
        return (type(exc), str(exc))


def _compare_walks(data_sets):
    """Compare every ordering of every datum, one shared dict per minimum."""
    walks_by_minimum: dict = {}
    compared = 0
    for data in data_sets:
        walks = walks_by_minimum.setdefault(data.minimum, {})
        for ordering in middle_orderings(data):
            expected = _outcome(lambda: _oracle_branches(data, ordering))
            got = _outcome(lambda: classifier._branches(data, ordering, walks))
            assert got == expected, (data, ordering)
            compared += 1
    return compared


def test_shared_walk_matches_the_recursive_walk_on_enumeration_shapes():
    shapes = list(classifier._shapes(range(2), range(-2, 3)))
    assert _compare_walks(shapes) > len(shapes)


def test_shared_walk_matches_the_recursive_walk_on_the_fuzz_pool():
    data_sets = [data for _, data in fuzz_data(1)]
    assert _compare_walks(data_sets) > len(data_sets)


def test_shared_walk_matches_the_recursive_walk_on_the_holdout_fuzz_pool():
    data_sets = [data for _, data in fuzz_data(2)]
    assert _compare_walks(data_sets) > len(data_sets)


def test_shared_walk_matches_the_recursive_walk_on_the_family_presets():
    data_sets = [data for _, data in family_presets()]
    assert _compare_walks(data_sets) > len(data_sets)


def _refused_datum():
    # Nine blow-ups of the plane leave c1.c1 = 0, where the (-1)-class
    # search refuses: the classes are no longer a finite set.
    return FixedPointData(
        (
            point(0, 0),
            *(point(2, level) for level in range(1, 10)),
            point(4, 10),
            point(6, 11),
        )
    )


def test_a_failed_step_is_raised_again_from_the_shared_walks():
    data = _refused_datum()
    walks: dict = {}
    for _ in range(2):
        with pytest.raises(NotImplementedError, match=r"c1\.c1 > 0"):
            classifier._chain_solutions(data, walks)
    assert sum(isinstance(v, NotImplementedError) for v in walks.values()) == 1
    assert classifier.euler_chain_check(data) is False
