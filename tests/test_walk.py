"""The memoized chain walk against the recursive walk it replaced.

``_advance`` below is the recursive walk the classifier used before the
walk remembered its prefixes; it is kept here as the oracle. It keeps
each chart's Euler class as ``Poly`` entries (``oracles.euler_polys``
and ``with_euler`` translate), forms every equation by ``Poly``
arithmetic on whole pairings (``oracles.dot``) and closes its branches
with ``oracles.terminal_variants``, the engine's former closing step,
handing each branch its equations' terms as the engine does, so
it shares no equation-building code with ``_cross`` and
``_terminal_variants``, which sum each equation in one monomial dict
from number vectors.
The shared descent must give the same branches in the same order as
the oracle run over each crossing order it walks (``filtered_orderings``)
in turn, so the solver sees the same systems and the first-wins choice
of a solution is unchanged.
"""

import pytest

from semifree import classifier
from semifree.fixed_points import FixedPointData, InvalidDataError, point, surface

from corpus import family_presets, filtered_orderings, fuzz_data
from oracles import Poly, dot, euler_polys, terminal_variants, with_euler


def _advance(data, chart, ordering, equations, crossings, out):
    if not ordering:
        for extra, top in terminal_variants(data, chart):
            out.append(
                classifier._Branch(
                    tuple(e.terms for e in (*equations, *extra)), tuple(crossings), top
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
        list(branch.equations),
        [(log.position, log.chart, log.eta_vars) for log in branch.crossings],
        branch.top,
    )


def _outcome(build):
    try:
        return [_view(branch) for branch in build()]
    except (InvalidDataError, NotImplementedError) as exc:
        return (type(exc), str(exc))


def _compare_walks(data_sets):
    """Compare the descent of every datum, one shared dict per minimum,
    with the oracle's branches of its crossing orders, concatenated."""
    walks_by_minimum: dict = {}
    compared = 0
    for data in data_sets:
        walks = walks_by_minimum.setdefault(data.minimum, {})
        orderings = filtered_orderings(data)
        expected = _outcome(
            lambda: [b for ordering in orderings for b in _oracle_branches(data, ordering)]
        )
        got = _outcome(lambda: list(classifier._branches(data, walks)))
        assert got == expected, data
        compared += len(orderings)
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
    # A refused step stores nothing, so each walk takes it and raises
    # afresh, and the chain check raises the refusal instead of a "no".
    data = _refused_datum()
    walks: dict = {}
    for _ in range(2):
        with pytest.raises(NotImplementedError, match=r"c1\.c1 > 0"):
            classifier._chain_solutions(data, walks)
        assert walks and all(isinstance(states, list) for states in walks.values())
    with pytest.raises(NotImplementedError, match=r"c1\.c1 > 0"):
        classifier.euler_chain_check(data)


def test_an_order_that_fails_to_walk_raises_after_the_earlier_orders_are_solved(monkeypatch):
    # Two lines of the plane at one level have two crossing orders. The
    # second one's first step is made to refuse: by then the first
    # order's branches must be solved, one system each.
    data = FixedPointData(
        (point(0, 0), surface(2, 1, genus=0), surface(2, 1, genus=0), point(6, 2))
    )
    assert filtered_orderings(data) == [(1, 2), (2, 1)]
    events = []
    cross, solve = classifier._cross, classifier.solve_system

    def refusing_cross(state, pos, comp):
        if pos == 2 and not state.crossings:
            events.append("refused")
            raise NotImplementedError("refused for the test")
        return cross(state, pos, comp)

    def recording_solve(equations):
        events.append("solved")
        return solve(equations)

    monkeypatch.setattr(classifier, "_cross", refusing_cross)
    monkeypatch.setattr(classifier, "solve_system", recording_solve)
    branches = _oracle_branches(data, (1, 2))
    assert branches
    with pytest.raises(NotImplementedError, match="refused for the test"):
        classifier._chain_solutions(data)
    assert events == ["solved"] * len(branches) + ["refused"]
