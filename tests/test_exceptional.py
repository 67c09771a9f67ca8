"""The exact search for exceptional classes, K.K = -1 and c1.K = 1.

Two oracles that owe nothing to the search itself:

- the classical counts of exceptional curves on the plane blown up k
  times (Manin, *Cubic Forms*): 1, 3, 6, 10, 16, 27, 56 and 240 for
  k = 1..8, in the standard chart and under seeded unimodular changes
  of basis;
- ``_ranked_minus_one_classes`` below, the search the classifier used
  before it had one code path for every rank. It knows ranks 1 to 3
  and stops beyond them. Both must find the same classes on every
  search that the fuzz pools, the small enumeration and the presets
  make.
"""

import random
from math import ceil, floor, gcd, isqrt

import pytest

from semifree import classifier
from semifree._solve import (
    SolverStallError,
    _rational_roots,
    sqrt_fraction,
    unimodular_clearing,
)
from semifree.algebra import _dot
from semifree.cli import RunConfig, run
from semifree.fixed_points import FixedPointData, point, surface
from semifree.rationals import qdiv

from corpus import family_presets, fuzz_data

DEL_PEZZO_COUNTS = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}


def _ranked_minus_one_classes(gram, c1):
    """The per-rank search: a check at rank 1, a quadratic at rank 2, a
    conic sweep at rank 3, and NotImplementedError beyond."""
    if any(c.denominator != 1 for c in c1):
        return []
    c1_int = [c.numerator for c in c1]
    functional = classifier._pairing_functional(gram, c1_int)
    g = 0
    for value in functional:
        g = gcd(g, value)
    if g != 1:
        return []
    clearing = unimodular_clearing(functional)
    k0 = clearing[0]
    basis = clearing[1:]
    c0 = _dot(gram, k0, k0)
    if not basis:
        return [tuple(k0)] if c0 == -1 else []
    m = [[_dot(gram, bi, bj) for bj in basis] for bi in basis]
    b = [_dot(gram, bi, k0) for bi in basis]
    out = []

    def emit(t):
        out.append(tuple(
            k0[j] + sum(t[i] * basis[i][j] for i in range(len(basis)))
            for j in range(len(k0))
        ))

    if len(basis) == 1:
        for root in _rational_roots([c0 + 1, 2 * b[0], m[0][0]]) or []:
            if root.denominator == 1:
                emit([root.numerator])
        return out
    if len(basis) == 2:
        det = m[0][0] * m[1][1] - m[0][1] ** 2
        if m[0][0] >= 0 or det <= 0:
            return []
        t_star = [
            qdiv(-b[0] * m[1][1] + b[1] * m[0][1], det),
            qdiv(-b[1] * m[0][0] + b[0] * m[0][1], det),
        ]
        phi0 = c0 + 1 + b[0] * t_star[0] + b[1] * t_star[1]
        if phi0 < 0:
            return []
        d1 = m[1][1] - qdiv(m[0][1] ** 2, m[0][0])
        span = qdiv(phi0, -d1)
        root_span = sqrt_fraction(span)
        if root_span is None:
            root_span = isqrt(span.numerator // span.denominator) + 1
        lam = qdiv(m[0][1], m[0][0])
        for t1 in range(ceil(t_star[1] - root_span), floor(t_star[1] + root_span) + 1):
            s1 = t1 - t_star[1]
            value = qdiv(-phi0 - d1 * s1 * s1, m[0][0])
            if value < 0:
                continue
            root = sqrt_fraction(value)
            if root is None:
                continue
            center0 = t_star[0] - lam * s1
            for t0 in {center0 + root, center0 - root}:
                if t0.denominator == 1:
                    emit([t0.numerator, t1])
        return out
    raise NotImplementedError("exceptional search beyond rank 3")


# ---------------------------------------------------------------------------
# the del Pezzo counts


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def _vec_mat(v, a):
    return tuple(sum(v[k] * a[k][j] for k in range(len(a))) for j in range(len(a[0])))


def _unimodular_pair(n, rng, steps=12):
    """A seeded unimodular matrix and its inverse, from elementary row operations."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    p_inv = [row[:] for row in p]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        e = [[int(r == s) for s in range(n)] for r in range(n)]
        e_inv = [row[:] for row in e]
        e[i][j], e_inv[i][j] = c, -c
        p, p_inv = _mat_mul(e, p), _mat_mul(p_inv, e_inv)
    return p, p_inv


def _blown_up_plane(k):
    n = k + 1
    gram = [[(1 if i == 0 else -1) if i == j else 0 for j in range(n)] for i in range(n)]
    return gram, (3,) + (-1,) * k


@pytest.mark.parametrize("k", sorted(DEL_PEZZO_COUNTS))
def test_the_blown_up_plane_has_the_classical_count(k):
    gram, c1 = _blown_up_plane(k)
    classes = classifier._minus_one_classes(tuple(map(tuple, gram)), c1)
    assert len(classes) == len(set(classes)) == DEL_PEZZO_COUNTS[k]
    for cls in classes:
        assert _dot(gram, cls, cls) == -1
        assert _dot(gram, c1, cls) == 1
    rng = random.Random(k)
    for _ in range(3):
        # New basis f = P e: Gram P G P^T, coordinates x P^-1.
        p, p_inv = _unimodular_pair(k + 1, rng)
        new_gram = _mat_mul(_mat_mul(p, gram), [list(col) for col in zip(*p)])
        new_c1 = _vec_mat(c1, p_inv)
        moved = classifier._minus_one_classes(tuple(map(tuple, new_gram)), new_c1)
        assert len(moved) == len(set(moved)) == DEL_PEZZO_COUNTS[k]
        for cls in moved:
            assert _dot(new_gram, cls, cls) == -1
            assert _dot(new_gram, new_c1, cls) == 1
        assert {_vec_mat(cls, p) for cls in moved} == set(classes)


def test_the_plane_blown_up_nine_times_is_refused():
    gram, c1 = _blown_up_plane(9)
    with pytest.raises(NotImplementedError, match=r"c1\.c1 > 0"):
        classifier._minus_one_classes(tuple(map(tuple, gram)), c1)


def test_each_search_is_kept_once_as_a_tuple():
    # The search is memoized per (gram, c1) for the process, so a caller
    # gets the one shared result, which must not be mutable.
    gram, c1 = _blown_up_plane(6)
    first = classifier._minus_one_classes(tuple(map(tuple, gram)), c1)
    assert type(first) is tuple and all(type(cls) is tuple for cls in first)
    assert classifier._minus_one_classes(tuple(map(tuple, gram)), tuple(c1)) is first
    other_gram, other_c1 = _blown_up_plane(5)
    other = classifier._minus_one_classes(tuple(map(tuple, other_gram)), other_c1)
    assert type(other) is tuple and len(other) == DEL_PEZZO_COUNTS[5]


def test_a_refused_search_raises_on_every_call():
    gram, c1 = _blown_up_plane(9)
    for _ in range(3):
        with pytest.raises(NotImplementedError, match=r"c1\.c1 > 0"):
            classifier._minus_one_classes(tuple(map(tuple, gram)), c1)


@pytest.mark.parametrize("b", range(-3, 4))
def test_sphere_minimum_start_charts(b):
    chart = classifier._start_chart(surface(0, 0, genus=0, b=b))
    classes = classifier._minus_one_classes(chart.gram, chart.c1)
    assert len(classes) == b % 2
    for cls in classes:
        assert _dot(chart.gram, cls, cls) == -1
        assert _dot(chart.gram, chart.c1, cls) == 1


# ---------------------------------------------------------------------------
# the differential test against the per-rank search


def _recorded_searches(monkeypatch, run):
    """The (gram, c1) of every search that ``run`` makes, in call order."""
    searches = []
    search = classifier._minus_one_classes

    def record(gram, c1):
        searches.append((tuple(map(tuple, gram)), tuple(c1)))
        return search(gram, c1)

    monkeypatch.setattr(classifier, "_minus_one_classes", record)
    run()
    monkeypatch.undo()
    return searches


def _check_every_datum(data_sets):
    for _, data in data_sets:
        try:
            classifier.euler_chain_check(data)
        except SolverStallError:
            pass


def test_one_search_agrees_with_the_per_rank_search(monkeypatch):
    searches = []
    for seed in (1, 2):
        searches += _recorded_searches(monkeypatch, lambda: _check_every_datum(fuzz_data(seed)))
    searches += _recorded_searches(monkeypatch, lambda: _check_every_datum(family_presets()))
    searches += _recorded_searches(
        monkeypatch, lambda: classifier.enumerate_types(1, (-2, 2))
    )
    assert len(searches) > 1000
    beyond = 0
    # The search is a pure function of (gram, c1): each distinct pair once.
    for gram, c1 in dict.fromkeys(searches):
        classes = classifier._minus_one_classes(gram, c1)
        assert len(classes) == len(set(classes))
        if len(gram) > 3:
            with pytest.raises(NotImplementedError, match="beyond rank 3"):
                _ranked_minus_one_classes(gram, c1)
            beyond += 1
        else:
            assert set(classes) == set(_ranked_minus_one_classes(gram, c1)), (gram, c1)
    assert beyond == 1


def test_three_blow_ups_then_three_blow_downs_have_one_chain():
    # Rank 4 is reached after the third blow-up; the per-rank search
    # stopped there, and the chain check read its stop as "no".
    data = FixedPointData(
        (
            point(0, 0),
            *(point(2, level) for level in (1, 2, 3)),
            *(point(4, level) for level in (4, 5, 6)),
            point(6, 7),
        )
    )
    solutions, unbounded = classifier._chain_solutions(data)
    assert len(solutions) == 1 and not unbounded
    code, out = run(RunConfig(command="classify"), data.dumps().encode())
    assert code == 0
    assert "wall-crossing chain consistent: yes" in out.decode().splitlines()
