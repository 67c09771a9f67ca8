"""The chain engine's pairings and the solver's kernel against plain references.

``tests/test_walk.py``'s oracle pairs with ``oracles.dot``, so a fault
in a pairing helper of the engine would show there only as a different
branch. Here the pairings that the walk uses, ``_dot`` on numbers,
``_pair_parts`` on vectors affine in the unknowns (summed into a
prefilled monomial dict) and ``_pairing_functional``, are checked against the sum over i, j of
a_i g_ij b_j written out term by term in ``Poly`` arithmetic, on the
Gram matrices the walk reaches. ``Poly.substitute`` (the oracles' class
over the solver's ``_substitute``) and ``_mono_mul`` are checked against
references on plain dicts that share no code with either.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from semifree import classifier
from semifree._solve import SolverStallError, _mono_mul
from semifree.fixed_points import InvalidDataError, point

from corpus import fuzz_data
from oracles import Poly, with_euler

NAMES = ("a", "b", "x", "y")


@lru_cache(maxsize=None)
def _reached_grams() -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The distinct Gram matrices of rank 1-3 that the chain walk reaches."""
    data_sets = list(classifier._shapes(range(2), range(-2, 3)))
    data_sets += [data for _, data in fuzz_data(1)]
    grams = set()
    for data in data_sets:
        walks: dict = {}
        try:
            classifier._chain_solutions(data, walks)
        except (InvalidDataError, NotImplementedError, SolverStallError):
            pass
        for states in walks.values():
            for state in states:
                charts = [state.top] + [log.chart for log in state.crossings]
                grams.update(chart.gram for chart in charts)
    return tuple(sorted(g for g in grams if 1 <= len(g) <= 3))


def test_the_walk_reaches_grams_of_every_rank():
    assert {len(g) for g in _reached_grams()} == {1, 2, 3}


def _scalar(rng: random.Random):
    if rng.random() < 0.5:
        return rng.randint(-4, 4)
    return Fraction(rng.randint(-6, 6), rng.randint(2, 4))


def _affine(rng: random.Random, names=NAMES) -> Poly:
    acc = {(): _scalar(rng)}
    for name in rng.sample(names, rng.randint(0, 3)):
        acc[((name, 1),)] = _scalar(rng)
    return Poly.from_dict(acc)


def _vector(rng: random.Random, n: int) -> list:
    """Ints, Fractions, or a mix of them (zeros included)."""
    kind = rng.choice(("int", "fraction", "mixed"))
    out = []
    for _ in range(n):
        pick = kind if kind != "mixed" else rng.choice(("int", "fraction"))
        if pick == "int":
            out.append(rng.randint(-3, 3))
        else:
            out.append(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
    return out


def _parts(rng: random.Random, n: int) -> tuple[list, list]:
    """A vector affine in the unknowns as ``(monomial, number vector)``
    parts, as ``_Chart.euler_parts`` gives, and as ``Poly`` entries."""
    parts = [((), _vector(rng, n))]
    for name in sorted(rng.sample(NAMES, rng.randint(0, 3))):
        parts.append((((name, 1),), _vector(rng, n)))
    return parts, [Poly.from_dict({m: vec[j] for m, vec in parts}) for j in range(n)]


def _as_poly(value) -> Poly:
    return value if isinstance(value, Poly) else Poly.const(value)


def _written_out(gram, a, b) -> Poly:
    """The sum over i, j of a_i g_ij b_j, one ``Poly`` product per term."""
    total = Poly(())
    for i in range(len(gram)):
        for j in range(len(gram)):
            total = total + _as_poly(a[i]) * Poly.const(gram[i][j]) * _as_poly(b[j])
    return total


def _assert_canonical_scalar(value) -> None:
    assert type(value) is (int if value.denominator == 1 else Fraction)


def test_dot_matches_the_written_out_sum():
    rng = random.Random(12001)
    for gram in _reached_grams():
        n = len(gram)
        for _ in range(40):
            a, b = _vector(rng, n), _vector(rng, n)
            got = classifier._dot(gram, a, b)
            _assert_canonical_scalar(got)
            assert Poly.const(got) == _written_out(gram, a, b), (gram, a, b)


def _prefilled(rng: random.Random, expected: Poly) -> Poly:
    start = _affine(rng, names=("x", "y", "eta7_0"))
    if rng.random() < 0.3:
        # Terms that the sum cancels leave zero coefficients behind.
        start = -expected + start
    return start


def test_pair_parts_adds_the_written_out_sum_into_a_prefilled_dict():
    rng = random.Random(12002)
    for gram in _reached_grams():
        n = len(gram)
        for _ in range(40):
            (left, a), (right, b) = _parts(rng, n), _parts(rng, n)
            if rng.random() < 0.3:
                # A vector paired with itself, as e.e: each two parts once.
                right, b = left, a
            start = _prefilled(rng, _written_out(gram, a, b))
            acc = dict(start.terms)
            assert classifier._pair_parts(gram, left, right, acc) is acc
            assert Poly.from_dict(acc) == start + _written_out(gram, a, b), (gram, left, right)


def _blow_down_state(euler):
    """A walk state on the plane blown up twice, gram diag(1, -1, -1)."""
    chart = classifier._blow_up(classifier._blow_up(classifier._start_chart(point(0, 0))))
    return classifier._Branch((), (), with_euler(chart, euler))


def test_a_blow_down_condition_whose_unknowns_cancel_is_a_constant():
    # With e = (x, -x, c), e.K = c for K = H - E1 - E2: x cancels, so
    # e.K - 1 is a constant; it holds (c = 1) or kills the class (c = 2),
    # and in neither case is it an equation. e.E1 = x stays an equation.
    x = Poly.var("x")
    line = (1, -1, -1)
    for c, survives in ((1, True), (2, False)):
        state = _blow_down_state((x, -x, Poly.const(c)))
        assert line in classifier._blow_down_candidates(state.top)
        branches = classifier._cross(state, 5, point(4, 1))
        for branch in branches:
            assert not any(Poly(eq).is_constant() for eq in branch.equations), branch.equations
        assert ((x - 1).terms,) in [branch.equations for branch in branches]
        line_top = classifier._blow_down(state.top, line)
        assert any(b.equations == () and b.top == line_top for b in branches) is survives


def test_pairing_functional_matches_the_written_out_sum():
    rng = random.Random(12003)
    for gram in _reached_grams():
        n = len(gram)
        for _ in range(25):
            vec = [rng.randint(-3, 3) for _ in range(n)]
            functional = classifier._pairing_functional(gram, vec)
            for j in range(n):
                unit = [1 if k == j else 0 for k in range(n)]
                assert Poly.const(functional[j]) == _written_out(gram, vec, unit)


# ---------------------------------------------------------------------------
# references on plain dicts: {sorted monomial tuple: Fraction}


def _ref_mono_mul(a, b):
    exponents = Counter()
    for var, exp in list(a) + list(b):
        exponents[var] += exp
    return tuple(sorted(exponents.items()))


def _ref(value) -> dict:
    if isinstance(value, Poly):
        return {m: Fraction(c) for m, c in value.terms}
    return {(): Fraction(value)}


def _ref_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = _ref_mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return out


def _ref_substitute(poly: Poly, values) -> dict:
    out: dict = {}
    for m, c in poly.terms:
        term = {(): Fraction(c)}
        for var, exp in m:
            factor = _ref(values[var]) if var in values else {((var, 1),): Fraction(1)}
            for _ in range(exp):
                term = _ref_mul(term, factor)
        for mono, coeff in term.items():
            out[mono] = out.get(mono, 0) + coeff
    return out


def _assert_equals_ref(poly: Poly, ref: dict) -> None:
    expected = sorted((m, c) for m, c in ref.items() if c)
    assert [(m, Fraction(c)) for m, c in poly.terms] == expected
    for m, c in poly.terms:
        _assert_canonical_scalar(c)
        assert list(m) == sorted(m) and len({v for v, _ in m}) == len(m)


def _random_mono(rng: random.Random):
    names = rng.sample(NAMES, rng.randint(0, 3))
    return tuple(sorted((name, rng.randint(1, 3)) for name in names))


def _random_poly(rng: random.Random) -> Poly:
    return Poly.from_dict({_random_mono(rng): _scalar(rng) for _ in range(rng.randint(0, 5))})


def test_mono_mul_matches_the_reference():
    rng = random.Random(12004)
    for _ in range(2000):
        a, b = _random_mono(rng), _random_mono(rng)
        if rng.random() < 0.3:
            b = a  # equal variable names on both sides
        assert _mono_mul(a, b) == _ref_mono_mul(a, b), (a, b)


def test_substitute_matches_the_reference():
    rng = random.Random(12005)
    for _ in range(1500):
        poly = _random_poly(rng)
        values = {}
        for name in rng.sample(NAMES, rng.randint(1, 3)):
            pick = rng.random()
            if pick < 0.3:
                values[name] = rng.randint(-3, 3)
            elif pick < 0.5:
                values[name] = Fraction(rng.randint(-5, 5), rng.randint(2, 3))
            elif pick < 0.6:
                values[name] = Poly.const(_scalar(rng))
            else:
                # May mention the substituted names: the substitution
                # is simultaneous, as in the solver's back-substitution.
                values[name] = _random_poly(rng)
        _assert_equals_ref(poly.substitute(values), _ref_substitute(poly, values))


def test_pow_one_and_substitute_without_hits_return_the_same_poly():
    poly = Poly.from_dict({(("x", 2),): 3, (): Fraction(1, 2)})
    assert poly**1 is poly
    assert poly.substitute({"z": 5}) is poly
    assert poly**0 == Poly.const(1)
