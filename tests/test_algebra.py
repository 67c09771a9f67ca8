"""Tests for the equivariant class ring and the reduced space pairings."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semifree import classifier
from semifree.algebra import (
    CarrierMismatchError,
    _dot,
    EquivariantClass,
    NotInvertibleError,
    c1_reduced,
    fiber_class,
    _atoms,
    integrate_product,
    invert_euler,
    mul_terms,
    nontrivial_bundle,
    pair,
    projective_plane,
    trivial_bundle,
    ReducedClass,
)
from semifree._solve import Poly
from semifree.fixed_points import point, surface

F = Fraction

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
nonzero_rationals = rationals.filter(bool)


def surf(terms):
    return EquivariantClass.make("surface", terms)


def pt(terms):
    return EquivariantClass.make("point", terms)


# ---------------------------------------------------------------------------
# ring structure


def test_u_is_nilpotent():
    u = surf({0: (0, 1)})
    assert (u * u).is_zero()


def test_point_carrier_rejects_u_part():
    with pytest.raises(CarrierMismatchError):
        pt({0: (0, 1)})


def test_carrier_mismatch_rejected():
    with pytest.raises(CarrierMismatchError):
        surf({0: (1, 0)}) * pt({0: (1, 0)})


@given(nonzero_rationals, rationals, st.integers(-3, 3))
def test_invert_euler_left_and_right_inverse(c, d, k):
    e = surf({k: (c, 0), k - 1: (0, d)})
    inverse = invert_euler(e)
    unit = EquivariantClass.unit("surface")
    assert e * inverse == unit
    assert inverse * e == unit


@given(nonzero_rationals, st.integers(-3, 3))
def test_invert_euler_point_carrier(c, k):
    e = pt({k: (c, 0)})
    assert e * invert_euler(e) == EquivariantClass.unit("point")


def test_invert_euler_rejects_wide_classes():
    with pytest.raises(NotInvertibleError):
        invert_euler(surf({0: (1, 0), 2: (1, 0)}))
    with pytest.raises(NotInvertibleError):
        invert_euler(EquivariantClass.make("surface", {}))
    with pytest.raises(NotInvertibleError):
        # The u part must sit exactly one exponent below the scalar.
        invert_euler(surf({2: (1, 0), 0: (0, 1)}))


def _integrated(carrier, a, b):
    """``integrate_product`` of two term lists into a fresh total, each
    power's sum built as its ``Poly``."""
    total = {}
    integrate_product(carrier, _atoms(a), _atoms(b), total)
    return {k: p for k, acc in sorted(total.items()) if (p := Poly.from_dict(acc))}


def test_integrate_component_picks_the_right_part():
    # Times the unit class, the product is the class itself.
    one = ((0, (1, 0)),)
    assert _integrated("point", pt({-3: (F(1, 2), 0)}).terms, one) == {-3: Poly.const(F(1, 2))}
    assert _integrated(
        "surface", surf({-3: (F(7), 0), -2: (0, F(5))}).terms, one
    ) == {-2: Poly.const(5)}


# ---------------------------------------------------------------------------
# reduced spaces: Gram data frozen from the intersection forms


def test_projective_plane_gram():
    plane = projective_plane()
    u = ReducedClass.make(plane, 1)
    assert pair(u, u) == 1


@given(st.integers(0, 4), rationals, rationals, rationals, rationals)
def test_trivial_bundle_gram(genus, p1, q1, p2, q2):
    space = trivial_bundle(genus)
    a = ReducedClass.make(space, p1, q1)
    b = ReducedClass.make(space, p2, q2)
    assert pair(a, b) == p1 * q2 + q1 * p2


@given(st.integers(0, 4), rationals, rationals, rationals, rationals)
def test_nontrivial_bundle_gram(genus, p1, q1, p2, q2):
    space = nontrivial_bundle(genus)
    a = ReducedClass.make(space, p1, q1)
    b = ReducedClass.make(space, p2, q2)
    assert pair(a, b) == p1 * q2 + q1 * p2 - q1 * q2


def test_c1_reduced_values():
    assert c1_reduced(projective_plane()).coeffs == (F(3),)
    assert c1_reduced(trivial_bundle(2)).coeffs == (F(-2), F(2))
    assert c1_reduced(nontrivial_bundle(2)).coeffs == (F(-1), F(2))


def test_fiber_class_squares_to_zero_on_bundles():
    for space in (trivial_bundle(0), nontrivial_bundle(3)):
        x = fiber_class(space)
        assert pair(x, x) == 0


@pytest.mark.parametrize("genus", range(4))
def test_the_one_gram_source_meets_independent_invariants(genus):
    # c1^2 is 9 on the projective plane and 8(1 - g) on a sphere bundle
    # over a genus-g surface (Noether), and the fiber x of a bundle has
    # x.x = 0 and c1.x = 2. Checked through ``pair`` and through the
    # start charts of the chain engine, which read the same Gram data.
    plane = projective_plane()
    assert pair(c1_reduced(plane), c1_reduced(plane)) == 9
    chart = classifier._start_chart(point(0, 0))
    assert _dot(chart.gram, chart.c1, chart.c1) == 9
    for space in (trivial_bundle(genus), nontrivial_bundle(genus)):
        c1, x = c1_reduced(space), fiber_class(space)
        assert pair(c1, c1) == 8 * (1 - genus)
        assert (pair(x, x), pair(c1, x)) == (0, 2)
    for b in (-2, -1, 0, 1, 2, 3):
        chart = classifier._start_chart(surface(0, 0, genus=genus, b=b))
        assert chart.pristine.form == ("trivial_bundle" if b % 2 == 0 else "nontrivial_bundle")
        assert _dot(chart.gram, chart.c1, chart.c1) == 8 * (1 - genus)
        x = chart.fiber
        assert (_dot(chart.gram, x, x), _dot(chart.gram, chart.c1, x)) == (0, 2)


# ---------------------------------------------------------------------------
# the term multiplier against its plain formula


def _formula_mul_terms(a, b):
    """Every product ``c1 c2 + (c1 d2 + d1 c2) u`` formed, zero or not."""
    acc = {}
    for i, (c1, d1) in a:
        for j, (c2, d2) in b:
            c, d = c1 * c2, c1 * d2 + d1 * c2
            if i + j in acc:
                c0, d0 = acc[i + j]
                c, d = c0 + c, d0 + d
            acc[i + j] = (c, d)
    return tuple((k, (c, d)) for k, (c, d) in sorted(acc.items()) if c or d)


def _assert_canonical_scalar(x):
    """An int when integral, else a Fraction with denominator above 1."""
    assert type(x) is (int if x.denominator == 1 else Fraction)


def _assert_same_terms(got, expected):
    assert got == expected
    assert [k for k, _ in got] == sorted({k for k, _ in got})
    for (_, (c, d)), (_, (ce, de)) in zip(got, expected):
        assert c or d
        for x, xe in ((c, ce), (d, de)):
            if isinstance(xe, Poly):
                assert type(x) is Poly
            else:
                _assert_canonical_scalar(x)


def _random_class(rng: random.Random, carrier: str) -> EquivariantClass:
    # Zero scalar parts, zero u parts and cancelling sums come up on purpose.
    terms = {}
    for _ in range(rng.randint(0, 4)):
        c = F(rng.randint(-2, 2), rng.randint(1, 2))
        d = F(rng.randint(-2, 2), rng.randint(1, 2)) if carrier == "surface" else 0
        terms[rng.randint(-3, 3)] = (c, d if rng.random() < 0.6 else 0)
    return EquivariantClass.make(carrier, terms)


def test_mul_terms_matches_the_formula_on_exact_classes():
    rng = random.Random(20026)
    for _ in range(400):
        carrier = rng.choice(["point", "surface"])
        a, b = _random_class(rng, carrier), _random_class(rng, carrier)
        _assert_same_terms(mul_terms(a.terms, b.terms), _formula_mul_terms(a.terms, b.terms))
        for _, (c, d) in (a * b).terms:
            _assert_canonical_scalar(c)
            _assert_canonical_scalar(d)


def _random_symbolic_terms(rng: random.Random) -> tuple:
    def entry():
        if rng.random() < 0.4:
            return Poly.const(0)
        terms = {}
        for _ in range(rng.randint(1, 2)):
            var = rng.choice([(), (("s", 1),), (("t", 1),)])
            terms[var] = F(rng.randint(-2, 2), rng.randint(1, 2))
        return Poly.from_dict(terms)

    terms = {rng.randint(-2, 2): (entry(), entry()) for _ in range(3)}
    return tuple(sorted((k, (c, d)) for k, (c, d) in terms.items() if c or d))


def test_mul_terms_matches_the_formula_on_symbolic_classes():
    rng = random.Random(20027)
    for _ in range(300):
        a, b = _random_symbolic_terms(rng), _random_symbolic_terms(rng)
        got = mul_terms(a, b)
        _assert_same_terms(got, _formula_mul_terms(a, b))


def integrate_component(x):
    """Integrate a formed class: scalar parts on a point, ``u`` parts on a surface."""
    out = {}
    for k, (c, d) in x.terms:
        value = c if x.carrier == "point" else d
        if value:
            out[k] = value
    return out


def _random_terms(rng: random.Random, carrier: str, kind: str) -> tuple:
    """A term list with int, Fraction or affine Poly coefficients.

    Zero parts and terms that cancel in a product come up on purpose.
    """

    def entry():
        roll = rng.random()
        if roll < 0.3:
            value = 0
        elif kind == "int":
            value = rng.randint(-3, 3)
        else:
            value = F(rng.randint(-3, 3), rng.randint(1, 3))
        if kind != "poly":
            return value
        terms = {(): value}
        for var in ("s", "t"):
            if rng.random() < 0.4:
                terms[((var, 1),)] = rng.randint(-2, 2)
        return Poly.from_dict(terms)

    zero = Poly.const(0) if kind == "poly" else 0
    terms = {}
    for _ in range(rng.randint(0, 4)):
        terms[rng.randint(-3, 3)] = (entry(), entry() if carrier == "surface" else zero)
    return tuple(sorted(terms.items()))


def test_integrate_product_matches_the_formed_product():
    rng = random.Random(14)
    nonzero = 0
    for _ in range(3000):
        carrier = rng.choice(["point", "surface"])
        kind = rng.choice(["int", "fraction", "poly"])
        a = _random_terms(rng, carrier, kind)
        b = _random_terms(rng, carrier, kind)
        got = _integrated(carrier, a, b)
        expected = {
            k: v if isinstance(v, Poly) else Poly.const(v)
            for k, v in integrate_component(EquivariantClass(carrier, mul_terms(a, b))).items()
        }
        assert list(got.items()) == list(expected.items())
        assert [[type(c) for _, c in v.terms] for v in got.values()] == [
            [type(c) for _, c in v.terms] for v in expected.values()
        ]
        nonzero += bool(got)
    assert nonzero > 1000


def test_make_keeps_fractions_and_converts_the_rest():
    half = F(1, 2)
    cls = EquivariantClass.make("surface", {0: (half, 2), 1: 3, 2: (0, half)})
    assert cls.terms == ((0, (half, F(2))), (1, (F(3), F(0))), (2, (F(0), half)))
    assert cls.terms[0][1][0] is half
    for _, (c, d) in cls.terms:
        _assert_canonical_scalar(c)
        _assert_canonical_scalar(d)
