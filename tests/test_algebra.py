"""Tests for the equivariant class ring and the reduced space pairings."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import NotInvertibleError, equivariant_euler, invert_euler, mul_terms, multiply
from semifree import classifier
from semifree.algebra import (
    CarrierMismatchError,
    _dot,
    EquivariantClass,
    c1_reduced,
    fiber_class,
    nontrivial_bundle,
    pair,
    projective_plane,
    trivial_bundle,
    ReducedClass,
    ReducedSpaceType,
)
from semifree._solve import Poly
from semifree.fixed_points import FixedPointData, point, surface
from semifree.localization import _atoms, _euler_shape, _integrate_pair, abbv_integrate

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
    assert multiply(u, u).is_zero()


def test_point_carrier_rejects_u_part():
    with pytest.raises(CarrierMismatchError):
        pt({0: (0, 1)})


def test_carrier_mismatch_rejected():
    with pytest.raises(CarrierMismatchError):
        multiply(surf({0: (1, 0)}), pt({0: (1, 0)}))


@pytest.mark.parametrize(
    ("build", "message"),
    [
        (lambda: EquivariantClass("torus", ()), "unknown carrier 'torus'"),
        (lambda: ReducedSpaceType("cone"), "unknown reduced space form 'cone'"),
        (lambda: trivial_bundle(-1), "genus must be non-negative"),
        (lambda: ReducedSpaceType("projective_plane", 1), "carries no genus parameter"),
        (lambda: ReducedClass.make(projective_plane(), 1, 2), "projective plane needs 1 coefficients"),
        (
            lambda: ReducedClass.make(nontrivial_bundle(2), 1),
            "nontrivial sphere bundle over genus-2 surface needs 2 coefficients",
        ),
        (
            lambda: ReducedClass.make(trivial_bundle(0), 1, 2, 3),
            "trivial sphere bundle over genus-0 surface needs 2 coefficients",
        ),
    ],
)
def test_constructors_name_what_they_refuse(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_pairing_refuses_classes_on_different_spaces():
    with pytest.raises(CarrierMismatchError, match="different reduced spaces"):
        pair(fiber_class(trivial_bundle(0)), fiber_class(nontrivial_bundle(0)))


def test_fiber_class_on_the_plane_is_the_hyperplane_class():
    plane = projective_plane()
    h = fiber_class(plane)
    assert h == ReducedClass.make(plane, 1)
    assert (pair(h, h), pair(c1_reduced(plane), h)) == (1, 3)


@given(nonzero_rationals, rationals, st.integers(-3, 3))
def test_invert_euler_left_and_right_inverse(c, d, k):
    e = surf({k: (c, 0), k - 1: (0, d)})
    inverse = invert_euler(e)
    unit = EquivariantClass.unit("surface")
    assert multiply(e, inverse) == unit
    assert multiply(inverse, e) == unit


@given(nonzero_rationals, st.integers(-3, 3))
def test_invert_euler_point_carrier(c, k):
    e = pt({k: (c, 0)})
    assert multiply(e, invert_euler(e)) == EquivariantClass.unit("point")


def test_invert_euler_rejects_wide_classes():
    with pytest.raises(NotInvertibleError):
        invert_euler(surf({0: (1, 0), 2: (1, 0)}))
    with pytest.raises(NotInvertibleError):
        invert_euler(EquivariantClass.make("surface", {}))
    with pytest.raises(NotInvertibleError):
        # The u part must sit exactly one exponent below the scalar.
        invert_euler(surf({2: (1, 0), 0: (0, 1)}))


def _integrated(shape, a, b):
    """``_integrate_pair`` of two term lists over one component of Euler
    shape ``shape`` into a fresh total, each power's sum built as its ``Poly``."""
    total = {}
    _integrate_pair(shape, _atoms(a), _atoms(b), total)
    return {k: p for k, acc in sorted(total.items()) if (p := Poly.from_dict(acc))}


def _shape(component):
    return (component.kind, *_euler_shape(component))


def test_integrate_component_picks_the_right_part():
    one = ((0, (1, 0)),)
    # Over the trivial shape (e = 1), times the unit class, the
    # integral is the class's own part: scalar on a point, u on a surface.
    assert _integrated(("point", 0, 1, 0), pt({-3: (F(1, 2), 0)}).terms, one) == {-3: Poly.const(F(1, 2))}
    assert _integrated(
        ("surface", 0, 1, 0), surf({-3: (F(7), 0), -2: (0, F(5))}).terms, one
    ) == {-2: Poly.const(5)}
    # At an index-2 point e = -lam^3, so 1/e = -lam^-3.
    assert _integrated(_shape(point(2, 0)), pt({-3: (F(1, 2), 0)}).terms, one) == {
        -6: Poly.const(F(-1, 2))
    }
    # On an index-2 surface with b_plus = 5, b_minus = -1, e = -lam^2 - 6 lam u,
    # so 1/e = -lam^-2 + 6 lam^-3 u: the u part gives -5 lam^-2 and the
    # scalar parts 6 * 7 lam^-6 and 6 * 2 lam^-3.
    index2 = surface(2, 0, genus=2, b_plus=5, b_minus=-1)
    assert _shape(index2) == ("surface", 2, -1, -6)
    assert _integrated(
        _shape(index2), surf({-3: (F(7), 0), 0: (2, F(5))}).terms, one
    ) == {-6: Poly.const(42), -3: Poly.const(12), -2: Poly.const(-5)}
    # A product pairs both factors: u * lam^2 over an index-0 sphere with
    # b = 3 (e = lam^2 + 3 lam u) integrates to 1, and lam * lam to -3 lam^-1.
    sphere = _shape(surface(0, 0, b=3))
    assert _integrated(sphere, surf({0: (0, 1)}).terms, surf({2: 1}).terms) == {0: Poly.const(1)}
    assert _integrated(sphere, surf({1: 1}).terms, surf({1: 1}).terms) == {-1: Poly.const(-3)}


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
        for _, (c, d) in multiply(a, b).terms:
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


def _random_component(rng: random.Random, carrier: str):
    """A fixed component on ``carrier`` of any index, with its normal data."""
    if carrier == "point":
        return point(rng.choice([0, 2, 4, 6]), 0)
    index, genus = rng.choice([0, 2, 4]), rng.randint(0, 3)
    if index == 2:
        return surface(2, 0, genus=genus, b_plus=rng.randint(-6, 6), b_minus=rng.randint(-6, 6))
    return surface(index, 0, genus=genus, b=rng.randint(-6, 6))


def test_integrate_product_matches_the_formed_product():
    rng = random.Random(14)
    nonzero = 0
    for _ in range(3000):
        carrier = rng.choice(["point", "surface"])
        kind = rng.choice(["int", "fraction", "poly"])
        a = _random_terms(rng, carrier, kind)
        b = _random_terms(rng, carrier, kind)
        if rng.random() < 0.2:  # the trivial shape, e = 1
            shape, inverse = (carrier, 0, 1, 0), EquivariantClass.unit(carrier)
        else:
            component = _random_component(rng, carrier)
            shape, inverse = _shape(component), invert_euler(equivariant_euler(component))
        got = _integrated(shape, a, b)
        formed = mul_terms(mul_terms(a, b), inverse.terms)
        expected = {
            k: v if isinstance(v, Poly) else Poly.const(v)
            for k, v in integrate_component(EquivariantClass(carrier, formed)).items()
        }
        assert list(got.items()) == list(expected.items())
        assert [[type(c) for _, c in v.terms] for v in got.values()] == [
            [type(c) for _, c in v.terms] for v in expected.values()
        ]
        nonzero += bool(got)
    assert nonzero > 1000


# ---------------------------------------------------------------------------
# the closed form against sympy (test-only dependency)


def _to_sympy(sympy, lam, u, terms):
    """A term list, its coefficients ints, Fractions or ``Poly``s, as a
    sympy expression in ``lam`` and ``u``."""

    def coefficient(x):
        if not isinstance(x, Poly):
            return sympy.Rational(x.numerator, x.denominator)
        return sympy.Add(
            *(
                sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(sympy.Symbol(v) ** e for v, e in m))
                for m, c in x.terms
            )
        )

    return sympy.Add(*((coefficient(c) + coefficient(d) * u) * lam**k for k, (c, d) in terms))


def _sympy_integral(sympy, lam, u, shape, integrand):
    """``integrand / (sigma lam^m + beta lam^(m-1) u)`` to first order in
    ``u``, its carrier's part (scalar at a point, ``u`` on a surface) as
    a dict from each power of lam to its nonzero coefficient."""
    carrier, m, sigma, beta = shape
    quotient = integrand / (sigma * lam**m + beta * lam ** (m - 1) * u)
    part = quotient if carrier == "point" else sympy.diff(quotient, u)
    out = {}
    expanded = sympy.expand(part.subs(u, 0))
    for power, value in sympy.collect(expanded, lam, evaluate=False).items():
        k = 0 if power == 1 else int(power.as_base_exp()[1])
        if sympy.expand(value) != 0:
            out[k] = value
    return out


def _assert_same_laurent(sympy, got, expected):
    assert sorted(got) == sorted(expected)
    for k, value in expected.items():
        assert sympy.expand(got[k] - value) == 0, k


def test_integrate_pair_matches_sympy():
    sympy = pytest.importorskip("sympy")
    lam, u = sympy.symbols("lam u")
    rng = random.Random(23)
    nonzero = 0
    for _ in range(150):
        carrier = rng.choice(["point", "surface"])
        kind = rng.choice(["int", "fraction", "poly"])
        a = _random_terms(rng, carrier, kind)
        b = _random_terms(rng, carrier, kind)
        shape = _shape(_random_component(rng, carrier))
        got = {k: _to_sympy(sympy, lam, u, ((0, (v, 0)),)) for k, v in _integrated(shape, a, b).items()}
        integrand = _to_sympy(sympy, lam, u, a) * _to_sympy(sympy, lam, u, b)
        _assert_same_laurent(sympy, got, _sympy_integral(sympy, lam, u, shape, integrand))
        nonzero += bool(got)
    assert nonzero > 50


def test_abbv_integrate_matches_sympy():
    sympy = pytest.importorskip("sympy")
    lam, u = sympy.symbols("lam u")
    rng = random.Random(24)
    nonzero = 0
    for _ in range(200):
        components = [
            _random_component(rng, rng.choice(["point", "surface"])) for _ in range(rng.randint(1, 3))
        ]
        data = FixedPointData(tuple(components))
        restrictions = []
        expected = {}
        for component in data.components:
            terms = _random_terms(rng, component.kind, rng.choice(["int", "fraction"]))
            restrictions.append(EquivariantClass.make(component.kind, dict(terms)))
            integrand = _to_sympy(sympy, lam, u, terms)
            for k, value in _sympy_integral(sympy, lam, u, _shape(component), integrand).items():
                expected[k] = expected.get(k, 0) + value
        expected = {k: v for k, v in expected.items() if v != 0}
        got = abbv_integrate(data, restrictions)
        assert {k: sympy.Rational(v.numerator, v.denominator) for k, v in got.items()} == expected
        nonzero += bool(got)
    assert nonzero > 100


def test_make_keeps_fractions_and_converts_the_rest():
    half = F(1, 2)
    cls = EquivariantClass.make("surface", {0: (half, 2), 1: 3, 2: (0, half)})
    assert cls.terms == ((0, (half, F(2))), (1, (F(3), F(0))), (2, (F(0), half)))
    assert cls.terms[0][1][0] is half
    for _, (c, d) in cls.terms:
        _assert_canonical_scalar(c)
        _assert_canonical_scalar(d)
