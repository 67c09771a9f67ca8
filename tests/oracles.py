"""Former package code, kept as the reference of the tests' oracles.

The package integrates in closed form against each component's Euler
shape (``localization._euler_shape``) and never forms an Euler class,
its inverse or a product of classes. The equation and integral oracles
of the tests form all three, multiply them out and integrate the
product, so they check the closed form by a second route. The
multiplier (``mul_terms``), the powers of c_1 (``c1_power``) and the
unit restrictions are the package's own former code.

``terminal_variants`` is the chain engine's former closing step, which
formed each equation by ``Poly`` arithmetic on whole pairings; the
engine now sums each equation in one monomial dict. The recursive walk
of ``tests/test_walk.py`` closes its branches with it.
"""

from typing import Iterable

from semifree._solve import Poly
from semifree.algebra import CarrierMismatchError, EquivariantClass, _dot
from semifree.classifier import _section_for
from semifree.fixed_points import FixedComponent, FixedPointData
from semifree.localization import _euler_shape
from semifree.rationals import Rational, canon, qdiv


def mul_terms(
    a: Iterable[tuple[int, tuple]], b: Iterable[tuple[int, tuple]]
) -> tuple[tuple[int, tuple], ...]:
    """Multiply two term lists; works for any commutative coefficient type.

    The ``u`` parts multiply to zero, so the product of ``(c1 + d1 u)``
    and ``(c2 + d2 u)`` is ``c1 c2 + (c1 d2 + d1 c2) u``. A product with
    a zero ``u`` factor is not formed; a zero ``u`` part stays the zero
    of its operands' type. Scalar coefficients come out canonical.
    """
    acc: dict[int, list] = {}
    for i, (c1, d1) in a:
        for j, (c2, d2) in b:
            k = i + j
            c = c1 * c2
            if d2:
                d = c1 * d2 + d1 * c2 if d1 else c1 * d2
            else:
                d = d1 * c2 if d1 else d2
            if k in acc:
                acc[k][0] = acc[k][0] + c
                if d:
                    acc[k][1] = acc[k][1] + d
            else:
                acc[k] = [c, d]
    out = []
    for k in sorted(acc):
        c, d = acc[k]
        if c or d:
            out.append((k, (canon(c), canon(d))))
    return tuple(out)


def multiply(x: EquivariantClass, y: EquivariantClass) -> EquivariantClass:
    """Product of two classes on the same carrier (``u * u = 0``)."""
    if x.carrier != y.carrier:
        raise CarrierMismatchError(f"cannot combine {x.carrier} class with {y.carrier} class")
    return EquivariantClass(x.carrier, mul_terms(x.terms, y.terms))


def coefficient(x: EquivariantClass, k: int) -> tuple[Rational, Rational]:
    """``(c_k, d_k)`` of ``x`` at exponent ``k`` (zeros when absent)."""
    for exp, pair in x.terms:
        if exp == k:
            return pair
    return (0, 0)


def c1_power(carrier: str, a: int, gamma: int, k: int) -> EquivariantClass:
    """``(a lambda + gamma u)^k`` for k >= 1, which is
    ``a^k lambda^k + k a^(k-1) gamma lambda^(k-1) u`` since u^2 = 0."""
    terms = []
    u_part = k * a ** (k - 1) * gamma
    if u_part:
        terms.append((k - 1, (0, u_part)))
    if a:
        terms.append((k, (a**k, 0)))
    return EquivariantClass(carrier, tuple(terms))


def unit_restrictions(data: FixedPointData) -> tuple[EquivariantClass, ...]:
    return tuple(EquivariantClass.unit(c.kind) for c in data.components)


class NotInvertibleError(ValueError):
    """Raised when a class does not have the shape of an Euler class."""


def equivariant_euler(component: FixedComponent) -> EquivariantClass:
    """Equivariant Euler class ``sigma lam^m + beta lam^(m-1) u`` of the
    normal bundle of a fixed component."""
    m, sigma, beta = _euler_shape(component)
    return EquivariantClass.make(component.kind, {m: sigma, m - 1: (0, beta)})


def invert_euler(e: EquivariantClass) -> EquivariantClass:
    """Invert an equivariant Euler class.

    The admissible shape is ``c lam^k + d lam^(k-1) u`` with ``c != 0``
    (points have ``d = 0``).  The inverse is
    ``(1/c) lam^-k - (d/c^2) lam^-k-1 u``, which is exact because the
    ``u`` part is nilpotent.
    """
    if not e.terms:
        raise NotInvertibleError("zero class has no inverse")
    scalar_exps = [k for k, (c, _) in e.terms if c]
    u_exps = [k for k, (_, d) in e.terms if d]
    if len(scalar_exps) != 1:
        raise NotInvertibleError(f"not an Euler class shape: {e.terms!r}")
    k = scalar_exps[0]
    if any(j != k - 1 for j in u_exps):
        raise NotInvertibleError(f"not an Euler class shape: {e.terms!r}")
    c, _ = coefficient(e, k)
    _, d = coefficient(e, k - 1)
    return EquivariantClass.make(
        e.carrier, {-k: (qdiv(1, c), 0), -k - 1: (0, -qdiv(d, c * c))}
    )


def terminal_variants(data: FixedPointData, chart) -> list:
    """The equations that close a chain branch under the maximum, with
    the chart they close on; empty when the maximum cannot sit on it."""
    maximum = data.maximum
    if maximum.is_point:
        if chart.rank != 1 or chart.gram[0][0] != 1 or abs(chart.c1[0]) != 3:
            return []
        h = qdiv(chart.c1[0], 3)
        return [([chart.euler[0] - Poly.const(h)], chart)]
    b_max = maximum.b
    if b_max is None or chart.rank != 2:
        return []
    e = chart.euler
    if data.twist:
        if chart.fiber is None:
            return []
        eqs = [
            _dot(chart.gram, e, chart.fiber) + Poly.const(qdiv(b_max, 2)),
            _dot(chart.gram, e, e) + Poly.const(b_max),
        ]
        if b_max == 0:
            section = _section_for(chart.gram, (chart.fiber[0].numerator, chart.fiber[1].numerator))
            if section is None:
                return []
            eqs.append(_dot(chart.gram, e, section) - Poly.const(1))
        return [(eqs, chart)]
    if chart.fiber is not None:
        fibers = [chart.fiber]
    else:
        fibers = [fib for _, fib, _section in chart.bundle_forms]
    if not fibers:
        return []
    square = _dot(chart.gram, e, e) + Poly.const(b_max)
    return [
        ([_dot(chart.gram, e, fib) - Poly.const(1), square], chart) for fib in fibers
    ]
