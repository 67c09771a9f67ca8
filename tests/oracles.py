"""Former package code, kept as the reference of the tests' oracles.

``Poly`` is the package's former polynomial class, verbatim. The
package now hands each equation over as its canonical term tuple
(``_solve.equation``), which is exactly a ``Poly``'s ``terms``: the tests
build equations with ``Poly`` arithmetic, hand ``p.terms`` to the
package, and wrap its tuples as ``Poly(terms)`` to compare them.
``Poly.substitute`` still wraps the package's ``_substitute``.

The package integrates in closed form against each component's Euler
shape (``localization._euler_shape``) and never forms an Euler class,
its inverse or a product of classes. The equation and integral oracles
of the tests form all three, multiply them out and integrate the
product, so they check the closed form by a second route. The
multiplier (``mul_terms``), the powers of c_1 (``c1_power``) and the
unit restrictions are the package's own former code.

``terminal_variants`` is the chain engine's former closing step, which
formed each equation by ``Poly`` arithmetic on whole pairings with
``dot``, the package's former ``_dot``; the engine now sums each
equation in one monomial dict from number vectors. The recursive walk
of ``tests/test_walk.py`` closes its branches with it. That walk keeps a
chart's Euler class as a vector of affine ``Poly`` entries, as the
engine once did; ``euler_polys`` and ``with_euler`` translate between it
and the engine's numbers (a constant vector and one column per unknown).

``solve_system`` is the package's former solver, verbatim, which ran on
``Poly`` throughout; the package's solver now runs on monomial dicts,
and the differential tests of ``tests/test_solve.py`` hold it to this
one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from semifree._solve import (
    Monomial,
    Solution,
    SolverStallError,
    _mono_mul,
    _rational_roots,
    _scalar,
    _substitute,
    rref,
)
from semifree.algebra import CarrierMismatchError, EquivariantClass
from semifree.classifier import _bundle_forms, _section_for
from semifree.fixed_points import FixedComponent, FixedPointData
from semifree.localization import _euler_shape
from semifree.rationals import Rational, canon, qdiv


# ---------------------------------------------------------------------------
# the former polynomial class


@dataclass(frozen=True)
class Poly:
    """Sparse multivariate polynomial with rational coefficients.

    ``terms`` is canonical: sorted by monomial, with no zero coefficient,
    and every coefficient an ``int`` when integral and a ``Fraction``
    otherwise. Equal polynomials therefore have equal ``terms``, and
    every operation below returns that form.

    The hot operations take fast paths that return that same form:
    ``_mono_mul`` joins two single-variable monomials without a dict,
    ``from_dict`` keeps an ``int`` coefficient without a ``canon`` call,
    ``substitute`` is the solver's ``_substitute`` on its terms and
    returns ``self`` when no substituted variable occurs, and ``p ** 1``
    is ``p`` itself.
    """

    terms: tuple[tuple[Monomial, Rational], ...]

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_dict(d: Mapping[Monomial, Rational]) -> Poly:
        """The polynomial with coefficient ``d[m]`` at each monomial ``m``."""
        return Poly(
            tuple(
                sorted(
                    (m, c if type(c) is int else canon(c))
                    for m, c in d.items()
                    if c
                )
            )
        )

    @staticmethod
    def const(value: Rational) -> Poly:
        v = _scalar(value)
        return Poly(((((), v)),)) if v else Poly(())

    @staticmethod
    def var(name: str) -> Poly:
        return Poly(((((name, 1),), 1),))

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        # The constant monomial () sorts first.
        terms = self.terms
        return not terms or (len(terms) == 1 and not terms[0][0])

    def constant_value(self) -> Rational:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self!r}")
        return self.terms[0][1] if self.terms else 0

    def variables(self) -> frozenset[str]:
        return frozenset(v for m, _ in self.terms for v, _ in m)

    # -- arithmetic --------------------------------------------------------

    def accumulate(
        self,
        acc: dict[Monomial, Rational],
        k: Rational,
        other: "Poly | None" = None,
    ) -> None:
        """Add ``k * self`` (times ``other`` when given) into ``acc``.

        ``k`` is an int or a Fraction. Summing many products into one
        dict and calling ``from_dict`` once sorts once, not per addition.
        """
        if not k:
            return
        terms = self.terms if k == 1 else [(m, c * k) for m, c in self.terms]
        if other is not None:
            terms = [
                (_mono_mul(m1, m2), c1 * c2)
                for m1, c1 in terms
                for m2, c2 in other.terms
            ]
        for m, c in terms:
            acc[m] = acc[m] + c if m in acc else c

    def _scale(self, k: Rational) -> Poly:
        # Scaling by a non-zero rational keeps the order and the support.
        if not k:
            return Poly(())
        if k == 1:
            return self
        return Poly(tuple((m, canon(c * k)) for m, c in self.terms))

    def _add_const(self, value: Rational) -> Poly:
        if not value:
            return self
        terms = self.terms
        if terms and not terms[0][0]:
            c = canon(terms[0][1] + value)
            return Poly(((((), c),) + terms[1:]) if c else terms[1:])
        return Poly(Poly.const(value).terms + terms)

    def __add__(self, other: "Poly | Rational") -> Poly:
        if not isinstance(other, Poly):
            return self._add_const(_scalar(other))
        if not other.terms:
            return self
        if not self.terms:
            return other
        acc = dict(self.terms)
        other.accumulate(acc, 1)
        return Poly.from_dict(acc)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: "Poly | Rational") -> Poly:
        if not isinstance(other, Poly):
            return self._add_const(-_scalar(other))
        return self + (-other)

    def __rsub__(self, other: "Poly | Rational") -> Poly:
        return (-self)._add_const(_scalar(other))

    def __mul__(self, other: "Poly | Rational") -> Poly:
        if not isinstance(other, Poly):
            return self._scale(_scalar(other))
        if other.is_constant():
            return self._scale(other.constant_value())
        if self.is_constant():
            return other._scale(self.constant_value())
        acc: dict[Monomial, Rational] = {}
        self.accumulate(acc, 1, other)
        return Poly.from_dict(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError(f"negative exponent {n} of a polynomial")
        if n == 1:
            return self
        out = Poly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def __bool__(self) -> bool:
        return bool(self.terms)

    def substitute(self, values: Mapping[str, "Poly | Rational"]) -> Poly:
        terms = dict(self.terms)
        # The package substitutes only ints, Fractions and monomial dicts,
        # so a float or a bool is refused here.
        out = _substitute(
            terms,
            {v: dict(x.terms) if isinstance(x, Poly) else _scalar(x) for v, x in values.items()},
        )
        return self if out is terms else Poly.from_dict(out)


def poly_terms(terms: Iterable[tuple[int, tuple]]) -> tuple[tuple[int, tuple], ...]:
    """A term list of the restriction-table skeleton with each unknown,
    which the package marks by its variable's name, as that variable's
    ``Poly``, so the multiplier can form products."""
    return tuple(
        (k, tuple(Poly.var(x) if type(x) is str else x for x in pair)) for k, pair in terms
    )


def poly_skeleton(skeleton: Sequence) -> list:
    """The skeleton (``localization._build_skeleton``) with its
    restrictions as ``poly_terms``."""
    return [
        replace(f, restrictions=tuple(poly_terms(terms) for terms in f.restrictions))
        for f in skeleton
    ]


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


def unit(carrier: str) -> EquivariantClass:
    """The unit class on ``carrier``, the package's former ``EquivariantClass.unit``."""
    return EquivariantClass.make(carrier, {0: (1, 0)})


def unit_restrictions(data: FixedPointData) -> tuple[EquivariantClass, ...]:
    return tuple(unit(c.kind) for c in data.components)


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


def dot(gram: Sequence[Sequence[int]], a: Sequence, b: Sequence, into: dict | None = None):
    """``sum a_i g_ij b_j`` over the non-zero Gram entries, the package's
    former ``_dot``, which also paired ``Poly`` vectors.

    A ``Poly`` when some summed product has a ``Poly`` factor (zero
    ``Poly`` entries of ``a`` are skipped), else a canonical scalar.
    Given ``into``, a monomial dict as ``Poly.accumulate`` fills, the sum
    is added into it (the scalar part at ``()``) and ``into`` is returned,
    so an equation of several pairings is summed in one dict and
    canonicalized once by ``Poly.from_dict``.
    """
    scalar: Rational = 0
    acc: dict = {} if into is None else into
    poly = False
    for i, ai in enumerate(a):
        a_poly = isinstance(ai, Poly)
        if a_poly and ai.is_zero():
            continue
        row = gram[i]
        for j, bj in enumerate(b):
            g = row[j]
            if not g:
                continue
            if a_poly:
                poly = True
                if isinstance(bj, Poly):
                    ai.accumulate(acc, g, bj)
                else:
                    ai.accumulate(acc, g * bj)
            elif isinstance(bj, Poly):
                poly = True
                bj.accumulate(acc, ai * g)
            else:
                scalar += ai * g * bj
    if into is None and not poly:
        return canon(scalar)
    acc[()] = acc.get((), 0) + scalar
    return acc if into is not None else Poly.from_dict(acc)


def terminal_variants(data: FixedPointData, chart) -> list:
    """The equations that close a chain branch under the maximum, with
    the chart they close on; empty when the maximum cannot sit on it."""
    maximum = data.maximum
    if maximum.is_point:
        if chart.rank != 1 or chart.gram[0][0] != 1 or abs(chart.c1[0]) != 3:
            return []
        h = qdiv(chart.c1[0], 3)
        return [([euler_polys(chart)[0] - Poly.const(h)], chart)]
    b_max = maximum.b
    if b_max is None or chart.rank != 2:
        return []
    e = euler_polys(chart)
    if data.twist:
        if chart.fiber is None:
            return []
        eqs = [
            dot(chart.gram, e, chart.fiber) + Poly.const(qdiv(b_max, 2)),
            dot(chart.gram, e, e) + Poly.const(b_max),
        ]
        if b_max == 0:
            section = _section_for(chart.gram, (chart.fiber[0].numerator, chart.fiber[1].numerator))
            eqs.append(dot(chart.gram, e, section) - Poly.const(1))
        return [(eqs, chart)]
    if chart.fiber is not None:
        fibers = [chart.fiber]
    else:
        fibers = [fib for _, fib, _section in _bundle_forms(chart)]
    if not fibers:
        return []
    square = dot(chart.gram, e, e) + Poly.const(b_max)
    return [
        ([dot(chart.gram, e, fib) - Poly.const(1), square], chart) for fib in fibers
    ]


def euler_polys(chart) -> tuple[Poly, ...]:
    """The Euler vector of a chart, one affine ``Poly`` per entry."""
    return tuple(
        Poly.from_dict(
            {(): c, **{((name, 1),): column[j] for name, column in chart.unknowns}}
        )
        for j, c in enumerate(chart.euler)
    )


def with_euler(chart, euler: Sequence[Poly]):
    """``chart`` with the Euler vector ``euler`` of affine ``Poly`` entries."""
    const = [0] * len(euler)
    columns: dict[str, list] = {}
    for j, entry in enumerate(euler):
        for m, c in entry.terms:
            if not m:
                const[j] = c
                continue
            ((name, exp),) = m
            assert exp == 1, entry
            columns.setdefault(name, [0] * len(euler))[j] = c
    unknowns = tuple((name, tuple(columns[name])) for name in sorted(columns))
    return replace(chart, euler=tuple(const), unknowns=unknowns)


# ---------------------------------------------------------------------------
# the former solver on ``Poly``: ``Poly.substitute``, ``as_linear``,
# ``as_univariate`` and ``total_degree`` as they were, and
# ``solve_system`` with its recursion, reading them as functions


def substitute(poly: Poly, values: Mapping[str, "Poly | Rational"]) -> Poly:
    if not any(v in values for m, _ in poly.terms for v, _ in m):
        return poly
    acc: dict[Monomial, Rational] = {}
    for m, c in poly.terms:
        kept: list[tuple[str, int]] = []
        # The product of the substituted non-constant factors,
        # multiplied out term by term; ``from_dict`` sums it up once.
        factor: Sequence[tuple[Monomial, Rational]] | None = None
        for var, exp in m:
            value = values.get(var)
            if value is None:
                kept.append((var, exp))
                continue
            kind = type(value)
            if kind is int or kind is Fraction:
                c = c * value if exp == 1 else c * value**exp
                continue
            if isinstance(value, Poly):
                if not value.is_constant():
                    for _ in range(exp):
                        if factor is None:
                            factor = value.terms
                            continue
                        factor = [
                            (_mono_mul(m1, m2), c1 * c2)
                            for m1, c1 in factor
                            for m2, c2 in value.terms
                        ]
                    continue
                value = value.constant_value()
            c = c * _scalar(value) ** exp
        mono = tuple(kept)
        if factor is None:
            acc[mono] = acc[mono] + c if mono in acc else c
            continue
        for m2, c2 in factor:
            m2, c2 = _mono_mul(mono, m2), c * c2
            acc[m2] = acc[m2] + c2 if m2 in acc else c2
    return Poly.from_dict(acc)


def total_degree(poly: Poly) -> int:
    return max((sum(e for _, e in m) for m, _ in poly.terms), default=0)


def as_linear(poly: Poly) -> tuple[Rational, dict[str, Rational]] | None:
    """Return ``(constant, {var: coeff})`` when total degree <= 1."""
    const: Rational = 0
    coeffs: dict[str, Rational] = {}
    for m, c in poly.terms:
        if not m:
            const = c
        elif len(m) == 1 and m[0][1] == 1:
            coeffs[m[0][0]] = c
        else:
            return None
    return const, coeffs


def as_univariate(poly: Poly) -> tuple[str, list[Rational]] | None:
    """Return ``(var, [c0, c1, ...])`` when only one variable appears."""
    names = poly.variables()
    if len(names) != 1:
        return None
    (name,) = names
    coeffs: list[Rational] = [0] * (total_degree(poly) + 1)
    for m, c in poly.terms:
        coeffs[m[0][1] if m else 0] = c
    return name, coeffs


def solve_system(equations: Iterable[Poly]) -> list[Solution]:
    """All rational solutions of a system of polynomials set to zero.

    Strategy: exact linear elimination (expressing pivot variables as
    affine combinations of the rest), then case splits on equations that
    become univariate quadratics, recursing until every equation is
    satisfied. Branches without rational roots are discarded, which is
    sound because only rational solutions are admissible downstream.
    Every system solved here is at most quadratic: the chain's pairings
    and the integrals of products of two degree-2 classes.
    """
    variables = sorted(set().union(*(e.variables() for e in equations)) or set())
    out: list[Solution] = []
    _solve_rec([e for e in equations], {}, set(variables), out)
    unique: dict[tuple, Solution] = {}
    for sol in out:
        unique[(sol.assignment, sol.free)] = sol
    return list(unique.values())


def _solve_rec(
    equations: list[Poly],
    fixed: dict[str, Rational],
    universe: set[str],
    out: list[Solution],
) -> None:
    eqs = []
    for e in equations:
        e = substitute(e, fixed) if fixed else e
        if e.is_constant():
            if e.constant_value():
                return
            continue
        eqs.append(e)

    # Linear closure: pin down variables forced by the linear subset.
    while True:
        linear = [(e, as_linear(e)) for e in eqs]
        lin_rows = [
            (coeffs, -const) for _, lin in linear if lin for const, coeffs in [lin]
        ]
        if not lin_rows:
            break
        lin_vars = sorted(set().union(*(c.keys() for c, _ in lin_rows)))
        n = len(lin_vars)
        mat = [
            [coeffs.get(v, 0) for v in lin_vars] + [rhs]
            for coeffs, rhs in lin_rows
        ]
        red, pivots = rref(mat, col_limit=n)
        if any(r[n] and not any(r[:n]) for r in red):
            return
        forced: dict[str, Rational] = {}
        exprs: dict[str, Poly] = {}
        for ri, col in enumerate(pivots):
            others = [j for j in range(n) if j != col and red[ri][j]]
            if not others:
                forced[lin_vars[col]] = red[ri][n]
            else:
                expr = Poly.const(red[ri][n])
                for j in others:
                    expr = expr - Poly.var(lin_vars[j]) * red[ri][j]
                exprs[lin_vars[col]] = expr
        if forced:
            fixed = {**fixed, **forced}
            new_eqs = []
            for e in eqs:
                e = substitute(e, forced)
                if e.is_constant():
                    if e.constant_value():
                        return
                    continue
                new_eqs.append(e)
            eqs = new_eqs
            continue
        # Every linear row has a pivot, so with none forced some pivot
        # has an expression: eliminate those pivot variables, solve the
        # reduced system, then back-substitute each branch.
        reduced = []
        for e in eqs:
            e = substitute(e, exprs)
            if e.is_constant():
                if e.constant_value():
                    return
                continue
            reduced.append(e)
        sub_out: list[Solution] = []
        _solve_rec(reduced, {}, universe - set(exprs), sub_out)
        for sol in sub_out:
            values = sol.as_dict()
            merged = {**fixed, **values}
            # The sub-universe may still list variables pinned in
            # ``fixed``; those are not free.
            free = set(sol.free) - set(merged)
            for var, expr in exprs.items():
                value = substitute(expr, values)
                if value.is_constant():
                    merged[var] = value.constant_value()
                else:
                    free.add(var)
            _emit(merged, free, universe, out)
        return

    if not eqs:
        _emit(fixed, set(), universe, out)
        return

    for e in eqs:
        uni = as_univariate(e)
        if uni is None:
            continue
        var, coeffs = uni
        for root in _rational_roots(coeffs):
            _solve_rec(eqs, {**fixed, var: root}, universe, out)
        return

    raise SolverStallError(
        f"no univariate case split available among {len(eqs)} equations"
    )


def _emit(
    merged: dict[str, Rational],
    free: set[str],
    universe: set[str],
    out: list[Solution],
) -> None:
    free = (free | (universe - set(merged))) & universe
    assignment = tuple(
        sorted((v, val) for v, val in merged.items() if v in universe and v not in free)
    )
    out.append(Solution(assignment, frozenset(free)))
