"""Exact small-scale solving utilities shared by the geometry modules.

Everything here works over the rationals in the int-first form of
``rationals``: an integral value is an ``int``, any other a ``Fraction``
with denominator above 1, and every division goes through ``qdiv``.
The utilities are sparse multivariate polynomials, linear elimination,
a complete solver for the tiny polynomial systems produced by the
integration equations (linear closure alternating with case splits on
univariate quadratics), strict and non-strict Fourier-Motzkin
feasibility, and primitive integer kernel bases for lattice quotients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Mapping, Sequence

from .rationals import Rational, canon, qdiv

# ---------------------------------------------------------------------------
# polynomials

Monomial = tuple[tuple[str, int], ...]


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    if len(a) == 1 and len(b) == 1:
        (va, ea), (vb, eb) = a[0], b[0]
        if va == vb:
            return ((va, ea + eb),)
        return a + b if va < vb else b + a
    acc = dict(a)
    for var, exp in b:
        acc[var] = acc.get(var, 0) + exp
    return tuple(sorted(acc.items()))


def _scalar(value: Rational) -> Rational:
    """``value`` in canonical form; a ``TypeError`` for any other type.

    A float or a bool is no exact rational, so neither is taken as one.
    """
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return canon(value)
    raise TypeError(f"expected an exact rational, got {value!r}")


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
    ``substitute`` multiplies an ``int`` or ``Fraction`` value in
    directly and a ``Poly`` value out term by term, canonicalizing once
    in its closing ``from_dict``, and ``p ** 1`` is ``p`` itself.
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

    def total_degree(self) -> int:
        return max((sum(e for _, e in m) for m, _ in self.terms), default=0)

    def as_linear(self) -> tuple[Rational, dict[str, Rational]] | None:
        """Return ``(constant, {var: coeff})`` when total degree <= 1."""
        const: Rational = 0
        coeffs: dict[str, Rational] = {}
        for m, c in self.terms:
            if not m:
                const = c
            elif len(m) == 1 and m[0][1] == 1:
                coeffs[m[0][0]] = c
            else:
                return None
        return const, coeffs

    def as_univariate(self) -> tuple[str, list[Rational]] | None:
        """Return ``(var, [c0, c1, ...])`` when only one variable appears."""
        names = self.variables()
        if len(names) != 1:
            return None
        (name,) = names
        coeffs: list[Rational] = [0] * (self.total_degree() + 1)
        for m, c in self.terms:
            coeffs[m[0][1] if m else 0] = c
        return name, coeffs

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
        if not any(v in values for m, _ in self.terms for v, _ in m):
            return self
        acc: dict[Monomial, Rational] = {}
        for m, c in self.terms:
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

    def __repr__(self) -> str:  # compact debugging form
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.terms:
            mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in m)
            parts.append(f"{c}{'*' + mono if mono else ''}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# linear algebra over the rationals


def rref(
    rows: list[list[Rational]], col_limit: int | None = None
) -> tuple[list[list[Rational]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices).

    ``col_limit`` restricts pivoting to the leading columns so augmented
    matrices keep their right-hand side intact.
    """
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    row = 0
    cols = len(mat[0]) if mat else 0
    if col_limit is not None:
        cols = min(cols, col_limit)
    for col in range(cols):
        sel = next((r for r in range(row, len(mat)) if mat[r][col]), None)
        if sel is None:
            continue
        mat[row], mat[sel] = mat[sel], mat[row]
        lead = mat[row][col]
        mat[row] = [qdiv(x, lead) for x in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [canon(x - factor * y) for x, y in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    return mat, pivots


def solve_linear(
    rows: Sequence[tuple[Mapping[str, Rational], Rational]],
    variables: Sequence[str],
) -> tuple[dict[str, Rational], list[str]] | None:
    """Solve ``sum coeff*v = rhs`` rows exactly.

    Returns ``(values, free_variables)`` where free variables are set to
    zero in ``values``, or ``None`` when the system is inconsistent.
    """
    order = list(variables)
    mat = [[coeffs.get(v, 0) for v in order] + [rhs] for coeffs, rhs in rows]
    if not mat:
        return {v: 0 for v in order}, order
    n = len(order)
    red, pivots = rref(mat, col_limit=n)
    for r in red:
        if all(x == 0 for x in r[:n]) and r[n]:
            return None
    free = [v for i, v in enumerate(order) if i not in pivots]
    values: dict[str, Rational] = {v: 0 for v in order}
    # Every non-pivot column of the RREF is a free variable, set to zero,
    # so each pivot variable is its row's right-hand side.
    for ri, col in enumerate(pivots):
        values[order[col]] = red[ri][n]
    return values, free


def span_coordinates(
    basis: Sequence[Sequence[Rational]], targets: Sequence[Sequence[Rational]]
) -> list[list[Rational] | None]:
    """For each target, coordinates t with sum t_i basis_i = target, or
    None outside the span, all from one elimination of the basis.

    The targets ride along as right-hand columns of one ``rref``. As in
    ``solve_linear``, the coordinates of a dependent basis that no pivot
    fixes are zero.
    """
    m = len(basis)
    rows = [
        [b[j] for b in basis] + [t[j] for t in targets]
        for j in range(len(targets[0]) if targets else 0)
    ]
    if not rows:
        return [[0] * m for _ in targets]
    red, pivots = rref(rows, col_limit=m)
    out: list[list[Rational] | None] = []
    for col in range(m, m + len(targets)):
        if any(r[col] and not any(r[:m]) for r in red):
            out.append(None)
            continue
        coords: list[Rational] = [0] * m
        for ri, pivot in enumerate(pivots):
            coords[pivot] = red[ri][col]
        out.append(coords)
    return out


# ---------------------------------------------------------------------------
# polynomial systems


class SolverStallError(RuntimeError):
    """The case-split strategy cannot make progress on this system."""


@dataclass(frozen=True)
class Solution:
    """One solution branch: fixed values plus still-free variables."""

    assignment: tuple[tuple[str, Rational], ...]
    free: frozenset[str]

    def as_dict(self) -> dict[str, Rational]:
        return dict(self.assignment)


def sqrt_fraction(value: Rational) -> Rational | None:
    """Exact square root of a non-negative rational, or None."""
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return qdiv(rn, rd)


def _rational_roots(coeffs: list[Rational]) -> list[Rational] | None:
    """Roots of a univariate polynomial of degree <= 2; None above that."""
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if len(coeffs) > 3:
        return None
    if not coeffs:
        raise ValueError("zero polynomial has no finite root set")
    if len(coeffs) == 1:
        return []
    if len(coeffs) == 2:
        return [qdiv(-coeffs[0], coeffs[1])]
    c, b, a = coeffs
    root = sqrt_fraction(b * b - 4 * a * c)
    if root is None:
        return []
    return sorted({qdiv(-b + root, 2 * a), qdiv(-b - root, 2 * a)})


def solve_system(equations: Iterable[Poly]) -> list[Solution]:
    """All rational solutions of a system of polynomials set to zero.

    Strategy: exact linear elimination (expressing pivot variables as
    affine combinations of the rest), then case splits on equations that
    become univariate of degree <= 2, recursing until every equation is
    satisfied. Branches without rational roots are discarded, which is
    sound because only rational solutions are admissible downstream.
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
        e = e.substitute(fixed) if fixed else e
        if e.is_constant():
            if e.constant_value():
                return
            continue
        eqs.append(e)

    # Linear closure: pin down variables forced by the linear subset.
    while True:
        linear = [(e, e.as_linear()) for e in eqs]
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
                e = e.substitute(forced)
                if e.is_constant():
                    if e.constant_value():
                        return
                    continue
                new_eqs.append(e)
            eqs = new_eqs
            continue
        if exprs:
            # Eliminate pivot variables, solve the reduced system, then
            # back-substitute each branch.
            reduced = []
            for e in eqs:
                e = e.substitute(exprs)
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
                    value = expr.substitute(values)
                    if value.is_constant():
                        merged[var] = value.constant_value()
                    else:
                        free.add(var)
                _emit(merged, free, universe, out)
            return
        break

    if not eqs:
        _emit(fixed, set(), universe, out)
        return

    for e in eqs:
        uni = e.as_univariate()
        if uni is None:
            continue
        var, coeffs = uni
        roots = _rational_roots(coeffs)
        if roots is None:
            continue
        for root in roots:
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


# ---------------------------------------------------------------------------
# linear feasibility (Fourier-Motzkin with strict inequalities)


@dataclass(frozen=True)
class AffineConstraint:
    """``sum coeffs*x + const  (> | >=)  0``."""

    coeffs: tuple[tuple[str, Rational], ...]
    const: Rational
    strict: bool

    @staticmethod
    def make(
        coeffs: Mapping[str, Rational], const: Rational, strict: bool
    ) -> "AffineConstraint":
        cleaned = tuple(sorted((v, _scalar(c)) for v, c in coeffs.items() if c))
        return AffineConstraint(cleaned, _scalar(const), strict)

    def coeff(self, var: str) -> Rational:
        return dict(self.coeffs).get(var, 0)


def feasible(constraints: Sequence[AffineConstraint]) -> bool:
    """Exact feasibility of a system of affine (in)equalities over Q."""
    pending = list(constraints)
    variables = sorted({v for c in pending for v, _ in c.coeffs})
    for var in variables:
        lower, upper, rest = [], [], []
        for c in pending:
            a = c.coeff(var)
            if a > 0:
                lower.append(c)
            elif a < 0:
                upper.append(c)
            else:
                rest.append(c)
        new = rest
        for lo in lower:
            for hi in upper:
                a_lo, a_hi = lo.coeff(var), -hi.coeff(var)
                coeffs: dict[str, Rational] = {}
                for v, c in lo.coeffs:
                    if v != var:
                        coeffs[v] = coeffs.get(v, 0) + c * a_hi
                for v, c in hi.coeffs:
                    if v != var:
                        coeffs[v] = coeffs.get(v, 0) + c * a_lo
                combined = AffineConstraint.make(
                    coeffs,
                    lo.const * a_hi + hi.const * a_lo,
                    lo.strict or hi.strict,
                )
                new.append(combined)
        pending = new
    for c in pending:
        if c.const < 0 or (c.strict and c.const == 0):
            return False
    return True


# ---------------------------------------------------------------------------
# integer lattice helpers


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


def unimodular_clearing(vector: Sequence[int]) -> list[list[int]]:
    """A unimodular integer matrix W with ``W @ vector = (g, 0, ..., 0)``.

    ``g`` is the gcd of the entries. Used both for completing a
    primitive vector to a lattice basis (columns of W^-1) and for
    quotient coordinates (the trailing rows of W).
    """
    n = len(vector)
    w = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = list(vector)
    for i in range(1, n):
        if v[i] == 0:
            continue
        g, s, t = _ext_gcd(v[0], v[i])
        a0, ai = v[0] // g, v[i] // g
        row0 = [s * w[0][j] + t * w[i][j] for j in range(n)]
        rowi = [-ai * w[0][j] + a0 * w[i][j] for j in range(n)]
        w[0], w[i] = row0, rowi
        v[0], v[i] = g, 0
    if v[0] < 0:
        w[0] = [-x for x in w[0]]
    return w


def integer_kernel_basis(vector: Sequence[int]) -> list[tuple[int, ...]]:
    """Basis of the saturated kernel ``{x : <vector, x> = 0}`` in Z^n.

    With W v = (g, 0, ..., 0), every row of W past the first pairs to
    zero with v, and unimodularity makes those rows a saturated basis.
    """
    if not any(vector):
        raise ValueError("zero functional has full kernel")
    w = unimodular_clearing(vector)
    return [tuple(row) for row in w[1:]]
