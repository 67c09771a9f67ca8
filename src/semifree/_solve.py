"""Exact small-scale solving utilities shared by the geometry modules.

Everything here works over the rationals in the int-first form of
``rationals``: an integral value is an ``int``, any other a ``Fraction``
with denominator above 1, and every division goes through ``qdiv``.
The utilities are sparse multivariate polynomials, linear elimination,
a complete solver for the tiny polynomial systems of the chain and the
integration equations (linear closure alternating with case splits on
univariate quadratics), strict and non-strict Fourier-Motzkin
feasibility, and primitive integer kernel bases for lattice quotients.

A polynomial is a monomial dict, ``{monomial: coefficient}``, while it
is summed. Callers hand each equation over as its canonical term tuple
(``equation``), so equal equations are equal and hash alike. The solver
turns each one back into its dict once and works on dicts from there
on: one substitution routine, ``_substitute``, puts in the fixed values,
the values forced by the linear closure, the eliminated pivots'
expressions and the back-substituted values, and returns its input
untouched when no substituted variable occurs.
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


Equation = tuple[tuple[Monomial, Rational], ...]


def equation(d: Mapping[Monomial, Rational]) -> Equation:
    """The polynomial with coefficient ``d[m]`` at each monomial ``m``, as
    its canonical term tuple: sorted by monomial, with no zero
    coefficient, and every coefficient an ``int`` when integral and a
    ``Fraction`` otherwise. Equal polynomials have equal tuples."""
    return tuple(sorted((m, c if type(c) is int else canon(c)) for m, c in d.items() if c))


def _substitute(
    terms: dict[Monomial, Rational], values: Mapping[str, "dict[Monomial, Rational] | Rational"]
) -> dict[Monomial, Rational]:
    """``terms`` with each variable of ``values`` replaced by its value,
    a scalar or a monomial dict, as a monomial dict of canonical non-zero
    coefficients; ``terms`` itself when none of those variables occurs.

    A scalar value multiplies in directly; a dict value is multiplied out
    term by term into the product of the substituted factors.
    """
    if values.keys().isdisjoint([v for m in terms for v, _ in m]):
        return terms
    get = values.get
    acc: dict[Monomial, Rational] = {}
    for m, c in terms.items():
        mono: Monomial = ()  # the factors that stay
        factor: Iterable[tuple[Monomial, Rational]] | None = None
        for pair in m:
            value = get(pair[0])
            if value is None:
                mono += (pair,)
                continue
            if type(value) is dict:
                for _ in range(pair[1]):
                    factor = value.items() if factor is None else [
                        (_mono_mul(m1, m2), c1 * c2)
                        for m1, c1 in factor
                        for m2, c2 in value.items()
                    ]
            else:
                c = c * value if pair[1] == 1 else c * value ** pair[1]
        if factor is None:
            acc[mono] = acc[mono] + c if mono in acc else c
            continue
        for m2, c2 in factor:
            if mono:
                m2 = _mono_mul(mono, m2)
            c2 = c * c2
            acc[m2] = acc[m2] + c2 if m2 in acc else c2
    return {m: c if type(c) is int else canon(c) for m, c in acc.items() if c}


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
    """For each of one or more targets, coordinates t with sum t_i basis_i
    = target, or None outside the span, all from one elimination of the basis.

    The targets ride along as right-hand columns of one ``rref``. As in
    ``solve_linear``, the coordinates of a dependent basis that no pivot
    fixes are zero.
    """
    m = len(basis)
    rows = [
        [b[j] for b in basis] + [t[j] for t in targets]
        for j in range(len(targets[0]))
    ]
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


def _rational_roots(coeffs: list[Rational]) -> list[Rational]:
    """The rational roots of ``c + b x + a x^2``, given as ``[c, b, a]`` with a != 0."""
    if len(coeffs) != 3:
        # The systems solved here are at most quadratic, and the linear
        # closure leaves no linear or constant equation to split on.
        raise RuntimeError(f"invariant broken: the case split takes a quadratic, got {coeffs!r}")
    c, b, a = coeffs
    root = sqrt_fraction(b * b - 4 * a * c)
    if root is None:
        return []
    return sorted({qdiv(-b + root, 2 * a), qdiv(-b - root, 2 * a)})


def solve_system(equations: Iterable[Equation]) -> list[Solution]:
    """All rational solutions of a system of polynomials set to zero.

    Strategy: exact linear elimination (expressing pivot variables as
    affine combinations of the rest), then case splits on equations that
    become univariate quadratics, recursing until every equation is
    satisfied. Branches without rational roots are discarded, which is
    sound because only rational solutions are admissible downstream.
    Every system solved here is at most quadratic: the chain's pairings
    and the integrals of products of two degree-2 classes.

    Each equation becomes its monomial dict once, and the recursion
    substitutes into those dicts (``_substitute``) without sorting them.
    """
    eqs = [dict(e) for e in equations]
    out: list[Solution] = []
    _solve_rec(eqs, {}, {v for e in eqs for m in e for v, _ in m}, out)
    unique: dict[tuple, Solution] = {}
    for sol in out:
        unique[(sol.assignment, sol.free)] = sol
    return list(unique.values())


def _reduce(eqs: list[dict], values: Mapping) -> list[dict] | None:
    """The equations at ``values``, without the ones that vanish; None
    when one becomes a non-zero constant."""
    out = []
    for e in eqs:
        if values:
            e = _substitute(e, values)
        if len(e) < 2 and (not e or () in e):
            if e:
                return None
            continue
        out.append(e)
    return out


def _solve_rec(
    equations: list[dict[Monomial, Rational]],
    fixed: dict[str, Rational],
    universe: set[str],
    out: list[Solution],
) -> None:
    eqs = _reduce(equations, fixed)
    if eqs is None:
        return

    # Linear closure: pin down variables forced by the linear subset.
    while True:
        linear = [all(not m or (len(m) == 1 and m[0][1] == 1) for m in e) for e in eqs]
        lin_rows = [
            ({m[0][0]: c for m, c in e.items() if m}, -e.get((), 0))
            for e, lin in zip(eqs, linear)
            if lin
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
        exprs: dict[str, dict[Monomial, Rational]] = {}
        for ri, col in enumerate(pivots):
            others = [j for j in range(n) if j != col and red[ri][j]]
            if not others:
                forced[lin_vars[col]] = red[ri][n]
            else:
                expr = {((lin_vars[j], 1),): -red[ri][j] for j in others}
                if red[ri][n]:
                    expr[()] = red[ri][n]
                exprs[lin_vars[col]] = expr
        if forced:
            # ``_reduce`` removes each fixed variable; one forced again would loop forever.
            if not forced.keys().isdisjoint(fixed):
                again = sorted(forced.keys() & fixed.keys())
                raise RuntimeError(f"invariant broken: the linear closure forced {again} twice")
            fixed = {**fixed, **forced}
            eqs = _reduce(eqs, forced)
            if eqs is None:
                return
            continue
        # Every linear row has a pivot, so with none forced some pivot
        # has an expression: eliminate those pivot variables, solve the
        # reduced system, then back-substitute each branch. The linear
        # equations are combinations of the pivot rows, so they vanish.
        reduced = _reduce([e for e, lin in zip(eqs, linear) if not lin], exprs)
        if reduced is None:
            return
        sub_out: list[Solution] = []
        _solve_rec(reduced, {}, universe - set(exprs), sub_out)
        for sol in sub_out:
            values = sol.as_dict()
            merged = {**fixed, **values}
            # The sub-universe may still list variables pinned in
            # ``fixed``; those are not free.
            free = set(sol.free) - set(merged)
            for var, expr in exprs.items():
                value = _substitute(expr, values)
                if len(value) < 2 and (not value or () in value):
                    merged[var] = value.get((), 0)
                else:
                    free.add(var)
            _emit(merged, free, universe, out)
        return

    if not eqs:
        _emit(fixed, set(), universe, out)
        return

    for e in eqs:
        names = {v for m in e for v, _ in m}
        if len(names) != 1:
            continue
        (var,) = names
        coeffs: list[Rational] = [0] * (max(m[0][1] for m in e if m) + 1)
        for m, c in e.items():
            coeffs[m[0][1] if m else 0] = c
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
    if not any(vector):
        # Each caller clears a primitive functional: of a class K with
        # K.K = -1, of a gcd-checked c1, or of a fiber on a unimodular form.
        raise RuntimeError("invariant broken: zero functional has full kernel")
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
    return [tuple(row) for row in unimodular_clearing(vector)[1:]]
