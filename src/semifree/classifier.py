"""Classification machinery for semi-free fixed-point data.

The regular levels of the moment map carry reduced spaces whose
diffeomorphism type changes across critical levels in four ways: the
class of the level Euler bundle jumps by the dual class of a fixed
surface, an index-2 point blows the space up, an index-4 point blows
it down, and the twisted bare join identifies fiber and section. The
chain engine walks these events from the minimum to the maximum in an
integer lattice chart, solving exactly for the unknown dual classes
(adjunction plus the boundary normal forms) and branching over the
possible exceptional classes at blow-downs. The walk is a sequence of
steps (``_cross``) taken level by level: one lazy descent (``_descend``)
crosses, at each node, each middle of the lowest level not yet crossed.
It remembers the states after each prefix of crossings, so the crossing
orders of one datum, and in the enumeration all shapes of one minimum,
walk each shared prefix once.

The walk computes on numbers. The Euler class stays affine in the
unknowns, and a chart carries it as a constant vector plus one column
per unknown (``_Chart``), so the surgery is integer and rational vector
arithmetic. Each equation a step emits is summed from Gram products of
those vectors into one monomial dict (``_pair_parts``) and becomes its
canonical term tuple (``equation``) once, for the solver.

Each piece of work is done once in its scope. A surface crossing forms
e.eta, eta.eta and c1.eta once each, and a blow-down re-expresses all
its vectors in the kernel basis by one elimination. An untouched chart
reads its canonical space off ``pristine``, without its bundle forms.
At a node the descent skips a crossing whose step key it already tried
there, since the two walk to the very same branches; so one chain solve
walks and solves each sequence of step keys once, and a repeated walk
state once. Each chart's (-1)-classes are searched once per process
(``_minus_one_classes``), a pure function of the chart's Gram matrix
and c1. No other cache outlives its call or its datum: the ``walks``
dict holds walk states only (a step that raises stores nothing) and
belongs to one chain solve, or in the enumeration to one minimum; and a
datum keeps its extremes and its solved chain (``_memo``), so the chain
check, the Euler transport and their readers (the w2 selection rule,
``b_plus_minus`` and the sweep) share one solve.

On top of the engine sit the public operations: a yes/no
chain-consistency check, transport of the Euler class for the wall
calculus, the normal splittings of middle surfaces read off the solved
chain, and a bounded exhaustive enumeration of all admissible data
shapes with small second Betti number, grouped into families; it
builds each shape once, and of a surface maximum one genus per ``b``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache
from math import gcd, isqrt
from typing import Iterable, Mapping, NamedTuple, Sequence

from ._solve import (
    Equation,
    Monomial,
    Solution,
    SolverStallError,
    _rational_roots,
    equation,
    integer_kernel_basis,
    solve_system,
    span_coordinates,
    sqrt_fraction,
    unimodular_clearing,
)
from .algebra import (
    ReducedClass,
    ReducedSpaceType,
    _dot,
    _pair_parts,
    _pairing_functional,
    c1_reduced,
    nontrivial_bundle,
    projective_plane,
    trivial_bundle,
)
from .fixed_points import (
    FixedComponent,
    FixedPointData,
    InvalidDataError,
    _memo,
    classify_type,
    point,
    surface,
    validate,
)
from .localization import (
    MultipleSolutionsError,
    NoSolutionError,
    _c1_power_integrals,
    _relations_hold,
    dh_path,
)
from .rationals import Rational, qdiv

# ---------------------------------------------------------------------------
# lattice chart state


@dataclass(frozen=True)
class _Chart:
    """A lattice chart of the reduced space, with its level Euler class.

    No chart operation multiplies the Euler class by an unknown, so it
    stays affine: ``euler`` is its constant vector and ``unknowns`` one
    ``(name, coefficient column)`` per unknown, sorted by name, no column
    all zero. So equal classes have equal fields.
    """

    gram: tuple[tuple[int, ...], ...]
    c1: tuple[Rational, ...]
    euler: tuple[Rational, ...]
    unknowns: tuple[tuple[str, tuple[Rational, ...]], ...]
    fiber: tuple[Rational, ...] | None
    base_genus: int
    pristine: ReducedSpaceType | None  # canonical space while untouched
    exceptional: tuple[int, ...]  # basis indices of open blow-ups

    @property
    def rank(self) -> int:
        return len(self.gram)

    def euler_parts(self) -> list[tuple[Monomial, tuple[Rational, ...]]]:
        """The Euler vector as ``(monomial, vector)`` parts: the constant
        vector at ``()``, then each unknown's column at its monomial."""
        return [((), self.euler), *((((name, 1),), column) for name, column in self.unknowns)]

    def euler_at(self, values: Mapping[str, Rational]) -> list[Rational]:
        """The Euler vector at ``values``, which fix every unknown in it."""
        vec = list(self.euler)
        for name, column in self.unknowns:
            value = values[name]
            vec = [x + value * c for x, c in zip(vec, column)]
        return vec


def _start_chart(minimum: FixedComponent) -> _Chart:
    if minimum.is_point:
        space = projective_plane()
        return _Chart(
            gram=space.gram,
            c1=c1_reduced(space).coeffs,
            euler=(-1,),
            unknowns=(),
            fiber=None,
            base_genus=0,
            pristine=space,
            exceptional=(),
        )
    g = minimum.genus or 0
    b = minimum.b
    if b is None:
        raise InvalidDataError("surface minimum is missing b")
    space = trivial_bundle(g) if b % 2 == 0 else nontrivial_bundle(g)
    return _Chart(
        gram=space.gram,
        c1=c1_reduced(space).coeffs,
        euler=(b // 2, -1),
        unknowns=(),
        fiber=(1, 0),
        base_genus=g,
        pristine=space,
        exceptional=(),
    )


# -- chart surgery -----------------------------------------------------------


def _blow_up(chart: _Chart) -> _Chart:
    n = chart.rank
    gram = tuple(
        tuple(list(row) + [0]) for row in chart.gram
    ) + ((tuple([0] * n + [-1])),)
    return _Chart(
        gram=gram,
        c1=chart.c1 + (-1,),
        euler=chart.euler + (1,),
        unknowns=tuple((name, column + (0,)) for name, column in chart.unknowns),
        fiber=None if chart.fiber is None else chart.fiber + (0,),
        base_genus=chart.base_genus,
        pristine=None,
        exceptional=chart.exceptional + (n,),
    )


def _blow_down(chart: _Chart, k_class: Sequence[int]) -> _Chart:
    """Contract a (-1)-class; the Euler condition is handled by the caller.

    The new chart's vectors are re-expressed in the kernel basis by one
    elimination: the constant part and each unknown's coefficients of
    the projected Euler vector, the shifted c1 and, when it pairs to
    zero with the class, the fiber. As K.K = -1 and c1.K = 1, each of
    them is orthogonal to K and so lies in the span of the kernel basis.
    """
    functional = _pairing_functional(chart.gram, k_class)
    basis = integer_kernel_basis(functional)
    rows = [_pairing_functional(chart.gram, bi) for bi in basis]
    gram = tuple(
        tuple(sum(r * x for r, x in zip(row, bj)) for bj in basis) for row in rows
    )
    # Project, then re-express; e + K is orthogonal to K exactly when
    # pair(e, K) = 1, which the caller imposes as an equation. Each part
    # of e + K moves along K by its pairing with K, as K.K = -1.
    parts = [
        [c + ki for c, ki in zip(chart.euler, k_class)],
        *(column for _, column in chart.unknowns),
    ]
    targets = []
    for part in parts:
        correction = _dot(chart.gram, part, k_class)
        targets.append([x + correction * ki for x, ki in zip(part, k_class)])
    targets.append([c + ki for c, ki in zip(chart.c1, k_class)])
    keeps_fiber = (
        chart.fiber is not None and _dot(chart.gram, chart.fiber, k_class) == 0
    )
    if keeps_fiber:
        targets.append(chart.fiber)
    coords = span_coordinates(basis, targets)
    n = len(parts)
    return _Chart(
        gram=gram,
        c1=tuple(coords[n]),
        euler=tuple(coords[0]),
        unknowns=tuple(
            (name, tuple(column))
            for (name, _), column in zip(chart.unknowns, coords[1:n])
            if any(column)
        ),
        fiber=tuple(coords[-1]) if keeps_fiber else None,
        base_genus=chart.base_genus,
        pristine=None,
        exceptional=(),
    )


# -- exceptional class enumeration ------------------------------------------


@lru_cache(maxsize=256)
def _minus_one_classes(
    gram: tuple[tuple[int, ...], ...], c1: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """Integer classes K with K.K = -1 and c1.K = 1, by one exact search.

    A pure function of the chart's ``(gram, c1)``, so each pair is
    searched once per process; a refusal is not kept and raises again.
    A chart's c1 is integral, as every chart basis is a lattice basis.

    Over the unimodular clearing of c1, K = k0 + sum t_i b_i and K.K + 1
    is a quadratic q(t). Completing the square in t_0, t_1, ... (an exact
    LDL^T) gives q = r + sum_i a_i (t_i + l_i)^2, l_i affine in the t_j
    past i. A chart has signature (1, rank - 1), so every a_i < 0 exactly
    when c1.c1 > 0; otherwise this raises NotImplementedError, as the
    classes need not be finitely many. Each outer t_i runs over an
    ``isqrt`` bound (Fincke and Pohst 1985); the innermost is solved exactly.
    """
    functional = _pairing_functional(gram, c1)
    if gcd(*functional) != 1:
        return ()
    if sum(c * f for c, f in zip(c1, functional)) <= 0:
        raise NotImplementedError("exceptional search needs c1.c1 > 0")
    clearing = unimodular_clearing(functional)
    k0, basis = clearing[0], clearing[1:]
    n = len(basis)
    m = [[_dot(gram, bi, bj) for bj in basis] for bi in basis]
    lin = [_dot(gram, bi, k0) for bi in basis]
    rest = _dot(gram, k0, k0) + 1
    # squares[i]: a_i, then the coefficients of l_i in the t_j for j > i and its constant.
    squares = []
    for i in range(n):
        a = m[i][i]
        row = [qdiv(m[i][j], a) for j in range(n)] + [qdiv(lin[i], a)]
        for j in range(i + 1, n):
            for k in range(i + 1, n):
                m[j][k] -= m[i][j] * row[k]
            lin[j] -= m[i][j] * row[n]
        rest -= lin[i] * row[n]
        squares.append((a, row))
    out: list[tuple[int, ...]] = []
    t = [0] * n

    def search(i: int, rest: Rational) -> None:
        # t[i + 1:] is fixed and rest is what is left of q for t[: i + 1].
        if rest < 0:
            return
        if i < 0:
            if rest == 0:
                out.append(tuple(
                    k0[j] + sum(t[r] * basis[r][j] for r in range(n))
                    for j in range(len(k0))
                ))
            return
        a, row = squares[i]
        center = -row[n] - sum(row[j] * t[j] for j in range(i + 1, n))
        span = qdiv(rest, -a)  # the most (t_i - center)^2 may be
        if i == 0:
            values = _rational_roots([center * center - span, -2 * center, 1])
        else:
            h = isqrt(span.numerator // span.denominator) + 1
            base = center.numerator // center.denominator
            values = range(base - h, base + h + 2)
        for value in values:
            if value.denominator == 1:
                t[i] = value.numerator
                search(i - 1, rest + a * (value - center) ** 2)

    search(n - 1, rest)
    return tuple(out)


def _blow_down_candidates(chart: _Chart) -> Sequence[tuple[int, ...]]:
    """The classes K a blow-down may contract; each has K.K = -1 and c1.K = 1.

    Over a base of positive genus these are each open exceptional class E
    and F - E for the fiber F (F.F = F.E = 0, c1.F = 2).
    """
    if chart.base_genus > 0:
        candidates: list[tuple[int, ...]] = []
        for idx in chart.exceptional:
            w = tuple(1 if j == idx else 0 for j in range(chart.rank))
            candidates.append(w)
            if chart.fiber is not None:
                candidates.append(tuple(f - wi for f, wi in zip(chart.fiber, w)))
        return candidates
    return _minus_one_classes(chart.gram, chart.c1)


# -- canonical forms of small charts -----------------------------------------


def _isotropic_rays(gram: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """The primitive rays (s, t), up to sign, with a s^2 + 2b st + c t^2 = 0.

    Each ray is a root of the form by construction: (1, 0) and (c, -2b)
    when a = 0; an exact root of the discriminant otherwise. A unimodular
    form with a = 0 has b = +-1, so at c = 0 the second ray is (0, 1).
    """
    a, b, c = gram[0][0], gram[0][1], gram[1][1]
    rays: list[tuple[int, int]] = []

    def add(s: int, t: int) -> None:
        # (s, t) is never (0, 0): s = 1, b != 0 or t is a denominator.
        g = gcd(s, t)
        s, t = s // g, t // g
        if s < 0 or (s == 0 and t < 0):
            s, t = -s, -t
        if (s, t) not in rays:
            rays.append((s, t))

    if a == 0:
        add(1, 0)
        add(c, -2 * b)
    else:
        disc = b * b - a * c
        root = sqrt_fraction(disc)
        if root is not None:
            for sign in (1, -1):
                ratio = qdiv(-b + sign * root, a)
                add(ratio.numerator, ratio.denominator)
    return rays


def _bundle_forms(
    chart: _Chart,
) -> list[tuple[ReducedSpaceType, tuple[int, int], tuple[int, int]]]:
    """Canonical (space, fiber, section) presentations of a rank-2 chart.

    There is at least one. As c1.c1 = 8 - 8g at rank 2, a fiber F and its
    section S give c1 = 2S + (2 - 2g - S.S)F, so S satisfies adjunction.
    Both callers check the rank first.
    """
    g = chart.base_genus
    forms = []
    for s, t in _isotropic_rays(chart.gram):
        for sign in (1, -1):
            fib = (sign * s, sign * t)
            if _dot(chart.gram, chart.c1, fib) != 2:
                continue
            section = _section_for(chart.gram, fib)
            sq = _dot(chart.gram, section, section)
            space = trivial_bundle(g) if sq == 0 else nontrivial_bundle(g)
            forms.append((space, fib, section))
    return forms


def _section_for(gram: Sequence[Sequence[int]], fib: tuple[int, int]) -> tuple[int, int]:
    """The S with S.fib = 1 and S.S in {0, -1}; it exists as every chart's
    Gram matrix is unimodular, so a primitive fiber pairs to 1 with some class."""
    functional = _pairing_functional(gram, list(fib))
    section = list(unimodular_clearing(functional)[0])
    # Each step along the fiber moves S.S by 2.
    shift = -((_dot(gram, section, section) + 1) // 2)
    return (section[0] + shift * fib[0], section[1] + shift * fib[1])


def _chart_reduced_class(
    chart: _Chart, vec: Sequence[Rational]
) -> ReducedClass | None:
    """Express a numeric chart vector as a canonical reduced class, if the
    chart has a canonical space; at rank 1 it is the plane, c1 = +-3h."""
    if chart.pristine is not None:
        return ReducedClass.make(chart.pristine, *vec)
    if chart.rank == 1:
        h = qdiv(chart.c1[0], 3)
        return ReducedClass.make(projective_plane(), qdiv(vec[0], h))
    if chart.rank == 2:
        space, fib, section = _bundle_forms(chart)[0]
        q = _dot(chart.gram, vec, fib)
        sq = _dot(chart.gram, section, section)
        p = _dot(chart.gram, vec, section) - q * sq
        return ReducedClass.make(space, p, q)
    return None


# ---------------------------------------------------------------------------
# the chain engine


class _CrossingLog(NamedTuple):
    position: int
    chart: _Chart  # chart state just below the crossing
    eta_vars: tuple[str, ...]


class _Branch(NamedTuple):
    equations: tuple[Equation, ...]
    crossings: tuple[_CrossingLog, ...]
    top: _Chart


def _step_key(pos: int, comp: FixedComponent) -> tuple:
    """The key of one crossing in ``_descend``'s prefix keys."""
    if comp.is_surface:
        return ("S", pos, comp.genus, comp.b_plus, comp.b_minus)
    return ("P", comp.index)


def _cross(state: _Branch, pos: int, comp: FixedComponent) -> list[_Branch]:
    """The walk states just above one crossing, in branch order.

    A state is a ``_Branch`` whose ``top`` is the chart reached so far.
    ``comp`` is a middle component: an index-2 surface, or a point of
    index 2 or 4 (``minimum`` and ``maximum`` refuse a second extreme).
    """
    equations, crossings, chart = state.equations, state.crossings, state.top
    gram = chart.gram
    if comp.is_surface:
        n = chart.rank
        names = tuple(f"eta{pos}_{i}" for i in range(n))
        # eta as parts: each eta_i is a new unknown, with a unit column.
        eta = [(((name, 1),), tuple(int(i == j) for j in range(n))) for i, name in enumerate(names)]
        # Each equation is summed in one monomial dict and canonicalized once.
        eta_eta = _pair_parts(gram, eta, eta, {})
        adjunction = {**eta_eta, (): 2 - 2 * (comp.genus or 0)}
        eqs = [equation(_pair_parts(gram, [((), [-c for c in chart.c1])], eta, adjunction))]
        if comp.b_minus is not None or comp.b_plus is not None:
            e_eta = _pair_parts(gram, chart.euler_parts(), eta, {})
            if comp.b_minus is not None:
                eqs.append(equation({**e_eta, (): comp.b_minus}))
            if comp.b_plus is not None:
                eqs.append(equation({**e_eta, **eta_eta, (): -comp.b_plus}))
        new_chart = _Chart(
            gram=gram,
            c1=chart.c1,
            euler=chart.euler,
            # e + eta: the unknowns gain the unit columns of eta.
            unknowns=tuple(sorted(chart.unknowns + tuple(zip(names, (u for _, u in eta))))),
            fiber=chart.fiber,
            base_genus=chart.base_genus,
            pristine=chart.pristine,
            exceptional=chart.exceptional,
        )
        log = _CrossingLog(pos, chart, names)
        return [_Branch(equations + tuple(eqs), crossings + (log,), new_chart)]
    if comp.index == 2:
        return [_Branch(equations, crossings, _blow_up(chart))]
    out = []
    e = chart.euler_parts()
    for k_class in _blow_down_candidates(chart):
        # e.K - 1 = 0 is an equation only while some unknown keeps a
        # nonzero coefficient; a constant condition holds or kills the class.
        condition = _pair_parts(gram, [((), k_class)], e, {(): -1})
        if any(c for m, c in condition.items() if m):
            extra: tuple[Equation, ...] = (equation(condition),)
        elif condition[()]:
            continue
        else:
            extra = ()
        out.append(_Branch(equations + extra, crossings, _blow_down(chart, k_class)))
    return out


def _branches(data: FixedPointData, walks: dict) -> Iterable[_Branch]:
    """The chain branches of well-formed data, lazily: each walk state of
    each distinct crossing order under each presentation of the maximum.

    The descent starts at the minimum with every middle still to cross;
    components sort by level, so the extremes are first and last.
    """
    key: tuple = (data.minimum,)
    if key not in walks:
        walks[key] = [_Branch((), (), _start_chart(data.minimum))]
    yield from _descend(data, key, tuple(range(1, len(data.components) - 1)), walks)


def _descend(
    data: FixedPointData, key: tuple, rest: tuple[int, ...], walks: dict
) -> Iterable[_Branch]:
    """The branches below one node: the prefix ``key`` of step keys, the
    minimum first, with the positions ``rest`` still to cross.

    The candidates for the next crossing are the leading positions of
    ``rest`` at its lowest level, taken in order. A candidate whose step
    key was already tried at this node walks to the very same branches,
    so it is skipped: each crossing order is reached once, by its first
    arrangement, and n equal points at one level are one order, not n!.
    ``walks`` holds only prefixes: it maps each walked prefix to its
    states. A step that raises stores nothing, and its error propagates.
    The walk reads only the minimum and the step keys, ``("P", index)``
    of a point or ``("S", pos, genus, b_plus, b_minus)`` of a surface,
    whose unknowns are named after ``pos``, so data of one minimum can
    share ``walks``. A prefix keeps each distinct state once.
    """
    states = walks[key]
    if not rest:
        for state in states:
            for extra in _terminal_variants(data, state.top):
                yield _Branch(state.equations + tuple(extra), state.crossings, state.top)
        return
    comps = data.components
    level, tried = comps[rest[0]].level, set()
    for i, pos in enumerate(rest):
        comp = comps[pos]
        if comp.level != level:
            break
        step = _step_key(pos, comp)
        if step in tried:
            continue
        tried.add(step)
        child = key + (step,)
        if child not in walks:
            crossed = [new for old in states for new in _cross(old, pos, comp)]
            # Only a blow-down can take two states to one.
            walks[child] = list(dict.fromkeys(crossed)) if comp.index == 4 else crossed
        yield from _descend(data, child, rest[:i] + rest[i + 1 :], walks)


def _terminal_variants(data: FixedPointData, chart: _Chart) -> list[list[Equation]]:
    """The terminal equations of ``chart`` for each presentation of the
    maximum; none when it cannot sit under the maximum."""
    maximum = data.maximum
    if maximum.is_point:
        if chart.rank != 1:
            return []
        h = qdiv(chart.c1[0], 3)
        entry = {m: part[0] for m, part in chart.euler_parts()}
        return [[equation({**entry, (): entry[()] - h})]]
    b_max = maximum.b
    if b_max is None or chart.rank != 2:
        return []
    e, gram = chart.euler_parts(), chart.gram
    if data.twist:
        if chart.fiber is None:
            return []
        eqs = [
            equation(_pair_parts(gram, [((), chart.fiber)], e, {(): qdiv(b_max, 2)})),
            equation(_pair_parts(gram, e, e, {(): b_max})),
        ]
        if b_max == 0:
            section = _section_for(gram, chart.fiber)
            eqs.append(equation(_pair_parts(gram, [((), section)], e, {(): -1})))
        return [eqs]
    if chart.fiber is not None:
        fibers: list[Sequence[Rational]] = [chart.fiber]
    else:
        fibers = [fib for _, fib, _section in _bundle_forms(chart)]
    square = equation(_pair_parts(gram, e, e, {(): b_max}))
    return [[equation(_pair_parts(gram, [((), fib)], e, {(): -1})), square] for fib in fibers]


# -- solving -----------------------------------------------------------------


class Crossing(NamedTuple):
    """One index-2 surface crossing with its exact wall pairings."""

    position: int
    pair_e_eta: Rational
    pair_eta_eta: Rational
    dual: ReducedClass | None

    @property
    def splitting(self) -> tuple[int, int] | None:
        """``(b_plus, b_minus) = (e.eta + eta.eta, -e.eta)``, or None unless integral.

        Here e is the Euler class just below the surface and eta its
        dual class.
        """
        b_plus = self.pair_e_eta + self.pair_eta_eta
        b_minus = -self.pair_e_eta
        if b_plus.denominator != 1 or b_minus.denominator != 1:
            return None
        return int(b_plus), int(b_minus)


class ChainResult(NamedTuple):
    """Euler-class transport along the moment map."""

    data: FixedPointData
    chart: ReducedSpaceType | None
    start_euler: ReducedClass | None
    crossings: tuple[Crossing, ...]


class _ChainSolution(NamedTuple):
    key: tuple
    crossings: tuple[Crossing, ...]


def _structural_check(data: FixedPointData) -> None:
    low, high = data.minimum.level, data.maximum.level
    if not all(low < comp.level < high for comp in data.middles()):
        raise InvalidDataError("middle components must sit strictly between the extremes")


def _chain_solutions(data: FixedPointData, walks: dict | None = None) -> list[_ChainSolution]:
    """Solve the chain of well-formed data (``_structural_check``); an
    underdetermined one raises ``MultipleSolutionsError``. ``walks``
    shares walked prefixes (see ``_descend``). Each branch is solved as
    the descent yields it, so an order that fails to walk raises only
    after the orders before it are solved."""
    solutions: dict[tuple, _ChainSolution] = {}
    for branch in _branches(data, {} if walks is None else walks):
        for sol in solve_system(list(branch.equations)):
            if sol.free:
                # No datum tried, unvalidated ones included, leaves one free.
                raise MultipleSolutionsError("the Euler chain is underdetermined for this data")
            resolved = _resolve_branch(branch, sol.as_dict())
            if resolved is not None:
                solutions.setdefault(resolved.key, resolved)
    return list(solutions.values())


def _resolve_branch(
    branch: _Branch, values: Mapping[str, Rational]
) -> _ChainSolution | None:
    """The crossings of a branch at ``values``, which fix every eta (each is
    in its adjunction equation), or None for a non-integral or
    non-positive dual class."""
    crossings: list[Crossing] = []
    key: list[tuple] = []
    for log in branch.crossings:
        eta_values = [values[name] for name in log.eta_vars]
        if any(v.denominator != 1 for v in eta_values):
            return None
        dual = _chart_reduced_class(log.chart, eta_values)
        if log.chart.rank == 1 and (dual is None or dual.coeffs[0] < 1):
            # Surfaces in the plane chart must have positive degree.
            return None
        pe = _dot(log.chart.gram, log.chart.euler_at(values), eta_values)
        pee = _dot(log.chart.gram, eta_values, eta_values)
        crossings.append(Crossing(log.position, pe, pee, dual))
        key.append((log.position, pe, pee))
    return _ChainSolution(tuple(sorted(key)), tuple(crossings))


def euler_chain_check(data: FixedPointData) -> bool:
    """Whether a consistent Euler-class chain exists for the data.

    The chain is solved once per datum and kept on it (``_memo``).
    Malformed data raise ``InvalidDataError``, a refused (-1)-class
    search ``NotImplementedError`` and an underdetermined chain
    ``MultipleSolutionsError``; "no" means only that no chain exists.
    """
    _structural_check(data)
    return bool(_memo(data, "_chain", _chain_solutions))


def _unique_solution(solutions: list[_ChainSolution]) -> _ChainSolution:
    if not solutions:
        raise NoSolutionError("no consistent Euler chain exists for this data")
    if len(solutions) > 1:
        raise MultipleSolutionsError(
            f"{len(solutions)} distinct Euler chains are admissible; "
            "declare the normal splittings to disambiguate"
        )
    return solutions[0]


def euler_transport(data: FixedPointData) -> ChainResult:
    """Transport the level Euler class from the minimum to the maximum.

    Reads the one chain solve of the datum that ``euler_chain_check`` reads.
    An underdetermined chain, like more than one solution, raises
    ``MultipleSolutionsError``.
    """
    _structural_check(data)
    return _chain_result(data, _unique_solution(_memo(data, "_chain", _chain_solutions)))


def _chain_result(data: FixedPointData, solution: _ChainSolution) -> ChainResult:
    """The ``ChainResult`` of ``data`` at one of its chain solutions."""
    chart = None
    start = None
    if all(c.is_surface for c in data.components):
        start_chart = _start_chart(data.minimum)
        chart = start_chart.pristine
        start = ReducedClass(chart, start_chart.euler)
    ordered = sorted(
        solution.crossings,
        key=lambda c: (data.components[c.position].level, c.position),
    )
    return ChainResult(
        data=data,
        chart=chart,
        start_euler=start,
        crossings=tuple(ordered),
    )


# ---------------------------------------------------------------------------
# family instances


def family_instance(tag: str, **params) -> FixedPointData:
    """Canonical fixed-point data for each admissible family.

    Parameters: ``"3"`` takes ``n`` (odd, default 1) and ``same_level``;
    ``"6a"`` takes ``n``, ``g``, ``g1``; ``"6b"`` takes ``k`` and
    ``k_prime`` (the twisted branch, with middle genus ``k * k_prime``
    ruled out by the sweep unless one of them vanishes). ``"2"`` and
    ``"5"`` take ``same_level``. Types ``"1"`` and ``"4"`` are rigid.
    """
    P = point
    S = surface
    if tag == "1":
        _reject_params(params)
        return FixedPointData(
            (
                P(0, 0),
                S(2, 1, genus=0, b_plus=2, b_minus=2),
                P(6, 2),
            )
        )
    if tag == "2":
        same = bool(params.pop("same_level", False))
        _reject_params(params)
        return FixedPointData(
            (
                P(0, 0),
                S(2, 1, genus=0, b_plus=0, b_minus=1),
                S(2, 1 if same else 2, genus=0, b_plus=1, b_minus=0),
                P(6, 3 if not same else 2),
            )
        )
    if tag == "3":
        n = int(params.pop("n", 1))
        same = bool(params.pop("same_level", False))
        _reject_params(params)
        if n % 2 == 0:
            raise ValueError("the lowest normal degree must be odd")
        return FixedPointData(
            (
                S(0, 0, genus=0, b=n),
                S(2, 1, genus=0, b_plus=1, b_minus=1 - n),
                P(4, 1 if same else 2),
                P(6, 2 if same else 3),
            )
        )
    if tag == "4":
        _reject_params(params)
        return FixedPointData(
            (
                S(0, 0, genus=0, b=2),
                S(4, 1, genus=0, b=2),
            ),
            twist=True,
        )
    if tag == "5":
        same = bool(params.pop("same_level", False))
        _reject_params(params)
        return FixedPointData(
            (
                S(0, 0, genus=0, b=1),
                P(2, 1),
                P(4, 1 if same else 2),
                S(4, 2 if same else 3, genus=0, b=1),
            )
        )
    if tag == "6a":
        n = int(params.pop("n", 0))
        g = int(params.pop("g", 0))
        g1 = int(params.pop("g1", 0))
        _reject_params(params)
        c = 1 + g1 - 2 * g
        return FixedPointData(
            (
                S(0, 0, genus=g, b=n),
                S(2, 1, genus=g1, b_plus=n + 3 * c, b_minus=-n + c),
                S(4, 2, genus=g, b=-n - 2 * c),
            )
        )
    if tag == "6b":
        k = int(params.pop("k", 0))
        k_prime = int(params.pop("k_prime", 1))
        _reject_params(params)
        g1 = k * k_prime
        return FixedPointData(
            (
                S(0, 0, genus=0, b=2 * k),
                S(
                    2,
                    1,
                    genus=g1,
                    b_plus=1 - 2 * k_prime + g1,
                    b_minus=1 - 2 * k + g1,
                ),
                S(4, 2, genus=0, b=2 * k_prime),
            ),
            twist=True,
        )
    raise ValueError(f"unknown family tag {tag!r}")


def _reject_params(params: Mapping) -> None:
    if params:
        raise TypeError(f"unexpected parameters: {sorted(params)}")


# ---------------------------------------------------------------------------
# bounded enumeration


FAMILIES_SCHEMA = "families.v1"


class EnumerationResult(NamedTuple):
    max_genus: int
    b_range: tuple[int, int]
    families: Mapping[str, tuple[FixedPointData, ...]]
    rejected: Mapping[str, int]

    def to_json_dict(self) -> dict:
        return {
            "schema": FAMILIES_SCHEMA,
            "max_genus": self.max_genus,
            "b_range": list(self.b_range),
            "families": {
                key: [d.to_json_dict() for d in members]
                for key, members in sorted(self.families.items())
            },
            "rejected": dict(sorted(self.rejected.items())),
        }


def enumerate_types(max_genus: int, b_range: tuple[int, int]) -> EnumerationResult:
    """Exhaust all admissible data with second Betti number below three.

    Candidates run over both extremal kinds, genera up to ``max_genus``,
    extremal normal degrees in ``b_range``, every middle configuration
    compatible with the Betti bound, every assignment of levels, ties
    included, and both twist settings. The normal splittings of middle
    surfaces are derived from the chain, never enumerated. Survivors
    of the full filter stack are grouped into families.

    A built candidate with a chain passes validate, so failing it raises
    RuntimeError as a fault. ``_shapes`` and ``_with_maximum`` fix the
    extremes' levels, kinds and ``b``, the counts N2 and N4, the shared
    genus of surface extremes and the twist's prerequisites. The chain
    gives the rest. A rank-1 chart (form (1)) has no (-1)-class, and a
    base of positive genus blows down only an open exceptional class,
    so the rank stays >= 1, and >= 2 over a positive-genus minimum,
    which a point maximum (rank 1) therefore never tops; the terminal
    variants fix the last rank. With no middle point the start chart
    stays, where e.F = -1 and e.e = -b: a bare untwisted join fails
    e.F = 1, a bare twisted one forces b = 2 at both ends, and an
    integral e with e.F = 1 has e.e even exactly on the trivial
    (even-b) bundle, so the extremes' b share a parity. Two middle
    surfaces over point extremes at one level are lines of the plane
    (degrees d1 + d2 = 2, each positive), and their two orders solve
    with different splittings, so the chain has no unique solution.
    Failing the localization relations or coming out unclassified
    after validate has never happened, so either raises RuntimeError
    as a fault too.

    The walk is shape-first. A shape is the minimum, the middles with their
    levels, and the maximum's kind and level; ``_shapes`` builds each one
    once, grouped by minimum. All chain walks of one minimum share one
    ``walks`` dict: a prefix key holds neither the levels nor the maximum,
    so a chain prefix is crossed once for every crossing order, shape and
    candidate of that minimum; the dict is dropped with the minimum. A
    shape with a point maximum is one candidate and takes the concrete
    chain solve. A shape with a surface maximum stands for every genus and
    ``b`` of that maximum: the chain never reads the genus, and ``b``
    enters only the last equation of each branch, ``e.e + b = 0``. Every
    branch of the shape is solved once without that equation
    (``_solve_prefix``), and an untwisted maximum of degree ``b`` keeps the
    solutions whose ``e.e`` equals ``-b``. A ``b`` that keeps none adds all
    its genera to the chain tally, and no candidate of it is built. Of
    another ``b`` only the minimum's genus is built: the other genera share
    its chain verdict and, with a chain, fail validate (surface extremes
    share a genus). A free variable or a solver stall in a reduced system,
    like a twist, means the concrete chain solve.

    Either way a candidate's chain is solved once, and that one
    solution feeds every later stage: the splittings are read off its
    crossings, and the sweep of an all-surface candidate runs on it.
    Nothing solves the chain again.
    """
    lo, hi = b_range
    if lo > hi:
        raise ValueError("empty range of normal degrees")
    if max_genus < 0:
        raise ValueError(f"max_genus must be >= 0, got {max_genus}")
    genera = range(max_genus + 1)
    b_values = range(lo, hi + 1)
    rejected: dict[str, int] = {}
    families: dict[str, list[FixedPointData]] = {}

    def reject(stage: str, count: int = 1) -> None:
        if count:
            rejected[stage] = rejected.get(stage, 0) + count

    def decide(
        candidate: FixedPointData, solutions: list[_ChainSolution] | None = None, others: int = 0
    ) -> None:
        # Every shape is well formed, and every chart it reaches has
        # rank <= 3, so c1.c1 >= 7 and the (-1)-class search never refuses.
        # ``others`` counts the unbuilt candidates of the other maximum genera.
        if solutions is None:
            solutions = _chain_solutions(candidate, walks)
        filled = _derive_splittings(candidate, solutions)
        if filled is None:
            reject("chain", 1 + others)
            return
        reject("validate", others)
        if not validate(filled).ok:
            raise RuntimeError(f"invariant broken at the validate stage: {filled!r}")
        if not _localization_relations_hold(filled):
            raise RuntimeError(f"invariant broken at the localization stage: {filled!r}")
        if all(c.is_surface for c in filled.components):
            transport = _chain_result(filled, _unique_solution(solutions))
            if dh_path(filled, 1, [], transport).verdict == "inconsistent":
                reject("sweep")
                return
        tag = classify_type(filled)
        if tag == "unclassified":
            raise RuntimeError(f"invariant broken at the unclassified stage: {filled!r}")
        family = "6" if tag in ("6a", "6b") else tag
        families.setdefault(family, []).append(filled)

    minimum, walks = None, {}
    for shape in _shapes(genera, b_values):
        if shape.minimum != minimum:
            minimum, walks = shape.minimum, {}
        if shape.maximum.is_point:
            decide(shape)
            continue
        by_square = _solve_prefix(shape, walks)
        solved = [b for b in b_values if by_square is None or -b in by_square]
        # No e.e = -b solution: every genus of such a b is a chain reject.
        reject("chain", (len(b_values) - len(solved)) * len(genera))
        for b in solved:
            solutions = None if by_square is None else by_square[-b]
            decide(_with_maximum(shape, minimum.genus, b), solutions, len(genera) - 1)
        if minimum.genus == 0 and minimum.b % 2 == 0 and all(c.is_surface for c in shape.components):
            for b in b_values[lo % 2 :: 2]:  # every even b
                decide(_with_maximum(shape, 0, b, twist=True))
    return EnumerationResult(
        max_genus=max_genus,
        b_range=(lo, hi),
        families={
            key: tuple(sorted(members, key=lambda d: d.dumps()))
            for key, members in families.items()
        },
        rejected=rejected,
    )


def _with_maximum(shape: FixedPointData, genus: int, b: int, twist: bool = False) -> FixedPointData:
    """The candidate of ``shape`` whose surface maximum has this genus and ``b``."""
    *rest, maximum = shape.components
    top = surface(4, maximum.level, genus=genus, b=b)
    return _datum((*rest, top), shape.minimum, top, twist)


def _datum(components: tuple, minimum: FixedComponent, maximum: FixedComponent, twist=False):
    """``FixedPointData(components, twist)`` built by a caller that knows
    its extremes, so it seeds the extremes memo (``_memo``) with them."""
    data = FixedPointData(components, twist=twist)
    data.__dict__.update(_minimum=minimum, _maximum=maximum)
    return data


def _solve_prefix(
    shape: FixedPointData, walks: dict | None = None
) -> dict[Rational, list[_ChainSolution]] | None:
    """Chain solutions of a shape with a surface maximum, grouped by ``e.e``.

    The shape's maximum has genus 0 and ``b = 0``, so the last equation
    of every branch is ``e.e`` itself. The branches come from the walks
    in ``walks``, shared with the other shapes of the same minimum (a
    fresh dict when None). All branches are walked first, then each is
    solved without that equation. When all those
    solutions are bounded, the solutions of the branch for a maximum of
    degree ``b`` are exactly the ones with ``e.e = -b``. Returns None
    when some reduced system has a free variable or stalls the solver.
    A bounded solution fixes every unknown (``_resolve_branch``), so
    ``e.e`` is a number, the top chart's Euler vector at it squared.
    """
    branches = list(_branches(shape, {} if walks is None else walks))
    by_square: dict[Rational, dict[tuple, _ChainSolution]] = {}
    for branch in branches:
        try:
            solutions = _solve_rest(branch)
        except SolverStallError:
            return None
        for sol in solutions:
            if sol.free:
                return None
            values = sol.as_dict()
            resolved = _resolve_branch(branch, values)
            if resolved is not None:
                e = branch.top.euler_at(values)
                square = _dot(branch.top.gram, e, e)
                found = by_square.setdefault(square, {})
                found.setdefault(resolved.key, resolved)
    return {square: list(found.values()) for square, found in by_square.items()}


def _solve_rest(branch: _Branch) -> list[Solution]:
    """Solve a branch without its last equation."""
    return solve_system(list(branch.equations[:-1]))


def _derive_splittings(
    data: FixedPointData, solutions: list[_ChainSolution]
) -> FixedPointData | None:
    """Fill in (b_plus, b_minus) of middle surfaces from the chain solutions.

    Data without index-2 surfaces passes when its chain has a solution;
    otherwise the splittings are read off the one bounded solution, and
    the data is None when there is no unique solution or some
    splitting is not integral.
    """
    if not any(comp.is_surface and comp.index == 2 for comp in data.components):
        return data if solutions else None
    if len(solutions) != 1:
        return None
    components = list(data.components)
    for crossing in solutions[0].crossings:
        splitting = crossing.splitting
        if splitting is None:
            return None
        b_plus, b_minus = splitting
        components[crossing.position] = replace(
            components[crossing.position], b_plus=b_plus, b_minus=b_minus
        )
    return _datum(tuple(components), data.minimum, data.maximum, data.twist)


def b_plus_minus(
    data: FixedPointData, surface: FixedComponent | int
) -> tuple[int, int]:
    """(b_plus, b_minus) of an index-2 surface from the wall calculus.

    With e the Euler class of the level just below the surface and eta
    its dual class, b_minus = -pair(e, eta) and b_plus = pair(e + eta,
    eta). Declared values on the data are ignored; this recomputes.
    The surface may be given as a component of the data or as its
    position, a non-bool int in ``range(len(data.components))``.
    """
    if isinstance(surface, FixedComponent) and surface in data.components:
        position = data.components.index(surface)
    elif (
        isinstance(surface, int)
        and not isinstance(surface, bool)
        and 0 <= surface < len(data.components)
    ):
        position = surface
    else:
        raise InvalidDataError(
            f"b_plus_minus needs a position in range({len(data.components)}) "
            f"or a component of the data, got {surface!r}"
        )
    component = data.components[position]
    if not (component.is_surface and component.index == 2):
        raise InvalidDataError("b_plus_minus needs an index-2 surface")
    crossing = next(c for c in euler_transport(data).crossings if c.position == position)
    splitting = crossing.splitting
    if splitting is None:
        raise NoSolutionError("normal splitting is not integral")
    return splitting


def _localization_relations_hold(data: FixedPointData) -> bool:
    return _relations_hold(dict(_c1_power_integrals(data)))


def _shapes(genera: range, b_values: range) -> Iterable[FixedPointData]:
    """Every candidate shape once, a surface maximum standing as genus 0, ``b = 0``.

    Two level assignments give the same shape when they permute equal
    middles. Equal middles are listed next to each other, so the first
    assignment of each shape is the one whose levels never fall between
    equal neighbours, and only it is built. Components and assignments
    are built once per call, and each shape carries its extremes
    (``_datum``).
    """
    assignments = lru_cache(maxsize=None)(_level_assignments)
    point_at, surface_at = lru_cache(maxsize=None)(point), lru_cache(maxsize=None)(surface)
    minima = [point(0, 0)] + [
        surface(0, 0, genus=g, b=b) for g in genera for b in b_values
    ]
    for minimum in minima:
        b2_base = 1 if minimum.is_surface else 0
        # A point minimum under a surface maximum mirrors a surface
        # minimum under a point maximum; it is counted there.
        for max_is_surface in (False, True) if minimum.is_surface else (False,):
            for n2 in range(3):
                # The second Betti number b2_base + n2 + n_mid stays below 3.
                for n_mid in range(3 - b2_base - n2):
                    # >= 0, and >= 1 under extremes of unequal kinds.
                    n4 = b2_base + n2 - (1 if max_is_surface else 0)
                    for mid_genera in itertools.combinations_with_replacement(
                        genera, n_mid
                    ):
                        # (index, genus); a genus of None is a point.
                        middles = (
                            [(2, None)] * n2
                            + [(4, None)] * n4
                            + [(2, g1) for g1 in mid_genera]
                        )
                        for levels in assignments(len(middles)):
                            if any(
                                m == n and lo > hi
                                for m, n, lo, hi in zip(middles, middles[1:], levels, levels[1:])
                            ):
                                continue
                            top = max(levels, default=0) + 1
                            maximum = (
                                surface_at(4, top, 0, 0) if max_is_surface else point_at(6, top)
                            )
                            yield _datum(
                                (
                                    minimum,
                                    *(
                                        point_at(index, level)
                                        if g1 is None
                                        else surface_at(2, level, g1)
                                        for (index, g1), level in zip(middles, levels)
                                    ),
                                    maximum,
                                ),
                                minimum,
                                maximum,
                            )


def _level_assignments(count: int) -> tuple[tuple[int, ...], ...]:
    """Levels 1..k for ``count`` middles that use every level: all orderings with ties."""
    return tuple(
        sorted(
            combo
            for groups in range(count + 1)
            for combo in itertools.product(range(1, groups + 1), repeat=count)
            if len(set(combo)) == groups
        )
    )
