"""Exact circle-equivariant localization over the fixed-point data.

The integral of an equivariant class is the sum, over fixed
components, of the restriction divided by the equivariant Euler class
of the normal bundle (Atiyah-Bott, Berline-Vergne). For semi-free
actions on six-manifolds every normal weight is +-1, so each Euler
class has the shape ``sigma lambda^m + beta lambda^(m-1) u`` with
sigma = +-1 (``_euler_shape``), and each c_1 restriction the shape
``a lambda + gamma u`` (``_c1_shape``). Each summand therefore has a
closed form: ``abbv_integrate`` integrates every term of an exact
restriction against the component's Euler shape without forming an
inverse Euler class. ``localize`` and the enumeration's relation check
integrate 1 + c_1 + c_1^2 + c_1^3 in one sum, built from the c_1
shapes, and read the integral of each power off its own power of
lambda (``_c1_power_integrals``); the relations are that the first three
vanish (``_relations_hold``).

This module also solves for the canonical restriction tables of the
small-Betti-number shapes: each fixed component contributes one Thom
class (and surfaces a second, u-extended class), their unknown
restrictions at higher components are determined by requiring that
every product integrates to zero below the top degree, and the known
one-line normal forms appear as the solved values. The table's rows
are plain term tuples like ``EquivariantClass.terms``, a known entry a
scalar and an unknown one the name of its variable. Its equations take
the same closed form against the same Euler shapes (``_integrate_pair``):
each entry becomes atoms (``_atoms``) once, and each equation adds the
integrals of its atom pairs into one monomial dict per power of lambda
and becomes its term tuple (``equation``) once. No inverse Euler class
is formed on either path. The solved table is read straight from the
solution's values, and c_1 is decomposed over the basis from its
nonzero rows only.

Last, it sweeps the reduced symplectic class of all-surface data
(Duistermaat-Heckman): the conditions on a positive sweep are listed
once, as linear forms in the start size and the gaps
(``_sweep_conditions``); ``dh_path`` evaluates them at the given
values and decides by exact elimination whether any values meet them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Sequence

from ._solve import (
    AffineConstraint,
    Equation,
    _mono_mul,
    _scalar,
    equation,
    feasible,
    solve_system,
    span_coordinates,
)
from .algebra import CarrierMismatchError, EquivariantClass, ReducedClass, fiber_class, pair
from .fixed_points import (
    POINT,
    FixedComponent,
    FixedPointData,
    InvalidDataError,
    classify_type,
)
from .rationals import Rational, canon, format_rational


class NoSolutionError(ValueError):
    """The restriction equations admit no admissible solution."""


class MultipleSolutionsError(ValueError):
    """The restriction equations do not pin down a unique table."""


# ---------------------------------------------------------------------------
# Euler classes and first Chern class restrictions


def _euler_shape(component: FixedComponent) -> tuple[int, int, int]:
    """``(m, sigma, beta)`` of the equivariant Euler class
    ``sigma lambda^m + beta lambda^(m-1) u`` of the normal bundle of a
    fixed component.

    Points: m = 3, beta = 0 and sigma = (-1)^(index/2). Surfaces: m = 2;
    the two normal line bundles carry weights +-1 according to the
    index, twisted by their Chern numbers, so (sigma, beta) is (1, b),
    (1, -b) or (-1, b_minus - b_plus) at index 0, 4 or 2.
    """
    if component.is_point:
        return 3, -1 if component.index in (2, 6) else 1, 0
    if component.index in (0, 4):
        b = _require(component.b, component, "b")
        return 2, 1, b if component.index == 0 else -b
    b_plus = _require(component.b_plus, component, "b_plus")
    b_minus = _require(component.b_minus, component, "b_minus")
    return 2, -1, b_minus - b_plus


def _c1_shape(component: FixedComponent) -> tuple[int, int]:
    """``(a, gamma)`` of the restriction ``a lambda + gamma u`` of the
    equivariant first Chern class to a fixed component (gamma = 0 at a
    point, a = 0 on an index-2 surface)."""
    if component.is_point:
        return {0: 3, 2: 1, 4: -1, 6: -3}[component.index], 0
    g = component.genus or 0
    if component.index in (0, 4):
        b = _require(component.b, component, "b")
        return 2 if component.index == 0 else -2, 2 - 2 * g + b
    b_plus = _require(component.b_plus, component, "b_plus")
    b_minus = _require(component.b_minus, component, "b_minus")
    return 0, 2 - 2 * g + b_plus + b_minus


def c1_restriction(component: FixedComponent) -> EquivariantClass:
    """Restriction of the equivariant first Chern class of the manifold."""
    a, gamma = _c1_shape(component)
    return EquivariantClass.make(component.kind, {1: a, 0: (0, gamma)})


def _require(value: int | None, component: FixedComponent, name: str) -> int:
    if value is None:
        raise InvalidDataError(f"{component.describe()} is missing {name}")
    return value


def c1_restrictions(data: FixedPointData) -> tuple[EquivariantClass, ...]:
    return tuple(c1_restriction(c) for c in data.components)


# ---------------------------------------------------------------------------
# the localization sum


def _euler_shapes(data: FixedPointData) -> tuple[tuple[str, int, int, int], ...]:
    """The carrier and the Euler shape (``_euler_shape``) of each component, in order."""
    return tuple((c.kind, *_euler_shape(c)) for c in data.components)


def abbv_integrate(
    data: FixedPointData,
    restrictions: Sequence[EquivariantClass],
) -> dict[int, Rational]:
    """Localized integral of a class given its fixed-point restrictions.

    Returns the Laurent coefficients, keyed by power of lambda, of the
    sum of restriction / Euler over all fixed components. The sequence
    must align with ``data.components``. A genuine equivariant class of
    degree below six integrates to zero in every Laurent degree. Against
    the Euler shapes (``_euler_shape``), a term ``(c + d u) lambda^k``
    integrates to ``sigma c lambda^(k-3)`` at a point and to
    ``sigma d lambda^(k-2) - beta c lambda^(k-3)`` on a surface.
    """
    if len(restrictions) != len(data.components):
        raise ValueError(
            f"need {len(data.components)} restrictions, got {len(restrictions)}"
        )
    shapes = _euler_shapes(data)
    total: dict[int, Rational] = {}
    for restriction, (carrier, m, sigma, beta) in zip(restrictions, shapes):
        if restriction.carrier != carrier:
            raise CarrierMismatchError(
                f"cannot combine {restriction.carrier} class with {carrier} class"
            )
        point = carrier == POINT
        for k, (c, d) in restriction.terms:
            lead = c if point else d
            if lead:
                total[k - m] = total.get(k - m, 0) + sigma * lead
            if beta and c:  # never at a point, whose beta is 0
                total[k - m - 1] = total.get(k - m - 1, 0) - beta * c
    return {k: canon(total[k]) for k in sorted(total) if total[k]}


def _c1_power_integrals(
    data: FixedPointData,
) -> Iterator[tuple[str, dict[int, Rational]]]:
    """The integrals of 1, c_1, c_1^2 and c_1^3, named as in the ``localize`` report.

    One ``abbv_integrate`` call integrates 1 + c_1 + c_1^2 + c_1^3. At a
    component with c_1 restriction ``a lambda + gamma u`` (``_c1_shape``),
    c_1^j is ``a^j lambda^j + j a^(j-1) gamma lambda^(j-1) u`` since u^2 = 0,
    so the sum's term at lambda^j is ``(a^j, (j+1) a^j gamma)`` for j < 3
    and ``(a^3, 0)`` at j = 3; a zero term (j > 0 where a = 0) is left out.
    c_1^k has degree 2k and the Euler shape lowers it by six, so the
    integral of c_1^k is the sum's single term at lambda^(k-3).
    """
    total = abbv_integrate(data, [_c1_power_sum(c) for c in data.components])
    for k, name in enumerate(("1", "c_1", "c_1^2", "c_1^3")):
        value = total.get(k - 3)
        yield name, {} if value is None else {k - 3: value}


def _c1_power_sum(component: FixedComponent) -> EquivariantClass:
    """The restriction of 1 + c_1 + c_1^2 + c_1^3 to a fixed component."""
    a, gamma = _c1_shape(component)
    terms = ((0, (1, gamma)),)
    if a:
        a2 = a * a
        terms += ((1, (a, 2 * a * gamma)), (2, (a2, 3 * a2 * gamma)), (3, (a2 * a, 0)))
    return EquivariantClass(component.kind, terms)


def _relations_hold(integrals: Mapping[str, dict[int, Rational]]) -> bool:
    """Whether the integrals of 1, c_1 and c_1^2, named as by
    ``_c1_power_integrals``, vanish. They do on the data of an action:
    these are the localization relations.
    """
    return not (integrals["1"] or integrals["c_1"] or integrals["c_1^2"])


# ---------------------------------------------------------------------------
# restriction tables


class TableClass(NamedTuple):
    """One basis class: its name, degree, and defining component label."""

    name: str
    degree: int
    home: str
    restrictions: tuple[EquivariantClass, ...]


class RestrictionTable(NamedTuple):
    data: FixedPointData
    type_tag: str
    labels: tuple[str, ...]
    positions: tuple[int, ...]
    classes: tuple[TableClass, ...]
    c1_values: tuple[EquivariantClass, ...]
    c1_decomposition: tuple[tuple[str, Fraction], ...]
    selection_rule_applied: bool
    rule_decisive_for_odd_parity: bool

    def restriction(self, class_name: str, label: str) -> EquivariantClass:
        col = self.labels.index(label)
        for cls in self.classes:
            if cls.name == class_name:
                return cls.restrictions[col]
        raise KeyError(class_name)

    def component_for(self, label: str) -> FixedComponent:
        return self.data.components[self.positions[self.labels.index(label)]]

    def render_text(self) -> str:
        headers = ["class", "degree"] + [
            f"{label} ({_label_note(self.component_for(label))})"
            for label in self.labels
        ]
        rows = []
        for cls in self.classes:
            rows.append(
                [_pretty_name(cls.name), str(cls.degree)]
                + [format_class(r) for r in cls.restrictions]
            )
        rows.append(
            ["c_1", "2"] + [format_class(r) for r in self.c1_values]
        )
        widths = [
            max(len(row[i]) for row in [headers] + rows)
            for i in range(len(headers))
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()
        ]
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append(
                "  ".join(x.ljust(w) for x, w in zip(row, widths)).rstrip()
            )
        deco = ", ".join(
            f"{format_rational(coeff)}*{_pretty_name(name)}"
            for name, coeff in self.c1_decomposition
            if coeff
        )
        lines.append(f"c_1 = {deco}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "schema": RTABLE_SCHEMA,
            "type": self.type_tag,
            "data": self.data.to_json_dict(),
            "labels": {
                label: self.positions[i] for i, label in enumerate(self.labels)
            },
            "classes": [
                {
                    "name": cls.name,
                    "degree": cls.degree,
                    "home": cls.home,
                    "restrictions": {
                        label: _class_payload(r)
                        for label, r in zip(self.labels, cls.restrictions)
                    },
                }
                for cls in self.classes
            ],
            "c1": {
                "restrictions": {
                    label: _class_payload(r)
                    for label, r in zip(self.labels, self.c1_values)
                },
                "decomposition": [
                    [name, format_rational(coeff)]
                    for name, coeff in self.c1_decomposition
                ],
            },
            "flags": {
                "selection_rule_applied": self.selection_rule_applied,
                "rule_decisive_for_odd_parity": self.rule_decisive_for_odd_parity,
            },
        }


RTABLE_SCHEMA = "rtable.v1"


def _class_payload(cls: EquivariantClass) -> list:
    return [
        [k, format_rational(c), format_rational(d)] for k, (c, d) in cls.terms
    ]


def _pretty_name(name: str) -> str:
    """A table name, ``alpha_k`` or ``alpha'_k`` possibly behind ``lambda*``, in Greek."""
    return name.replace("lambda*", "λ·").replace("alpha'_", "α′_").replace("alpha_", "α_")


def _label_note(component: FixedComponent) -> str:
    kind = "pt" if component.is_point else f"Σ_{component.genus}"
    return f"{kind}, idx {component.index}"


def format_class(cls: EquivariantClass) -> str:
    """Human form like ``-λ^2 + 2λu`` with u^2 = 0 suppressed."""
    if cls.is_zero():
        return "0"
    parts: list[str] = []
    for k, (c, d) in sorted(cls.terms, reverse=True):
        if c:
            parts.append(_format_monomial(c, k, False))
        if d:
            parts.append(_format_monomial(d, k, True))
    out = parts[0]
    for part in parts[1:]:
        out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
    return out


def _format_monomial(coeff: Fraction, k: int, with_u: bool) -> str:
    if with_u:
        power = "u" if k == 0 else ("λu" if k == 1 else f"λ^{k}u")
    else:
        power = "" if k == 0 else ("λ" if k == 1 else f"λ^{k}")
    if not power:
        return format_rational(coeff)
    if coeff == 1:
        return power
    if coeff == -1:
        return f"-{power}"
    return f"{format_rational(coeff)}{power}"


# ---------------------------------------------------------------------------
# building and solving the skeleton


_Terms = tuple[tuple[int, tuple], ...]


class _SkeletonClass(NamedTuple):
    """A basis class with its restriction at each label, as term tuples.

    A known entry is a scalar; an unknown one is the name (a ``str``) of
    its variable.
    """

    name: str
    degree: int
    home_index: int  # position into the label order
    restrictions: tuple[_Terms, ...]


def _table_labels(data: FixedPointData, tag: str) -> tuple[int, ...]:
    """Component positions in presentation order F1, F2, ...

    Components are labeled from the bottom level up, except for the
    bare twisted two-surface shape whose customary labels start at the
    top.
    """
    order = list(range(len(data.components)))
    if tag == "4":
        order.reverse()
    return tuple(order)


def _thom_class(component: FixedComponent) -> EquivariantClass:
    if component.is_point:
        value = {2: -1, 4: 1, 6: -1}[component.index]
        return EquivariantClass.make("point", {component.index // 2: value})
    if component.index == 2:
        b_minus = _require(component.b_minus, component, "b_minus")
        return EquivariantClass.make("surface", {1: -1, 0: (0, b_minus)})
    b = _require(component.b, component, "b")
    return EquivariantClass.make("surface", {2: 1, 1: (0, -b)})


def _u_extension(component: FixedComponent) -> EquivariantClass:
    if component.index == 0:
        return EquivariantClass.make("surface", {0: (0, 1)})
    if component.index == 2:
        return EquivariantClass.make("surface", {1: (0, -1)})
    return EquivariantClass.make("surface", {2: (0, 1)})


def _unknown_name(class_name: str, label: str, part: str) -> str:
    """The variable of a restriction's lambda ("t") or u ("s") part."""
    return f"{class_name}|{label}.{part}"


def _unknown_restriction(
    class_name: str, label: str, degree: int, component: FixedComponent
) -> _Terms:
    half = degree // 2
    if degree >= component.index + (0 if component.is_point else 2):
        return ()
    t = ((half, (_unknown_name(class_name, label, "t"), 0)),)
    if component.is_point:
        return t
    s = ((half - 1, (0, _unknown_name(class_name, label, "s"))),)
    return s if degree == component.index else s + t


def _build_skeleton(
    data: FixedPointData, tag: str
) -> tuple[tuple[int, ...], list[_SkeletonClass]]:
    positions = _table_labels(data, tag)
    labels = [f"F{i + 1}" for i in range(len(positions))]
    comps = data.components
    min_pos = comps.index(data.minimum)
    unit = ((0, (1, 0)),)  # the unit class's terms on either carrier
    classes: list[_SkeletonClass] = []
    for li, pos in enumerate(positions):
        comp = comps[pos]
        specs: list[tuple[str, int, EquivariantClass]] = []
        if pos == min_pos:
            specs.append((f"alpha_{li + 1}", 0, None))
            if comp.is_surface:
                specs.append((f"alpha'_{li + 1}", 2, _u_extension(comp)))
        else:
            specs.append((f"alpha_{li + 1}", comp.index, _thom_class(comp)))
            if comp.is_surface:
                specs.append(
                    (f"alpha'_{li + 1}", comp.index + 2, _u_extension(comp))
                )
        for name, degree, own in specs:
            row: list[_Terms] = []
            for lj, pos_j in enumerate(positions):
                comp_j = comps[pos_j]
                if degree == 0:
                    row.append(unit)
                elif pos_j == pos:
                    row.append(own.terms)
                elif pos_j < pos:
                    row.append(())
                else:
                    row.append(
                        _unknown_restriction(name, labels[lj], degree, comp_j)
                    )
            classes.append(_SkeletonClass(name, degree, li, tuple(row)))
    classes.sort(key=lambda c: (c.degree, c.home_index, c.name))
    return positions, classes


def _solved_restriction(
    carrier: str, terms: _Terms, values: Mapping[str, Rational]
) -> EquivariantClass:
    """A skeleton entry with its unknowns, each one its variable's name,
    read from the solution: every unknown occurs in the equations (in
    its class's own integral, or as ``s t`` in its square)."""
    solved = []
    for k, (c, d) in terms:
        if type(c) is str:
            c = values[c]
        if type(d) is str:
            d = values[d]
        if c or d:
            solved.append((k, (c, d)))
    return EquivariantClass(carrier, tuple(solved))


def _atoms(terms: _Terms) -> list[tuple]:
    """A term list as atoms ``(k, j, m, c)``, each ``c m lambda^k u^j``.

    Each nonzero part of a term, scalar (``j = 0``) or ``u`` (``j = 1``),
    gives one atom: a number ``c`` at the empty monomial, or an
    unknown's name as ``c = 1`` at its variable's monomial. Like terms
    are not collected.
    """
    out = []
    for k, (c, d) in terms:
        for j, part in ((0, c), (1, d)):
            if type(part) is str:
                out.append((k, j, ((part, 1),), 1))
            elif part:
                out.append((k, j, (), part))
    return out


def _integrate_pair(
    shape: tuple[str, int, int, int],
    a: Sequence[tuple],
    b: Sequence[tuple],
    total: dict[int, dict],
) -> None:
    """Add the integral over one fixed component of the product of two
    atom lists (``_atoms``) into ``total``, a monomial dict per power of lambda.

    ``shape`` is the component's entry of ``_euler_shapes``, so this is
    ``abbv_integrate``'s closed form: a product atom ``c lambda^k u^j``
    adds ``sigma c`` at lambda^(k - m) when ``u^j`` is the part the
    carrier integrates (j = 0 at a point, 1 on a surface), and
    ``-beta c`` at lambda^(k - m - 1) when j = 0 on a surface. The
    product is not formed, so the caller builds each sum once.
    """
    carrier, m, sigma, beta = shape
    part = 0 if carrier == POINT else 1
    for k1, j1, m1, c1 in a:
        for k2, j2, m2, c2 in b:
            j = j1 + j2
            if j == part:
                k, c = k1 + k2 - m, sigma * c1 * c2
            elif j == 0 and beta:  # a surface's scalar part
                k, c = k1 + k2 - m - 1, -beta * c1 * c2
            else:
                continue
            acc = total.get(k)
            if acc is None:
                acc = total[k] = {}
            mono = _mono_mul(m1, m2)
            acc[mono] = acc[mono] + c if mono in acc else c


def _integration_equations(
    data: FixedPointData,
    positions: tuple[int, ...],
    factors: Sequence[_SkeletonClass],
    c1_values: Sequence[EquivariantClass],
) -> list[Equation]:
    """The integration constraints on the basis restrictions.

    Every restriction is homogeneous: a basis class lies in its degree,
    the first Chern class in degree 2, and dividing by a component's
    Euler class lowers the degree by 6 - dim. A product of total degree
    D therefore integrates to the single Laurent term lambda^((D - 6) / 2).
    Below degree six that term must vanish; at degree six it is a
    constant, which constrains nothing. Every positive degree is at
    least 2, so the constraints come from the classes below degree six,
    then from the products of two degree-2 classes (c_1 included); the
    solver's case split follows this order. Each integrand pairs two
    atom lists per component (``_integrate_pair``): a single class
    pairs with the unit, and a product's two factors pair directly.
    ``c1_values`` are the c_1 restrictions at ``positions``, which
    ``solve_restriction_table`` forms once for the equations and the table.
    """
    shapes = _euler_shapes(data)
    ordered = [shapes[p] for p in positions]
    unit = [(0, 0, (), 1)]  # the atom of the unit class, on either carrier
    integrands: list[list[tuple[list, list]]] = []
    degree_two: list[list[list[tuple]]] = []
    for f in factors:
        if f.degree < 6:
            row = [_atoms(r) for r in f.restrictions]
            integrands.append([(a, unit) for a in row])
            if f.degree == 2:
                degree_two.append(row)
    degree_two.append([_atoms(c1.terms) for c1 in c1_values])
    for i, left in enumerate(degree_two):
        integrands += [list(zip(left, right)) for right in degree_two[i:]]
    equations: list[Equation] = []
    for integrand in integrands:
        total: dict[int, dict] = {}
        for shape, (a, b) in zip(ordered, integrand):
            _integrate_pair(shape, a, b, total)
        for k in sorted(total):
            value = equation(total[k])
            if value:
                equations.append(value)
    return equations


def solve_restriction_table(data: FixedPointData) -> RestrictionTable:
    """Solve for the canonical equivariant basis restrictions.

    The unknown restrictions at higher components are pinned down by
    requiring each basis class below degree six, and each product of
    two degree-2 classes or the first Chern class, to integrate to
    zero (see ``_integration_equations``). Those equations must leave
    no variable free. Among the rational solutions, all class
    coefficients must be integers; for three-surface data that can
    still leave two branches, told apart by matching the minimum
    u-class against the twist and the dual class of the middle surface
    (the selection rule).
    """
    tag = classify_type(data)
    if tag == "unclassified":
        raise InvalidDataError("no restriction table for unclassified data")
    positions, skeleton = _build_skeleton(data, tag)
    c1s = c1_restrictions(data)
    c1_values = tuple(c1s[p] for p in positions)
    equations = _integration_equations(data, positions, skeleton, c1_values)
    candidates = solve_system(equations)
    rule_values: dict[str, Fraction] | None = None
    if tag in ("6a", "6b"):
        rule_values = _selection_rule_values(data, positions, skeleton)
    if any(sol.free for sol in candidates):
        raise MultipleSolutionsError("restriction equations are underdetermined")

    integral = [
        sol
        for sol in candidates
        if all(v.denominator == 1 for _, v in sol.assignment)
    ]
    if not integral:
        raise NoSolutionError(
            "no integral solution: the fixed point data is inconsistent"
        )
    selection_applied = len(integral) > 1
    if selection_applied:
        if rule_values is None:
            raise MultipleSolutionsError(
                f"{len(integral)} integral solutions survive"
            )
        filtered = [
            sol
            for sol in integral
            if all(
                sol.as_dict().get(name) == value
                for name, value in rule_values.items()
            )
        ]
        if not filtered:
            raise NoSolutionError(
                "selection rule rejected every integral solution"
            )
        if len(filtered) > 1:
            raise MultipleSolutionsError(
                f"{len(filtered)} solutions survive the selection rule"
            )
        integral = filtered
    solution = integral[0]
    values = solution.as_dict()

    labels = tuple(f"F{i + 1}" for i in range(len(positions)))
    carriers = [data.components[p].kind for p in positions]
    table_classes = tuple(
        TableClass(
            name=cls.name,
            degree=cls.degree,
            home=labels[cls.home_index],
            restrictions=tuple(
                _solved_restriction(carrier, terms, values)
                for carrier, terms in zip(carriers, cls.restrictions)
            ),
        )
        for cls in skeleton
    )
    decomposition = _c1_decomposition(table_classes, c1_values)
    odd_decisive = (
        selection_applied
        and data.minimum.is_surface
        and (data.minimum.b or 0) % 2 != 0
    )
    return RestrictionTable(
        data=data,
        type_tag=tag,
        labels=labels,
        positions=positions,
        classes=table_classes,
        c1_values=c1_values,
        c1_decomposition=decomposition,
        selection_rule_applied=selection_applied,
        rule_decisive_for_odd_parity=odd_decisive,
    )


def _selection_rule_values(
    data: FixedPointData,
    positions: tuple[int, ...],
    skeleton: Sequence[_SkeletonClass],
) -> dict[str, Fraction]:
    """The selection rule's values of the minimum u-class, for three-surface data.

    Its u-part at the middle surface equals the section coefficient of
    the middle surface's dual class, and its lambda-part at the top is
    0 without a twist and -1 with one.
    """
    from .classifier import euler_transport

    middle = next(c for c in data.middles() if c.is_surface)
    position = data.components.index(middle)
    eta = next(c.dual for c in euler_transport(data).crossings if c.position == position)
    min_label_index = positions.index(data.components.index(data.minimum))
    mid_label_index = positions.index(position)
    max_label_index = positions.index(data.components.index(data.maximum))
    name = f"alpha'_{min_label_index + 1}"
    return {
        _unknown_name(name, f"F{max_label_index + 1}", "t"): -1 if data.twist else 0,
        _unknown_name(name, f"F{mid_label_index + 1}", "s"): eta.coeffs[1],
    }


def _c1_decomposition(
    classes: Sequence[TableClass],
    c1_values: Sequence[EquivariantClass],
) -> tuple[tuple[str, Fraction], ...]:
    unit = next(cls for cls in classes if cls.degree == 0)
    columns = [(f"lambda*{unit.name}", [r.shifted(1) for r in unit.restrictions])]
    columns += [(cls.name, cls.restrictions) for cls in classes if cls.degree == 2]
    # One row per (component, power of lambda, part) at which a column
    # or c_1 (keyed "") has a nonzero coefficient: no all-zero rows.
    rows: list[dict[str, Rational]] = []
    for ci in range(len(c1_values)):
        entries: dict[tuple[int, int], dict[str, Rational]] = {}
        for name, col in columns + [("", c1_values)]:
            for k, pair in col[ci].terms:
                for part in (0, 1):
                    if pair[part]:
                        entries.setdefault((k, part), {})[name] = pair[part]
        rows += [coeffs for _, coeffs in sorted(entries.items())]
    # Each basis class vanishes below its home and is its Thom class
    # there, so the columns are triangular and the coordinates unique.
    names = [name for name, _ in columns]
    basis = [[row.get(name, 0) for row in rows] for name in names]
    solved = span_coordinates(basis, [[row.get("", 0) for row in rows]])[0]
    if solved is None:
        raise NoSolutionError("c_1 does not lie in the span of the basis")
    return tuple(zip(names, solved))


def w2_vanishes(data: FixedPointData) -> bool:
    """Whether the second Stiefel-Whitney class vanishes.

    True exactly when every coefficient of the first Chern class over
    the integral basis of the solved restriction table is even.
    """
    table = solve_restriction_table(data)
    return all(
        coeff.denominator == 1 and coeff.numerator % 2 == 0
        for _, coeff in table.c1_decomposition
    )


# ---------------------------------------------------------------------------
# Duistermaat-Heckman paths


class DHPath(NamedTuple):
    """A reduced symplectic class swept from the minimum upward."""

    verdict: str  # "positive" | "not_positive" | "inconsistent"
    times: tuple[Fraction, ...]
    omegas: tuple[ReducedClass, ...]
    wall_areas: tuple[Fraction, ...]
    failures: tuple[str, ...]
    complete: bool


def dh_path(
    data: FixedPointData,
    alpha0: Fraction | int,
    gaps: Sequence[Fraction | int],
) -> DHPath:
    """Sweep the reduced symplectic class and check positivity.

    The class starts at alpha0 times the fiber class and changes at
    speed minus the Euler class of the current level. ``gaps`` are the
    segment durations from the bottom; fewer gaps than segments yields
    a partial sweep checked only as far as it goes. A complete sweep
    must additionally collapse the correct class at the top while the
    maximum keeps positive size. The verdict is "positive" when this
    instance passes, "not_positive" when it fails but some choice of
    alpha0 and gaps would pass, and "inconsistent" when none would.

    The sweep reads the data's solved chain, ``euler_transport(data)``,
    which is solved once per datum and kept on it.
    """
    from .classifier import euler_transport

    if any(c.is_point for c in data.components):
        raise InvalidDataError("the sweep needs every fixed component a surface")
    alpha0 = _scalar(alpha0)
    gaps = [_scalar(g) for g in gaps]
    transport = euler_transport(data)
    crossings = transport.crossings
    segments = len(crossings) + 1
    if len(gaps) > segments:
        raise ValueError(f"at most {segments} gaps, got {len(gaps)}")
    space = transport.chart
    eulers = [transport.start_euler]
    for ev in crossings:
        eulers.append(eulers[-1] + ev.dual)
    omega = ReducedClass.make(space, alpha0, 0)
    times: list[Rational] = [0]
    omegas = [omega]
    for i, gap in enumerate(gaps):
        omega = omega - eulers[i].scaled(gap)
        times.append(canon(times[-1] + gap))
        omegas.append(omega)
    point = {"a0": alpha0, **{f"g{i}": gap for i, gap in enumerate(gaps)}}
    failures: list[str] = []
    wall_areas: list[Fraction] = []
    constraints: list[AffineConstraint] = []  # every condition, "=" as two ">=" rows
    conditions = _sweep_conditions(space, eulers, crossings, data.twist)
    for step, label, kind, form in conditions:
        constraints.append(AffineConstraint.make(form, 0, kind == ">"))
        if kind == "=":
            constraints.append(AffineConstraint.make({v: -c for v, c in form.items()}, 0, False))
        if step > len(gaps):  # beyond this partial sweep
            continue
        value = canon(sum(c * point[v] for v, c in form.items()))
        if label.startswith("wall"):
            wall_areas.append(value)
        if value <= 0 if kind == ">" else value != 0:
            time = format_rational(times[step])
            failures.append(label.format(value=format_rational(value), time=time))
    if not feasible(constraints):
        verdict = "inconsistent"
    elif not failures:
        verdict = "positive"
    else:
        verdict = "not_positive"
    return DHPath(
        verdict=verdict,
        times=tuple(times),
        omegas=tuple(omegas),
        wall_areas=tuple(wall_areas),
        failures=tuple(failures),
        complete=len(gaps) == segments,
    )


def _sweep_conditions(
    space, eulers, crossings, twist: bool
) -> list[tuple[int, str, str, dict[str, Rational]]]:
    """Every condition on a complete positive sweep, once, in report order.

    Each is ``(step, label, kind, form)``. ``form`` is the pairing of
    omega(t_step) with a class, written as a linear form in the start
    size ``a0`` and the gaps ``g0, g1, ...``; ``kind`` says whether it
    must be positive (">") or vanish ("="). A condition belongs to step
    ``step``, the number of gaps swept before it is read. ``label`` is
    the failure message, with ``{value}`` the form's value and
    ``{time}`` the time t_step.
    """
    x = fiber_class(space)
    y = ReducedClass.make(space, 0, 1)
    collapse, keep = (y, x) if twist else (x, y)
    omega = [("a0", x)]  # omega(t_step) = a0 x - sum over i < step of g_i e_i
    conditions = [(0, "starting size alpha0 must be positive", ">", {"a0": 1})]
    for step, euler in enumerate(eulers, 1):
        omega.append((f"g{step - 1}", -euler))
        conditions.append((step, f"gap {step} must be positive", ">", {f"g{step - 1}": 1}))
        checks = []
        if step <= len(crossings):
            wall = crossings[step - 1].dual
            checks.append((f"wall {step} area {{value}} not positive", ">", wall))
        if step == len(eulers):
            checks += [
                ("collapsing class keeps nonzero size at the top", "=", collapse),
                ("maximum does not keep positive size", ">", keep),
            ]
        else:
            checks += [
                ("fiber size {value} not positive at time {time}", ">", x),
                ("base size {value} not positive at time {time}", ">", y),
            ]
        conditions += [
            (step, label, kind, {v: pair(c, target) for v, c in omega})
            for label, kind, target in checks
        ]
    return conditions
