"""Exact circle-equivariant localization over the fixed-point data.

The integral of an equivariant class is the sum, over fixed
components, of the restriction divided by the equivariant Euler class
of the normal bundle. For semi-free actions on six-manifolds every
normal weight is +-1, so the Euler classes take a small set of shapes
and everything can be computed exactly in Laurent series in the
equivariant parameter.

This module also solves for the canonical restriction tables of the
small-Betti-number shapes: each fixed component contributes one Thom
class (and surfaces a second, u-extended class), their unknown
restrictions at higher components are determined by requiring that
every product integrates to zero below the top degree, and the known
one-line normal forms appear as the solved values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence

from ._solve import AffineConstraint, Poly, _scalar, feasible, solve_linear, solve_system
from .algebra import (
    EquivariantClass,
    ReducedClass,
    fiber_class,
    integrate_component,
    invert_euler,
    mul_terms,
    pair,
)
from .fixed_points import (
    FixedComponent,
    FixedPointData,
    InvalidDataError,
    SchemaError,
    classify_type,
)
from .rationals import Rational, canon, format_rational, parse_rational

if TYPE_CHECKING:
    from .classifier import ChainResult


class NoSolutionError(ValueError):
    """The restriction equations admit no admissible solution."""


class MultipleSolutionsError(ValueError):
    """The restriction equations do not pin down a unique table."""


# ---------------------------------------------------------------------------
# Euler classes and first Chern class restrictions


def equivariant_euler(component: FixedComponent) -> EquivariantClass:
    """Equivariant Euler class of the normal bundle of a fixed component.

    Points: (-1)^(index/2) lambda^3.  Surfaces: the two normal line
    bundles carry weights +-1 according to the index, twisted by their
    Chern numbers.
    """
    if component.is_point:
        sign = -1 if component.index in (2, 6) else 1
        return EquivariantClass.make("point", {3: sign})
    if component.index == 0:
        b = _require(component.b, component, "b")
        return EquivariantClass.make("surface", {2: 1, 1: (0, b)})
    if component.index == 4:
        b = _require(component.b, component, "b")
        return EquivariantClass.make("surface", {2: 1, 1: (0, -b)})
    b_plus = _require(component.b_plus, component, "b_plus")
    b_minus = _require(component.b_minus, component, "b_minus")
    return EquivariantClass.make(
        "surface", {2: -1, 1: (0, b_minus - b_plus)}
    )


def c1_restriction(component: FixedComponent) -> EquivariantClass:
    """Restriction of the equivariant first Chern class of the manifold."""
    if component.is_point:
        coeff = {0: 3, 2: 1, 4: -1, 6: -3}[component.index]
        return EquivariantClass.make("point", {1: coeff})
    g = component.genus or 0
    if component.index == 0:
        b = _require(component.b, component, "b")
        return EquivariantClass.make("surface", {1: 2, 0: (0, 2 - 2 * g + b)})
    if component.index == 4:
        b = _require(component.b, component, "b")
        return EquivariantClass.make("surface", {1: -2, 0: (0, 2 - 2 * g + b)})
    b_plus = _require(component.b_plus, component, "b_plus")
    b_minus = _require(component.b_minus, component, "b_minus")
    return EquivariantClass.make(
        "surface", {0: (0, 2 - 2 * g + b_plus + b_minus)}
    )


def _require(value: int | None, component: FixedComponent, name: str) -> int:
    if value is None:
        raise InvalidDataError(f"{component.describe()} is missing {name}")
    return value


def unit_restrictions(data: FixedPointData) -> tuple[EquivariantClass, ...]:
    return tuple(EquivariantClass.unit(c.kind) for c in data.components)


def c1_restrictions(data: FixedPointData) -> tuple[EquivariantClass, ...]:
    return tuple(c1_restriction(c) for c in data.components)


# ---------------------------------------------------------------------------
# the localization sum


def abbv_integrate(
    data: FixedPointData,
    restrictions: Sequence[EquivariantClass],
) -> dict[int, Rational]:
    """Localized integral of a class given its fixed-point restrictions.

    Returns the Laurent coefficients, keyed by power of lambda, of the
    sum of restriction / Euler over all fixed components. The sequence
    must align with ``data.components``. A genuine equivariant class of
    degree below six integrates to zero in every Laurent degree.
    """
    if len(restrictions) != len(data.components):
        raise ValueError(
            f"need {len(data.components)} restrictions, got {len(restrictions)}"
        )
    total: dict[int, Rational] = {}
    for component, restriction in zip(data.components, restrictions):
        euler_inverse = invert_euler(equivariant_euler(component))
        term = restriction * euler_inverse
        for k, value in integrate_component(term).items():
            total[k] = total.get(k, 0) + value
    return {k: canon(v) for k, v in sorted(total.items()) if v}


# ---------------------------------------------------------------------------
# symbolic equivariant classes (Poly coefficients)

SymTerms = dict[int, tuple[Poly, Poly]]


@dataclass(frozen=True)
class SymClass:
    carrier: str
    terms: tuple[tuple[int, tuple[Poly, Poly]], ...]

    @staticmethod
    def from_exact(cls: EquivariantClass) -> "SymClass":
        return SymClass(
            cls.carrier,
            tuple(
                (k, (Poly.const(c), Poly.const(d))) for k, (c, d) in cls.terms
            ),
        )

    @staticmethod
    def from_dict(carrier: str, terms: SymTerms) -> "SymClass":
        cleaned = tuple(
            sorted(
                (k, (c, d))
                for k, (c, d) in terms.items()
                if not (c.is_zero() and d.is_zero())
            )
        )
        return SymClass(carrier, cleaned)

    def mul(self, other: "SymClass") -> "SymClass":
        if self.carrier != other.carrier:
            raise ValueError("carrier mismatch in symbolic product")
        return SymClass(self.carrier, mul_terms(self.terms, other.terms))

    def substitute(self, values: Mapping[str, Fraction]) -> EquivariantClass:
        out: dict[int, tuple[Fraction, Fraction]] = {}
        for k, (c, d) in self.terms:
            cv = c.substitute(values)
            dv = d.substitute(values)
            if not (cv.is_constant() and dv.is_constant()):
                raise ValueError("unresolved variables in symbolic class")
            out[k] = (cv.constant_value(), dv.constant_value())
        return EquivariantClass.make(self.carrier, out)


# ---------------------------------------------------------------------------
# restriction tables


@dataclass(frozen=True)
class TableClass:
    """One basis class: its name, degree, and defining component label."""

    name: str
    degree: int
    home: str
    restrictions: tuple[EquivariantClass, ...]


@dataclass(frozen=True)
class RestrictionTable:
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

    @staticmethod
    def from_json_dict(payload: Mapping) -> "RestrictionTable":
        if not isinstance(payload, Mapping):
            raise SchemaError("restriction table must be a JSON object")
        if payload.get("schema") != RTABLE_SCHEMA:
            raise SchemaError(f"unsupported schema: {payload.get('schema')!r}")
        data = FixedPointData.from_json_dict(payload.get("data"))
        labels = tuple(f"F{i + 1}" for i in range(len(data.components)))
        try:
            positions = tuple(payload["labels"][label] for label in labels)
            if len(payload["labels"]) != len(labels) or sorted(
                p if type(p) is int else -1 for p in positions
            ) != list(range(len(labels))):
                raise ValueError(f"labels must be F1..F{len(labels)}, each once")

            def row(by_label: Mapping, degree) -> tuple[EquivariantClass, ...]:
                # the equation set relies on each restriction lying in its degree
                out = tuple(
                    EquivariantClass.make(
                        data.components[p].kind,
                        {
                            int(k): (parse_rational(c), parse_rational(d))
                            for k, c, d in by_label[label]
                        },
                    )
                    for label, p in zip(labels, positions)
                )
                if type(degree) is not int or any(
                    r.terms and r.homogeneous_degree() != degree for r in out
                ):
                    raise ValueError(f"restrictions not all of degree {degree!r}")
                return out

            classes = []
            for entry in payload["classes"]:
                classes.append(
                    TableClass(
                        name=entry["name"],
                        degree=entry["degree"],
                        home=entry["home"],
                        restrictions=row(entry["restrictions"], entry["degree"]),
                    )
                )
            c1_values = row(payload["c1"]["restrictions"], 2)
            decomposition = tuple(
                (name, parse_rational(value))
                for name, value in payload["c1"]["decomposition"]
            )
            flags = payload.get("flags", {})
            return RestrictionTable(
                data=data,
                type_tag=payload["type"],
                labels=labels,
                positions=positions,
                classes=tuple(classes),
                c1_values=c1_values,
                c1_decomposition=decomposition,
                selection_rule_applied=bool(flags.get("selection_rule_applied")),
                rule_decisive_for_odd_parity=bool(
                    flags.get("rule_decisive_for_odd_parity")
                ),
            )
        except KeyError as exc:
            raise SchemaError(f"restriction table lacks the key {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed restriction table: {exc}") from None


RTABLE_SCHEMA = "rtable.v1"


def _class_payload(cls: EquivariantClass) -> list:
    return [
        [k, format_rational(c), format_rational(d)] for k, (c, d) in cls.terms
    ]


def _pretty_name(name: str) -> str:
    if name.startswith("lambda*"):
        return "λ·" + _pretty_name(name[len("lambda*"):])
    if name.startswith("alpha'_"):
        return "α′_" + name[len("alpha'_"):]
    if name.startswith("alpha_"):
        return "α_" + name[len("alpha_"):]
    return name


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


@dataclass(frozen=True)
class _SkeletonClass:
    name: str
    degree: int
    home_index: int  # position into the label order
    sym: tuple[SymClass, ...]


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


def _unknown_restriction(
    class_name: str, label: str, degree: int, component: FixedComponent
) -> SymClass:
    half = degree // 2
    t = Poly.var(f"{class_name}|{label}.t")
    s = Poly.var(f"{class_name}|{label}.s")
    zero = Poly.const(0)
    if component.is_point:
        if degree >= component.index:
            return SymClass.from_dict("point", {})
        return SymClass.from_dict("point", {half: (t, zero)})
    if degree >= component.index + 2:
        return SymClass.from_dict("surface", {})
    if degree == component.index:
        return SymClass.from_dict("surface", {half - 1: (zero, s)})
    return SymClass.from_dict(
        "surface", {half: (t, zero), half - 1: (zero, s)}
    )


def _build_skeleton(
    data: FixedPointData, tag: str
) -> tuple[tuple[int, ...], list[_SkeletonClass]]:
    positions = _table_labels(data, tag)
    labels = [f"F{i + 1}" for i in range(len(positions))]
    comps = data.components
    min_pos = comps.index(data.minimum)
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
            row: list[SymClass] = []
            for lj, pos_j in enumerate(positions):
                comp_j = comps[pos_j]
                if degree == 0:
                    row.append(
                        SymClass.from_exact(EquivariantClass.unit(comp_j.kind))
                    )
                elif pos_j == pos:
                    row.append(SymClass.from_exact(own))
                elif pos_j < pos:
                    row.append(SymClass.from_dict(comp_j.kind, {}))
                else:
                    row.append(
                        _unknown_restriction(name, labels[lj], degree, comp_j)
                    )
            classes.append(_SkeletonClass(name, degree, li, tuple(row)))
    classes.sort(key=lambda c: (c.degree, c.home_index, c.name))
    return positions, classes


def _integration_equations(
    data: FixedPointData,
    positions: tuple[int, ...],
    factors: Sequence[_SkeletonClass],
) -> list[Poly]:
    """The integration constraints on the basis restrictions.

    Every restriction is homogeneous: a basis class lies in its degree,
    the first Chern class in degree 2 and each inverse Euler class in
    degree -(6 - dim). A product of total degree D therefore integrates
    to the single Laurent term lambda^((D - 6) / 2). Below degree six
    that term must vanish; at degree six it is a constant, which
    constrains nothing. Every positive degree is at least 2, so the
    constraints come from the classes below degree six, then from the
    products of two degree-2 classes (c_1 included); the solver's case
    split follows this order.
    """
    comps = data.components
    inverses = [
        SymClass.from_exact(invert_euler(equivariant_euler(comps[p])))
        for p in positions
    ]
    c1_sym = [SymClass.from_exact(c1_restriction(comps[p])) for p in positions]
    # inverse Euler times the restrictions of each factor, per component
    products: list[list[SymClass]] = []
    degree_two: list[tuple[Sequence[SymClass], list[SymClass]]] = []
    for f in factors:
        if f.degree < 6:
            products.append([inv.mul(r) for inv, r in zip(inverses, f.sym)])
            if f.degree == 2:
                degree_two.append((f.sym, products[-1]))
    degree_two.append((c1_sym, [inv.mul(r) for inv, r in zip(inverses, c1_sym)]))
    for i, (_, left) in enumerate(degree_two):
        products += [
            [a.mul(b) for a, b in zip(left, right)] for right, _ in degree_two[i:]
        ]
    equations: list[Poly] = []
    for product in products:
        total: dict[int, Poly] = {}
        for term in product:
            for k, value in integrate_component(term).items():
                total[k] = total.get(k, Poly.const(0)) + value
        equations += [value for value in total.values() if not value.is_zero()]
    return equations


def solve_restriction_table(data: FixedPointData) -> RestrictionTable:
    """Solve for the canonical equivariant basis restrictions.

    The unknown restrictions at higher components are pinned down by
    requiring each basis class below degree six, and each product of
    two degree-2 classes or the first Chern class, to integrate to
    zero (see ``_integration_equations``). Among the rational
    solutions, all class coefficients must be integers; for
    three-surface data that can still leave two branches, told apart
    by matching the minimum u-class against the twist and the dual
    class of the middle surface.
    """
    tag = classify_type(data)
    if tag == "unclassified":
        raise InvalidDataError("no restriction table for unclassified data")
    positions, skeleton = _build_skeleton(data, tag)
    equations = _integration_equations(data, positions, skeleton)
    candidates = solve_system(equations)

    three_surface = tag in ("6a", "6b")
    rule_values: dict[str, Fraction] | None = None
    if three_surface:
        rule_values = _selection_rule_values(data, positions, skeleton)

    selection_applied = False
    if any(sol.free for sol in candidates):
        if rule_values is None:
            raise MultipleSolutionsError(
                "restriction equations are underdetermined"
            )
        pinned = [
            Poly.var(name) - Poly.const(value)
            for name, value in rule_values.items()
        ]
        candidates = solve_system(equations + pinned)
        selection_applied = True
        if any(sol.free for sol in candidates):
            raise MultipleSolutionsError(
                "restriction equations are underdetermined"
            )

    integral = [
        sol
        for sol in candidates
        if all(v.denominator == 1 for _, v in sol.assignment)
    ]
    if not integral:
        raise NoSolutionError(
            "no integral solution: the fixed point data is inconsistent"
        )
    if len(integral) > 1:
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
        selection_applied = True
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
    table_classes = tuple(
        TableClass(
            name=cls.name,
            degree=cls.degree,
            home=labels[cls.home_index],
            restrictions=tuple(s.substitute(values) for s in cls.sym),
        )
        for cls in skeleton
    )
    c1_values = tuple(
        c1_restriction(data.components[p]) for p in positions
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
    """Pin the minimum u-class for three-surface data.

    Its u-part at the middle surface equals the section coefficient of
    the middle surface's dual class, and its lambda-part at the top is
    0 without a twist and -1 with one.
    """
    from .classifier import dual_class_solve

    duals = dual_class_solve(data)
    middle = next(c for c in data.middles() if c.is_surface)
    eta = duals[data.components.index(middle)]
    min_label_index = positions.index(data.components.index(data.minimum))
    mid_label_index = positions.index(data.components.index(middle))
    max_label_index = positions.index(data.components.index(data.maximum))
    name = f"alpha'_{min_label_index + 1}"
    e_var = f"{name}|F{max_label_index + 1}.t"
    d_var = f"{name}|F{mid_label_index + 1}.s"
    return {
        e_var: -1 if data.twist else 0,
        d_var: eta.coeffs[1],
    }


def _c1_decomposition(
    classes: Sequence[TableClass],
    c1_values: Sequence[EquivariantClass],
) -> tuple[tuple[str, Fraction], ...]:
    unit = next(cls for cls in classes if cls.degree == 0)
    degree_two = [cls for cls in classes if cls.degree == 2]
    lambda_name = f"lambda*{unit.name}"
    columns: list[tuple[str, list[EquivariantClass]]] = [
        (lambda_name, [r.shifted(1) for r in unit.restrictions])
    ]
    for cls in degree_two:
        columns.append((cls.name, list(cls.restrictions)))
    rows: list[tuple[dict[str, Fraction], Fraction]] = []
    exponents = {k for r in c1_values for k, _ in r.terms}
    for col_name, col in columns:
        for r in col:
            exponents |= {k for k, _ in r.terms}
    for ci, target in enumerate(c1_values):
        for k in sorted(exponents):
            for part in (0, 1):
                coeffs = {
                    name: col[ci].coefficient(k)[part]
                    for name, col in columns
                }
                rhs = target.coefficient(k)[part]
                rows.append((coeffs, rhs))
    names = [name for name, _ in columns]
    solved = solve_linear(rows, names)
    if solved is None:
        raise NoSolutionError("c_1 does not lie in the span of the basis")
    values, free = solved
    if free:
        raise MultipleSolutionsError(
            "c_1 decomposition is not unique over this basis"
        )
    return tuple((name, values[name]) for name in names)


def verify_redundant_equations(table: RestrictionTable) -> list[str]:
    """Re-check the solved table against the product equation set.

    Returns the violated equations; empty means every basis class
    below degree six, and every product of two degree-2 classes or the
    first Chern class, integrates to zero. Products of degree six and
    more constrain nothing, because each restriction lies in its
    class's degree; ``solve_restriction_table`` and ``from_json_dict``
    only make such tables.
    """
    solved = [
        _SkeletonClass(
            cls.name,
            cls.degree,
            table.labels.index(cls.home),
            tuple(SymClass.from_exact(r) for r in cls.restrictions),
        )
        for cls in table.classes
    ]
    return [
        repr(eq)
        for eq in _integration_equations(table.data, table.positions, solved)
    ]


# ---------------------------------------------------------------------------
# normal splittings of middle surfaces


def b_plus_minus(
    data: FixedPointData, surface: FixedComponent | int
) -> tuple[int, int]:
    """(b_plus, b_minus) of an index-2 surface from the wall calculus.

    With e the Euler class of the level just below the surface and eta
    its dual class, b_minus = -pair(e, eta) and b_plus = pair(e + eta,
    eta). Declared values on the data are ignored; this recomputes.
    The surface may be given as a component or as its position.
    """
    from .classifier import euler_transport

    position = (
        surface
        if isinstance(surface, int)
        else data.components.index(surface)
    )
    component = data.components[position]
    if not (component.is_surface and component.index == 2):
        raise InvalidDataError("b_plus_minus needs an index-2 surface")
    transport = euler_transport(data)
    event = next(
        ev for ev in transport.crossings if ev.position == position
    )
    splitting = event.splitting
    if splitting is None:
        raise NoSolutionError("normal splitting is not integral")
    return splitting


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


@dataclass(frozen=True)
class DHPath:
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
    transport: ChainResult | None = None,
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

    ``transport`` is the data's solved chain, ``euler_transport(data)``,
    when the caller already has it; when None, the chain is solved here.
    """
    from .classifier import euler_transport

    if any(c.is_point for c in data.components):
        raise InvalidDataError("the sweep needs every fixed component a surface")
    alpha0 = _scalar(alpha0)
    gaps = [_scalar(g) for g in gaps]
    if transport is None:
        transport = euler_transport(data)
    elif transport.data != data:
        raise ValueError("the solved chain belongs to other data")
    crossings = transport.crossings
    segments = len(crossings) + 1
    if len(gaps) > segments:
        raise ValueError(f"at most {segments} gaps, got {len(gaps)}")
    space = transport.chart
    x = fiber_class(space)
    y = ReducedClass.make(space, 0, 1)
    eulers = [transport.start_euler]
    for ev in crossings:
        eulers.append(eulers[-1] + ev.dual)
    collapse, keep = (y, x) if data.twist else (x, y)

    failures: list[str] = []
    omega = ReducedClass.make(space, alpha0, 0)
    times: list[Rational] = [0]
    omegas = [omega]
    wall_areas: list[Fraction] = []
    if alpha0 <= 0:
        failures.append("starting size alpha0 must be positive")
    for i, gap in enumerate(gaps):
        if gap <= 0:
            failures.append(f"gap {i + 1} must be positive")
        omega = omega - eulers[i].scaled(gap)
        times.append(times[-1] + gap)
        omegas.append(omega)
        terminal = i == segments - 1
        if i < len(crossings):
            area = pair(omega, crossings[i].dual)
            wall_areas.append(area)
            if area <= 0:
                failures.append(
                    f"wall {i + 1} area {format_rational(area)} not positive"
                )
        fiber_area = pair(omega, x)
        base_area = pair(omega, y)
        if terminal:
            if pair(omega, collapse) != 0:
                failures.append(
                    "collapsing class keeps nonzero size at the top"
                )
            if pair(omega, keep) <= 0:
                failures.append("maximum does not keep positive size")
        else:
            if fiber_area <= 0:
                failures.append(
                    f"fiber size {format_rational(fiber_area)} not positive "
                    f"at time {format_rational(times[-1])}"
                )
            if base_area <= 0:
                failures.append(
                    f"base size {format_rational(base_area)} not positive "
                    f"at time {format_rational(times[-1])}"
                )

    feasible_system = _dh_feasible(space, eulers, crossings, data.twist)
    if not feasible_system:
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


def _dh_feasible(space, eulers, crossings, twist: bool) -> bool:
    """Is any complete positive sweep possible for this data?"""
    segments = len(eulers)
    names = ["a0"] + [f"g{i}" for i in range(segments)]
    x = fiber_class(space)
    y = ReducedClass.make(space, 0, 1)
    collapse, keep = (y, x) if twist else (x, y)

    # Affine coefficients of pair(omega(t_i), target) in the variables.
    def pairing_coeffs(step: int, target) -> dict[str, Fraction]:
        coeffs = {"a0": pair(ReducedClass.make(space, 1, 0), target)}
        for i in range(step):
            coeffs[f"g{i}"] = -pair(eulers[i], target)
        return coeffs

    constraints = [AffineConstraint.make({"a0": 1}, 0, True)]
    for i in range(segments):
        constraints.append(AffineConstraint.make({f"g{i}": 1}, 0, True))
    for step in range(1, segments + 1):
        terminal = step == segments
        if step <= len(crossings):
            constraints.append(
                AffineConstraint.make(
                    pairing_coeffs(step, crossings[step - 1].dual), 0, True
                )
            )
        if terminal:
            c = pairing_coeffs(step, collapse)
            constraints.append(AffineConstraint.make(c, 0, False))
            constraints.append(
                AffineConstraint.make({k: -v for k, v in c.items()}, 0, False)
            )
            constraints.append(
                AffineConstraint.make(pairing_coeffs(step, keep), 0, True)
            )
        else:
            constraints.append(
                AffineConstraint.make(pairing_coeffs(step, x), 0, True)
            )
            constraints.append(
                AffineConstraint.make(pairing_coeffs(step, y), 0, True)
            )
    return feasible(constraints)
