"""Lattice polytopes for the vertical circle inside a toric threefold.

A compact symplectic toric manifold is encoded by its moment polytope;
restricting the torus action to the third coordinate circle gives a
Hamiltonian circle action whose moment map is the height. This module
checks polytope smoothness, checks that the height circle acts
semi-freely, reads the fixed point data (horizontal edges are fixed
spheres, other vertices are isolated fixed points) off the polytope,
and carries the six example polytopes used to realize specific fixed
point data.

Facet inequalities are ``<normal, v> >= offset`` with inward primitive
integer normals.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

from ._solve import AffineConstraint, _scalar, feasible, rref, solve_in_span, solve_linear
from .fixed_points import (
    FixedComponent,
    FixedPointData,
    SchemaError,
    point,
    surface,
)
from .rationals import canon, format_rational, parse_rational, qdiv

POLYTOPE_SCHEMA = "polytope.v1"


class PolytopeError(ValueError):
    """The facet data does not describe a usable polytope."""


class TwistUndefinedError(PolytopeError):
    """Twist comparison needs fixed spheres at both extremes."""


class PolytopeSchemaError(PolytopeError, SchemaError):
    """The serialized polytope does not match the polytope schema."""


# ---------------------------------------------------------------------------
# polytope construction


@dataclass(frozen=True)
class Vertex:
    """A corner with the indices of the three facets through it."""

    location: tuple[Fraction, Fraction, Fraction]
    facets: tuple[int, int, int]


@dataclass(frozen=True)
class Edge:
    """A one-dimensional face with its primitive direction."""

    tail: int
    head: int
    facets: tuple[int, int]
    direction: tuple[int, int, int]

    @property
    def is_horizontal(self) -> bool:
        return self.direction[2] == 0


@dataclass(frozen=True)
class LatticePolytope:
    """A bounded simple 3-polytope cut out by inward facet normals."""

    facets: tuple[tuple[tuple[int, int, int], Fraction], ...]
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    def level_range(self) -> tuple[Fraction, Fraction]:
        heights = [v.location[2] for v in self.vertices]
        return min(heights), max(heights)


def _det3(rows: Sequence[Sequence[int]]) -> int:
    a, b, c = rows
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _solve3(
    rows: Sequence[Sequence[int]], rhs: Sequence[Fraction]
) -> tuple[Fraction, Fraction, Fraction] | None:
    det = _det3(rows)
    if det == 0:
        return None
    out = []
    for col in range(3):
        patched = [
            [rhs[i] if j == col else rows[i][j] for j in range(3)]
            for i in range(3)
        ]
        out.append(qdiv(_det3(patched), det))
    return tuple(out)


def _primitive_direction(
    delta: Sequence[Fraction],
) -> tuple[int, int, int]:
    scale = 1
    for value in delta:
        scale = scale * value.denominator // gcd(scale, value.denominator)
    ints = [int(value * scale) for value in delta]
    g = gcd(gcd(abs(ints[0]), abs(ints[1])), abs(ints[2]))
    return tuple(value // g for value in ints)


def _is_unbounded(normals: Sequence[tuple[int, int, int]]) -> bool:
    # The recession cone {d : <n, d> >= 0} must be trivial; probe each
    # signed axis with an exact feasibility test.
    names = ("d0", "d1", "d2")
    base = [
        AffineConstraint.make(dict(zip(names, normal)), 0, strict=False)
        for normal in normals
    ]
    for axis in range(3):
        for sign in (1, -1):
            pin = AffineConstraint.make({names[axis]: sign}, -1, strict=False)
            if feasible(base + [pin]):
                return True
    return False


def _all_ints(entries: Sequence) -> bool:
    """Whether every entry is an int; bools, floats and strings are not."""
    return all(isinstance(c, int) and not isinstance(c, bool) for c in entries)


def build(
    facets: Iterable[tuple[Sequence[int], Fraction | int]],
) -> LatticePolytope:
    """Build the polytope cut out by inward facet inequalities.

    Raises PolytopeError when a normal is not primitive, the region is
    unbounded or not full-dimensional, some vertex lies on more than
    three facets, or a facet carries no two-dimensional face.
    """
    cleaned: list[tuple[tuple[int, int, int], Fraction]] = []
    for normal, offset in facets:
        normal = tuple(normal)
        if len(normal) != 3 or not _all_ints(normal) or normal == (0, 0, 0):
            raise PolytopeError(f"bad facet normal {normal!r}")
        if gcd(gcd(abs(normal[0]), abs(normal[1])), abs(normal[2])) != 1:
            raise PolytopeError(f"facet normal {normal} is not primitive")
        cleaned.append((normal, _scalar(offset)))
    if len(cleaned) < 4:
        raise PolytopeError("need at least four facets")
    if _is_unbounded([normal for normal, _ in cleaned]):
        raise PolytopeError("the inequalities cut out an unbounded region")

    points: dict[tuple[Fraction, Fraction, Fraction], set[int]] = {}
    for triple in itertools.combinations(range(len(cleaned)), 3):
        location = _solve3(
            [cleaned[i][0] for i in triple],
            [cleaned[i][1] for i in triple],
        )
        if location is None:
            continue
        values = [
            sum(n * x for n, x in zip(normal, location)) - offset
            for normal, offset in cleaned
        ]
        if any(value < 0 for value in values):
            continue
        incident = {i for i, value in enumerate(values) if value == 0}
        if len(incident) > 3:
            raise PolytopeError(
                f"vertex {location} lies on more than three facets"
            )
        points.setdefault(location, set()).update(incident)
    if not points:
        raise PolytopeError("the inequalities have no vertex")

    vertices = tuple(
        Vertex(location, tuple(sorted(incident)))
        for location, incident in sorted(points.items())
    )
    span = [
        tuple(x - y for x, y in zip(v.location, vertices[0].location))
        for v in vertices[1:]
    ]
    if len(rref(span)[1]) < 3:
        raise PolytopeError("the polytope is not full-dimensional")

    edges = []
    for pair in itertools.combinations(range(len(cleaned)), 2):
        shared = [
            vi
            for vi, v in enumerate(vertices)
            if set(pair) <= set(v.facets)
        ]
        if not shared:
            continue
        if len(shared) != 2:
            raise PolytopeError(
                f"facets {pair} meet in a degenerate face"
            )
        tail, head = shared
        delta = tuple(
            h - t
            for t, h in zip(
                vertices[tail].location, vertices[head].location
            )
        )
        edges.append(Edge(tail, head, pair, _primitive_direction(delta)))

    used = {i for e in edges for i in e.facets}
    missing = set(range(len(cleaned))) - used
    if missing:
        raise PolytopeError(f"facets {sorted(missing)} carry no face")
    return LatticePolytope(tuple(cleaned), vertices, tuple(edges))


# ---------------------------------------------------------------------------
# smoothness and semi-freeness


@dataclass(frozen=True)
class DelzantReport:
    """Per-vertex determinants of the three facet normals."""

    ok: bool
    certificates: tuple[tuple[int, int], ...]

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class SemifreeReport:
    """Violations of the height-circle semi-freeness conditions."""

    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def delzant_check(polytope: LatticePolytope) -> DelzantReport:
    """Whether the facet normals form a lattice basis at every vertex."""
    certificates = []
    ok = True
    for vi, vertex in enumerate(polytope.vertices):
        det = _det3([polytope.facets[i][0] for i in vertex.facets])
        certificates.append((vi, det))
        if abs(det) != 1:
            ok = False
    return DelzantReport(ok, tuple(certificates))


def semifree_check(polytope: LatticePolytope) -> SemifreeReport:
    """Whether the height circle acts semi-freely.

    No horizontal facets, every facet normal (m, n, p) has gcd(m, n)
    equal to one, and every edge direction has third coordinate 0 or
    +-1.
    """
    violations = []
    for fi, (normal, _) in enumerate(polytope.facets):
        if normal[0] == 0 and normal[1] == 0:
            violations.append(f"facet {fi} is horizontal")
        elif gcd(abs(normal[0]), abs(normal[1])) != 1:
            violations.append(
                f"facet {fi} normal {normal} has imprimitive shadow"
            )
    for edge in polytope.edges:
        if abs(edge.direction[2]) > 1:
            violations.append(
                f"edge {edge.tail}-{edge.head} has vertical degree "
                f"{edge.direction[2]}"
            )
    return SemifreeReport(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# reading fixed point data off the polytope


def _third_facet(polytope: LatticePolytope, vi: int, edge: Edge) -> int:
    return next(
        i for i in polytope.vertices[vi].facets if i not in edge.facets
    )


def _edges_at(polytope: LatticePolytope, vi: int) -> list[Edge]:
    return [e for e in polytope.edges if vi in (e.tail, e.head)]


def _away_direction(edge: Edge, vi: int) -> tuple[int, int, int]:
    if edge.tail == vi:
        return edge.direction
    return tuple(-c for c in edge.direction)


def vertex_weights(polytope: LatticePolytope, vi: int) -> tuple[int, ...]:
    """Height components of the edge directions leaving the vertex."""
    return tuple(
        sorted(
            _away_direction(edge, vi)[2]
            for edge in _edges_at(polytope, vi)
        )
    )


def edge_normal_degrees(polytope: LatticePolytope, edge: Edge) -> tuple[int, int]:
    """Euler numbers of the two line-bundle summands normal to an edge.

    For a horizontal edge with facets F1, F2 and opposite facets F3,
    F4 at its endpoints, smoothness forces n3 + n4 + a n1 + b n2 = 0;
    the normal bundle of the edge sphere is O(a) + O(b) where a sits
    inside F2 and b inside F1. Returns (degree inside facets[0],
    degree inside facets[1]); their sum is the full Chern number.
    """
    if not edge.is_horizontal:
        raise PolytopeError("normal degrees are defined for horizontal edges")
    n1 = polytope.facets[edge.facets[0]][0]
    n2 = polytope.facets[edge.facets[1]][0]
    n3 = polytope.facets[_third_facet(polytope, edge.tail, edge)][0]
    n4 = polytope.facets[_third_facet(polytope, edge.head, edge)][0]
    rows = [
        ({"s": n1[i], "t": n2[i]}, n3[i] + n4[i])
        for i in range(3)
    ]
    solved = solve_linear(rows, ["s", "t"])
    if solved is None or solved[1]:
        raise PolytopeError("the facet normals around the edge are degenerate")
    s, t = solved[0]["s"], solved[0]["t"]
    if s.denominator != 1 or t.denominator != 1:
        raise PolytopeError("non-integer self-intersection; polytope not smooth")
    return int(-t), int(-s)


def _edge_weight_in_facet(
    polytope: LatticePolytope, edge: Edge, facet: int
) -> int:
    # The weight of the normal summand inside the facet is the height
    # component of the facet's adjacent edge at either endpoint.
    weights = set()
    for vi in (edge.tail, edge.head):
        for other in _edges_at(polytope, vi):
            if other == edge or facet not in other.facets:
                continue
            weights.add(_away_direction(other, vi)[2])
    if len(weights) != 1:
        raise PolytopeError(
            f"ambiguous normal weight for edge {edge.tail}-{edge.head} "
            f"inside facet {facet}"
        )
    return weights.pop()


def extract_fixed_data(polytope: LatticePolytope) -> FixedPointData:
    """Fixed point data of the height circle.

    Horizontal edges become fixed spheres (with Chern numbers from the
    adjacent facets, split by weight sign for index-2 spheres) and the
    remaining vertices become isolated fixed points; levels are the
    heights.
    """
    if not delzant_check(polytope):
        raise PolytopeError("the polytope is not smooth")
    report = semifree_check(polytope)
    if not report:
        raise PolytopeError(
            "the height circle is not semi-free: " + "; ".join(report.violations)
        )
    components: list[FixedComponent] = []
    covered: set[int] = set()
    horizontal = [e for e in polytope.edges if e.is_horizontal]
    for edge in horizontal:
        covered.update((edge.tail, edge.head))
        level = polytope.vertices[edge.tail].location[2]
        degrees = edge_normal_degrees(polytope, edge)
        weights = [
            _edge_weight_in_facet(polytope, edge, facet)
            for facet in edge.facets
        ]
        index = 2 * sum(1 for w in weights if w < 0)
        if index == 2:
            plus = degrees[weights.index(1)]
            minus = degrees[weights.index(-1)]
            components.append(
                surface(2, level, genus=0, b_plus=plus, b_minus=minus)
            )
        else:
            components.append(
                surface(index, level, genus=0, b=degrees[0] + degrees[1])
            )
    for vi in range(len(polytope.vertices)):
        if vi in covered:
            continue
        weights = vertex_weights(polytope, vi)
        index = 2 * sum(1 for w in weights if w < 0)
        components.append(point(index, polytope.vertices[vi].location[2]))

    twist = False
    extremes_are_edges = (
        _extreme_edge(polytope, minimum=True) is not None
        and _extreme_edge(polytope, minimum=False) is not None
    )
    if extremes_are_edges:
        twist = detect_twist(polytope)
    return FixedPointData(tuple(components), twist=twist)


def _extreme_edge(
    polytope: LatticePolytope, minimum: bool
) -> Edge | None:
    lo, hi = polytope.level_range()
    target = lo if minimum else hi
    for edge in polytope.edges:
        if (
            edge.is_horizontal
            and polytope.vertices[edge.tail].location[2] == target
        ):
            return edge
    return None


# ---------------------------------------------------------------------------
# horizontal slices


@dataclass(frozen=True)
class SliceEdge:
    """An edge of a horizontal slice with its source facet."""

    normal: tuple[int, int]
    offset: Fraction
    source_facet: int


@dataclass(frozen=True)
class SlicePolygon:
    """A horizontal cross-section polygon at a regular height."""

    level: Fraction
    edges: tuple[SliceEdge, ...]


def _slice_halfplanes(
    polytope: LatticePolytope, z: Fraction
) -> list[tuple[int, tuple[int, int], Fraction]]:
    rows = []
    for fi, (normal, offset) in enumerate(polytope.facets):
        shadow = (normal[0], normal[1])
        if shadow == (0, 0):
            continue
        rows.append((fi, shadow, canon(offset - normal[2] * z)))
    return rows


def _polygon_support(
    halfplanes: Sequence[tuple[int, tuple[int, int], Fraction]],
) -> dict[int, list[tuple[Fraction, Fraction]]]:
    corners: dict[tuple[Fraction, Fraction], set[int]] = {}
    for (ia, (na, oa)), (ib, (nb, ob)) in itertools.combinations(
        [(fi, (normal, offset)) for fi, normal, offset in halfplanes], 2
    ):
        det = na[0] * nb[1] - na[1] * nb[0]
        if det == 0:
            continue
        x = qdiv(oa * nb[1] - ob * na[1], det)
        y = qdiv(ob * na[0] - oa * nb[0], det)
        good = True
        for _, normal, offset in halfplanes:
            if normal[0] * x + normal[1] * y < offset:
                good = False
                break
        if good:
            corners.setdefault((x, y), set()).update((ia, ib))
    support: dict[int, list[tuple[Fraction, Fraction]]] = {}
    for location, incident in corners.items():
        for fi in incident:
            support.setdefault(fi, []).append(location)
    return support


def slice_polygon(polytope: LatticePolytope, z) -> SlicePolygon:
    """The cross-section polygon at a regular height strictly inside."""
    z = _scalar(z)
    lo, hi = polytope.level_range()
    if not lo < z < hi:
        raise PolytopeError(f"height {z} is outside the open range ({lo}, {hi})")
    halfplanes = _slice_halfplanes(polytope, z)
    support = _polygon_support(halfplanes)
    edges = tuple(
        SliceEdge(normal, offset, fi)
        for fi, normal, offset in halfplanes
        if len(set(support.get(fi, ()))) >= 2
    )
    return SlicePolygon(z, edges)


# ---------------------------------------------------------------------------
# twist detection by transporting the fiber divisor class


def _divisor_class_space(
    rays: Sequence[tuple[int, int]],
) -> list[dict[str, Fraction]]:
    """Relation rows of the divisor class group over the ray variables."""
    rows = []
    for coordinate in (0, 1):
        rows.append(
            {
                f"D{i}": ray[coordinate]
                for i, ray in enumerate(rays)
                if ray[coordinate]
            }
        )
    return rows


def _class_coordinates(
    rays: Sequence[tuple[int, int]],
) -> dict[int, tuple[Fraction, ...]]:
    """Coordinates of each ray divisor in a basis of the class group.

    Picks the last two rays as a basis of the relations' complement by
    reducing the relation rows; every divisor class is expressed over
    the remaining free coordinates.
    """
    k = len(rays)
    relations = _divisor_class_space(rays)
    names = [f"D{i}" for i in range(k)]
    # Express the class of each generator in the quotient by choosing,
    # for every ray, the unique representative with zeroes in the two
    # pivot coordinates of the relation rows.
    matrix, pivots = rref(
        [[row.get(name, 0) for name in names] for row in relations]
    )
    free = [c for c in range(k) if c not in pivots]
    out: dict[int, tuple[Fraction, ...]] = {}
    for i in range(k):
        vector = [0] * k
        vector[i] = 1
        # Subtract relation combinations to zero out pivot coordinates.
        for row, col in zip(matrix, pivots):
            factor = vector[col]
            if factor:
                vector = [canon(x - factor * y) for x, y in zip(vector, row)]
        out[i] = tuple(vector[c] for c in free)
    return out


def _gap_classes(
    polytope: LatticePolytope, z: Fraction
) -> dict[int, tuple[Fraction, ...]]:
    halfplanes = _slice_halfplanes(polytope, z)
    support = _polygon_support(halfplanes)
    active = [
        (fi, normal)
        for fi, normal, _ in halfplanes
        if len(set(support.get(fi, ()))) >= 2
    ]
    coords = _class_coordinates([normal for _, normal in active])
    return {fi: coords[i] for i, (fi, _) in enumerate(active)}


def _express(
    target: tuple[Fraction, ...],
    columns: Mapping[int, tuple[Fraction, ...]],
) -> dict[int, Fraction] | None:
    names = sorted(columns)
    coords = solve_in_span([columns[fi] for fi in names], target)
    if coords is None:
        return None
    return dict(zip(names, coords))


def detect_twist(polytope: LatticePolytope) -> bool:
    """Whether the bottom fiber class fails to reach the top fiber.

    The fiber divisors near an extreme edge come from the two facets
    touching that edge only at its endpoints. Their class is carried
    across every regular gap by facet identity; at each critical level
    the persisting facets must transport classes consistently. Returns
    True when the transported bottom fiber differs from the top fiber.
    """
    report = semifree_check(polytope)
    if not report:
        raise PolytopeError(
            "the height circle is not semi-free: " + "; ".join(report.violations)
        )
    bottom = _extreme_edge(polytope, minimum=True)
    top = _extreme_edge(polytope, minimum=False)
    if bottom is None or top is None:
        raise TwistUndefinedError(
            "twist needs fixed spheres at both extremes"
        )

    def fiber_pair(edge: Edge) -> tuple[int, int]:
        return (
            _third_facet(polytope, edge.tail, edge),
            _third_facet(polytope, edge.head, edge),
        )

    covered = {
        v
        for e in polytope.edges
        if e.is_horizontal
        for v in (e.tail, e.head)
    }
    critical = {
        polytope.vertices[e.tail].location[2]
        for e in polytope.edges
        if e.is_horizontal
    }
    critical.update(
        polytope.vertices[vi].location[2]
        for vi in range(len(polytope.vertices))
        if vi not in covered
    )
    levels = sorted(critical)
    gaps = [
        qdiv(levels[i] + levels[i + 1], 2) for i in range(len(levels) - 1)
    ]

    charts = [_gap_classes(polytope, z) for z in gaps]
    lo_pair = fiber_pair(bottom)
    hi_pair = fiber_pair(top)
    first = charts[0]
    if first[lo_pair[0]] != first[lo_pair[1]]:
        raise PolytopeError("the bottom fiber divisors disagree in class")
    last = charts[-1]
    if last[hi_pair[0]] != last[hi_pair[1]]:
        raise PolytopeError("the top fiber divisors disagree in class")

    fiber = first[lo_pair[0]]
    for below, above in zip(charts, charts[1:]):
        persisting = sorted(set(below) & set(above))
        rank_below = len(next(iter(below.values())))
        rank_above = len(next(iter(above.values())))
        if rank_below != rank_above:
            raise NotImplementedError(
                "fiber transport across isolated fixed points"
            )
        columns_below = {fi: below[fi] for fi in persisting}
        weights = _express(fiber, columns_below)
        if weights is None:
            raise PolytopeError(
                "the fiber class escapes the persisting facets"
            )
        # Consistency: every persisting class must map the same way no
        # matter how it is expressed below.
        for fi in persisting:
            expansion = _express(below[fi], columns_below)
            if expansion is None:
                raise PolytopeError("divisor transport is inconsistent")
            image = _combine(expansion, above, rank_above)
            if image != above[fi]:
                raise PolytopeError("divisor transport is inconsistent")
        fiber = _combine(weights, above, rank_above)
    return fiber != last[hi_pair[0]]


def _combine(
    weights: Mapping[int, Fraction],
    chart: Mapping[int, tuple[Fraction, ...]],
    rank: int,
) -> tuple[Fraction, ...]:
    out = [0] * rank
    for fi, weight in weights.items():
        for i, coordinate in enumerate(chart[fi]):
            out[i] += weight * coordinate
    return tuple(canon(x) for x in out)


# ---------------------------------------------------------------------------
# built-in examples


def builtin_examples() -> dict[str, LatticePolytope]:
    """The six example polytopes, keyed by name.

    Normals follow the printed face lists with inward orientation and
    offsets chosen to realize the stated combinatorics (the shape
    parameter is fixed at 2; other values give the same variety).
    """
    specs: dict[str, list[tuple[tuple[int, int, int], int]]] = {
        "type4": [
            ((1, 0, 0), 0),
            ((-2, -1, 0), 0),
            ((2, 1, 1), 0),
            ((-1, 0, -1), -1),
        ],
        "type6b_bmin2": [
            ((-1, 0, 0), 0),
            ((2, 1, 0), 0),
            ((-2, -1, -1), 0),
            ((1, 0, 0), -2),
            ((1, 0, 1), -3),
        ],
        "type3_bmin1": [
            ((-1, 0, 0), 0),
            ((2, 1, 0), 0),
            ((-3, -1, -1), 0),
            ((1, 0, 0), -2),
            ((1, 0, 1), -4),
        ],
        "type3_bmin3": [
            ((-1, 0, 0), 0),
            ((2, 1, 0), 0),
            ((-1, -1, -1), 0),
            ((1, 0, 0), -2),
            ((1, 0, 1), -6),
        ],
        "remark0_untwisted": [
            ((1, 0, 0), 0),
            ((-1, 0, 0), -1),
            ((-1, 0, -1), -2),
            ((-2, -1, 0), -1),
            ((2, 1, 0), 0),
            ((1, 0, 1), 0),
        ],
        "remark0_twisted": [
            ((1, 0, 0), 0),
            ((-1, 0, 0), -1),
            ((-1, 0, -1), -2),
            ((-2, -1, 0), -1),
            ((2, 1, 0), 0),
            ((2, 1, 1), 0),
        ],
    }
    return {name: build(facets) for name, facets in specs.items()}


# ---------------------------------------------------------------------------
# serialization


def polytope_to_json_dict(polytope: LatticePolytope) -> dict:
    return {
        "schema": POLYTOPE_SCHEMA,
        "facets": [
            {"normal": list(normal), "offset": format_rational(offset)}
            for normal, offset in polytope.facets
        ],
    }


def polytope_from_json_dict(payload: Mapping) -> LatticePolytope:
    """Read a ``polytope.v1`` payload and build its polytope.

    Schema faults raise PolytopeSchemaError; geometric faults found by
    ``build`` raise plain PolytopeError.
    """
    if not isinstance(payload, Mapping):
        raise PolytopeSchemaError("polytope payload must be an object")
    schema = payload.get("schema", POLYTOPE_SCHEMA)
    if schema != POLYTOPE_SCHEMA:
        raise PolytopeSchemaError(f"unsupported polytope schema {schema!r}")
    facets = payload.get("facets")
    if not isinstance(facets, list) or not facets:
        raise PolytopeSchemaError("facets must be a list with at least one entry")
    rows = []
    for position, entry in enumerate(facets):
        if not isinstance(entry, Mapping):
            raise PolytopeSchemaError(f"bad facet entry {position}: not an object")
        normal = entry.get("normal")
        if (
            not isinstance(normal, list)
            or len(normal) != 3
            or not _all_ints(normal)
        ):
            raise PolytopeSchemaError(
                f"bad facet entry {position}: normal must be three integers"
            )
        if "offset" not in entry:
            raise PolytopeSchemaError(f"bad facet entry {position}: missing offset")
        try:
            offset = parse_rational(entry["offset"])
        except ValueError as exc:
            raise PolytopeSchemaError(
                f"bad facet entry {position}: offset: {exc}"
            ) from exc
        rows.append((normal, offset))
    return build(rows)


def dumps(polytope: LatticePolytope) -> str:
    return json.dumps(polytope_to_json_dict(polytope), indent=2, sort_keys=True) + "\n"


def loads(text: str) -> LatticePolytope:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PolytopeSchemaError(f"invalid JSON: {exc}") from exc
    return polytope_from_json_dict(payload)
