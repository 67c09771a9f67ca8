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
integer normals. A vertex is where three facets with independent
normals (a nonzero ``_det3``) meet, found by the shared exact solver
``span_coordinates``.

Slices and the twist are read off the faces ``build`` found. A facet is
an edge of the slice at height z exactly when the plane cuts it in a
segment, and the edge's normal is the facet's shadow, the (x, y) part
of its normal. Only data whose fixed components are all spheres carry a
twist: every regular slice of such a polytope has the same fan, so the
two extreme fiber classes are compared in the divisor class group of
one slice's toric surface by one ``span_coordinates`` call.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, NamedTuple, Sequence

from ._solve import AffineConstraint, _scalar, feasible, span_coordinates
from .fixed_points import (
    FixedComponent,
    FixedPointData,
    SchemaError,
    _is_int,
    _load_json,
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


class Vertex(NamedTuple):
    """A corner with the indices of the three facets through it."""

    location: tuple[Fraction, Fraction, Fraction]
    facets: tuple[int, int, int]


class Edge(NamedTuple):
    """A one-dimensional face with its primitive direction."""

    tail: int
    head: int
    facets: tuple[int, int]
    direction: tuple[int, int, int]

    @property
    def is_horizontal(self) -> bool:
        return self.direction[2] == 0


class LatticePolytope(NamedTuple):
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


def build(
    facets: Iterable[tuple[Sequence[int], Fraction | int]],
) -> LatticePolytope:
    """Build the polytope cut out by inward facet inequalities.

    Raises PolytopeError when a normal is not primitive, the region is
    unbounded or empty, some vertex lies on more than three facets (as
    one does when the region is not full-dimensional), or a facet
    carries no two-dimensional face.
    """
    cleaned: list[tuple[tuple[int, int, int], Fraction]] = []
    for normal, offset in facets:
        normal = tuple(normal)
        if len(normal) != 3 or not all(map(_is_int, normal)) or normal == (0, 0, 0):
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
        normals = [cleaned[i][0] for i in triple]
        if _det3(normals) == 0:
            continue
        location = tuple(
            span_coordinates(list(zip(*normals)), [[cleaned[i][1] for i in triple]])[0]
        )
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

    # Each vertex now lies on exactly three facets, with independent
    # normals. So the region is full-dimensional (a flatter one has a
    # vertex on four facets or more), and two facets through a vertex meet
    # in one edge: their common line leaves the vertex inside the region
    # until a third facet stops it at a second vertex.
    vertices = tuple(
        Vertex(location, tuple(sorted(incident)))
        for location, incident in sorted(points.items())
    )
    edges = []
    for pair in itertools.combinations(range(len(cleaned)), 2):
        shared = [
            vi
            for vi, v in enumerate(vertices)
            if set(pair) <= set(v.facets)
        ]
        if not shared:
            continue
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


class DelzantReport(NamedTuple):
    """Per-vertex determinants of the three facet normals."""

    ok: bool
    certificates: tuple[tuple[int, int], ...]

    def __bool__(self) -> bool:
        return self.ok


class SemifreeReport(NamedTuple):
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
    # n1 and n2 are independent: with the tail's third normal they have a
    # nonzero determinant, so a solution is the only one.
    solved = span_coordinates([n1, n2], [[a + b for a, b in zip(n3, n4)]])[0]
    if solved is None:
        raise PolytopeError("the facet normals around the edge are degenerate")
    s, t = solved
    if s.denominator != 1 or t.denominator != 1:
        raise PolytopeError("non-integer self-intersection; polytope not smooth")
    return int(-t), int(-s)


def _edge_weight_in_facet(
    polytope: LatticePolytope, edge: Edge, facet: int
) -> int:
    # The weight of the normal summand inside the facet is the height
    # component of the facet's other edge at the tail. The facet lies on
    # one side of the horizontal edge, so its edges at both ends go the
    # same way, and on a semi-free polytope both have height component 1
    # or -1: the head gives the same weight.
    other = next(
        e for e in _edges_at(polytope, edge.tail) if e != edge and facet in e.facets
    )
    return _away_direction(other, edge.tail)[2]


def _sphere_vertices(polytope: LatticePolytope) -> set[int]:
    return {
        vi for e in polytope.edges if e.is_horizontal for vi in (e.tail, e.head)
    }


def extract_fixed_data(polytope: LatticePolytope) -> FixedPointData:
    """Fixed point data of the height circle.

    Horizontal edges become fixed spheres (with Chern numbers from the
    adjacent facets, split by weight sign for index-2 spheres) and the
    remaining vertices become isolated fixed points; levels are the
    heights. The twist is read by ``detect_twist`` when every fixed
    component is a sphere and is false otherwise, since ``validate``
    rejects a twist beside an isolated fixed point.
    """
    if not delzant_check(polytope):
        raise PolytopeError("the polytope is not smooth")
    report = semifree_check(polytope)
    if not report:
        raise PolytopeError(
            "the height circle is not semi-free: " + "; ".join(report.violations)
        )
    components: list[FixedComponent] = []
    for edge in polytope.edges:
        if not edge.is_horizontal:
            continue
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
    covered = _sphere_vertices(polytope)
    for vi in range(len(polytope.vertices)):
        if vi in covered:
            continue
        weights = vertex_weights(polytope, vi)
        index = 2 * sum(1 for w in weights if w < 0)
        components.append(point(index, polytope.vertices[vi].location[2]))
    all_spheres = len(covered) == len(polytope.vertices)
    return FixedPointData(
        tuple(components), twist=all_spheres and detect_twist(polytope)
    )


# ---------------------------------------------------------------------------
# horizontal slices


class SliceEdge(NamedTuple):
    """An edge of a horizontal slice with its source facet."""

    normal: tuple[int, int]
    offset: Fraction
    source_facet: int


class SlicePolygon(NamedTuple):
    """A horizontal cross-section polygon strictly inside the height range."""

    level: Fraction
    edges: tuple[SliceEdge, ...]


def slice_polygon(polytope: LatticePolytope, z) -> SlicePolygon:
    """The cross-section polygon at a height strictly inside the range.

    A facet gives an edge of the slice exactly when the plane at height
    z cuts it in a segment: it has vertices strictly on both sides, or
    it holds a horizontal edge at that height. Edges come in facet
    order; an edge's normal is its facet's shadow, the (x, y) part of
    the facet normal.
    """
    z = _scalar(z)
    lo, hi = polytope.level_range()
    if not lo < z < hi:
        raise PolytopeError(f"height {z} is outside the open range ({lo}, {hi})")
    below = {fi for v in polytope.vertices if v.location[2] < z for fi in v.facets}
    above = {fi for v in polytope.vertices if v.location[2] > z for fi in v.facets}
    flat = {
        fi
        for e in polytope.edges
        if e.is_horizontal and polytope.vertices[e.tail].location[2] == z
        for fi in e.facets
    }
    cut = (below & above) | flat
    return SlicePolygon(
        z,
        tuple(
            SliceEdge((normal[0], normal[1]), canon(offset - normal[2] * z), fi)
            for fi, (normal, offset) in enumerate(polytope.facets)
            if fi in cut
        ),
    )


# ---------------------------------------------------------------------------
# twist detection in the fan of one slice


def detect_twist(polytope: LatticePolytope) -> bool:
    """Whether the bottom fiber class differs from the top fiber class.

    The fiber divisors of an extreme sphere come from the two facets
    touching its edge only at its endpoints. A middle fixed sphere swaps
    one facet for another with the same shadow, so every regular slice
    of a polytope whose fixed components are all spheres has the same
    fan. The slice at the first gap above the minimum therefore holds
    both fibers, each facet as the ray equal to its shadow. Two ray
    divisors share a class exactly when their difference is the divisor
    of a character m, whose ray coordinates are the pairings <m, u>
    (Fulton 1993, ch. 3).

    Raises TwistUndefinedError when a vertex lies on no horizontal edge.
    """
    report = semifree_check(polytope)
    if not report:
        raise PolytopeError(
            "the height circle is not semi-free: " + "; ".join(report.violations)
        )
    if len(_sphere_vertices(polytope)) != len(polytope.vertices):
        raise TwistUndefinedError(
            "twist needs fixed spheres at both extremes and no isolated fixed point"
        )
    levels = sorted({v.location[2] for v in polytope.vertices})
    gap = qdiv(levels[0] + levels[1], 2)
    rays = [edge.normal for edge in slice_polygon(polytope, gap).edges]

    def fibers(level: Fraction) -> list[list[int]]:
        # Each fiber divisor as a vector over the rays.
        edge = next(
            e
            for e in polytope.edges
            if e.is_horizontal and polytope.vertices[e.tail].location[2] == level
        )
        shadows = [
            polytope.facets[_third_facet(polytope, vi, edge)][0][:2]
            for vi in (edge.tail, edge.head)
        ]
        return [[int(ray == shadow) for ray in rays] for shadow in shadows]

    (b0, b1), (t0, _) = fibers(levels[0]), fibers(levels[-1])
    characters = [[ray[0] for ray in rays], [ray[1] for ray in rays]]
    bottom, across = span_coordinates(
        characters, [[x - y for x, y in zip(u, v)] for u, v in ((b0, b1), (b0, t0))]
    )
    # The fan has four distinct rays: the two facets along an extreme
    # edge have opposite shadows, and the two fibers there are the other
    # two rays. So when the bottom fibers agree in class, so do the top.
    if bottom is None:
        raise PolytopeError("the bottom fiber divisors disagree in class")
    return across is None


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
            or not all(map(_is_int, normal))
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


def loads(text: str) -> LatticePolytope:
    return polytope_from_json_dict(_load_json(text, PolytopeSchemaError))
