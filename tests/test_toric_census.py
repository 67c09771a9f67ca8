"""A seeded census of Kleinschmidt's smooth toric threefolds with b2 = 2.

Kleinschmidt (1988) lists them as P(O + O(a) + O(b)) over P^1 and
P(O + O(a)) over P^2. The census takes seeded unimodular images of
their fans with small a, b and offsets, and keeps each polytope that is
smooth and whose height circle is semi-free. Every command must then
answer without a traceback, family 5 (extreme spheres and two middle
points) included.

The slice and twist readers of ``delzant`` read the polytope's faces.
The oracle below is the earlier design: each slice solved as a 2-D
polygon from the facets' half-planes, and the fiber class carried from
gap to gap by facet identity.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Mapping, Sequence

from semifree import cli
from semifree._solve import rref, span_coordinates
from semifree.delzant import (
    PolytopeError,
    SliceEdge,
    SlicePolygon,
    build,
    delzant_check,
    detect_twist,
    extract_fixed_data,
    polytope_to_json_dict,
    semifree_check,
    slice_polygon,
)
from semifree.fixed_points import UNCLASSIFIED, FixedPointData, _dump_json, classify_type
from semifree.rationals import canon, qdiv

SEED = 21
SIZE = 120


def _kleinschmidt(over_p1: bool, a: int, b: int) -> list[tuple[int, int, int]]:
    if over_p1:  # P(O + O(a) + O(b)) over P^1
        return [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (a, b, -1)]
    # P(O + O(a)) over P^2
    return [(1, 0, 0), (0, 1, 0), (-1, -1, a), (0, 0, 1), (0, 0, -1)]


def _unimodular(rng: random.Random) -> list[list[int]]:
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(rng.randint(1, 4)):
        i, j = rng.sample(range(3), 2)
        k = rng.choice((-2, -1, 1, 2))
        m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    return [m[p] for p in rng.sample(range(3), 3)]


@lru_cache(maxsize=None)
def _built() -> tuple:
    """Every polytope the seeded draws build, until SIZE are smooth and semi-free."""
    rng = random.Random(SEED)
    out = []
    kept = 0
    while kept < SIZE:
        m = _unimodular(rng)
        fan = _kleinschmidt(rng.random() < 0.5, rng.randint(-2, 2), rng.randint(-2, 2))
        normals = [tuple(sum(n[i] * m[i][j] for i in range(3)) for j in range(3)) for n in fan]
        offsets = [rng.randint(-3, 0) for _ in normals]
        # An imprimitive or zero shadow fails semifree_check; skip the build.
        if any(gcd(n[0], n[1]) != 1 for n in normals):
            continue
        try:
            polytope = build(zip(normals, offsets))
        except PolytopeError:
            continue
        out.append(polytope)
        kept += bool(delzant_check(polytope) and semifree_check(polytope))
    return tuple(out)


def _census() -> list:
    return [p for p in _built() if delzant_check(p) and semifree_check(p)]


def _all_spheres(data: FixedPointData) -> bool:
    return all(c.is_surface for c in data.components)


def _run(command: str, raw: bytes) -> tuple[int, bytes]:
    return cli.run(cli.RunConfig(command, output_format="structured"), raw)


# ---------------------------------------------------------------------------
# the oracle: half-plane slices and the fiber class carried gap by gap


def _oracle_slice(polytope, z) -> SlicePolygon:
    halfplanes = [
        (fi, (normal[0], normal[1]), canon(offset - normal[2] * z))
        for fi, (normal, offset) in enumerate(polytope.facets)
        if (normal[0], normal[1]) != (0, 0)
    ]
    corners: dict[tuple, set[int]] = {}
    for (ia, na, oa), (ib, nb, ob) in itertools.combinations(halfplanes, 2):
        det = na[0] * nb[1] - na[1] * nb[0]
        if det == 0:
            continue
        x = qdiv(oa * nb[1] - ob * na[1], det)
        y = qdiv(ob * na[0] - oa * nb[0], det)
        if all(n[0] * x + n[1] * y >= o for _, n, o in halfplanes):
            corners.setdefault((x, y), set()).update((ia, ib))
    support: dict[int, set] = {}
    for location, incident in corners.items():
        for fi in incident:
            support.setdefault(fi, set()).add(location)
    return SlicePolygon(
        z,
        tuple(
            SliceEdge(normal, offset, fi)
            for fi, normal, offset in halfplanes
            if len(support.get(fi, ())) >= 2
        ),
    )


def _class_coordinates(rays: Sequence[tuple[int, int]]) -> dict[int, tuple]:
    # Each ray divisor in the quotient by the two relation rows: the
    # representative with zeroes in the rows' pivot coordinates.
    k = len(rays)
    matrix, pivots = rref([[ray[0] for ray in rays], [ray[1] for ray in rays]])
    free = [c for c in range(k) if c not in pivots]
    out = {}
    for i in range(k):
        vector = [0] * k
        vector[i] = 1
        for row, col in zip(matrix, pivots):
            factor = vector[col]
            if factor:
                vector = [canon(x - factor * y) for x, y in zip(vector, row)]
        out[i] = tuple(vector[c] for c in free)
    return out


def _express(target, columns: Mapping[int, tuple]) -> dict[int, Fraction] | None:
    names = sorted(columns)
    coords = span_coordinates([columns[fi] for fi in names], [target])[0]
    return None if coords is None else dict(zip(names, coords))


def _combine(weights: Mapping[int, Fraction], chart: Mapping[int, tuple], rank: int) -> tuple:
    out = [0] * rank
    for fi, weight in weights.items():
        for i, coordinate in enumerate(chart[fi]):
            out[i] += weight * coordinate
    return tuple(canon(x) for x in out)


def _oracle_twist(polytope) -> bool:
    def height(vi: int) -> Fraction:
        return polytope.vertices[vi].location[2]

    def third(vi: int, edge) -> int:
        return next(i for i in polytope.vertices[vi].facets if i not in edge.facets)

    lo, hi = polytope.level_range()
    horizontal = [e for e in polytope.edges if e.is_horizontal]
    bottom = next(e for e in horizontal if height(e.tail) == lo)
    top = next(e for e in horizontal if height(e.tail) == hi)
    levels = sorted({height(vi) for vi in range(len(polytope.vertices))})
    charts = []
    for a, b in zip(levels, levels[1:]):
        edges = _oracle_slice(polytope, qdiv(a + b, 2)).edges
        coords = _class_coordinates([edge.normal for edge in edges])
        charts.append({edge.source_facet: coords[i] for i, edge in enumerate(edges)})
    first, last = charts[0], charts[-1]
    assert first[third(bottom.tail, bottom)] == first[third(bottom.head, bottom)]
    assert last[third(top.tail, top)] == last[third(top.head, top)]
    fiber = first[third(bottom.tail, bottom)]
    for below, above in zip(charts, charts[1:]):
        persisting = sorted(set(below) & set(above))
        rank = len(next(iter(above.values())))
        assert rank == len(next(iter(below.values())))
        columns = {fi: below[fi] for fi in persisting}
        for fi in persisting:
            assert _combine(_express(below[fi], columns), above, rank) == above[fi]
        fiber = _combine(_express(fiber, columns), above, rank)
    return fiber != last[third(top.tail, top)]


# ---------------------------------------------------------------------------
# tests


def test_census_reaches_every_shape_the_twist_reader_must_cover():
    data = [extract_fixed_data(p) for p in _census()]
    tags = [classify_type(d) for d in data]
    # Family 5 has extreme spheres beside two middle points: the data an
    # earlier reader raised on.
    assert tags.count("5") >= 5
    assert all(not d.twist for d, tag in zip(data, tags) if tag == "5")
    # All-sphere data, whose twist the oracle checks.
    assert sum(_all_spheres(d) and d.twist for d in data) >= 5


def test_every_census_polytope_passes_every_command():
    for polytope in _census():
        code, raw = _run("polytope-extract", _dump_json(polytope_to_json_dict(polytope)).encode())
        assert code == 0, raw
        data = FixedPointData.loads(raw.decode())
        for command in ("validate", "classify", "localize"):
            code, report = _run(command, raw)
            assert code == 0, (command, raw, report)
        code, report = _run("restrict-table", raw)
        assert (code == 0) == (classify_type(data) != UNCLASSIFIED), (raw, report)


def test_twist_matches_the_transport_oracle():
    for polytope in _census():
        if _all_spheres(extract_fixed_data(polytope)):
            assert detect_twist(polytope) == _oracle_twist(polytope)


def test_slices_match_the_half_plane_oracle():
    # Smooth and semi-free or not, at every critical and regular height.
    for polytope in _built():
        levels = sorted({v.location[2] for v in polytope.vertices})
        heights = levels[1:-1] + [qdiv(a + b, 2) for a, b in zip(levels, levels[1:])]
        for z in heights:
            assert slice_polygon(polytope, z) == _oracle_slice(polytope, z)

