"""Moment polytopes: smoothness checks, fixed-point extraction, twist detection."""

import json
from fractions import Fraction

import pytest

from semifree.delzant import (
    POLYTOPE_SCHEMA,
    PolytopeError,
    TwistUndefinedError,
    build,
    builtin_examples,
    delzant_check,
    detect_twist,
    edge_normal_degrees,
    extract_fixed_data,
    loads,
    polytope_from_json_dict,
    polytope_to_json_dict,
    semifree_check,
    slice_polygon,
    vertex_weights,
)
from semifree.cli import RunConfig, run
from semifree.fixed_points import classify_type, validate

CUBE = [
    ((1, 0, 0), 0),
    ((-1, 0, 0), -1),
    ((0, 1, 0), 0),
    ((0, -1, 0), -1),
    ((0, 0, 1), 0),
    ((0, 0, -1), -1),
]


# ---------------------------------------------------------------------------
# construction and validation


def test_build_needs_four_facets():
    with pytest.raises(PolytopeError, match="at least four"):
        build([((1, 0, 0), 0), ((-1, 0, 0), -1), ((0, 1, 1), 0)])


def test_build_rejects_unbounded_region():
    with pytest.raises(PolytopeError, match="unbounded"):
        build(
            [
                ((1, 0, 0), 0),
                ((0, 1, 0), 0),
                ((0, 0, 1), 0),
                ((1, 1, 1), 0),
            ]
        )


def test_build_rejects_imprimitive_normal():
    with pytest.raises(PolytopeError, match="not primitive"):
        build(
            [
                ((2, 0, 0), 0),
                ((-1, 0, 0), -1),
                ((0, 1, 1), 0),
                ((0, -1, 1), 0),
            ]
        )


def test_build_rejects_non_simple_vertex():
    pyramid = [
        ((0, 0, 1), 0),
        ((-1, 0, -1), -1),
        ((1, 0, -1), -1),
        ((0, -1, -1), -1),
        ((0, 1, -1), -1),
    ]
    with pytest.raises(PolytopeError, match="more than three facets"):
        build(pyramid)


def test_build_rejects_faceless_inequality():
    with pytest.raises(PolytopeError, match="carry no face"):
        build(CUBE + [((1, 0, 0), -5)])


def test_build_rejects_malformed_normal():
    with pytest.raises(PolytopeError, match="bad facet normal"):
        build([((1, 0), 0)] + CUBE[1:])


@pytest.mark.parametrize(
    "normal", [(1.7, 0, 0), (True, 0, 0), ("1", 0, 0)], ids=["float", "bool", "string"]
)
def test_build_rejects_non_integer_normal_entries(normal):
    # int() would turn each of these into the facet (1, 0, 0).
    with pytest.raises(PolytopeError, match="bad facet normal"):
        build([(normal, 0)] + CUBE[1:])


def test_cube_is_smooth_but_not_semifree():
    cube = build(CUBE)
    assert delzant_check(cube).ok
    report = semifree_check(cube)
    assert not report.ok
    assert "facet 4 is horizontal" in report.violations
    assert "facet 5 is horizontal" in report.violations


def test_singular_apex_fails_smoothness():
    poly = build(
        [
            ((1, 0, 0), 0),
            ((0, 1, 0), 0),
            ((0, 0, 1), 0),
            ((-1, -1, -2), -2),
        ]
    )
    report = delzant_check(poly)
    assert not report.ok
    dets = dict(report.certificates)
    assert any(abs(det) == 2 for det in dets.values())


def test_unimodular_shear_preserves_smoothness_not_semifreeness():
    type4 = builtin_examples()["type4"]
    sheared = build(
        [((m - p, n, p), offset) for (m, n, p), offset in type4.facets]
    )
    assert delzant_check(sheared).ok
    assert semifree_check(type4).ok
    assert not semifree_check(sheared).ok


# ---------------------------------------------------------------------------
# degenerate and non-semi-free polytopes: each ends in exit 1 with its
# message, never in a traceback

# The unit cube shifted off its own facet x >= 1: no point satisfies both.
EMPTY_CUBE = [((1, 0, 0), 1), ((-1, 0, 0), 0)] + CUBE[2:]
# A prism along x over the square |y| <= z <= 2 - |y|, cut by the slanted
# cap 2x + y + z >= 0 and by x <= 4. Every facet shadow is primitive and
# every edge has vertical degree 0 or 1, so the height circle is
# semi-free, but no vertex is smooth.
SLANTED_PRISM = [
    ((0, 1, 1), 0),
    ((0, -1, 1), 0),
    ((2, 1, 1), 0),
    ((-1, 0, 0), -4),
    ((0, 1, -1), -2),
    ((0, -1, -1), -2),
]
# The same prism with the cap x + y >= 0: at every horizontal edge the two
# caps' normals sum to a combination of the edge's two facet normals with
# half-integer coefficients.
HALF_PRISM = [((1, 1, 0), 0)] + SLANTED_PRISM[:2] + SLANTED_PRISM[3:]
# A wedge whose slanted facet -2x - z >= -2 has the imprimitive shadow (-2, 0).
WEDGE = [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, -1, 0), -1), ((0, 0, 1), 0), ((-2, 0, -1), -2)]


def _payload(facets) -> bytes:
    return json.dumps(
        {
            "schema": POLYTOPE_SCHEMA,
            "facets": [{"normal": list(n), "offset": str(c)} for n, c in facets],
        }
    ).encode()


def _exits_one(command: str, facets) -> str:
    """The message of ``command`` on the polytope of ``facets``, in both
    formats, each exiting 1."""
    out = {}
    for output_format in ("text", "structured"):
        code, raw = run(RunConfig(command=command, output_format=output_format), _payload(facets))
        assert code == 1, (command, output_format, raw)
        out[output_format] = raw.decode()
    return out["text"]


def test_an_empty_region_has_no_vertex():
    with pytest.raises(PolytopeError, match="^the inequalities have no vertex$"):
        build(EMPTY_CUBE)
    for command in ("polytope-check", "polytope-extract"):
        assert _exits_one(command, EMPTY_CUBE) == "error: the inequalities have no vertex\n"


def test_a_flat_region_has_a_vertex_on_four_facets():
    # The square 0 <= x, y <= 1 at z = 0: a region that is not full-dimensional.
    flat = CUBE[:4] + [((0, 0, 1), 0), ((0, 0, -1), 0)]
    with pytest.raises(PolytopeError, match="lies on more than three facets"):
        build(flat)


def test_a_semifree_prism_with_a_singular_cap_is_not_extracted():
    prism = build(SLANTED_PRISM)
    assert semifree_check(prism).ok and not delzant_check(prism).ok
    assert _exits_one("polytope-check", SLANTED_PRISM).splitlines()[1:] == [
        "smooth (every vertex unimodular): no",
        "height circle semi-free: yes",
    ]
    assert _exits_one("polytope-extract", SLANTED_PRISM) == "error: the polytope is not smooth\n"
    with pytest.raises(PolytopeError, match="^the bottom fiber divisors disagree in class$"):
        detect_twist(prism)


def test_edge_degrees_refuse_a_singular_edge():
    prism = build(SLANTED_PRISM)
    (bottom,) = [e for e in prism.edges if e.is_horizontal and prism.vertices[e.tail].location[2] == 0]
    with pytest.raises(PolytopeError, match="^the facet normals around the edge are degenerate$"):
        edge_normal_degrees(prism, bottom)
    half = build(HALF_PRISM)
    horizontal = [e for e in half.edges if e.is_horizontal]
    assert len(horizontal) == 4
    for edge in horizontal:
        with pytest.raises(PolytopeError, match="^non-integer self-intersection; polytope not smooth$"):
            edge_normal_degrees(half, edge)
    assert _exits_one("polytope-extract", HALF_PRISM) == "error: the polytope is not smooth\n"


def test_an_imprimitive_shadow_is_a_semifree_violation():
    wedge = build(WEDGE)
    message = "facet 4 normal (-2, 0, -1) has imprimitive shadow"
    assert message in semifree_check(wedge).violations
    assert f"  - {message}" in _exits_one("polytope-check", WEDGE).splitlines()
    assert _exits_one("polytope-extract", WEDGE) == "error: the polytope is not smooth\n"
    with pytest.raises(PolytopeError, match="^the height circle is not semi-free: .*imprimitive shadow"):
        detect_twist(wedge)


# ---------------------------------------------------------------------------
# builtin gallery


@pytest.fixture(scope="module")
def gallery():
    return builtin_examples()


def test_gallery_names(gallery):
    assert sorted(gallery) == [
        "remark0_twisted",
        "remark0_untwisted",
        "type3_bmin1",
        "type3_bmin3",
        "type4",
        "type6b_bmin2",
    ]


def test_gallery_passes_both_checks(gallery):
    for name, polytope in gallery.items():
        assert delzant_check(polytope).ok, name
        assert semifree_check(polytope).ok, name


def test_gallery_extraction_is_valid(gallery):
    for name, polytope in gallery.items():
        data = extract_fixed_data(polytope)
        assert validate(data).ok, name


def test_twisted_join_extraction(gallery):
    data = extract_fixed_data(gallery["type4"])
    assert classify_type(data) == "4"
    assert data.twist
    assert data.minimum.b == 2
    assert data.maximum.b == 2


def test_blown_up_join_extraction(gallery):
    data = extract_fixed_data(gallery["type6b_bmin2"])
    assert classify_type(data) == "6b"
    assert data.twist
    assert data.minimum.b == 2
    assert data.maximum.b == 0
    (middle,) = data.middles()
    assert (middle.b_plus, middle.b_minus) == (1, -1)


@pytest.mark.parametrize(
    ("name", "b_min", "middle_pair"),
    [("type3_bmin1", 1, (1, 0)), ("type3_bmin3", 3, (1, -2))],
)
def test_sphere_min_extraction(gallery, name, b_min, middle_pair):
    data = extract_fixed_data(gallery[name])
    assert classify_type(data) == "3"
    assert not data.twist
    assert data.minimum.b == b_min
    middle = [c for c in data.middles() if c.is_surface]
    assert (middle[0].b_plus, middle[0].b_minus) == middle_pair


def test_remark0_pair_differs_only_by_twist(gallery):
    untwisted = extract_fixed_data(gallery["remark0_untwisted"])
    twisted = extract_fixed_data(gallery["remark0_twisted"])
    assert untwisted.components == twisted.components
    assert not untwisted.twist
    assert twisted.twist
    for data in (untwisted, twisted):
        assert all(c.is_surface for c in data.components)
        bs = [c.b if c.index != 2 else c.b_plus + c.b_minus for c in data.components]
        assert bs == [0, 0, 0, 0]


def test_remark0_pair_shares_facet_offsets(gallery):
    untwisted = gallery["remark0_untwisted"]
    twisted = gallery["remark0_twisted"]
    assert [o for _, o in untwisted.facets] == [o for _, o in twisted.facets]
    differing = [
        i
        for i, ((nu, _), (nt, _)) in enumerate(
            zip(untwisted.facets, twisted.facets)
        )
        if nu != nt
    ]
    assert len(differing) == 1


# ---------------------------------------------------------------------------
# edge normal degrees


def test_edge_degrees_frozen(gallery):
    type4 = gallery["type4"]
    degrees = {
        edge.facets: edge_normal_degrees(type4, edge)
        for edge in type4.edges
        if edge.is_horizontal
    }
    assert degrees == {(0, 3): (1, 1), (1, 2): (1, 1)}

    b6 = gallery["type6b_bmin2"]
    degrees = {
        edge.facets: edge_normal_degrees(b6, edge)
        for edge in b6.edges
        if edge.is_horizontal
    }
    assert degrees == {(0, 4): (1, 1), (1, 2): (0, 0), (3, 4): (1, -1)}


def test_edge_degrees_sum_matches_extraction(gallery):
    for name, polytope in gallery.items():
        data = extract_fixed_data(polytope)
        extremes = {data.minimum.level: data.minimum, data.maximum.level: data.maximum}
        for edge in polytope.edges:
            if not edge.is_horizontal:
                continue
            level = polytope.vertices[edge.tail].location[2]
            component = extremes.get(level)
            if component is not None and component.is_surface:
                d1, d2 = edge_normal_degrees(polytope, edge)
                assert d1 + d2 == component.b, name


def test_edge_degrees_need_horizontal_edge(gallery):
    type4 = gallery["type4"]
    slanted = next(e for e in type4.edges if not e.is_horizontal)
    with pytest.raises(PolytopeError, match="horizontal"):
        edge_normal_degrees(type4, slanted)


def test_vertex_weights_are_semifree(gallery):
    for name, polytope in gallery.items():
        for vi in range(len(polytope.vertices)):
            weights = vertex_weights(polytope, vi)
            assert len(weights) == 3, name
            assert all(w in (-1, 0, 1) for w in weights), name


# ---------------------------------------------------------------------------
# reduced-space slices


def test_slice_shapes_track_the_critical_levels(gallery):
    t3 = gallery["type3_bmin1"]
    quad_low = slice_polygon(t3, Fraction(-7, 2))
    assert sorted(e.source_facet for e in quad_low.edges) == [0, 1, 2, 4]
    quad_mid = slice_polygon(t3, Fraction(-1))
    assert sorted(e.source_facet for e in quad_mid.edges) == [0, 1, 2, 3]
    for z in (Fraction(1, 2), Fraction(3, 2)):
        triangle = slice_polygon(t3, z)
        assert sorted(e.source_facet for e in triangle.edges) == [1, 2, 3]


def test_slice_of_twisted_join_is_a_quadrilateral(gallery):
    polygon = slice_polygon(gallery["type4"], Fraction(1, 2))
    assert len(polygon.edges) == 4
    assert polygon.level == Fraction(1, 2)


def test_slice_frozen_halfplanes(gallery):
    polygon = slice_polygon(gallery["remark0_untwisted"], Fraction(1, 2))
    facts = {(e.source_facet, e.normal, e.offset) for e in polygon.edges}
    assert facts == {
        (0, (1, 0), Fraction(0)),
        (1, (-1, 0), Fraction(-1)),
        (3, (-2, -1), Fraction(-1)),
        (4, (2, 1), Fraction(0)),
    }


def test_slice_requires_interior_level(gallery):
    type4 = gallery["type4"]
    for z in (Fraction(0), Fraction(1), Fraction(2)):
        with pytest.raises(PolytopeError, match="outside the open range"):
            slice_polygon(type4, z)


# ---------------------------------------------------------------------------
# twist detection


def test_twist_detection_on_the_gallery(gallery):
    assert detect_twist(gallery["type4"]) is True
    assert detect_twist(gallery["type6b_bmin2"]) is True
    assert detect_twist(gallery["remark0_twisted"]) is True
    assert detect_twist(gallery["remark0_untwisted"]) is False


def test_twist_needs_extreme_spheres(gallery):
    with pytest.raises(TwistUndefinedError, match="both extremes"):
        detect_twist(gallery["type3_bmin1"])


# ---------------------------------------------------------------------------
# serialization


def dumps(polytope) -> str:
    return json.dumps(polytope_to_json_dict(polytope), indent=2, sort_keys=True) + "\n"


def test_round_trip_every_builtin(gallery):
    for name, polytope in gallery.items():
        text = dumps(polytope)
        again = loads(text)
        assert again.facets == polytope.facets, name
        assert again == polytope, name


def test_payload_schema(gallery):
    payload = polytope_to_json_dict(gallery["type4"])
    assert payload["schema"] == POLYTOPE_SCHEMA == "polytope.v1"
    assert len(payload["facets"]) == 4
    assert payload["facets"][0].keys() == {"normal", "offset"}


def test_unknown_schema_is_rejected(gallery):
    payload = polytope_to_json_dict(gallery["type4"])
    payload["schema"] = "polytope.v2"
    with pytest.raises(PolytopeError, match="unsupported polytope schema"):
        polytope_from_json_dict(payload)


def test_malformed_payloads_are_rejected():
    with pytest.raises(PolytopeError, match="invalid JSON"):
        loads("{nope")
    with pytest.raises(PolytopeError, match="must be an object"):
        loads("[1, 2]")
    with pytest.raises(PolytopeError, match="facets must be a list"):
        polytope_from_json_dict({"schema": POLYTOPE_SCHEMA, "facets": {}})
    with pytest.raises(PolytopeError, match="bad facet entry"):
        polytope_from_json_dict(
            {"schema": POLYTOPE_SCHEMA, "facets": [{"normal": [1, 0, 0]}]}
        )
