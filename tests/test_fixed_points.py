"""Tests for fixed point data construction, validation and classification."""

import itertools
import json
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semifree.classifier import family_instance
from semifree.fixed_points import (
    FixedComponent,
    FixedPointData,
    InvalidDataError,
    SchemaError,
    _rank_walk_possible,
    betti_profile,
    classify_type,
    point,
    surface,
    validate,
)

F = Fraction

FAMILY_CASES = [
    ("1", {}),
    ("2", {}),
    ("3", {"n": 1}),
    ("3", {"n": 3}),
    ("3", {"n": -1}),
    ("3", {"n": 5, "same_level": True}),
    ("4", {}),
    ("5", {}),
    ("5", {"same_level": True}),
    ("6a", {"n": 2, "g": 1, "g1": 2}),
    ("6b", {"k": 1, "k_prime": 0}),
    ("6b", {"k": 0, "k_prime": 2}),
]


# ---------------------------------------------------------------------------
# construction rules


def test_point_rejects_odd_or_out_of_range_index():
    with pytest.raises(ValueError):
        point(3, 0)
    with pytest.raises(ValueError):
        point(8, 0)


def test_surface_rejects_index_six():
    with pytest.raises(ValueError):
        surface(6, 0, genus=0, b=0)


def test_surface_index_two_wants_split_chern_numbers():
    with pytest.raises(ValueError):
        surface(2, 0, genus=0, b=1)
    component = surface(2, 0, genus=1, b_plus=2, b_minus=-1)
    assert (component.b_plus, component.b_minus) == (2, -1)


@pytest.mark.parametrize(
    "fields",
    [
        {"kind": "surface", "index": 0, "level": 0, "genus": True, "b": 2},
        {"kind": "surface", "index": 0, "level": 0, "genus": 0, "b": 1.5},
        {"kind": "surface", "index": 4, "level": 1, "genus": 1.0, "b": 0},
        {"kind": "surface", "index": 4, "level": 1, "genus": 0, "b": F(2)},
        {"kind": "surface", "index": 2, "level": 1, "genus": 0, "b_plus": True, "b_minus": 0},
        {"kind": "surface", "index": 2, "level": 1, "genus": 0, "b_plus": 1, "b_minus": 0.0},
        {"kind": "point", "index": 0, "level": 0.1},
        {"kind": "point", "index": 0, "level": True},
        {"kind": "point", "index": False, "level": 0},
        {"kind": "point", "index": 2.0, "level": 1},
    ],
)
def test_constructors_reject_fields_that_loads_rejects(fields):
    with pytest.raises(ValueError):
        FixedComponent(**fields)
    build = point if fields["kind"] == "point" else surface
    args = {k: v for k, v in fields.items() if k not in ("kind", "index", "level")}
    with pytest.raises(ValueError):
        build(fields["index"], fields["level"], **args)
    if not any(isinstance(v, F) for v in fields.values()):
        text = json.dumps({"schema": "fpdata.v1", "components": [fields]})
        with pytest.raises(ValueError):
            FixedPointData.loads(text)


def test_component_rejects_an_unknown_kind():
    # The parser refuses an unknown kind before it builds a component, so
    # only a direct construction reaches the component's own rule.
    with pytest.raises(ValueError, match="^unknown component kind: disk$"):
        FixedComponent(level=0, index=0, kind="disk")


def test_constructed_data_round_trips_through_json():
    data = FixedPointData(
        (
            surface(0, 0, genus=1, b=-3),
            surface(2, "1/2", genus=0, b_plus=2, b_minus=-1),
            surface(4, F(3, 2), genus=1, b=5),
        )
    )
    assert data.components[1].level == F(1, 2)
    assert FixedPointData.loads(data.dumps()) == data


def test_loads_messages_name_the_bad_field():
    text = family_instance("4").dumps().replace('"genus": 0', '"genus": true', 1)
    with pytest.raises(SchemaError, match="^genus must be an integer$"):
        FixedPointData.loads(text)


def test_components_are_sorted_by_level():
    data = FixedPointData(
        (
            point(6, 5),
            surface(0, 0, genus=0, b=1),
            point(4, 2),
            surface(2, 1, genus=0, b_plus=1, b_minus=0),
        )
    )
    assert [c.level for c in data.components] == [0, 1, 2, 5]


# ---------------------------------------------------------------------------
# validation


@pytest.mark.parametrize("tag,params", FAMILY_CASES)
def test_family_instances_validate(tag, params):
    report = validate(family_instance(tag, **params))
    assert report.ok, report.violations


def test_validate_rejects_two_minima():
    data = FixedPointData(
        (
            point(0, 0),
            point(0, 0),
            surface(2, 1, genus=0, b_plus=2, b_minus=2),
            point(6, 2),
        )
    )
    report = validate(data)
    assert not report.ok
    assert any("minimum" in v for v in report.violations)


def test_validate_rejects_unbalanced_point_counts():
    # A sphere minimum with a point maximum needs one more index-4
    # point than index-2 points.
    data = FixedPointData(
        (
            surface(0, 0, genus=0, b=0),
            point(2, 1),
            point(4, 2),
            point(6, 3),
        )
    )
    report = validate(data)
    assert not report.ok
    assert any("N4=N2+1" in v for v in report.violations)


def test_validate_rejects_positive_genus_next_to_point_maximum():
    data = FixedPointData(
        (
            surface(0, 0, genus=1, b=0),
            point(2, 1),
            point(4, 1),
            point(4, 2),
            point(6, 3),
        )
    )
    report = validate(data)
    assert not report.ok
    assert any("sphere" in v for v in report.violations)


def test_validate_rejects_shared_level_middle_surfaces_over_points():
    data = FixedPointData(
        (
            point(0, 0),
            surface(2, 1, genus=0, b_plus=0, b_minus=1),
            surface(2, 1, genus=0, b_plus=1, b_minus=0),
            point(6, 2),
        )
    )
    report = validate(data)
    assert not report.ok
    assert any("share a level" in v for v in report.violations)


def test_validate_allows_shared_level_for_type_five_shape():
    report = validate(family_instance("5", same_level=True))
    assert report.ok, report.violations


def test_validate_rejects_shared_level_for_type_two_shape():
    # The two middle spheres of the point-extreme family must sit at
    # distinct levels; the same-level variant exists to exercise this.
    report = validate(family_instance("2", same_level=True))
    assert not report.ok
    assert any("share a level" in v for v in report.violations)


def test_validate_rejects_twist_with_points():
    data = FixedPointData(
        (
            surface(0, 0, genus=0, b=2),
            point(2, 1),
            point(4, 2),
            surface(4, 3, genus=0, b=2),
        ),
        twist=True,
    )
    report = validate(data)
    assert not report.ok


def test_validate_rejects_odd_b_with_twist():
    data = FixedPointData(
        (
            surface(0, 0, genus=0, b=1),
            surface(4, 1, genus=0, b=1),
        ),
        twist=True,
    )
    report = validate(data)
    assert not report.ok


def test_validate_rejects_bare_untwisted_join():
    data = FixedPointData(
        (
            surface(0, 0, genus=0, b=2),
            surface(4, 1, genus=0, b=2),
        )
    )
    report = validate(data)
    assert not report.ok


def test_validate_rejects_blow_down_before_any_blow_up():
    # Starting from a point minimum the first middle event cannot be an
    # index-4 point: the reduced space has rank 1 and nothing to blow
    # down.
    data = FixedPointData(
        (
            point(0, 0),
            point(4, 1),
            point(2, 2),
            surface(2, 3, genus=0, b_plus=2, b_minus=2),
            point(6, 4),
        )
    )
    report = validate(data)
    assert not report.ok


def rank_walk_by_search(start: int, deltas: list[int]) -> bool:
    """Try every order of the +1/-1 events, as ``validate`` once did."""
    if not deltas:
        return True

    def walk(rank: int, ups: int, downs: int) -> bool:
        if ups == 0 and downs == 0:
            return True
        if ups and walk(rank + 1, ups - 1, downs):
            return True
        if downs and rank >= 2 and walk(rank - 1, ups, downs - 1):
            return True
        return False

    return walk(start, deltas.count(1), deltas.count(-1))


@pytest.mark.parametrize("start", [1, 2, 3, 4])
def test_rank_walk_matches_the_search_over_orderings(start):
    for ups, downs in itertools.product(range(9), repeat=2):
        deltas = [-1] * downs + [1] * ups
        assert _rank_walk_possible(start, deltas) == rank_walk_by_search(start, deltas)


def test_validate_is_fast_with_many_events_at_one_level():
    # No order of 16 blow-ups and 18 blow-downs at one level keeps the
    # rank legal; a search over the orderings takes tens of seconds here.
    data = FixedPointData(
        (point(0, 0), *[point(2, 1)] * 16, *[point(4, 1)] * 18, point(6, 2))
    )
    started = time.perf_counter()
    report = validate(data)
    assert time.perf_counter() - started < 1
    assert report.violations[-1] == (
        "no ordering of the level 1 events keeps the reduced space rank legal"
    )


# ---------------------------------------------------------------------------
# Betti profiles


@pytest.mark.parametrize("tag,params", FAMILY_CASES)
def test_betti_profile_is_palindromic(tag, params):
    profile = betti_profile(family_instance(tag, **params))
    assert profile == tuple(reversed(profile))


def test_betti_profile_values():
    assert betti_profile(family_instance("1")) == (1, 0, 1, 0, 1, 0, 1)
    assert betti_profile(family_instance("4")) == (1, 0, 1, 0, 1, 0, 1)
    assert betti_profile(family_instance("5")) == (1, 0, 2, 0, 2, 0, 1)
    assert betti_profile(family_instance("6a", n=0, g=1, g1=1)) == (
        1,
        2,
        2,
        2,
        2,
        2,
        1,
    )


# ---------------------------------------------------------------------------
# classification


@pytest.mark.parametrize(
    "tag,params,expected",
    [(tag, params, tag) for tag, params in FAMILY_CASES],
)
def test_classify_family_instances(tag, params, expected):
    assert classify_type(family_instance(tag, **params)) == expected


def test_classify_unknown_shape():
    # Four spheres with vanishing normal Chern numbers: valid, but the
    # second Betti number is too large for the named families.
    data = FixedPointData(
        (
            surface(0, 0, genus=0, b=0),
            surface(2, 1, genus=0, b_plus=0, b_minus=0),
            surface(2, 2, genus=0, b_plus=0, b_minus=0),
            surface(4, 3, genus=0, b=0),
        )
    )
    assert validate(data).ok
    assert classify_type(data) == "unclassified"


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("tag,params", FAMILY_CASES)
def test_json_round_trip(tag, params):
    data = family_instance(tag, **params)
    text = data.dumps()
    again = FixedPointData.loads(text)
    assert again == data
    assert again.dumps() == text


def test_loads_rejects_unknown_schema():
    data = family_instance("1")
    payload = data.dumps().replace("fpdata.v1", "fpdata.v2")
    with pytest.raises(SchemaError):
        FixedPointData.loads(payload)


def test_loads_rejects_unknown_fields():
    text = family_instance("1").dumps().replace(
        '"twist": false', '"twist": false, "extra": 1'
    )
    with pytest.raises(SchemaError):
        FixedPointData.loads(text)


def test_loads_rejects_bad_json():
    with pytest.raises(SchemaError):
        FixedPointData.loads("{not json")


@pytest.mark.parametrize(
    "level, message",
    [
        ("0.1", "expected a rational string, got 0.1"),
        ('"x"', "malformed rational 'x'"),
        ("null", "expected a rational string, got None"),
        ("true", "expected a rational, got a boolean"),
    ],
)
def test_loads_rejects_bad_level_as_schema_error(level, message):
    text = json.dumps(
        {
            "schema": "fpdata.v1",
            "components": [
                {"kind": "point", "index": 0, "level": 0},
                {"kind": "point", "index": 6, "level": 1},
            ],
        }
    ).replace('"level": 1', f'"level": {level}')
    with pytest.raises(SchemaError) as caught:
        FixedPointData.loads(text)
    assert str(caught.value) == message


def test_fractional_levels_round_trip():
    data = FixedPointData(
        (
            point(0, F(1, 3)),
            surface(2, F(1, 2), genus=0, b_plus=2, b_minus=2),
            point(6, F(5, 7)),
        )
    )
    assert FixedPointData.loads(data.dumps()) == data


# ---------------------------------------------------------------------------
# the extremes, read once per datum


@pytest.mark.parametrize(
    "components, which, found",
    [
        ((point(0, 0), point(0, 1), point(6, 2)), "minimum", 2),
        ((point(0, 0), point(2, 1)), "maximum", 0),
    ],
)
def test_a_bad_extreme_raises_on_every_read(components, which, found):
    data = FixedPointData(components)
    for _ in range(2):
        with pytest.raises(InvalidDataError, match=f"expected one {which}, found {found}"):
            getattr(data, which)


def test_reading_the_extremes_keeps_equality_hash_and_text():
    read, fresh = family_instance("3", n=3), family_instance("3", n=3)
    assert read.minimum == surface(0, 0, genus=0, b=3)
    assert read.maximum == point(6, 3)
    assert read == fresh
    assert hash(read) == hash(fresh)
    assert read.dumps() == fresh.dumps()
