"""Localization sums, solved restriction tables, and the derived checks."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import builtin_data, classified_fuzz_data, family_presets
from semifree._solve import Poly
from semifree.algebra import (
    EquivariantClass,
    integrate_component,
    invert_euler,
    mul,
)
from semifree import classifier
from semifree.classifier import ChainResult, Crossing, euler_transport, family_instance
from semifree.fixed_points import (
    FixedPointData,
    InvalidDataError,
    SchemaError,
    classify_type,
    point,
    surface,
)
from semifree.localization import (
    MultipleSolutionsError,
    NoSolutionError,
    RestrictionTable,
    SymClass,
    _build_skeleton,
    _integration_equations,
    _SkeletonClass,
    abbv_integrate,
    b_plus_minus,
    c1_restriction,
    c1_restrictions,
    dh_path,
    equivariant_euler,
    solve_restriction_table,
    unit_restrictions,
    verify_redundant_equations,
    w2_vanishes,
)

FAMILY_CASES = [
    ("1", {}),
    ("2", {}),
    ("3", {"n": 1}),
    ("3", {"n": 3}),
    ("3", {"n": -1}),
    ("4", {}),
    ("5", {}),
    ("5", {"same_level": True}),
    ("6a", {"n": 2, "g": 1, "g1": 2}),
    ("6a", {"n": 1, "g": 0, "g1": 0}),
    ("6b", {"k": 1, "k_prime": 0}),
    ("6b", {"k": 0, "k_prime": 2}),
]


def pt(terms):
    return EquivariantClass.make("point", terms)


def surf(terms):
    return EquivariantClass.make("surface", terms)


def scatter(table, restrictions):
    """Reorder a table row from label order to component order."""
    out = [None] * len(table.data.components)
    for column, position in enumerate(table.positions):
        out[position] = restrictions[column]
    return tuple(out)


# ---------------------------------------------------------------------------
# Euler classes and c1 restrictions


@pytest.mark.parametrize(
    ("component", "expected"),
    [
        (point(index=0, level=0), pt({3: 1})),
        (point(index=2, level=0), pt({3: -1})),
        (point(index=4, level=0), pt({3: 1})),
        (point(index=6, level=0), pt({3: -1})),
        (surface(genus=1, index=0, level=0, b=2), surf({2: 1, 1: (0, 2)})),
        (surface(genus=0, index=0, level=0, b=-3), surf({2: 1, 1: (0, -3)})),
        (surface(genus=1, index=4, level=0, b=-4), surf({2: 1, 1: (0, 4)})),
        (
            surface(genus=2, index=2, level=0, b_plus=5, b_minus=-1),
            surf({2: -1, 1: (0, -6)}),
        ),
    ],
)
def test_equivariant_euler_frozen(component, expected):
    assert equivariant_euler(component) == expected


@pytest.mark.parametrize(
    ("component", "expected"),
    [
        (point(index=0, level=0), pt({1: 3})),
        (point(index=2, level=0), pt({1: 1})),
        (point(index=4, level=0), pt({1: -1})),
        (point(index=6, level=0), pt({1: -3})),
        (surface(genus=1, index=0, level=0, b=2), surf({1: 2, 0: (0, 2)})),
        (surface(genus=0, index=4, level=0, b=1), surf({1: -2, 0: (0, 3)})),
        (
            surface(genus=2, index=2, level=0, b_plus=5, b_minus=-1),
            surf({0: (0, 2)}),
        ),
    ],
)
def test_c1_restriction_frozen(component, expected):
    assert c1_restriction(component) == expected


def test_missing_normal_data_is_rejected():
    naked = surface(genus=0, index=0, level=0)
    with pytest.raises(InvalidDataError):
        equivariant_euler(naked)
    with pytest.raises(InvalidDataError):
        c1_restriction(naked)


# ---------------------------------------------------------------------------
# the localization sum


@pytest.mark.parametrize(("tag", "params"), FAMILY_CASES)
def test_low_degree_integrals_vanish(tag, params):
    data = family_instance(tag, **params)
    ones = unit_restrictions(data)
    c1 = c1_restrictions(data)
    squares = tuple(mul(r, r) for r in c1)
    assert abbv_integrate(data, ones) == {}
    assert abbv_integrate(data, c1) == {}
    assert abbv_integrate(data, squares) == {}


def test_top_chern_integral_type_one():
    data = family_instance("1")
    c1 = c1_restrictions(data)
    cubes = tuple(mul(mul(r, r), r) for r in c1)
    assert abbv_integrate(data, cubes) == {0: Fraction(54)}


def sphere_min_isolated_shape(n2, n4, b):
    components = [surface(genus=0, index=0, level=0, b=b)]
    components += [point(index=2, level=1) for _ in range(n2)]
    components += [point(index=4, level=2) for _ in range(n4)]
    components.append(point(index=6, level=3))
    return FixedPointData(components=tuple(components))


def relations_hold(data):
    ones = unit_restrictions(data)
    c1 = c1_restrictions(data)
    squares = tuple(mul(r, r) for r in c1)
    return (
        abbv_integrate(data, ones) == {}
        and abbv_integrate(data, c1) == {}
        and abbv_integrate(data, squares) == {}
    )


def test_sphere_min_point_max_counts_are_forced():
    hits = [
        (n2, n4, b)
        for n2 in range(5)
        for n4 in range(5)
        for b in range(-3, 4)
        if relations_hold(sphere_min_isolated_shape(n2, n4, b))
    ]
    assert hits == [(2, 3, 0)]


# ---------------------------------------------------------------------------
# solved restriction tables, frozen per type

LAM3 = {3: 1}


def table_for(tag, **params):
    return solve_restriction_table(family_instance(tag, **params))


def assert_table(table, expected):
    for (name, label), value in expected.items():
        assert table.restriction(name, label) == value, (name, label)


def test_type_one_table():
    table = table_for("1")
    assert table.labels == ("F1", "F2", "F3")
    zero_pt = pt({})
    zero_s = surf({})
    assert_table(
        table,
        {
            ("alpha_1", "F1"): pt({0: 1}),
            ("alpha_1", "F2"): surf({0: 1}),
            ("alpha_1", "F3"): pt({0: 1}),
            ("alpha_2", "F1"): zero_pt,
            ("alpha_2", "F2"): surf({1: -1, 0: (0, 2)}),
            ("alpha_2", "F3"): pt({1: -2}),
            ("alpha'_2", "F1"): zero_pt,
            ("alpha'_2", "F2"): surf({1: (0, -1)}),
            ("alpha'_2", "F3"): pt({2: 1}),
            ("alpha_3", "F1"): zero_pt,
            ("alpha_3", "F2"): zero_s,
            ("alpha_3", "F3"): pt({3: -1}),
        },
    )
    assert table.c1_decomposition == (
        ("lambda*alpha_1", Fraction(3)),
        ("alpha_2", Fraction(3)),
    )


def test_type_two_table():
    table = table_for("2")
    assert_table(
        table,
        {
            ("alpha_2", "F2"): surf({1: -1, 0: (0, 1)}),
            ("alpha_2", "F3"): surf({0: (0, 1)}),
            ("alpha_2", "F4"): pt({1: -1}),
            ("alpha_3", "F2"): surf({}),
            ("alpha_3", "F3"): surf({1: -1}),
            ("alpha_3", "F4"): pt({1: -1}),
            ("alpha'_2", "F2"): surf({1: (0, -1)}),
            ("alpha'_2", "F3"): surf({}),
            ("alpha'_2", "F4"): pt({2: 1}),
            ("alpha'_3", "F3"): surf({1: (0, -1)}),
            ("alpha'_3", "F4"): pt({2: 1}),
            ("alpha_4", "F4"): pt({3: -1}),
        },
    )
    assert table.c1_decomposition == (
        ("lambda*alpha_1", Fraction(3)),
        ("alpha_2", Fraction(3)),
        ("alpha_3", Fraction(3)),
    )


@pytest.mark.parametrize("n", [1, 3, -1, 5])
def test_type_three_table(n):
    table = table_for("3", n=n)
    b_minus = 1 - n
    assert_table(
        table,
        {
            ("alpha'_1", "F1"): surf({0: (0, 1)}),
            ("alpha'_1", "F2"): surf({0: (0, 1)}),
            ("alpha'_1", "F3"): pt({1: -1}),
            ("alpha'_1", "F4"): pt({1: -1}),
            ("alpha_2", "F1"): surf({}),
            ("alpha_2", "F2"): surf({1: -1, 0: (0, b_minus)}),
            ("alpha_2", "F3"): pt({1: Fraction(-b_minus, 2)}),
            ("alpha_2", "F4"): pt({1: Fraction(-(2 + b_minus), 2)}),
            ("alpha'_2", "F2"): surf({1: (0, -1)}),
            ("alpha'_2", "F3"): pt({}),
            ("alpha'_2", "F4"): pt({2: 1}),
            ("alpha_3", "F3"): pt({2: 1}),
            ("alpha_3", "F4"): pt({2: 1}),
            ("alpha_4", "F4"): pt({3: -1}),
        },
    )
    assert table.c1_decomposition == (
        ("lambda*alpha_1", Fraction(2)),
        ("alpha'_1", Fraction(2 + n)),
        ("alpha_2", Fraction(2)),
    )


def test_type_four_table():
    table = table_for("4")
    assert table.labels == ("F1", "F2")
    assert table.component_for("F1").index == 4
    assert table.component_for("F2").index == 0
    assert_table(
        table,
        {
            ("alpha_2", "F1"): surf({0: 1}),
            ("alpha_2", "F2"): surf({0: 1}),
            ("alpha'_2", "F1"): surf({1: -1, 0: (0, 1)}),
            ("alpha'_2", "F2"): surf({0: (0, 1)}),
            ("alpha_1", "F1"): surf({2: 1, 1: (0, -2)}),
            ("alpha_1", "F2"): surf({}),
            ("alpha'_1", "F1"): surf({2: (0, 1)}),
            ("alpha'_1", "F2"): surf({}),
        },
    )
    assert table.c1_decomposition == (
        ("lambda*alpha_2", Fraction(2)),
        ("alpha'_2", Fraction(4)),
    )


def test_type_five_table():
    table = table_for("5")
    assert_table(
        table,
        {
            ("alpha'_1", "F1"): surf({0: (0, 1)}),
            ("alpha'_1", "F2"): pt({}),
            ("alpha'_1", "F3"): pt({1: -1}),
            ("alpha'_1", "F4"): surf({1: -1, 0: (0, 1)}),
            ("alpha_2", "F2"): pt({1: -1}),
            ("alpha_2", "F3"): pt({}),
            ("alpha_2", "F4"): surf({1: -1}),
            ("alpha_3", "F3"): pt({2: 1}),
            ("alpha_3", "F4"): surf({1: (0, -1)}),
            ("alpha_4", "F4"): surf({2: 1, 1: (0, -1)}),
            ("alpha'_4", "F4"): surf({2: (0, 1)}),
        },
    )
    assert table.c1_decomposition == (
        ("lambda*alpha_1", Fraction(2)),
        ("alpha'_1", Fraction(3)),
        ("alpha_2", Fraction(1)),
    )


@pytest.mark.parametrize(
    ("n", "g", "g1"),
    [(1, 0, 0), (2, 0, 0), (2, 1, 2), (-1, 0, 1), (3, 2, 1), (0, 0, 1)],
)
def test_type_six_a_table(n, g, g1):
    table = table_for("6a", n=n, g=g, g1=g1)
    c = 1 + g1 - 2 * g
    b_minus = -n + c
    b_max = -n - 2 * c
    assert_table(
        table,
        {
            ("alpha'_1", "F1"): surf({0: (0, 1)}),
            ("alpha'_1", "F2"): surf({0: (0, 2)}),
            ("alpha'_1", "F3"): surf({0: (0, 1)}),
            ("alpha_2", "F2"): surf({1: -1, 0: (0, b_minus)}),
            ("alpha_2", "F3"): surf({1: -2, 0: (0, -n - c)}),
            ("alpha'_2", "F2"): surf({1: (0, -1)}),
            ("alpha'_2", "F3"): surf({1: (0, -1)}),
            ("alpha_3", "F3"): surf({2: 1, 1: (0, -b_max)}),
            ("alpha'_3", "F3"): surf({2: (0, 1)}),
        },
    )


@pytest.mark.parametrize("k_prime", [0, 1, 2, 3])
def test_type_six_b_table_min_zero(k_prime):
    table = table_for("6b", k=0, k_prime=k_prime)
    n_prime = 2 * k_prime
    assert_table(
        table,
        {
            ("alpha'_1", "F1"): surf({0: (0, 1)}),
            ("alpha'_1", "F2"): surf({0: (0, 1 - Fraction(n_prime, 2))}),
            ("alpha'_1", "F3"): surf({1: -1, 0: (0, Fraction(n_prime, 2))}),
            ("alpha_2", "F2"): surf({1: -1, 0: (0, 1)}),
            ("alpha_2", "F3"): surf({1: -1, 0: (0, 1)}),
            ("alpha'_2", "F3"): surf({1: (0, -1)}),
            ("alpha_3", "F3"): surf({2: 1, 1: (0, -n_prime)}),
            ("alpha'_3", "F3"): surf({2: (0, 1)}),
        },
    )


@pytest.mark.parametrize("k", [1, 2, 3])
def test_type_six_b_table_min_nonzero(k):
    table = table_for("6b", k=k, k_prime=0)
    n = 2 * k
    assert_table(
        table,
        {
            ("alpha'_1", "F1"): surf({0: (0, 1)}),
            ("alpha'_1", "F2"): surf({0: (0, 1)}),
            ("alpha'_1", "F3"): surf({1: -1}),
            ("alpha_2", "F2"): surf({1: -1, 0: (0, 1 - n)}),
            ("alpha_2", "F3"): surf({1: Fraction(n - 2, 2), 0: (0, 1)}),
            ("alpha'_2", "F3"): surf({1: (0, -1)}),
            ("alpha_3", "F3"): surf({2: 1}),
            ("alpha'_3", "F3"): surf({2: (0, 1)}),
        },
    )


@pytest.mark.parametrize(("tag", "params"), FAMILY_CASES)
def test_redundant_equations_hold(tag, params):
    table = table_for(tag, **params)
    assert verify_redundant_equations(table) == []


@pytest.mark.parametrize(("tag", "params"), FAMILY_CASES)
def test_table_classes_integrate_to_thom_normalization(tag, params):
    table = table_for(tag, **params)
    for cls in table.classes:
        integral = abbv_integrate(table.data, scatter(table, cls.restrictions))
        if cls.degree < 6:
            assert integral == {}
        else:
            assert integral == {0: Fraction(1)}


def test_unclassified_data_has_no_table():
    data = FixedPointData(
        components=(
            surface(genus=0, index=0, level=0, b=0),
            surface(genus=0, index=2, level=1, b_plus=0, b_minus=0),
            surface(genus=0, index=4, level=2, b=0),
            surface(genus=0, index=4, level=2, b=0),
        )
    )
    with pytest.raises(InvalidDataError):
        solve_restriction_table(data)


@pytest.mark.parametrize(
    "components",
    [
        (
            point(index=0, level=0),
            surface(genus=0, index=2, level=1, b_plus=3, b_minus=2),
            point(index=6, level=2),
        ),
        (
            surface(genus=0, index=0, level=0, b=1),
            surface(genus=0, index=2, level=1, b_plus=2, b_minus=0),
            point(index=4, level=2),
            point(index=6, level=3),
        ),
    ],
)
def test_inconsistent_normal_data_has_no_solution(components):
    data = FixedPointData(components=components)
    with pytest.raises(NoSolutionError, match="no integral solution"):
        solve_restriction_table(data)


def test_solver_error_types_are_value_errors():
    assert issubclass(NoSolutionError, ValueError)
    assert issubclass(MultipleSolutionsError, ValueError)


# ---------------------------------------------------------------------------
# normal-bundle splitting at index-2 surfaces


def middles_of(data):
    return [c for c in data.components if c.index == 2]


def test_b_plus_minus_type_one():
    data = family_instance("1")
    assert b_plus_minus(data, middles_of(data)[0]) == (2, 2)


def test_b_plus_minus_type_two():
    data = family_instance("2")
    lower, upper = sorted(middles_of(data), key=lambda c: c.level)
    assert b_plus_minus(data, lower) == (0, 1)
    assert b_plus_minus(data, upper) == (1, 0)


@pytest.mark.parametrize("n", [-5, -3, -1, 1, 3, 5])
def test_b_plus_minus_type_three(n):
    data = family_instance("3", n=n)
    assert b_plus_minus(data, middles_of(data)[0]) == (1, 1 - n)


@pytest.mark.parametrize("n", [-6, -2, 0, 1, 4, 6])
@pytest.mark.parametrize("g", [0, 1, 3])
@pytest.mark.parametrize("g1", [0, 2])
def test_b_plus_minus_type_six_a(n, g, g1):
    data = family_instance("6a", n=n, g=g, g1=g1)
    c = 1 + g1 - 2 * g
    assert b_plus_minus(data, middles_of(data)[0]) == (n + 3 * c, -n + c)


@pytest.mark.parametrize(("k", "k_prime"), [(0, 0), (1, 0), (0, 2), (1, 1), (2, 3)])
def test_b_plus_minus_type_six_b(k, k_prime):
    data = family_instance("6b", k=k, k_prime=k_prime)
    g1 = k * k_prime
    expected = (1 - 2 * k_prime + g1, 1 - 2 * k + g1)
    assert b_plus_minus(data, middles_of(data)[0]) == expected


def test_b_plus_minus_rejects_a_non_integral_splitting(monkeypatch):
    data = family_instance("1")
    half = Crossing(1, Fraction(1, 2), 0, None)
    monkeypatch.setattr(
        classifier,
        "euler_transport",
        lambda data: ChainResult(data, None, None, (half,)),
    )
    with pytest.raises(NoSolutionError, match="normal splitting is not integral"):
        b_plus_minus(data, 1)


@pytest.mark.parametrize(("tag", "params"), FAMILY_CASES)
def test_b_plus_minus_matches_stored_fields(tag, params):
    data = family_instance(tag, **params)
    for component in middles_of(data):
        if component.is_surface:
            computed = b_plus_minus(data, component)
            assert computed == (component.b_plus, component.b_minus)


# ---------------------------------------------------------------------------
# second Stiefel-Whitney test


@pytest.mark.parametrize(
    ("tag", "params", "expected"),
    [
        ("1", {}, False),
        ("2", {}, False),
        ("3", {"n": 1}, False),
        ("3", {"n": 3}, False),
        ("3", {"n": -1}, False),
        ("4", {}, True),
        ("5", {}, False),
        ("6b", {"k": 1, "k_prime": 0}, True),
        ("6b", {"k": 0, "k_prime": 2}, True),
        ("6b", {"k": 2, "k_prime": 1}, True),
    ],
)
def test_w2_truth_table(tag, params, expected):
    assert w2_vanishes(family_instance(tag, **params)) is expected


@pytest.mark.parametrize("n", [-2, -1, 0, 1, 2, 3])
@pytest.mark.parametrize(("g", "g1"), [(0, 0), (1, 0), (0, 2), (2, 3)])
def test_w2_type_six_a_tracks_minimum_parity(n, g, g1):
    data = family_instance("6a", n=n, g=g, g1=g1)
    assert w2_vanishes(data) is (data.minimum.b % 2 == 0)


# ---------------------------------------------------------------------------
# Duistermaat-Heckman positivity paths


def test_dh_path_rejects_point_components():
    with pytest.raises(InvalidDataError):
        dh_path(family_instance("3", n=1), Fraction(1), ())


def test_dh_path_rejects_excess_gaps():
    with pytest.raises(ValueError, match="gaps"):
        dh_path(family_instance("4"), Fraction(1), (Fraction(1), Fraction(1)))


def test_dh_path_takes_the_solved_chain_of_its_data_only():
    data = family_instance("6b", k=1, k_prime=0)
    path = dh_path(data, Fraction(3), (Fraction(1),))
    assert dh_path(data, Fraction(3), (Fraction(1),), euler_transport(data)) == path
    other = euler_transport(family_instance("6b", k=2, k_prime=0))
    with pytest.raises(ValueError, match="other data"):
        dh_path(data, Fraction(3), (Fraction(1),), other)


def test_dh_path_twisted_square_is_inconsistent():
    path = dh_path(family_instance("6b", k=1, k_prime=1), Fraction(1), ())
    assert path.verdict == "inconsistent"
    assert not path.complete


def test_dh_path_partial_sweep_positive():
    path = dh_path(family_instance("6b", k=1, k_prime=0), Fraction(3), (Fraction(1),))
    assert path.verdict == "positive"
    assert not path.complete
    assert path.times == (Fraction(0), Fraction(1))
    assert path.omegas[-1].coeffs == (Fraction(2), Fraction(1))


def test_dh_path_small_start_fails():
    path = dh_path(family_instance("6b", k=2, k_prime=0), Fraction(1), (Fraction(1),))
    assert path.verdict == "not_positive"
    assert path.failures


def test_dh_path_full_sweep_two_surface_join():
    path = dh_path(family_instance("4"), Fraction(2), (Fraction(2),))
    assert path.verdict == "positive"
    assert path.complete
    assert path.times == (Fraction(0), Fraction(2))
    assert [omega.coeffs for omega in path.omegas] == [
        (Fraction(2), Fraction(0)),
        (Fraction(0), Fraction(2)),
    ]


# ---------------------------------------------------------------------------
# serialization and rendering


def test_table_round_trip():
    table = table_for("3", n=3)
    payload = table.to_json_dict()
    assert payload["schema"] == "rtable.v1"
    assert RestrictionTable.from_json_dict(payload) == table


def test_table_rejects_unknown_schema():
    payload = table_for("1").to_json_dict()
    payload["schema"] = "rtable.v999"
    with pytest.raises(SchemaError):
        RestrictionTable.from_json_dict(payload)


def _edit(*path, value=None):
    """Set the entry at ``path`` to ``value``, or delete it when None."""

    def edit(payload):
        *parents, last = path
        for key in parents:
            payload = payload[key]
        if value is None:
            del payload[last]
        else:
            payload[last] = value

    return edit


def _relabel(payload):
    payload["labels"]["X"] = payload["labels"].pop("F1")


MALFORMED_TABLES = {
    "missing labels": (_edit("labels"), "lacks the key 'labels'"),
    "missing classes": (_edit("classes"), "lacks the key 'classes'"),
    "missing c1": (_edit("c1"), "lacks the key 'c1'"),
    "label X": (_relabel, "lacks the key 'F1'"),
    "position a": (_edit("labels", "F1", value="a"), "F1..F3, each once"),
    "position 99": (_edit("labels", "F1", value=99), "F1..F3, each once"),
    "degree x": (_edit("classes", 1, "degree", value="x"), "not all of degree 'x'"),
    "restriction outside its degree": (
        _edit(
            "classes", 1, "restrictions", "F2",
            value=[[0, "0", "2"], [1, "-1", "0"], [2, "1", "0"]],
        ),
        "not all of degree 2",
    ),
    "missing restriction": (
        _edit("classes", 1, "restrictions", "F2"),
        "lacks the key 'F2'",
    ),
    "rational x": (
        _edit("classes", 1, "restrictions", "F2", value=[[1, "x", "0"]]),
        "malformed rational 'x'",
    ),
    "one-element decomposition entry": (
        _edit("c1", "decomposition", value=[["alpha_2"]]),
        "not enough values",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TABLES))
def test_table_rejects_malformed_payload(case):
    edit, message = MALFORMED_TABLES[case]
    payload = table_for("1").to_json_dict()
    edit(payload)
    with pytest.raises(SchemaError, match=message):
        RestrictionTable.from_json_dict(payload)


def test_render_text_type_one():
    text = solve_restriction_table(family_instance("1")).render_text()
    assert "-2λ" in text
    assert "α′_2" in text
    assert "c_1 = 3*λ·α_1, 3*α_2" in text


def test_restriction_lookup_errors():
    table = table_for("1")
    with pytest.raises(KeyError):
        table.restriction("alpha_9", "F1")
    with pytest.raises(ValueError):
        table.restriction("alpha_2", "F9")


# ---------------------------------------------------------------------------
# property sweep over the families


@st.composite
def family_data(draw):
    tag = draw(st.sampled_from(["1", "2", "3", "4", "5", "6a", "6b"]))
    if tag == "3":
        n = draw(st.integers(min_value=-3, max_value=3).filter(lambda v: v % 2))
        return family_instance(tag, n=n)
    if tag == "6a":
        return family_instance(
            tag,
            n=draw(st.integers(min_value=-4, max_value=4)),
            g=draw(st.integers(min_value=0, max_value=3)),
            g1=draw(st.integers(min_value=0, max_value=3)),
        )
    if tag == "6b":
        return family_instance(
            tag,
            k=draw(st.integers(min_value=0, max_value=3)),
            k_prime=draw(st.integers(min_value=0, max_value=3)),
        )
    return family_instance(tag)


@given(family_data())
@settings(max_examples=60, deadline=None)
def test_solved_tables_localize_to_zero(data):
    table = solve_restriction_table(data)
    for cls in table.classes:
        integral = abbv_integrate(data, scatter(table, cls.restrictions))
        if cls.degree < 6:
            assert integral == {}
        else:
            assert set(integral) <= {0}
            assert integral[0].denominator == 1


# ---------------------------------------------------------------------------
# the equation set over the benchmark corpus

CORPORA = {
    "presets": family_presets,
    "builtins": builtin_data,
    "fuzz1": lambda: classified_fuzz_data(1),
    "fuzz2": lambda: classified_fuzz_data(2),
}


def classified(corpus):
    """(data, tag) for each datum of the corpus that has a type."""
    out = []
    for _, data in CORPORA[corpus]():
        tag = classify_type(data)
        if tag != "unclassified":
            out.append((data, tag))
    return out


def full_product_equations(data, positions, factors):
    """Every product of one to three factors of total degree <= 6.

    The enumeration that ``_integration_equations`` replaced, kept as
    an oracle: it forms the degree-6 products too, and drops the
    constant term that is all they integrate to.
    """
    comps = data.components
    inverses = [
        SymClass.from_exact(invert_euler(equivariant_euler(comps[p])))
        for p in positions
    ]
    c1_sym = _SkeletonClass(
        "c_1",
        2,
        -1,
        tuple(SymClass.from_exact(c1_restriction(comps[p])) for p in positions),
    )
    positive = [f for f in factors if f.degree > 0] + [c1_sym]
    combos = [(f,) for f in factors]
    for size in (2, 3):
        combos.extend(itertools.combinations_with_replacement(positive, size))
    equations = []
    for combo in combos:
        degree = sum(f.degree for f in combo)
        if degree > 6:
            continue
        total = {}
        for idx in range(len(positions)):
            product = inverses[idx]
            for f in combo:
                product = product.mul(f.sym[idx])
            for k, value in integrate_component(product).items():
                total[k] = total.get(k, Poly.const(0)) + value
        for k, value in total.items():
            if value.is_zero():
                continue
            if degree == 6 and k == 0:
                continue
            equations.append(value)
    return equations


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_equations_match_the_full_product_enumeration(corpus):
    cases = classified(corpus)
    assert cases
    for data, tag in cases:
        positions, skeleton = _build_skeleton(data, tag)
        got = _integration_equations(data, positions, skeleton)
        want = full_product_equations(data, positions, skeleton)
        assert [eq.terms for eq in got] == [eq.terms for eq in want]


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_solved_corpus_tables_satisfy_every_product(corpus):
    for data, _ in classified(corpus):
        try:
            table = solve_restriction_table(data)
        except NoSolutionError:
            continue
        assert verify_redundant_equations(table) == []


def term_degrees(terms):
    """Degrees of the nonzero terms: 2k for a scalar at lambda^k, and
    2k + 2 for a u at lambda^k."""
    degrees = set()
    for k, (c, d) in terms:
        if c:
            degrees.add(2 * k)
        if d:
            degrees.add(2 * k + 2)
    return degrees


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_restrictions_are_homogeneous(corpus):
    """Each restriction lies in its class's degree, so a product of
    total degree D integrates to the single Laurent term
    lambda^((D - 6) / 2). A degree-6 product therefore constrains
    nothing, which is why the equation set stops below degree 6."""
    for data, tag in classified(corpus):
        positions, skeleton = _build_skeleton(data, tag)
        for cls in skeleton:
            assert cls.degree in (0, 2, 4, 6)
            for restriction in cls.sym:
                assert term_degrees(restriction.terms) <= {cls.degree}
        for component in data.components:
            assert term_degrees(c1_restriction(component).terms) <= {2}
            dim = 0 if component.is_point else 2
            inverse = invert_euler(equivariant_euler(component))
            assert inverse.homogeneous_degree() == -(6 - dim)
