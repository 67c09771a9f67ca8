"""Localization sums, solved restriction tables, and the derived checks."""

import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    builtin_data,
    classified_fuzz_data,
    enumerated_members,
    family_presets,
    fuzz_data,
)
from oracles import (
    Poly,
    c1_power,
    equivariant_euler,
    invert_euler,
    mul_terms,
    multiply,
    poly_skeleton,
    unit,
    unit_restrictions,
)
from semifree._solve import Solution, solve_system
from semifree.algebra import CarrierMismatchError, EquivariantClass
from semifree import classifier, localization
from semifree.classifier import (
    ChainResult,
    Crossing,
    b_plus_minus,
    family_instance,
)
from semifree.fixed_points import (
    FixedPointData,
    InvalidDataError,
    classify_type,
    point,
    surface,
    validate,
)
from semifree.localization import (
    MultipleSolutionsError,
    NoSolutionError,
    RestrictionTable,
    _build_skeleton,
    _c1_power_integrals,
    _c1_power_sum,
    _c1_shape,
    _integration_equations,
    _SkeletonClass,
    abbv_integrate,
    c1_restriction,
    c1_restrictions,
    dh_path,
    solve_restriction_table,
    w2_vanishes,
)
from semifree.rationals import canon

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


def c1_row(data, positions):
    """The c_1 restrictions in label order, as ``solve_restriction_table``
    hands them to ``_integration_equations``."""
    c1s = c1_restrictions(data)
    return tuple(c1s[p] for p in positions)


def verify_redundant_equations(table: RestrictionTable) -> list[str]:
    """Re-check a solved table against the product equation set.

    Returns the violated equations; empty means every basis class
    below degree six, and every product of two degree-2 classes or the
    first Chern class, integrates to zero. Products of degree six and
    more constrain nothing, because each restriction lies in its
    class's degree; ``solve_restriction_table`` only makes such tables.
    """
    solved = [
        _SkeletonClass(
            cls.name,
            cls.degree,
            table.labels.index(cls.home),
            tuple(r.terms for r in cls.restrictions),
        )
        for cls in table.classes
    ]
    return [
        repr(eq)
        for eq in _integration_equations(table.data, table.positions, solved, table.c1_values)
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
    squares = tuple(multiply(r, r) for r in c1)
    assert abbv_integrate(data, ones) == {}
    assert abbv_integrate(data, c1) == {}
    assert abbv_integrate(data, squares) == {}


def test_top_chern_integral_type_one():
    data = family_instance("1")
    c1 = c1_restrictions(data)
    cubes = tuple(multiply(multiply(r, r), r) for r in c1)
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
    squares = tuple(multiply(r, r) for r in c1)
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


def _three_surface_grid():
    """6a with genus <= 1, 6b, middle genus <= 2, every b, b+ and b- in -2..2."""
    values = range(-2, 3)
    shapes = [(False, g, g1) for g in (0, 1) for g1 in (0, 1, 2)]
    shapes += [(True, 0, g1) for g1 in (0, 1, 2)]
    for (twist, g, g1), b, b_top, b_plus, b_minus in itertools.product(
        shapes, values, values, values, values
    ):
        yield FixedPointData(
            (
                surface(0, 0, genus=g, b=b),
                surface(2, 1, genus=g1, b_plus=b_plus, b_minus=b_minus),
                surface(4, 2, genus=g, b=b_top),
            ),
            twist=twist,
        )


def test_first_table_solve_leaves_no_variable_free():
    # Why a free solution may raise at once: the integration equations
    # alone determine every three-surface table on this grid, so the
    # selection rule only ever chooses among integral solutions.
    tried = 0
    for data in _three_surface_grid():
        if not validate(data).ok or classify_type(data) not in ("6a", "6b"):
            continue
        positions, skeleton = _build_skeleton(data, classify_type(data))
        solutions = solve_system(_integration_equations(data, positions, skeleton, c1_row(data, positions)))
        assert not any(sol.free for sol in solutions), data
        tried += 1
    assert tried == 2625


def test_selection_rule_chooses_between_two_integral_solutions():
    data = family_instance("6a", n=0, g=0, g1=0)
    positions, skeleton = _build_skeleton(data, "6a")
    solutions = solve_system(_integration_equations(data, positions, skeleton, c1_row(data, positions)))
    assert sum(all(v.denominator == 1 for _, v in s.assignment) for s in solutions) == 2
    assert solve_restriction_table(data).selection_rule_applied


@pytest.mark.parametrize("tag, params", [("4", {}), ("6a", {}), ("6b", {"k_prime": 0})])
def test_a_free_table_solution_is_underdetermined(monkeypatch, tag, params):
    free = Solution((("x", 0),), frozenset({"y"}))
    monkeypatch.setattr(localization, "solve_system", lambda equations: [free])
    with pytest.raises(MultipleSolutionsError, match="underdetermined"):
        solve_restriction_table(family_instance(tag, **params))


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
        lambda data: ChainResult(None, None, (half,)),
    )
    with pytest.raises(NoSolutionError, match="normal splitting is not integral"):
        b_plus_minus(data, 1)


@pytest.mark.parametrize("position", [-2, True, 3])
def test_b_plus_minus_rejects_a_bad_position(position):
    # A negative index, a bool and an index past the end name no
    # component, even where Python indexing would accept them.
    data = family_instance("6a")
    assert b_plus_minus(data, 1) == b_plus_minus(data, data.components[1])
    with pytest.raises(InvalidDataError, match=f"got {position!r}"):
        b_plus_minus(data, position)


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
# rendering


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
    inverses = [invert_euler(equivariant_euler(comps[p])) for p in positions]
    c1_sym = _SkeletonClass(
        "c_1",
        2,
        -1,
        tuple(c1_restriction(comps[p]).terms for p in positions),
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
            product = inverses[idx].terms
            for f in combo:
                product = mul_terms(product, f.restrictions[idx])
            part = 0 if inverses[idx].carrier == "point" else 1
            for k, pair in product:
                if pair[part]:
                    total[k] = total.get(k, Poly.const(0)) + pair[part]
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
        got = _integration_equations(data, positions, skeleton, c1_row(data, positions))
        want = full_product_equations(data, positions, poly_skeleton(skeleton))
        assert got == [eq.terms for eq in want]


def formed_product_equations(data, positions, factors):
    """``_integration_equations`` as it was: every product formed, then integrated."""
    comps = data.components
    carriers = [comps[p].kind for p in positions]
    inverses = [invert_euler(equivariant_euler(comps[p])).terms for p in positions]
    c1_sym = [c1_restriction(comps[p]).terms for p in positions]

    products = []
    degree_two = []
    for f in factors:
        if f.degree < 6:
            products.append([mul_terms(inv, r) for inv, r in zip(inverses, f.restrictions)])
            if f.degree == 2:
                degree_two.append((f.restrictions, products[-1]))
    degree_two.append((c1_sym, [mul_terms(inv, r) for inv, r in zip(inverses, c1_sym)]))
    for i, (_, left) in enumerate(degree_two):
        products += [[mul_terms(a, b) for a, b in zip(left, right)] for right, _ in degree_two[i:]]
    equations = []
    for product in products:
        total = {}
        for carrier, term in zip(carriers, product):
            part = 0 if carrier == "point" else 1
            for k, pair in term:
                if pair[part]:
                    total[k] = total.get(k, Poly.const(0)) + pair[part]
        equations += [value for value in total.values() if not value.is_zero()]
    return equations


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_equations_match_the_formed_products(corpus):
    cases = classified(corpus)
    assert cases
    for data, tag in cases:
        positions, skeleton = _build_skeleton(data, tag)
        got = _integration_equations(data, positions, skeleton, c1_row(data, positions))
        want = formed_product_equations(data, positions, poly_skeleton(skeleton))
        assert got == [eq.terms for eq in want]


def _integrands(data):
    c1 = c1_restrictions(data)
    squares = tuple(multiply(r, r) for r in c1)
    cubes = tuple(multiply(a, b) for a, b in zip(squares, c1))
    return unit_restrictions(data), c1, squares, cubes


# every datum of each corpus, classified or not
EVERY_DATUM = {
    **CORPORA,
    "fuzz1": lambda: fuzz_data(1),
    "fuzz2": lambda: fuzz_data(2),
    "enumerated": enumerated_members,
}


def reference_abbv_integrate(data, restrictions):
    """``abbv_integrate`` as it was: each Euler class inverted and each product formed."""
    total = {}
    for comp, restriction in zip(data.components, restrictions):
        term = multiply(restriction, invert_euler(equivariant_euler(comp)))
        part = 0 if term.carrier == "point" else 1
        for k, pair in term.terms:
            if pair[part]:
                total[k] = total.get(k, 0) + pair[part]
    return {k: canon(v) for k, v in sorted(total.items()) if v}


@pytest.mark.parametrize("corpus", ["presets", "builtins", "fuzz1", "fuzz2"])
def test_abbv_integrate_matches_the_formed_products(corpus):
    for _, shared in EVERY_DATUM[corpus]():
        data = FixedPointData(shared.components, twist=shared.twist)
        for restrictions in _integrands(data):
            got = abbv_integrate(data, restrictions)
            want = reference_abbv_integrate(data, restrictions)
            assert list(got.items()) == list(want.items())
            assert [type(v) for v in got.values()] == [type(v) for v in want.values()]


# what a datum keeps (``fixed_points._memo``): its extremes, its
# ``validate`` report, its type tag and its solved chain
DATUM_MEMOS = {"_minimum", "_maximum", "_report", "_type", "_chain"}


def test_localization_stores_nothing_on_a_datum():
    stray = Counter()
    for corpus in ("presets", "builtins", "fuzz1", "fuzz2"):
        for _, shared in EVERY_DATUM[corpus]():
            data = FixedPointData(shared.components, twist=shared.twist)
            dict(_c1_power_integrals(data))
            try:
                solve_restriction_table(data)
            except (InvalidDataError, NoSolutionError, MultipleSolutionsError):
                pass
            stray.update(k for k in vars(data) if k.startswith("_") and k not in DATUM_MEMOS)
    assert not stray


@st.composite
def normal_data_component(draw, level):
    """Any kind and index of fixed component, with its normal data."""
    kind = draw(st.sampled_from(["point", "surface"]))
    if kind == "point":
        return point(index=draw(st.sampled_from([0, 2, 4, 6])), level=level)
    genus = draw(st.integers(min_value=0, max_value=3))
    index = draw(st.sampled_from([0, 2, 4]))
    bs = st.integers(min_value=-6, max_value=6)
    if index == 2:
        return surface(genus=genus, index=2, level=level, b_plus=draw(bs), b_minus=draw(bs))
    return surface(genus=genus, index=index, level=level, b=draw(bs))


@st.composite
def exact_restrictions(draw):
    """A datum of one to four components and an exact class at each one."""
    size = draw(st.integers(min_value=1, max_value=4))
    data = FixedPointData(tuple(draw(normal_data_component(level)) for level in range(size)))
    coefficients = st.one_of(
        st.integers(min_value=-6, max_value=6),
        st.fractions(min_value=-6, max_value=6, max_denominator=6),
    )
    restrictions = []
    for component in data.components:
        exponents = draw(st.lists(st.integers(min_value=-4, max_value=4), max_size=4, unique=True))
        terms = {}
        for k in exponents:
            u_part = draw(coefficients) if component.is_surface else 0
            terms[k] = (draw(coefficients), u_part)
        restrictions.append(EquivariantClass.make(component.kind, terms))
    return data, tuple(restrictions)


@given(exact_restrictions())
@settings(max_examples=300, deadline=None)
def test_closed_form_abbv_integrate_matches_the_formed_products(case):
    data, restrictions = case
    got = abbv_integrate(data, restrictions)
    want = reference_abbv_integrate(data, restrictions)
    assert list(got.items()) == list(want.items())
    assert [type(v) for v in got.values()] == [type(v) for v in want.values()]


@pytest.mark.parametrize("corpus", ["presets", "builtins", "fuzz1", "fuzz2", "enumerated"])
def test_c1_power_integrals_match_the_formed_products(corpus):
    cases = EVERY_DATUM[corpus]()
    assert cases
    for _, data in cases:
        got = dict(_c1_power_integrals(data))
        want = {
            name: reference_abbv_integrate(data, restrictions)
            for name, restrictions in zip(("1", "c_1", "c_1^2", "c_1^3"), _integrands(data))
        }
        assert list(got) == list(want)
        for name, values in want.items():
            assert list(got[name].items()) == list(values.items())
            assert [type(v) for v in got[name].values()] == [type(v) for v in values.values()]


def _assert_homogeneous(data):
    """The single sum of 1 + c_1 + c_1^2 + c_1^3 lies in lambda^-3..lambda^0,
    and the integral of c_1^k that ``_c1_power_integrals`` reads off it
    has at most the key k - 3."""
    total = abbv_integrate(data, [_c1_power_sum(c) for c in data.components])
    assert set(total) <= {-3, -2, -1, 0}
    integrals = list(_c1_power_integrals(data))
    assert [name for name, _ in integrals] == ["1", "c_1", "c_1^2", "c_1^3"]
    for k, (_, values) in enumerate(integrals):
        assert set(values) <= {k - 3}
        assert values == ({k - 3: total[k - 3]} if k - 3 in total else {})


@pytest.mark.parametrize("corpus", ["presets", "builtins", "fuzz1", "fuzz2", "enumerated"])
def test_c1_power_integrals_are_homogeneous(corpus):
    cases = EVERY_DATUM[corpus]()
    assert cases
    for _, data in cases:
        _assert_homogeneous(data)


@st.composite
def normal_data(draw):
    """A datum of one to five components of any kind, index and normal data."""
    size = draw(st.integers(min_value=1, max_value=5))
    return FixedPointData(tuple(draw(normal_data_component(level)) for level in range(size)))


@given(normal_data())
@settings(max_examples=300, deadline=None)
def test_c1_power_integrals_are_homogeneous_on_drawn_data(data):
    _assert_homogeneous(data)


@given(normal_data())
@settings(max_examples=200, deadline=None)
def test_c1_power_sum_is_the_sum_of_the_formed_powers(data):
    # each power formed by the old multiplier, and by its closed form
    for component in data.components:
        c1 = c1_restriction(component)
        a, gamma = _c1_shape(component)
        total = {0: [1, 0]}
        power = unit(component.kind)
        for k in (1, 2, 3):
            power = multiply(power, c1)
            assert power == c1_power(component.kind, a, gamma, k)
            for exp, (c, d) in power.terms:
                acc = total.setdefault(exp, [0, 0])
                acc[0] += c
                acc[1] += d
        want = tuple((exp, tuple(pair)) for exp, pair in sorted(total.items()) if any(pair))
        assert _c1_power_sum(component) == EquivariantClass(component.kind, want)


def test_abbv_integrate_errors_on_every_call():
    data = family_instance("4")
    swapped = tuple(unit("point") for _ in data.components)
    missing_b = FixedPointData((surface(0, 0), surface(4, 1, b=2)))
    fields = dict(vars(missing_b))
    for _ in range(2):
        with pytest.raises(CarrierMismatchError, match="^cannot combine point class with surface class$"):
            abbv_integrate(data, swapped)
        with pytest.raises(ValueError, match="^need 2 restrictions, got 1$"):
            abbv_integrate(data, swapped[:1])
        with pytest.raises(InvalidDataError, match="is missing b$"):
            abbv_integrate(missing_b, unit_restrictions(missing_b))
        # the length is checked first, then the normal data, then the carriers
        with pytest.raises(ValueError, match="^need 2 restrictions, got 1$") as length:
            abbv_integrate(missing_b, swapped[:1])
        assert type(length.value) is ValueError
        with pytest.raises(InvalidDataError, match="is missing b$"):
            abbv_integrate(missing_b, swapped)
        assert vars(missing_b) == fields  # nothing memoized


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
            for restriction in cls.restrictions:
                assert term_degrees(restriction) <= {cls.degree}
        for component in data.components:
            assert term_degrees(c1_restriction(component).terms) <= {2}
            dim = 0 if component.is_point else 2
            inverse = invert_euler(equivariant_euler(component))
            assert term_degrees(inverse.terms) == {-(6 - dim)}
