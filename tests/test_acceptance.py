"""Acceptance gate: one test per headline result, exact equality throughout.

Each test prints a single PASS or FAIL line so the suite can double as
a checklist when run under ``pytest -v``.
"""

import hashlib
import json
import random
import sys
from fractions import Fraction

from semifree.algebra import (
    EquivariantClass,
    ReducedClass,
    nontrivial_bundle,
    pair,
    projective_plane,
    trivial_bundle,
)
from semifree.classifier import (
    b_plus_minus,
    enumerate_types,
    euler_transport,
    family_instance,
)
from semifree.delzant import (
    builtin_examples,
    delzant_check,
    extract_fixed_data,
    semifree_check,
)
from semifree.fixed_points import (
    FixedPointData,
    betti_profile,
    classify_type,
    point,
    surface,
    validate,
)
from semifree.localization import (
    abbv_integrate,
    c1_restrictions,
    solve_restriction_table,
    w2_vanishes,
)
from oracles import equivariant_euler, invert_euler, multiply, unit_restrictions
from test_classifier import assert_chart_round_trips
from test_localization import verify_redundant_equations


def reported(number, label):
    """Print the checklist line after the wrapped criterion runs."""

    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException:
                print(f"criterion {number} ({label}): FAIL", file=sys.__stdout__)
                raise
            print(f"criterion {number} ({label}): PASS", file=sys.__stdout__)

        run.__name__ = fn.__name__
        return run

    return wrap


def relations_hold(data):
    ones = unit_restrictions(data)
    c1 = c1_restrictions(data)
    squares = tuple(multiply(r, r) for r in c1)
    return (
        abbv_integrate(data, ones) == {}
        and abbv_integrate(data, c1) == {}
        and abbv_integrate(data, squares) == {}
    )


def random_family(rng):
    tag = rng.choice(["1", "2", "3", "4", "5", "6a", "6b"])
    if tag == "3":
        return family_instance(
            tag,
            n=rng.choice([-5, -3, -1, 1, 3, 5]),
            same_level=rng.random() < 0.5,
        )
    if tag == "5":
        return family_instance(tag, same_level=rng.random() < 0.5)
    if tag == "6a":
        return family_instance(
            tag,
            n=rng.randint(-5, 5),
            g=rng.randint(0, 3),
            g1=rng.randint(0, 3),
        )
    if tag == "6b":
        return family_instance(
            tag, k=rng.randint(0, 3), k_prime=rng.randint(0, 3)
        )
    return family_instance(tag)


@reported(1, "forced counts for a sphere minimum with isolated middles")
def test_criterion_1_sphere_min_point_max_counts():
    def shape(n2, n4, b):
        components = [surface(genus=0, index=0, level=0, b=b)]
        components += [point(index=2, level=1) for _ in range(n2)]
        components += [point(index=4, level=2) for _ in range(n4)]
        components.append(point(index=6, level=3))
        return FixedPointData(components=tuple(components))

    hits = [
        (n2, n4, b)
        for n2 in range(7)
        for n4 in range(7)
        for b in range(-6, 7)
        if relations_hold(shape(n2, n4, b))
    ]
    assert hits == [(2, 3, 0)]


@reported(2, "normal-bundle splittings at the index-2 surfaces")
def test_criterion_2_splitting_grids():
    def middle(data):
        return next(c for c in data.components if c.index == 2 and c.is_surface)

    data = family_instance("1")
    assert b_plus_minus(data, middle(data)) == (2, 2)

    data = family_instance("2")
    lower, upper = sorted(
        (c for c in data.components if c.index == 2), key=lambda c: c.level
    )
    assert b_plus_minus(data, lower) == (0, 1)
    assert b_plus_minus(data, upper) == (1, 0)

    for n in range(-6, 7):
        if n % 2 == 0:
            continue
        data = family_instance("3", n=n)
        assert b_plus_minus(data, middle(data)) == (1, 1 - n)

    for n in range(-6, 7):
        for g in range(4):
            for g1 in range(4):
                data = family_instance("6a", n=n, g=g, g1=g1)
                c = 1 + g1 - 2 * g
                assert b_plus_minus(data, middle(data)) == (n + 3 * c, -n + c)

    for k_prime in range(4):
        data = family_instance("6b", k=0, k_prime=k_prime)
        assert b_plus_minus(data, middle(data)) == (1 - 2 * k_prime, 1)
    for k in range(4):
        data = family_instance("6b", k=k, k_prime=0)
        assert b_plus_minus(data, middle(data)) == (1, 1 - 2 * k)


@reported(3, "every solved restriction coefficient, all six types")
def test_criterion_3_solved_tables():
    s = lambda terms: EquivariantClass.make("surface", terms)
    p = lambda terms: EquivariantClass.make("point", terms)

    table = solve_restriction_table(family_instance("1"))
    assert table.restriction("alpha_2", "F3") == p({1: -2})
    assert table.restriction("alpha'_2", "F3") == p({2: 1})
    assert table.restriction("alpha_2", "F2") == s({1: -1, 0: (0, 2)})
    assert table.restriction("alpha'_2", "F2") == s({1: (0, -1)})
    assert table.restriction("alpha_3", "F3") == p({3: -1})

    table = solve_restriction_table(family_instance("2"))
    assert table.restriction("alpha_2", "F4") == p({1: -1})
    assert table.restriction("alpha_2", "F3") == s({0: (0, 1)})
    assert table.restriction("alpha_2", "F2") == s({1: -1, 0: (0, 1)})
    assert table.restriction("alpha_3", "F3") == s({1: -1})
    assert table.restriction("alpha'_2", "F4") == p({2: 1})
    assert table.restriction("alpha'_3", "F4") == p({2: 1})

    for n in (-5, -3, -1, 1, 3, 5):
        table = solve_restriction_table(family_instance("3", n=n))
        b_minus = 1 - n
        assert table.restriction("alpha'_1", "F4") == p({1: -1})
        assert table.restriction("alpha'_1", "F3") == p({1: -1})
        assert table.restriction("alpha'_1", "F2") == s({0: (0, 1)})
        assert table.restriction("alpha_2", "F4") == p(
            {1: Fraction(-(2 + b_minus), 2)}
        )
        assert table.restriction("alpha_2", "F3") == p({1: Fraction(-b_minus, 2)})

    table = solve_restriction_table(family_instance("4"))
    assert table.restriction("alpha'_2", "F1") == s({1: -1, 0: (0, 1)})
    assert table.restriction("alpha_1", "F1") == s({2: 1, 1: (0, -2)})
    assert table.restriction("alpha'_1", "F1") == s({2: (0, 1)})

    table = solve_restriction_table(family_instance("5"))
    assert table.restriction("alpha'_1", "F3") == p({1: -1})
    assert table.restriction("alpha'_1", "F4") == s({1: -1, 0: (0, 1)})
    assert table.restriction("alpha_2", "F3") == p({})
    assert table.restriction("alpha_2", "F4") == s({1: -1})
    assert table.restriction("alpha_3", "F4") == s({1: (0, -1)})
    assert table.restriction("alpha_4", "F4") == s({2: 1, 1: (0, -1)})
    assert table.restriction("alpha'_4", "F4") == s({2: (0, 1)})

    for n in (-2, 0, 1, 3):
        for g in (0, 1, 2):
            for g1 in (0, 1, 3):
                table = solve_restriction_table(
                    family_instance("6a", n=n, g=g, g1=g1)
                )
                c = 1 + g1 - 2 * g
                assert table.restriction("alpha_2", "F3") == s(
                    {1: -2, 0: (0, -n - c)}
                )
                assert table.restriction("alpha'_1", "F3") == s({0: (0, 1)})
                assert table.restriction("alpha'_1", "F2") == s({0: (0, 2)})

    for k_prime in (0, 1, 2, 3):
        table = solve_restriction_table(
            family_instance("6b", k=0, k_prime=k_prime)
        )
        assert table.restriction("alpha_2", "F3") == s({1: -1, 0: (0, 1)})
        assert table.restriction("alpha'_1", "F2") == s({0: (0, 1 - k_prime)})
        assert table.restriction("alpha'_1", "F3") == s(
            {1: -1, 0: (0, k_prime)}
        )
    for k in (1, 2, 3):
        table = solve_restriction_table(family_instance("6b", k=k, k_prime=0))
        assert table.restriction("alpha_2", "F3") == s({1: k - 1, 0: (0, 1)})
        assert table.restriction("alpha'_1", "F2") == s({0: (0, 1)})
        assert table.restriction("alpha'_1", "F3") == s({1: -1})


@reported(4, "bounded enumeration finds exactly the six families")
def test_criterion_4_enumeration():
    result = enumerate_types(max_genus=3, b_range=(-6, 6))
    counts = {key: len(members) for key, members in result.families.items()}
    assert counts == {"1": 1, "2": 1, "3": 13, "4": 1, "5": 3, "6": 153}
    assert dict(result.rejected) == {"chain": 22470, "sweep": 10, "validate": 429}
    text = json.dumps(result.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "986ede09dbcc751e5d0745eb30e58ebd24163c3502cd7c46876e6bc012fe5aa4"
    )

    for members in result.families.values():
        for data in members:
            assert classify_type(data) != "unclassified"
            if data.minimum.is_point and data.maximum.is_point:
                assert all(c.is_surface for c in data.middles())

    for data in result.families["5"]:
        assert data.minimum.genus == 0 and data.maximum.genus == 0

    for data in result.families["6"]:
        if data.twist:
            (mid,) = data.middles()
            assert mid.genus == 0

    (two,) = result.families["2"]
    first, second = [c for c in two.components if c.index == 2]
    assert first.level != second.level


@reported(5, "second Stiefel-Whitney truth table")
def test_criterion_5_w2():
    assert w2_vanishes(family_instance("1")) is False
    assert w2_vanishes(family_instance("2")) is False
    for n in (-5, -3, -1, 1, 3, 5):
        assert w2_vanishes(family_instance("3", n=n)) is False
    assert w2_vanishes(family_instance("5")) is False
    assert w2_vanishes(family_instance("4")) is True
    for k, k_prime in [(0, 0), (1, 0), (0, 2), (2, 1), (3, 3)]:
        assert w2_vanishes(family_instance("6b", k=k, k_prime=k_prime)) is True
    for n in range(-4, 5):
        for g in (0, 1, 2):
            for g1 in (0, 2):
                data = family_instance("6a", n=n, g=g, g1=g1)
                assert w2_vanishes(data) is (data.minimum.b % 2 == 0)


@reported(6, "moment polytope gallery and extraction")
def test_criterion_6_polytopes():
    gallery = builtin_examples()
    assert len(gallery) == 6
    for name, polytope in gallery.items():
        assert delzant_check(polytope).ok, name
        assert semifree_check(polytope).ok, name

    data = extract_fixed_data(gallery["type4"])
    assert classify_type(data) == "4" and data.twist

    data = extract_fixed_data(gallery["type6b_bmin2"])
    assert classify_type(data) == "6b" and data.minimum.b == 2

    for name, b_min in [("type3_bmin1", 1), ("type3_bmin3", 3)]:
        data = extract_fixed_data(gallery[name])
        assert classify_type(data) == "3" and data.minimum.b == b_min

    untwisted = extract_fixed_data(gallery["remark0_untwisted"])
    twisted = extract_fixed_data(gallery["remark0_twisted"])
    assert untwisted.components == twisted.components
    assert len(untwisted.components) == 4
    assert all(c.is_surface and c.genus == 0 for c in untwisted.components)
    for c in untwisted.components:
        euler_numbers = (c.b,) if c.index != 2 else (c.b_plus, c.b_minus)
        assert all(value == 0 for value in euler_numbers)
    assert untwisted.twist is False
    assert twisted.twist is True


@reported(7, "property suites")
def test_criterion_7_properties():
    rng = random.Random(20260814)

    instances = [random_family(rng) for _ in range(1000)]
    for data in instances:
        assert validate(data).ok
        assert relations_hold(data)

    for _ in range(200):
        index = rng.choice([0, 2, 4, 6])
        if rng.random() < 0.5:
            component = point(index=index, level=0)
        elif index == 2:
            component = surface(
                genus=rng.randint(0, 3),
                index=2,
                level=0,
                b_plus=rng.randint(-6, 6),
                b_minus=rng.randint(-6, 6),
            )
        else:
            component = surface(
                genus=rng.randint(0, 3),
                index=rng.choice([0, 4]),
                level=0,
                b=rng.randint(-6, 6),
            )
        euler = equivariant_euler(component)
        unit = EquivariantClass.unit(component.kind)
        assert multiply(invert_euler(euler), euler) == unit
        assert multiply(euler, invert_euler(euler)) == unit

    def gram(space, rank):
        basis = [
            ReducedClass(
                space,
                tuple(Fraction(int(i == j)) for j in range(rank)),
            )
            for i in range(rank)
        ]
        return [[pair(a, b) for b in basis] for a in basis]

    assert gram(projective_plane(), 1) == [[1]]
    assert gram(trivial_bundle(0), 2) == [[0, 1], [1, 0]]
    assert gram(nontrivial_bundle(0), 2) == [[0, 1], [1, -1]]

    for n in range(-4, 5):
        for g1 in (0, 1, 2):
            data = family_instance("6a", n=n, g=0, g1=g1)
            e = euler_transport(data).start_euler
            assert pair(e, e) == -data.minimum.b
    for k in range(4):
        data = family_instance("6b", k=k, k_prime=0)
        e = euler_transport(data).start_euler
        assert pair(e, e) == -data.minimum.b

    minima = [point(index=0, level=0)] + [
        surface(genus=genus, index=0, level=0, b=b)
        for genus in range(3)
        for b in (0, 3, -1, 4)
    ]
    for minimum in minima:
        assert_chart_round_trips(minimum, 6)

    for data in instances[:200]:
        profile = betti_profile(data)
        assert profile == tuple(reversed(profile))

    seen = set()
    for data in instances:
        marker = data.dumps()
        if marker in seen:
            continue
        seen.add(marker)
        table = solve_restriction_table(data)
        assert verify_redundant_equations(table) == []
