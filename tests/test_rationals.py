"""The int-first scalar rule: ``qdiv``, ``canon`` and where values are built.

A scalar is an ``int`` when integral and a ``Fraction`` with denominator
above 1 otherwise; it is never a ``float`` or a ``bool``. Every true
division in the package goes through ``rationals.qdiv``, so no
``int / int`` can make a float.
"""

import ast
import dataclasses
import random
from fractions import Fraction
from pathlib import Path

import pytest

import semifree
from semifree import classifier
from semifree._solve import Poly, Solution
from semifree.algebra import EquivariantClass, ReducedClass, trivial_bundle
from semifree.classifier import family_instance
from semifree.delzant import (
    _gap_classes,
    _polygon_support,
    _slice_halfplanes,
    builtin_examples,
    edge_normal_degrees,
    extract_fixed_data,
    slice_polygon,
)
from semifree.localization import abbv_integrate, dh_path, solve_restriction_table
from semifree.rationals import canon, format_rational, parse_rational, qdiv

from corpus import family_presets

F = Fraction


def _assert_canonical(x) -> None:
    assert type(x) is (int if x.denominator == 1 else Fraction), repr(x)


# ---------------------------------------------------------------------------
# no true division outside qdiv


def _divisions() -> list[tuple[str, str, int]]:
    """``(file, enclosing function, line)`` of every ``/`` and ``/=``."""
    found = []
    for path in sorted(Path(semifree.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(function):
                    owner.setdefault(node, function.name)
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.Div
            ):
                found.append((path.name, owner.get(node, ""), node.lineno))
    return found


def test_every_division_goes_through_qdiv():
    outside = [d for d in _divisions() if d[:2] != ("rationals.py", "qdiv")]
    assert outside == []


# ---------------------------------------------------------------------------
# qdiv and canon against Fraction


def _random_operand(rng: random.Random):
    if rng.random() < 0.5:
        return rng.randint(-30, 30)
    return F(rng.randint(-30, 30), rng.randint(1, 12))


def test_qdiv_matches_fraction_division():
    rng = random.Random(20028)
    for _ in range(2000):
        a, b = _random_operand(rng), _random_operand(rng)
        if b == 0:
            with pytest.raises(ZeroDivisionError):
                qdiv(a, b)
            continue
        got = qdiv(a, b)
        assert got == F(a) / F(b)
        _assert_canonical(got)


@pytest.mark.parametrize(
    ("a", "b", "expected"),
    [
        (6, 3, 2),
        (6, -3, -2),
        (-7, -7, 1),
        (0, -5, 0),
        (7, 2, F(7, 2)),
        (7, -2, F(-7, 2)),
        (-1, -3, F(1, 3)),
        (F(3, 2), F(-1, 2), -3),
        (F(3, 2), -3, F(-1, 2)),
        (4, F(-2, 3), -6),
    ],
)
def test_qdiv_signs_and_types(a, b, expected):
    got = qdiv(a, b)
    assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize("zero", [0, F(0)])
@pytest.mark.parametrize("a", [0, 3, F(1, 2)])
def test_qdiv_by_zero_raises(a, zero):
    with pytest.raises(ZeroDivisionError):
        qdiv(a, zero)


def test_qdiv_rejects_floats():
    with pytest.raises(TypeError):
        qdiv(1.5, 2)
    with pytest.raises(TypeError):
        qdiv(3, 0.5)


def test_canon_keeps_values_and_picks_the_type():
    rng = random.Random(20029)
    for _ in range(1000):
        x = _random_operand(rng)
        got = canon(x)
        assert got == x and hash(got) == hash(x)
        _assert_canonical(got)
    half = F(1, 2)
    assert canon(half) is half
    assert canon(F(-4, 2)) == -2 and type(canon(F(-4, 2))) is int
    poly = Poly.var("x")
    assert canon(poly) is poly


def test_parse_rational_is_canonical():
    assert parse_rational("3") == 3 and type(parse_rational("3")) is int
    assert parse_rational(" -6/4 ") == F(-3, 2)
    assert type(parse_rational(F(4, 2))) is int
    with pytest.raises(ValueError):
        parse_rational(True)


# ---------------------------------------------------------------------------
# format_rational and Poly.__pow__ reject what they cannot handle exactly


@pytest.mark.parametrize("value", [0.1, 2.0, float("nan"), True, False])
def test_format_rational_rejects_floats_and_bools(value):
    with pytest.raises(TypeError):
        format_rational(value)


def test_format_rational_renders_int_and_fraction_alike():
    assert format_rational(3) == format_rational(F(3)) == "3"
    assert format_rational(-2) == format_rational(F(-4, 2)) == "-2"
    assert format_rational(F(-3, 6)) == "-1/2"


def test_poly_pow_rejects_negative_exponents():
    x = Poly.var("x")
    with pytest.raises(ValueError):
        x**-1
    with pytest.raises(ValueError):
        Poly.const(2) ** -2
    assert x**0 == Poly.const(1)
    assert (x + 1) ** 2 == x * x + 2 * x + 1


# ---------------------------------------------------------------------------
# a sweep: every coefficient built on the real corpus is canonical


def _scalars(value):
    """Every number inside ``value``, walking containers and dataclasses."""
    if isinstance(value, (str, bool, float)):
        yield value  # strings are skipped below; bools and floats must fail
    elif isinstance(value, (int, Fraction)):
        yield value
    elif isinstance(value, dict):
        for item in value.items():
            yield from _scalars(item)
    elif isinstance(value, (tuple, list, frozenset, set)):
        for item in value:
            yield from _scalars(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _scalars(getattr(value, field.name))
    elif value is not None:
        raise TypeError(f"unexpected value {value!r}")


def _assert_all_canonical(value) -> int:
    count = 0
    for x in _scalars(value):
        if isinstance(x, str):
            continue
        assert not isinstance(x, (bool, float)), repr(x)
        _assert_canonical(x)
        count += 1
    return count


def test_enumeration_chain_values_are_canonical(monkeypatch):
    branches, solutions, resolved = [], [], []
    make_branch, solve, resolve = (
        classifier._Branch,
        classifier.solve_system,
        classifier._resolve_branch,
    )

    def record_branch(*args):
        branches.append(make_branch(*args))
        return branches[-1]

    def record_solve(equations):
        found = solve(equations)
        solutions.extend(found)
        return found

    def record_resolve(branch, values):
        result = resolve(branch, values)
        if result is not None:
            resolved.append(result)
        return result

    monkeypatch.setattr(classifier, "_Branch", record_branch)
    monkeypatch.setattr(classifier, "solve_system", record_solve)
    monkeypatch.setattr(classifier, "_resolve_branch", record_resolve)
    classifier.enumerate_types(1, (-2, 2))
    assert branches and solutions and resolved
    for branch in branches:
        _assert_all_canonical(branch.equations)
        _assert_all_canonical([log.chart for log in branch.crossings])
        _assert_all_canonical(branch.top)
    assert all(isinstance(sol, Solution) for sol in solutions)
    assert _assert_all_canonical([sol.assignment for sol in solutions])
    assert _assert_all_canonical(resolved)


def test_restriction_tables_are_canonical():
    presets = family_presets()
    assert len(presets) == 71
    for _, data in presets:
        table = solve_restriction_table(data)
        classes = [r for cls in table.classes for r in cls.restrictions]
        assert all(isinstance(r, EquivariantClass) for r in classes)
        assert _assert_all_canonical([r.terms for r in classes])
        _assert_all_canonical([r.terms for r in table.c1_values])
        _assert_all_canonical(table.c1_decomposition)
        for cls in table.classes:
            _assert_all_canonical(abbv_integrate(data, cls.restrictions))


def test_reduced_classes_are_canonical():
    space = trivial_bundle(1)
    v = ReducedClass.make(space, F(4, 2), F(1, 2)) + ReducedClass.make(space, 1, F(1, 2))
    assert v.coeffs == (3, 1) and [type(c) for c in v.coeffs] == [int, int]
    _assert_canonical(classifier.adjunction_genus(v))


def test_polytope_values_are_canonical():
    polytopes = builtin_examples()
    assert len(polytopes) == 6
    for polytope in polytopes.values():
        assert _assert_all_canonical([offset for _, offset in polytope.facets])
        assert _assert_all_canonical([v.location for v in polytope.vertices])
        levels = sorted({v.location[2] for v in polytope.vertices})
        gaps = [qdiv(a + b, 2) for a, b in zip(levels, levels[1:])]
        assert gaps
        for z in gaps:
            assert _assert_all_canonical(slice_polygon(polytope, z))
            assert _assert_all_canonical(_polygon_support(_slice_halfplanes(polytope, z)))
            assert _assert_all_canonical(_gap_classes(polytope, z))
        horizontal = [e for e in polytope.edges if e.is_horizontal]
        assert _assert_all_canonical(
            [edge_normal_degrees(polytope, e) for e in horizontal]
        )
        data = extract_fixed_data(polytope)
        assert _assert_all_canonical([c.level for c in data.components])


def _parse_rational_by_fraction(text):
    """``parse_rational`` with every string through ``Fraction``."""
    if isinstance(text, bool):
        raise ValueError("expected a rational, got a boolean")
    if isinstance(text, (int, Fraction)):
        return canon(text)
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {text!r}")
    try:
        return canon(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}") from exc


def _parse_outcome(parse, text):
    try:
        value = parse(text)
    except ValueError as exc:
        return ("error", str(exc))
    return (value, type(value))


@pytest.mark.parametrize(
    "text",
    ["3", "-3", "+3", " 3 ", "6/4", "3.0", "²", "", "x", "-", "007", True, 1.5],
)
def test_parse_rational_integer_fast_path_agrees_with_fraction(text):
    assert _parse_outcome(parse_rational, text) == _parse_outcome(
        _parse_rational_by_fraction, text
    )


def test_dh_path_times_and_omegas_are_canonical():
    data = family_instance("6a", n=1, g=0, g1=0)
    for alpha0, gaps in [(1, [1]), (F(3, 2), [])]:
        path = dh_path(data, alpha0, gaps)
        assert path.times and path.omegas
        for t in path.times:
            _assert_canonical(t)
        for omega in path.omegas:
            for c in omega.coeffs:
                _assert_canonical(c)


def test_loading_parses_each_level_once(monkeypatch):
    from semifree import fixed_points

    calls = []

    def counting_parse(text):
        calls.append(text)
        return parse_rational(text)

    monkeypatch.setattr(fixed_points, "parse_rational", counting_parse)
    text = family_instance("6a", n=1, g=0, g1=0).dumps()
    loaded = fixed_points.FixedPointData.loads(
        text.replace('"level": "1"', '"level": "3/2"')
    )
    assert calls == ["0", "3/2", "2"]
    assert [c.level for c in loaded.components] == [0, F(3, 2), 2]
    half = F(3, 2)
    assert fixed_points.point(2, half).level is half
    assert type(fixed_points.point(2, F(4, 2)).level) is int
    with pytest.raises(ValueError):
        fixed_points.point(2, True)
