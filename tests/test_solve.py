"""Unit tests for the exact linear and polynomial solving helpers."""

import math
import random
import signal
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from semifree import _solve, classifier, cli, localization
from semifree._solve import (
    AffineConstraint,
    SolverStallError,
    _rational_roots,
    feasible,
    integer_kernel_basis,
    rref,
    solve_linear,
    solve_system,
    span_coordinates,
    sqrt_fraction,
    unimodular_clearing,
)
from semifree.fixed_points import InvalidDataError

import oracles
from corpus import builtin_data, family_presets, perfbench_module
from oracles import Poly

F = Fraction


def test_solve_linear_unique():
    rows = [
        ({"x": F(1), "y": F(1)}, F(3)),
        ({"x": F(1), "y": F(-1)}, F(1)),
    ]
    values, free = solve_linear(rows, ["x", "y"])
    assert values == {"x": F(2), "y": F(1)}
    assert free == []


def test_solve_linear_underdetermined_lists_free():
    rows = [({"x": F(1), "y": F(2)}, F(4))]
    values, free = solve_linear(rows, ["x", "y"])
    assert free == ["y"]
    assert values["x"] + 2 * values["y"] == 4


def test_solve_linear_inconsistent():
    rows = [
        ({"x": F(1)}, F(1)),
        ({"x": F(1)}, F(2)),
    ]
    assert solve_linear(rows, ["x"]) is None


def _terms(equations):
    """The equations as the package takes them: each ``Poly``'s terms."""
    return [e.terms for e in equations]


def test_solve_system_linear_closure():
    x = Poly.var("x")
    y = Poly.var("y")
    eqs = [x + y - Poly.const(2), x - y]
    solutions = solve_system(_terms(eqs))
    assert len(solutions) == 1
    assert solutions[0].as_dict() == {"x": F(1), "y": F(1)}
    assert not solutions[0].free


def test_solve_system_quadratic_case_split():
    x = Poly.var("x")
    eqs = [x * x - Poly.const(4)]
    roots = sorted(s.as_dict()["x"] for s in solve_system(_terms(eqs)))
    assert roots == [F(-2), F(2)]


def test_solve_system_forced_value_is_not_free():
    # A variable pinned by a linear equation must not be reported free
    # even when pivot elimination recurses into a sub-universe that
    # still mentions it.
    x = Poly.var("x")
    y = Poly.var("y")
    z = Poly.var("z")
    eqs = [
        x + Poly.const(1),
        y * z + y * x,
        y - Poly.const(2),
    ]
    solutions = solve_system(_terms(eqs))
    assert len(solutions) == 1
    solution = solutions[0]
    assert solution.as_dict() == {"x": F(-1), "y": F(2), "z": F(1)}
    assert not solution.free


def test_a_pivot_affine_in_a_free_variable_stays_free():
    # x = y + 1 is eliminated and z splits on z^2 = 4; y stays free, so
    # the back-substituted x is y + 1, two terms with a constant, and x
    # is free too rather than the constant 1.
    x, y, z = Poly.var("x"), Poly.var("y"), Poly.var("z")
    solutions = solve_system(_terms([x - y - Poly.const(1), z * z - Poly.const(4)]))
    assert [sol.assignment for sol in solutions] == [(("z", -2),), (("z", 2),)]
    assert [sol.free for sol in solutions] == [{"x", "y"}, {"x", "y"}]


def test_back_substituted_values_are_canonical():
    # x = y/2 is eliminated, y splits on y^2 = 4, and x = y/2 comes back
    # as the int 1 (and -1), not Fraction(1, 1).
    x, y = Poly.var("x"), Poly.var("y")
    solutions = solve_system(_terms([x - y * F(1, 2), y * y - Poly.const(4)]))
    assert [sol.assignment for sol in solutions] == [(("x", -1), ("y", -2)), (("x", 1), ("y", 2))]
    assert {type(value) for sol in solutions for _, value in sol.assignment} == {int}


def test_solve_system_no_solution():
    x = Poly.var("x")
    assert solve_system(_terms([x - Poly.const(1), x - Poly.const(2)])) == []


def test_feasible_strict_box():
    rows = [
        AffineConstraint.make({"t": F(1)}, F(0), strict=True),
        AffineConstraint.make({"t": F(-1)}, F(1), strict=True),
    ]
    assert feasible(rows)
    rows.append(AffineConstraint.make({"t": F(1)}, F(-2), strict=False))
    assert not feasible(rows)


def test_constant_value_refuses_a_variable():
    assert Poly.const(F(3, 2)).constant_value() == F(3, 2)
    assert Poly(()).constant_value() == 0
    with pytest.raises(ValueError, match="not a constant"):
        Poly.var("x").constant_value()


def test_sqrt_fraction():
    assert sqrt_fraction(F(49, 4)) == F(7, 2)
    assert sqrt_fraction(F(2)) is None
    assert sqrt_fraction(F(0)) == 0


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
def test_integer_kernel_basis_annihilates(a, b, c):
    if (a, b, c) == (0, 0, 0):
        return
    basis = integer_kernel_basis((a, b, c))
    assert len(basis) == 2
    for vector in basis:
        assert sum(x * y for x, y in zip(vector, (a, b, c))) == 0


def test_integer_kernel_basis_refuses_a_zero_functional_as_an_invariant():
    # A program fault, not a bad argument: cli.run must not map it to exit 2.
    with pytest.raises(RuntimeError, match="invariant broken: zero functional"):
        integer_kernel_basis((0, 0, 0))


@pytest.mark.parametrize("coeffs", [[F(1), F(2)], [F(1), F(0), F(0), F(1)]])
def test_rational_roots_refuses_a_non_quadratic_as_an_invariant(coeffs):
    with pytest.raises(RuntimeError, match="invariant broken: the case split"):
        _rational_roots(coeffs)


def test_linear_closure_refuses_to_force_a_variable_twice(monkeypatch):
    # A _substitute that substitutes nothing leaves x - 1 = 0 in place, so
    # the closure would force x = 1 on every pass; it must raise instead.
    # The alarm turns a hang into a failure.
    monkeypatch.setattr(_solve, "_substitute", lambda terms, values: terms)

    def hang(signum, frame):
        raise TimeoutError("the linear closure loops")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        with pytest.raises(RuntimeError, match=r"invariant broken: the linear closure forced \['x'\]"):
            solve_system(_terms([Poly.var("x") - Poly.const(1)]))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@given(
    st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)),
)
# A vector on the negative first axis is the one that the last sign flip fixes.
@example((-3, 0, 0))
def test_unimodular_clearing_sends_vector_to_axis(vector):
    if vector == (0, 0, 0):
        return
    matrix = unimodular_clearing(vector)
    image = [
        sum(matrix[i][j] * vector[j] for j in range(3)) for i in range(3)
    ]
    assert image[1] == 0 and image[2] == 0
    assert image[0] != 0
    assert image[0] == math.gcd(*vector)
    (a, b, c), (d, e, f), (g, h, i) = matrix
    assert a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) in (1, -1)


@pytest.mark.parametrize("value", [0.5, True])
def test_substitute_refuses_an_inexact_value(value):
    with pytest.raises(TypeError, match="exact rational"):
        Poly.var("x").substitute({"x": value})


def test_poly_arithmetic_exact():
    x = Poly.var("x")
    p = (x + Poly.const(F(1, 2))) * (x - Poly.const(F(1, 2)))
    assert p.substitute({"x": F(1, 2)}).constant_value() == 0
    assert p.substitute({"x": F(3, 2)}).constant_value() == F(2)


# ---------------------------------------------------------------------------
# differential checks against sympy (test-only dependency)


def _random_matrix(rng: random.Random, rows: int, cols: int) -> list[list[Fraction]]:
    # Many zeros and a small value range make rank deficiency common.
    return [
        [
            F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.6 else F(0)
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]


def _to_sympy(sympy, rows: list[list[Fraction]]):
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
    )


def _from_sympy(value) -> Fraction:
    return F(int(value.p), int(value.q))


def test_rref_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20021)
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        mat = _random_matrix(rng, rows, cols)
        red, pivots = rref(mat)
        expected, expected_pivots = _to_sympy(sympy, mat).rref()
        assert pivots == list(expected_pivots)
        assert red == [
            [_from_sympy(expected[i, j]) for j in range(cols)] for i in range(rows)
        ]


def test_solve_linear_verdict_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20022)
    names = ["a", "b", "c", "d"]
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 4)
        mat = _random_matrix(rng, rows, cols + 1)
        system = [
            ({names[j]: row[j] for j in range(cols) if row[j]}, row[cols])
            for row in mat
        ]
        solved = solve_linear(system, names[:cols])
        coeffs = _to_sympy(sympy, [row[:cols] for row in mat])
        consistent = coeffs.rank() == _to_sympy(sympy, mat).rank()
        assert (solved is not None) == consistent
        if solved is not None:
            values, free = solved
            assert len(free) == cols - coeffs.rank()
            for coeff_map, rhs in system:
                assert sum(c * values[v] for v, c in coeff_map.items()) == rhs


def test_span_coordinates_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20023)
    for _ in range(300):
        k, n = rng.randint(1, 4), rng.randint(1, 4)
        basis = _random_matrix(rng, k, n)
        if rng.random() < 0.5:
            weights = [F(rng.randint(-3, 3)) for _ in range(k)]
            target = [sum(w * b[j] for w, b in zip(weights, basis)) for j in range(n)]
        else:
            target = _random_matrix(rng, 1, n)[0]
        coords = span_coordinates(basis, [target])[0]
        columns = _to_sympy(sympy, basis).T
        try:
            particular, params = columns.gauss_jordan_solve(
                _to_sympy(sympy, [target]).T
            )
        except ValueError:
            assert coords is None
            continue
        particular = particular.subs({p: 0 for p in params})
        assert coords == [_from_sympy(particular[i, 0]) for i in range(k)]


_POLY_NAMES = ("x", "y", "z")


def _random_poly(rng: random.Random) -> Poly:
    # 1-3 variables, small rational coefficients; zero and constant
    # polynomials come up on purpose.
    shape = rng.random()
    if shape < 0.1:
        return Poly.const(0)
    if shape < 0.2:
        return Poly.const(F(rng.randint(-3, 3), rng.randint(1, 3)))
    names = rng.sample(_POLY_NAMES, rng.randint(1, 3))
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = tuple(sorted((v, e) for v in names if (e := rng.randint(0, 2))))
        terms[mono] = F(rng.randint(-3, 3), rng.randint(1, 3))
    return Poly.from_dict(terms)


def _random_scalar(rng: random.Random):
    return rng.choice([0, 1, -1, 2, F(1), F(0), F(-2, 3), F(rng.randint(-4, 4), 5)])


def _poly_to_sympy(sympy, poly: Poly):
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(sympy.Symbol(v) ** e for v, e in m))
            for m, c in poly.terms
        )
    )


def _assert_canonical(poly: Poly) -> None:
    monomials = [m for m, _ in poly.terms]
    assert list(poly.terms) == sorted(poly.terms)
    assert len(set(monomials)) == len(monomials)
    for m, c in poly.terms:
        assert c != 0 and type(c) is (int if c.denominator == 1 else Fraction)
        assert list(m) == sorted(m) and all(e > 0 for _, e in m)


def _assert_matches(sympy, poly: Poly, expected) -> None:
    _assert_canonical(poly)
    assert sympy.expand(_poly_to_sympy(sympy, poly) - expected) == 0
    assert poly == Poly.from_dict(dict(poly.terms))
    assert hash(poly) == hash(Poly.from_dict(dict(poly.terms)))


def test_poly_arithmetic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20024)
    for _ in range(200):
        p, q = _random_poly(rng), _random_poly(rng)
        k = _random_scalar(rng)
        sp, sq = _poly_to_sympy(sympy, p), _poly_to_sympy(sympy, q)
        sk = sympy.Rational(F(k).numerator, F(k).denominator)
        cases = [
            (p + q, sp + sq),
            (p - q, sp - sq),
            (p * q, sp * sq),
            (-p, -sp),
            (p + k, sp + sk),
            (k + p, sk + sp),
            (p - k, sp - sk),
            (k - p, sk - sp),
            (p * k, sp * sk),
            (k * p, sk * sp),
            (p * Poly.const(k), sp * sk),
            (Poly.const(k) * p, sk * sp),
        ]
        cases += [(p**n, sp**n) for n in range(4)]
        for result, expected in cases:
            _assert_matches(sympy, result, expected)


def test_poly_substitute_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20025)
    for _ in range(200):
        p = _random_poly(rng)
        names = rng.sample(_POLY_NAMES, rng.randint(1, 3))
        values = {}
        for name in names:
            # Rationals (int or Fraction) and polynomials, which may
            # mention the variables being substituted.
            values[name] = (
                _random_scalar(rng) if rng.random() < 0.5 else _random_poly(rng)
            )
        expected = _poly_to_sympy(sympy, p).subs(
            {
                sympy.Symbol(name): (
                    _poly_to_sympy(sympy, value)
                    if isinstance(value, Poly)
                    else sympy.Rational(F(value).numerator, F(value).denominator)
                )
                for name, value in values.items()
            },
            simultaneous=True,
        )
        _assert_matches(sympy, p.substitute(values), expected)
        full = {name: F(rng.randint(-3, 3), rng.randint(1, 2)) for name in _POLY_NAMES}
        value = p.substitute(full)
        assert value.is_constant()
        _assert_matches(
            sympy,
            value,
            _poly_to_sympy(sympy, p).subs(
                {
                    sympy.Symbol(n): sympy.Rational(c.numerator, c.denominator)
                    for n, c in full.items()
                }
            ),
        )
        assert p.substitute({"w": _random_poly(rng), "v": 3}) == p
        assert p.substitute({}) == p


def _enumeration_chain_systems(monkeypatch) -> list[tuple[Poly, ...]]:
    """The distinct systems the chain solves of enumerate at (1, -2..2) pose.

    That is every system the enumeration solves, plus the fresh chain
    solve of each candidate that passes its localization stage.
    """
    systems: dict[tuple[Poly, ...], None] = {}
    rechecked = []
    solve, hold = classifier.solve_system, classifier._localization_relations_hold

    def record_solve(equations):
        equations = list(equations)
        systems.setdefault(tuple(map(Poly, equations)), None)
        return solve(equations)

    def record_hold(data):
        verdict = hold(data)
        if verdict:
            rechecked.append(data)
        return verdict

    monkeypatch.setattr(classifier, "solve_system", record_solve)
    monkeypatch.setattr(classifier, "_localization_relations_hold", record_hold)
    classifier.enumerate_types(1, (-2, 2))
    for data in rechecked:
        classifier.euler_chain_check(data)
    return list(systems)


def _assert_solutions_match_sympy(sympy, systems) -> int:
    """Compare each bounded system's solutions with sympy's rational ones;
    returns how many systems were compared."""
    compared = 0
    for equations in systems:
        ours = solve_system(_terms(equations))
        if any(sol.free for sol in ours):
            continue
        got = {tuple(sorted(sol.assignment)) for sol in ours}
        names = sorted(set().union(*(e.variables() for e in equations)))
        if not names:
            # sympy gives no solution for 0 = 0; ours is the empty assignment.
            consistent = all(e.is_zero() for e in equations)
            assert got == ({()} if consistent else set())
            continue
        symbols = [sympy.Symbol(name) for name in names]
        expected = set()
        for sol in sympy.solve(
            [_poly_to_sympy(sympy, e) for e in equations], symbols, dict=True
        ):
            assert set(sol) == set(symbols)
            if all(value.is_rational for value in sol.values()):
                expected.add(
                    tuple((name, _from_sympy(sol[s])) for name, s in zip(names, symbols))
                )
        assert got == expected
        compared += 1
    return compared


def test_solve_system_matches_sympy_on_enumeration_chains(monkeypatch):
    sympy = pytest.importorskip("sympy")
    assert _assert_solutions_match_sympy(sympy, _enumeration_chain_systems(monkeypatch))


# ---------------------------------------------------------------------------
# the systems that the benchmark's workloads and the restriction tables pose


def _recorded_systems(run) -> dict[tuple[Poly, ...], str]:
    """The distinct systems that ``run()`` hands to ``classifier.solve_system``
    or ``localization.solve_system``, in first-seen order, each equation
    read as a ``Poly``, each system with the name of its first caller's
    module."""
    systems: dict[tuple[Poly, ...], str] = {}
    solves = {module: module.solve_system for module in (classifier, localization)}

    def recorder(module):
        def record(equations):
            equations = list(equations)
            systems.setdefault(tuple(map(Poly, equations)), module.__name__)
            return solves[module](equations)

        return record

    try:
        for module in solves:
            module.solve_system = recorder(module)
        run()
    finally:
        for module, solve in solves.items():
            module.solve_system = solve
    return systems


@lru_cache(maxsize=None)
def _workload_systems() -> tuple[tuple[Poly, ...], ...]:
    """Every system that the three benchmark workloads (the fuzz one on
    both pools) and ``enumerate_types(5, (-10, 10))`` hand to the solver."""
    workloads = perfbench_module("workloads")

    def run():
        ops = [*workloads.commands_families_ops(), *workloads.fuzz_ops(1), *workloads.fuzz_ops(2)]
        ops.append(workloads.Op("enumerate default", "enumerate", b""))
        configs: dict = {}
        for op in ops:
            config = configs.setdefault(
                op.command, cli.RunConfig(command=op.command, output_format="structured")
            )
            try:
                cli.run(config, op.raw)
            except SolverStallError:
                pass
        classifier.enumerate_types(5, (-10, 10))

    return tuple(_recorded_systems(run))


def _typed(solve, equations):
    """The solutions with each value's type, or the stall message."""
    try:
        return [
            (tuple((name, type(value), value) for name, value in sol.assignment), sol.free)
            for sol in solve(list(equations))
        ]
    except SolverStallError as exc:
        return ("stall", str(exc))


def test_solve_system_matches_the_former_solver_on_every_workload_system():
    # The same solutions in the same order, the same value types and free
    # sets, and the same stalls, as the solver that ran on ``Poly``.
    systems = _workload_systems()
    assert len(systems) > 2000
    stalls = 0
    for equations in systems:
        got = _typed(solve_system, _terms(equations))
        assert got == _typed(oracles.solve_system, equations), equations
        stalls += isinstance(got, tuple)
    # The SolverStallError data of the fuzz pools still stall.
    assert stalls > 0


def test_every_returned_solution_zeroes_its_system():
    # Put each solution back into its system (by the former substitution,
    # which shares no code with the solver's): every equation is exactly 0.
    checked = 0
    for equations in _workload_systems():
        try:
            solutions = solve_system(_terms(equations))
        except SolverStallError:
            continue
        for sol in solutions:
            # No system of the corpus leaves a variable free.
            assert not sol.free
            values = sol.as_dict()
            for e in equations:
                assert oracles.substitute(e, values).is_zero(), (equations, sol)
            checked += 1
    assert checked > 200


def test_solve_system_matches_sympy_on_restriction_tables():
    sympy = pytest.importorskip("sympy")

    def run():
        for _, data in family_presets() + builtin_data():
            try:
                localization.solve_restriction_table(data)
            except InvalidDataError:
                pass  # the two remark-0 builtins have no table

    # The tables read the solved chain too; only their own systems count here.
    systems = [s for s, module in _recorded_systems(run).items() if module == "semifree.localization"]
    assert _assert_solutions_match_sympy(sympy, systems) > 50
