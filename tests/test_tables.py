"""Restriction tables: the solver's input, the read-out, and every error exit.

``_old_integration_equations`` below is the equation builder as it was
before each equation's sum was accumulated into one monomial dict: every
``+`` and every product built and sorted a fresh ``Poly``, per component
(``_old_integrate_product``) and across components
(``_old_localized_sum``). ``_old_solved_restriction`` and
``_old_c1_decomposition`` are the read-out as it was: each entry
substituted into its ``Poly``, and one decomposition row for every
(component, power of lambda, part), zero or not. They are kept as the
oracle: ``solve_system`` must receive the same equations, equal
``Poly``s in the same order with the same coefficient types, and every
solution must read out to the same table and the same decomposition.

The second half pins each error exit of ``solve_restriction_table`` and
the order in which they are checked, and, over the fuzz pools, which
message the data whose chain fails report: the byte-identity
constraints on reading the table off the chain (ROADMAP item L).
"""

import dataclasses
from fractions import Fraction

import pytest

from corpus import builtin_data, classified_fuzz_data, enumerated_members, family_presets, fuzz_data
from oracles import coefficient, equivariant_euler, invert_euler, mul_terms
from semifree import localization
from semifree._solve import Poly, Solution, solve_linear, solve_system
from semifree.algebra import POINT, EquivariantClass
from semifree.classifier import euler_transport, family_instance
from semifree.cli import RunConfig, run
from semifree.fixed_points import _memo, classify_type, validate
from semifree.localization import (
    MultipleSolutionsError,
    NoSolutionError,
    TableClass,
    _build_skeleton,
    _c1_decomposition,
    _integration_equations,
    _selection_rule_values,
    _solved_restriction,
    c1_restrictions,
    solve_restriction_table,
)
from semifree.rationals import canon
from test_localization import _three_surface_grid


def _old_integrate_product(carrier, a, b):
    acc = {}
    on_point = carrier == POINT
    for i, (c1, d1) in a:
        for j, (c2, d2) in b:
            if on_point:
                value = c1 * c2
            elif d2:
                value = c1 * d2 + d1 * c2 if d1 else c1 * d2
            elif d1:
                value = d1 * c2
            else:
                continue
            k = i + j
            acc[k] = acc[k] + value if k in acc else value
    return {k: canon(acc[k]) for k in sorted(acc) if acc[k]}


def _old_localized_sum(integrand):
    total = {}
    for carrier, a, b in integrand:
        for k, value in _old_integrate_product(carrier, a, b).items():
            total[k] = total.get(k, Poly.const(0)) + value
    return {k: canon(v) for k, v in sorted(total.items()) if v}


def _old_integration_equations(data, positions, factors):
    carriers = [data.components[p].kind for p in positions]
    euler_inverses = [invert_euler(equivariant_euler(c)) for c in data.components]
    c1s = _memo(data, "_c1_restrictions", c1_restrictions)
    inverses = [euler_inverses[p].terms for p in positions]
    c1_row = [c1s[p].terms for p in positions]
    integrands = []
    degree_two = []
    for f in factors:
        if f.degree < 6:
            integrands.append(list(zip(carriers, inverses, f.restrictions)))
            if f.degree == 2:
                left = [mul_terms(a, b) for _, a, b in integrands[-1]]
                degree_two.append((f.restrictions, left))
    degree_two.append((c1_row, [mul_terms(a, b) for a, b in zip(inverses, c1_row)]))
    for i, (_, left) in enumerate(degree_two):
        integrands += [list(zip(carriers, left, right)) for right, _ in degree_two[i:]]
    equations = []
    for integrand in integrands:
        equations += _old_localized_sum(integrand).values()
    return equations


def _old_solved_restriction(carrier, terms, values):
    return EquivariantClass.make(
        carrier,
        {
            k: tuple(
                p.substitute(values).constant_value() if isinstance(p, Poly) else p
                for p in pair
            )
            for k, pair in terms
        },
    )


def _old_c1_decomposition(classes, c1_values):
    unit = next(cls for cls in classes if cls.degree == 0)
    degree_two = [cls for cls in classes if cls.degree == 2]
    columns = [(f"lambda*{unit.name}", [r.shifted(1) for r in unit.restrictions])]
    for cls in degree_two:
        columns.append((cls.name, list(cls.restrictions)))
    rows = []
    exponents = {k for r in c1_values for k, _ in r.terms}
    for _, col in columns:
        for r in col:
            exponents |= {k for k, _ in r.terms}
    for ci, target in enumerate(c1_values):
        for k in sorted(exponents):
            for part in (0, 1):
                coeffs = {name: coefficient(col[ci], k)[part] for name, col in columns}
                rows.append((coeffs, coefficient(target, k)[part]))
    names = [name for name, _ in columns]
    solved = solve_linear(rows, names)
    if solved is None:
        raise NoSolutionError("c_1 does not lie in the span of the basis")
    values, free = solved
    if free:
        raise MultipleSolutionsError("c_1 decomposition is not unique over this basis")
    return tuple((name, values[name]) for name in names)


def _typed(value):
    """A value with the type of every number in it, so 1 and Fraction(1) differ."""
    if isinstance(value, (tuple, list)):
        return tuple(_typed(v) for v in value)
    if isinstance(value, Poly):
        return ("Poly", _typed(value.terms))
    if isinstance(value, EquivariantClass):
        return (value.carrier, _typed(value.terms))
    return (type(value).__name__, value)


def _outcome(function, *args):
    try:
        return _typed(function(*args))
    except (NoSolutionError, MultipleSolutionsError) as exc:
        return (type(exc).__name__, str(exc))


def _grid():
    for data in _three_surface_grid():
        if validate(data).ok and classify_type(data) in ("6a", "6b"):
            yield "grid", data


CORPORA = {
    "presets": family_presets,
    "builtins": builtin_data,
    "members": enumerated_members,
    "grid": _grid,
    "fuzz1": lambda: classified_fuzz_data(1),
    "fuzz2": lambda: classified_fuzz_data(2),
}
# (data, solutions read out); no classified fuzz datum has a table
SIZES = {
    "presets": (71, 81),
    "builtins": (6, 4),
    "members": (28, 35),
    "grid": (2625, 16),
    "fuzz1": (46, 0),
    "fuzz2": (59, 0),
}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_the_solver_gets_the_old_equations_and_every_solution_reads_out_as_before(corpus):
    seen = readouts = 0
    for name, data in CORPORA[corpus]():
        seen += 1
        tag = classify_type(data)
        if tag == "unclassified":
            continue
        positions, skeleton = _build_skeleton(data, tag)
        equations = _integration_equations(data, positions, skeleton)
        assert _typed(equations) == _typed(_old_integration_equations(data, positions, skeleton)), name
        carriers = [data.components[p].kind for p in positions]
        c1s = _memo(data, "_c1_restrictions", c1_restrictions)
        c1_values = tuple(c1s[p] for p in positions)
        for solution in solve_system(equations):
            if solution.free:
                continue
            values = solution.as_dict()
            classes = []
            for cls in skeleton:
                row = []
                for carrier, terms in zip(carriers, cls.restrictions):
                    entry = _solved_restriction(carrier, terms, values)
                    assert _typed(entry) == _typed(_old_solved_restriction(carrier, terms, values)), name
                    row.append(entry)
                classes.append(TableClass(cls.name, cls.degree, f"F{cls.home_index + 1}", tuple(row)))
            assert _outcome(_c1_decomposition, classes, c1_values) == _outcome(
                _old_c1_decomposition, classes, c1_values
            ), name
            readouts += 1
    assert (seen, readouts) == SIZES[corpus]


# ---------------------------------------------------------------------------
# every error exit of ``solve_restriction_table``, and their order


def _real_solution(data):
    positions, skeleton = _build_skeleton(data, classify_type(data))
    solutions = solve_system(_integration_equations(data, positions, skeleton))
    solution = next(s for s in solutions if not s.free and all(v.denominator == 1 for _, v in s.assignment))
    return solution.as_dict(), positions, skeleton


def _solutions(*assignments):
    return [Solution(tuple(sorted(a.items())), frozenset()) for a in assignments]


def _patch_solver(monkeypatch, solutions):
    monkeypatch.setattr(localization, "solve_system", lambda equations: solutions)


def test_two_integral_solutions_without_a_selection_rule(monkeypatch):
    data = family_instance("1")
    values, _, _ = _real_solution(data)
    other = {**values, min(values): values[min(values)] + 1}
    _patch_solver(monkeypatch, _solutions(values, other))
    with pytest.raises(MultipleSolutionsError, match="^2 integral solutions survive$"):
        solve_restriction_table(family_instance("1"))


def _rule_case(data):
    """The datum's real solution, its selection-rule values, and a
    variable the rule does not fix."""
    values, positions, skeleton = _real_solution(data)
    rule = _selection_rule_values(data, positions, skeleton)
    loose = min(set(values) - set(rule))
    return values, rule, loose


def test_the_selection_rule_rejects_every_integral_solution(monkeypatch):
    values, rule, loose = _rule_case(family_instance("6a"))
    off_rule = {**values, **{name: value + 1 for name, value in rule.items()}}
    _patch_solver(monkeypatch, _solutions(off_rule, {**off_rule, loose: off_rule[loose] + 1}))
    with pytest.raises(NoSolutionError, match="^selection rule rejected every integral solution$"):
        solve_restriction_table(family_instance("6a"))


def test_two_solutions_survive_the_selection_rule(monkeypatch):
    values, rule, loose = _rule_case(family_instance("6a"))
    on_rule = {**values, **rule}
    _patch_solver(monkeypatch, _solutions(on_rule, {**on_rule, loose: on_rule[loose] + 1}))
    with pytest.raises(MultipleSolutionsError, match="^2 solutions survive the selection rule$"):
        solve_restriction_table(family_instance("6a"))


def test_the_selection_rule_reads_only_between_integral_solutions(monkeypatch):
    # This datum has two integral tables, and the rule picks one. Alone
    # beside a non-integral solution, the other is taken as it is.
    data = family_instance("6a", n=0, g=0, g1=0)
    positions, skeleton = _build_skeleton(data, "6a")
    rule = _selection_rule_values(data, positions, skeleton)
    solutions = solve_system(_integration_equations(data, positions, skeleton))
    (off_rule,) = [
        s.as_dict()
        for s in solutions
        if all(v.denominator == 1 for _, v in s.assignment)
        and any(s.as_dict()[name] != value for name, value in rule.items())
    ]
    chosen = solve_restriction_table(data)
    assert chosen.selection_rule_applied
    fractional = {name: canon(value + Fraction(1, 2)) for name, value in off_rule.items()}
    _patch_solver(monkeypatch, _solutions(off_rule, fractional))
    table = solve_restriction_table(family_instance("6a", n=0, g=0, g1=0))
    assert not table.selection_rule_applied
    assert table.classes != chosen.classes


@pytest.mark.parametrize("tag, params", [("1", {}), ("3", {"n": 1}), ("4", {}), ("6a", {}), ("6b", {"k_prime": 0})])
def test_c1_outside_the_span_of_the_basis(monkeypatch, tag, params):
    # With every unknown restriction zero, no degree-2 class reaches the
    # components above its home, and c_1 there is out of reach.
    values, _, _ = _real_solution(family_instance(tag, **params))
    _patch_solver(monkeypatch, _solutions(dict.fromkeys(values, 0)))
    with pytest.raises(NoSolutionError, match="^c_1 does not lie in the span of the basis$"):
        solve_restriction_table(family_instance(tag, **params))


def test_a_repeated_basis_class_makes_the_c1_decomposition_not_unique():
    # Each basis class vanishes below its home and is its Thom class
    # there, so the columns are triangular and no solver output makes
    # them dependent; a repeated class does.
    table = solve_restriction_table(family_instance("6a"))
    degree_two = next(cls for cls in table.classes if cls.degree == 2)
    classes = table.classes + (dataclasses.replace(degree_two, name="copy"),)
    with pytest.raises(MultipleSolutionsError, match="^c_1 decomposition is not unique over this basis$"):
        _c1_decomposition(classes, table.c1_values)


def test_a_free_solution_is_reported_before_a_missing_integral_one(monkeypatch):
    values, _, _ = _real_solution(family_instance("1"))
    fractional = {name: canon(value + Fraction(1, 2)) for name, value in values.items()}
    free = Solution(tuple(sorted(values.items()))[1:], frozenset({min(values)}))
    _patch_solver(monkeypatch, _solutions(fractional) + [free])
    with pytest.raises(MultipleSolutionsError, match="^restriction equations are underdetermined$"):
        solve_restriction_table(family_instance("1"))
    _patch_solver(monkeypatch, _solutions(fractional))
    with pytest.raises(NoSolutionError, match="^no integral solution: the fixed point data is inconsistent$"):
        solve_restriction_table(family_instance("1"))


def _fuzz_datum(seed, position):
    name, data = fuzz_data(seed)[position]
    assert name == f"fuzz{seed}#{position}"
    return data


def test_the_chain_is_solved_before_any_table_error(monkeypatch):
    # fuzz pool 1 #40 is a 6a datum whose chain has no solution: its
    # table reports that, not any error of the table solve itself.
    data = _fuzz_datum(1, 40)
    assert classify_type(data) == "6a"
    code, report = run(RunConfig("restrict-table"), data.dumps().encode())
    assert (code, report) == (1, b"error: no consistent Euler chain exists for this data\n")
    code, report = run(RunConfig("classify", output_format="structured"), data.dumps().encode())
    assert code == 1
    assert b'"w2_vanishes": null' in report
    free = Solution((), frozenset({"x"}))
    _patch_solver(monkeypatch, [free])
    with pytest.raises(NoSolutionError, match="^no consistent Euler chain exists for this data$"):
        solve_restriction_table(_fuzz_datum(1, 40))


@pytest.mark.parametrize("seed, failing", [(1, 26), (2, 32)])
def test_every_fuzz_datum_whose_chain_fails_has_no_table_either(seed, failing):
    # Why the selection rule's chain is solved before the table: a
    # table solved first would report "no integral solution" for each
    # of these data, not the chain's error that they report now.
    count = 0
    for name, data in classified_fuzz_data(seed):
        tag = classify_type(data)
        if tag not in ("6a", "6b"):
            continue
        try:
            euler_transport(data)
            continue
        except NoSolutionError:
            count += 1
        positions, skeleton = _build_skeleton(data, tag)
        solutions = solve_system(_integration_equations(data, positions, skeleton))
        integral = [s for s in solutions if all(v.denominator == 1 for _, v in s.assignment)]
        assert not any(s.free for s in solutions) and not integral, name
    assert count == failing


@pytest.mark.parametrize("seed, count", [(1, 20), (2, 27)])
def test_fuzz_data_of_types_1_to_5_report_the_table_error_though_their_chain_fails(seed, count):
    # A table read off the chain would report the chain's error for
    # these data instead: the byte-identity constraint on that swap.
    others = [(name, data) for name, data in classified_fuzz_data(seed) if classify_type(data) not in ("6a", "6b")]
    assert len(others) == count
    for name, data in others:
        with pytest.raises(NoSolutionError, match="^no consistent Euler chain exists for this data$"):
            euler_transport(data)
        with pytest.raises(NoSolutionError, match="^no integral solution: the fixed point data is inconsistent$"):
            solve_restriction_table(data)
