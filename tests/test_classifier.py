"""Chart wall crossing, Euler-class chains, and the bounded enumeration."""

import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semifree.algebra import (
    ReducedClass,
    c1_reduced,
    fiber_class,
    nontrivial_bundle,
    pair,
    projective_plane,
    trivial_bundle,
)
from semifree import classifier, cli
from semifree._solve import SolverStallError, solve_system
from semifree.classifier import (
    Crossing,
    b_plus_minus,
    enumerate_types,
    euler_chain_check,
    euler_transport,
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
    dh_path,
    solve_restriction_table,
)

from corpus import filtered_orderings, fuzz_data, middle_orderings

FAMILY_CASES = [
    ("1", {}),
    ("2", {}),
    ("3", {"n": 1}),
    ("3", {"n": 3}),
    ("3", {"n": -1}),
    ("4", {}),
    ("5", {}),
    ("6a", {"n": 2, "g": 1, "g1": 2}),
    ("6a", {"n": 1, "g": 0, "g1": 0}),
    ("6b", {"k": 1, "k_prime": 0}),
    ("6b", {"k": 0, "k_prime": 2}),
]


# ---------------------------------------------------------------------------
# adjunction on solved chains


def test_solved_dual_classes_satisfy_adjunction():
    # Each dual class eta found by the chain engine is represented by
    # its fixed surface, so eta.eta - c1.eta = 2g - 2 for its genus g.
    checked = 0
    for tag, params in FAMILY_CASES:
        data = family_instance(tag, **params)
        for crossing in euler_transport(data).crossings:
            eta = crossing.dual
            if eta is None:
                continue
            genus = data.components[crossing.position].genus
            assert pair(eta, eta) - pair(c1_reduced(eta.space), eta) == 2 * genus - 2
            checked += 1
    assert checked == 10


def _after_surgery(b_min, genus, b_plus, b_minus, b_max):
    # An index-2 and an index-4 point below the surface, so the surface
    # crosses a rank-2 chart reached by a blow-up and a blow-down.
    return FixedPointData(
        (
            surface(0, 0, genus=0, b=b_min),
            point(2, 1),
            point(4, 2),
            surface(2, 3, genus=genus, b_plus=b_plus, b_minus=b_minus),
            surface(4, 4, genus=0, b=b_max),
        )
    )


# Every datum of this shape, with genus <= 1 and each degree in -2..2,
# whose chain has exactly one solution.
AFTER_SURGERY = [(0, 0, 1, 0, -1), (0, 0, -1, 0, 1), (1, 0, 1, -1, -1), (1, 1, 0, 0, 1)]


@pytest.mark.parametrize("params", AFTER_SURGERY)
def test_dual_class_on_a_rank_two_chart_after_surgery(params):
    data = _after_surgery(*params)
    (crossing,) = euler_transport(data).crossings
    eta = crossing.dual
    assert eta is not None and eta.space.form == "nontrivial_bundle"
    genus, b_plus, b_minus = params[1:4]
    assert pair(eta, eta) == crossing.pair_eta_eta
    assert pair(c1_reduced(eta.space), eta) == crossing.pair_eta_eta + 2 - 2 * genus
    assert b_plus_minus(data, crossing.position) == (b_plus, b_minus)
    if params == (0, 0, 1, 0, -1):
        assert eta.coeffs == (1, 1)


def _adjunction_genus(v):
    # Genus forced on an embedded surface representing v; a negative or
    # non-integral value certifies that no embedded surface realizes it.
    return 1 + Fraction(pair(v, v) - pair(c1_reduced(v.space), v), 2)


@pytest.mark.parametrize(
    ("space", "coeffs", "genus"),
    [
        (projective_plane(), (1,), 0),
        (projective_plane(), (2,), 0),
        (projective_plane(), (3,), 1),
        (projective_plane(), (4,), 3),
        (trivial_bundle(0), (1, 0), 0),
        (trivial_bundle(0), (1, 1), 0),
        (trivial_bundle(0), (2, 3), 2),
        (nontrivial_bundle(0), (0, 1), 0),
    ],
)
def test_adjunction_genus_frozen(space, coeffs, genus):
    v = ReducedClass(space, tuple(Fraction(c) for c in coeffs))
    assert _adjunction_genus(v) == Fraction(genus)


def test_adjunction_genus_flags_unrealizable_classes():
    v = ReducedClass(trivial_bundle(0), (Fraction(2), Fraction(-1)))
    assert _adjunction_genus(v) == Fraction(-2)


# ---------------------------------------------------------------------------
# Euler-class transport


@pytest.mark.parametrize(
    ("tag", "params"),
    [
        ("4", {}),
        ("6a", {"n": 2, "g": 1, "g1": 2}),
        ("6a", {"n": 1, "g": 0, "g1": 0}),
        ("6a", {"n": -3, "g": 0, "g1": 2}),
        ("6b", {"k": 1, "k_prime": 0}),
        ("6b", {"k": 0, "k_prime": 2}),
    ],
)
def test_start_euler_pairings(tag, params):
    data = family_instance(tag, **params)
    result = euler_transport(data)
    e = result.start_euler
    assert e is not None
    assert pair(e, e) == -data.minimum.b
    assert pair(e, fiber_class(e.space)) == -1


def test_start_chart_matches_minimum_parity():
    even = euler_transport(family_instance("6a", n=2, g=1, g1=2))
    assert even.chart == trivial_bundle(1)
    odd = euler_transport(family_instance("6a", n=1, g=0, g1=0))
    assert odd.chart == nontrivial_bundle(0)


@pytest.mark.parametrize(("tag", "params"), FAMILY_CASES)
def test_crossing_pairings_match_normal_degrees(tag, params):
    data = family_instance(tag, **params)
    result = euler_transport(data)
    for crossing in result.crossings:
        component = data.components[crossing.position]
        assert crossing.pair_e_eta == -component.b_minus
        assert crossing.pair_eta_eta == component.b_plus + component.b_minus


@pytest.mark.parametrize(("tag", "params"), FAMILY_CASES)
def test_crossing_splitting_matches_normal_degrees(tag, params):
    data = family_instance(tag, **params)
    for crossing in euler_transport(data).crossings:
        component = data.components[crossing.position]
        splitting = crossing.splitting
        assert splitting == (component.b_plus, component.b_minus)
        assert [type(b) for b in splitting] == [int, int]


@pytest.mark.parametrize("pair_eta_eta", [0, Fraction(1, 2), Fraction(-3, 2)])
def test_crossing_splitting_is_none_unless_integral(pair_eta_eta):
    # With e.eta = 1/2, b_minus is never integral, even where b_plus is.
    assert Crossing(1, Fraction(1, 2), pair_eta_eta, None).splitting is None


def test_derive_splittings_rejects_a_non_integral_splitting():
    data = family_instance("1")
    assert classifier._derive_splittings(data, classifier._chain_solutions(data)) == data
    half = Crossing(1, Fraction(1, 2), 0, None)
    solution = classifier._ChainSolution(((1, Fraction(1, 2), 0),), (half,))
    assert classifier._derive_splittings(data, [solution]) is None


def dual_class_solve(data):
    """The dual class of each index-2 surface, keyed by its position."""
    return {crossing.position: crossing.dual for crossing in euler_transport(data).crossings}


def test_dual_classes_frozen():
    assert dual_class_solve(family_instance("1")) == {
        1: ReducedClass(projective_plane(), (Fraction(2),))
    }
    assert dual_class_solve(family_instance("2")) == {
        1: ReducedClass(projective_plane(), (Fraction(1),)),
        2: ReducedClass(projective_plane(), (Fraction(1),)),
    }
    assert dual_class_solve(family_instance("3", n=3)) == {
        1: ReducedClass(nontrivial_bundle(0), (Fraction(0), Fraction(1)))
    }
    assert dual_class_solve(family_instance("5")) == {}


def test_dual_class_of_twisted_join_middle():
    duals = dual_class_solve(family_instance("6b", k=1, k_prime=0))
    assert duals == {1: ReducedClass(trivial_bundle(0), (Fraction(0), Fraction(1)))}


@pytest.mark.parametrize(("tag", "params"), FAMILY_CASES)
def test_chain_check_accepts_families(tag, params):
    assert euler_chain_check(family_instance(tag, **params))


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
def test_chain_check_rejects_impossible_splittings(components):
    data = FixedPointData(components=components)
    assert not euler_chain_check(data)
    with pytest.raises(NoSolutionError):
        dual_class_solve(data)


def test_chain_check_rejects_sphere_min_with_point_middles():
    data = FixedPointData(
        components=(
            surface(genus=0, index=0, level=0, b=0),
            point(index=2, level=1),
            point(index=2, level=1),
            point(index=4, level=2),
            point(index=4, level=2),
            point(index=4, level=2),
            point(index=6, level=3),
        )
    )
    assert not euler_chain_check(data)


# ---------------------------------------------------------------------------
# family instances


def test_family_instance_rejects_even_lowest_degree():
    with pytest.raises(ValueError):
        family_instance("3", n=2)


def test_family_instance_rejects_unknown_tag():
    with pytest.raises(ValueError):
        family_instance("7")


def test_family_instance_rejects_unknown_parameters():
    with pytest.raises(TypeError):
        family_instance("1", n=1)
    with pytest.raises(TypeError):
        family_instance("6b", genus=2)


@pytest.mark.parametrize(("tag", "params"), FAMILY_CASES)
def test_family_instances_classify_to_their_tag(tag, params):
    assert classify_type(family_instance(tag, **params)) == tag


# ---------------------------------------------------------------------------
# bounded enumeration


@pytest.fixture(scope="module")
def small_enumeration():
    return enumerate_types(max_genus=1, b_range=(-2, 2))


def test_enumeration_counts_frozen(small_enumeration):
    counts = {key: len(members) for key, members in small_enumeration.families.items()}
    assert counts == {"1": 1, "2": 1, "3": 5, "4": 1, "5": 3, "6": 17}
    assert small_enumeration.rejected == {
        "chain": 797,
        "sweep": 2,
        "validate": 15,
    }


def test_enumeration_stable_under_enlargement(small_enumeration):
    larger = enumerate_types(max_genus=2, b_range=(-3, 3))
    assert set(larger.families) == set(small_enumeration.families)
    counts = {key: len(members) for key, members in larger.families.items()}
    assert counts == {"1": 1, "2": 1, "3": 9, "4": 1, "5": 3, "6": 40}
    for key, members in small_enumeration.families.items():
        assert set(members) <= set(larger.families[key])


def test_enumeration_members_are_valid_and_tagged(small_enumeration):
    for key, members in small_enumeration.families.items():
        for data in members:
            tag = classify_type(data)
            assert tag != "unclassified"
            assert (tag if key != "6" else tag[0]) == key


def test_enumeration_enforces_distinct_middle_levels_for_two_spheres(
    small_enumeration,
):
    (member,) = small_enumeration.families["2"]
    lower, upper = [c for c in member.components if c.index == 2]
    assert lower.level != upper.level


def test_enumeration_point_extreme_members_have_sphere_middles(small_enumeration):
    for members in small_enumeration.families.values():
        for data in members:
            if data.minimum.is_point and data.maximum.is_point:
                assert all(c.is_surface for c in data.middles())


def test_enumeration_twisted_members_have_rational_middles(small_enumeration):
    for data in small_enumeration.families["6"]:
        if data.twist:
            (middle,) = data.middles()
            assert middle.genus == 0


def test_enumeration_spherical_joins_have_genus_zero_extremes(small_enumeration):
    for data in small_enumeration.families["5"]:
        assert data.minimum.genus == 0
        assert data.maximum.genus == 0
        assert data.minimum.b == data.maximum.b == 1


def test_enumeration_rejects_empty_range():
    with pytest.raises(ValueError):
        enumerate_types(max_genus=0, b_range=(2, -2))


def test_enumeration_serializes(small_enumeration):
    import json

    payload = small_enumeration.to_json_dict()
    assert payload["schema"] == "families.v1"
    assert payload["max_genus"] == 1
    assert payload["b_range"] == [-2, 2]
    text = json.dumps(payload)
    assert json.loads(text) == payload


def test_enumeration_is_deterministic():
    first = enumerate_types(max_genus=0, b_range=(-1, 1))
    second = enumerate_types(max_genus=0, b_range=(-1, 1))
    assert first.to_json_dict() == second.to_json_dict()


# sha256 of the sorted-key JSON report, recorded with the concrete chain
# solve for every candidate.
ENUMERATION_DIGESTS = {
    (0, (-1, 1)): "2b49722e31c6df940181ca84094bb5f68b12e95160455fb2d598089b348c77ac",
    (1, (-2, 2)): "507c9a0938682f2f99644e53a3cbb0c2188e742dd5ec243f51b207b1d79312da",
    (2, (-3, 3)): "637eb6ee80128ccee48274f54817fb548b368f34e9cc775fda4ded36ee399087",
}


def _enumeration_digest(max_genus, b_range):
    payload = enumerate_types(max_genus, b_range).to_json_dict()
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("bounds", sorted(ENUMERATION_DIGESTS))
def test_enumeration_report_digest_frozen(bounds):
    assert _enumeration_digest(*bounds) == ENUMERATION_DIGESTS[bounds]


def test_prefix_shared_chain_matches_concrete_chain(small_enumeration):
    # Every unique candidate at (1, -2..2) is built here, every maximum
    # genus included, also those the enumeration tallies in bulk without
    # building one. Each is solved concretely: a bulk-tallied candidate
    # has no chain, and a verdict read off the shape's prefix solve
    # equals the concrete one. Each datum with a chain is validated: a
    # surface maximum whose genus differs from the minimum's fails, so
    # the enumeration may tally those candidates without building them.
    genera, b_values = range(2), range(-2, 3)
    seen = set()
    verdicts = {"unbuilt": 0, "shared": 0, "concrete": 0}
    bulk = chainless = invalid = mismatched = 0
    for shape in classifier._shapes(genera, b_values):
        if shape.maximum.is_point:
            candidates = [(shape, None)]
        else:
            by_square = classifier._solve_prefix(shape)
            if by_square is not None:
                bulk += len(genera) * sum(-b not in by_square for b in b_values)
            candidates = [
                (
                    classifier._with_maximum(shape, genus, b),
                    None if by_square is None else by_square.get(-b, []),
                )
                for genus in genera
                for b in b_values
            ]
            minimum = shape.minimum
            if (
                all(c.is_surface for c in shape.components)
                and minimum.genus == 0
                and minimum.b % 2 == 0
            ):
                candidates += [
                    (classifier._with_maximum(shape, 0, b, twist=True), None)
                    for b in b_values
                    if b % 2 == 0
                ]
        for candidate, solutions in candidates:
            assert candidate not in seen
            seen.add(candidate)
            # The enumeration's chain solves never raise.
            solved = classifier._chain_solutions(candidate)
            concrete = classifier._derive_splittings(candidate, solved)
            if solutions is None:
                verdicts["concrete"] += 1
            elif not solutions:
                verdicts["unbuilt"] += 1
                assert concrete is None
            else:
                verdicts["shared"] += 1
                assert classifier._derive_splittings(candidate, solutions) == concrete
            chainless += concrete is None
            if concrete is None:
                continue
            fails = not validate(concrete).ok
            invalid += fails
            if candidate.maximum.is_surface and candidate.maximum.genus != candidate.minimum.genus:
                mismatched += 1
                assert fails, candidate
    assert len(seen) == 842
    assert all(verdicts.values())
    assert verdicts["unbuilt"] == bulk
    assert small_enumeration.rejected["chain"] == chainless
    assert mismatched and small_enumeration.rejected["validate"] == invalid


def test_enumeration_counts_at_genus_five_and_degree_ten():
    # Recorded with one chain reject tallied per candidate, before the
    # unbuilt rejects of a b were tallied in bulk.
    result = enumerate_types(5, (-10, 10))
    counts = {key: len(members) for key, members in result.families.items()}
    assert counts == {"1": 1, "2": 1, "3": 21, "4": 1, "5": 3, "6": 533}
    assert result.rejected == {"chain": 160025, "sweep": 20, "validate": 2575}


def _all_level_assignments(count):
    return tuple(
        sorted(
            combo
            for groups in range(1 if count else 0, count + 1)
            for combo in itertools.product(range(1, groups + 1), repeat=count)
            if len(set(combo)) == groups
        )
    )


def _seen_set_shapes(genera, b_values):
    """Every shape once, by building every level assignment and dropping
    the repeats of a shape: how ``_shapes`` once generated them."""
    minima = [point(0, 0)] + [
        surface(0, 0, genus=g, b=b) for g in genera for b in b_values
    ]
    for minimum in minima:
        seen = set()
        b2_base = 1 if minimum.is_surface else 0
        for max_is_surface in (False, True) if minimum.is_surface else (False,):
            for n2 in range(0, 3):
                for n_mid in range(0, 3):
                    if b2_base + n2 + n_mid > 2:
                        continue
                    n4 = b2_base + n2 - (1 if max_is_surface else 0)
                    for mid_genera in itertools.combinations_with_replacement(
                        genera, n_mid
                    ):
                        middles = (
                            [(2, None)] * n2
                            + [(4, None)] * n4
                            + [(2, g1) for g1 in mid_genera]
                        )
                        for levels in _all_level_assignments(len(middles)):
                            top = max(levels, default=0) + 1
                            shape = FixedPointData(
                                (
                                    minimum,
                                    *(
                                        point(index, level)
                                        if g1 is None
                                        else surface(2, level, genus=g1)
                                        for (index, g1), level in zip(middles, levels)
                                    ),
                                    surface(4, top, genus=0, b=0)
                                    if max_is_surface
                                    else point(6, top),
                                )
                            )
                            if shape not in seen:
                                seen.add(shape)
                                yield shape


@pytest.mark.parametrize(("max_genus", "bound"), [(1, 2), (3, 6)])
def test_shapes_match_the_seen_set_generator(max_genus, bound):
    genera, b_values = range(max_genus + 1), range(-bound, bound + 1)
    shapes = list(classifier._shapes(genera, b_values))
    assert shapes == list(_seen_set_shapes(genera, b_values))
    assert len(set(shapes)) == len(shapes)


def test_enumeration_hands_every_datum_the_extremes_a_fresh_one_reads(monkeypatch):
    # Every shape, candidate and filled candidate the enumeration builds
    # comes with its extremes, and they are the ones a fresh datum reads.
    built = []
    datum = classifier._datum

    def record(*args, **kwargs):
        data = datum(*args, **kwargs)
        assert {"_minimum", "_maximum"} <= data.__dict__.keys()
        built.append(data)
        return data

    monkeypatch.setattr(classifier, "_datum", record)
    classifier.enumerate_types(2, (-3, 3))
    assert len(built) > 500
    assert any(d.twist for d in built) and any(d.maximum.is_point for d in built)
    for data in built:
        fresh = FixedPointData(data.components, twist=data.twist)
        assert (data.minimum, data.maximum) == (fresh.minimum, fresh.maximum), data


def test_enumeration_decides_each_unique_candidate_once(small_enumeration):
    members = sum(len(m) for m in small_enumeration.families.values())
    assert sum(small_enumeration.rejected.values()) + members == 842


def test_enumeration_rejects_negative_genus_bound():
    with pytest.raises(ValueError):
        enumerate_types(max_genus=-1, b_range=(-1, 1))


@pytest.mark.parametrize(
    ("target", "fault", "stage"),
    [
        ("validate", SimpleNamespace(ok=False), "validate"),
        ("_localization_relations_hold", False, "localization"),
        ("classify_type", "unclassified", "unclassified"),
    ],
)
def test_enumeration_stages_that_never_reject_are_invariants(
    monkeypatch, target, fault, stage
):
    monkeypatch.setattr(classifier, target, lambda data: fault)
    with pytest.raises(RuntimeError, match=f"invariant broken at the {stage} stage"):
        enumerate_types(1, (-2, 2))


def test_enumeration_falls_back_when_the_prefix_solve_stalls(monkeypatch):
    stalled = []

    def stall(branch):
        stalled.append(branch)
        raise SolverStallError("forced")

    monkeypatch.setattr(classifier, "_solve_rest", stall)
    assert _enumeration_digest(0, (-1, 1)) == ENUMERATION_DIGESTS[(0, (-1, 1))]
    assert stalled


def test_enumeration_solves_no_system_twice_for_one_minimum_genus(monkeypatch):
    # Minima of one genus share their solved chain systems: a repeated
    # equation list reads the first solve. The sharing ends with the
    # genus, so a system posed under several genera is solved under each.
    genus, solves = [None], []
    shapes, solve = classifier._shapes, classifier.solve_system

    def record_shapes(genera, b_values):
        for shape in shapes(genera, b_values):
            genus[0] = shape.minimum.genus
            yield shape

    def record_solve(equations):
        solves.append((genus[0], tuple(equations)))
        return solve(equations)

    monkeypatch.setattr(classifier, "_shapes", record_shapes)
    monkeypatch.setattr(classifier, "solve_system", record_solve)
    enumerate_types(3, (-6, 6))
    assert solves
    assert len(set(solves)) == len(solves)
    systems = [equations for _, equations in solves]
    assert len(set(systems)) < len(systems)


def test_equal_data_each_solve_their_chain(monkeypatch):
    # No solved system outlives one chain check: equal data that are
    # distinct objects solve the same systems again.
    systems, solve = [], classifier.solve_system

    def record_solve(equations):
        systems.append(tuple(equations))
        return solve(equations)

    monkeypatch.setattr(classifier, "solve_system", record_solve)
    first, second = family_instance("6a", n=1, g=0, g1=1), family_instance("6a", n=1, g=0, g1=1)
    assert first == second and first is not second
    assert euler_chain_check(first) is True
    once = list(systems)
    assert once
    assert euler_chain_check(second) is True
    assert systems == once + once


def _recheck_and_sweep_calls(monkeypatch, max_genus, b_range):
    """The data passing the localization stage, and the sweep calls, of one enumeration."""
    rechecked, swept = [], []
    hold, sweep = classifier._localization_relations_hold, classifier.dh_path

    def record_hold(data):
        verdict = hold(data)
        if verdict:
            rechecked.append(data)
        return verdict

    def record_sweep(data, alpha0, gaps, transport=None):
        path = sweep(data, alpha0, gaps, transport)
        swept.append((data, transport, path))
        return path

    monkeypatch.setattr(classifier, "_localization_relations_hold", record_hold)
    monkeypatch.setattr(classifier, "dh_path", record_sweep)
    enumerate_types(max_genus, b_range)
    return rechecked, swept


@pytest.mark.parametrize("bounds", [(1, (-2, 2)), (2, (-3, 3))])
def test_recheck_and_sweep_reuse_the_chain_solution_soundly(monkeypatch, bounds):
    # Every candidate passing the localization stage is checked against
    # a fresh chain solve, and every sweep on the reused solution
    # against a sweep that solves the chain itself.
    rechecked, swept = _recheck_and_sweep_calls(monkeypatch, *bounds)
    assert rechecked and swept
    for data in rechecked:
        assert euler_chain_check(data) is True
    surfaces_only = [d for d in rechecked if all(c.is_surface for c in d.components)]
    assert [data for data, _, _ in swept] == surfaces_only
    for data, transport, path in swept:
        assert transport == euler_transport(data)
        assert path == dh_path(data, 1, [])


def _chain_solves(monkeypatch) -> list:
    """The data of each ``_chain_solutions`` call made from now on."""
    solved, solve = [], classifier._chain_solutions

    def record(data, walks=None):
        solved.append(data)
        return solve(data, walks)

    monkeypatch.setattr(classifier, "_chain_solutions", record)
    return solved


def test_classify_solves_the_chain_once(monkeypatch):
    # The chain check and the w2 selection rule read one solve.
    solved = _chain_solves(monkeypatch)
    raw = family_instance("6a", n=1, g=0, g1=1).dumps().encode()
    code, _ = cli.run(cli.RunConfig(command="classify"), raw)
    assert code == 0
    assert len(solved) == 1


def test_table_and_splitting_share_one_chain_solve(monkeypatch):
    solved = _chain_solves(monkeypatch)
    data = family_instance("6b", k=1, k_prime=0)
    # A 6b table reads the chain for its selection rule.
    assert solve_restriction_table(data).type_tag == "6b"
    middle = data.components[1]
    assert b_plus_minus(data, middle) == (middle.b_plus, middle.b_minus)
    assert solved == [data]


# ---------------------------------------------------------------------------
# properties


def _gram_det(gram):
    if len(gram) == 1:
        return gram[0][0]
    return gram[0][0] * gram[1][1] - gram[0][1] * gram[1][0]


def _brute_force_rays(a, b, c):
    """The primitive (s, t) with s > 0, or s = 0 < t, and a s^2 + 2b st + c t^2 = 0,
    searched in a box that holds every such ray of a unimodular form."""
    bound = max(abs(a), abs(b) + 1, abs(c), 2)
    return {
        (s, t)
        for s in range(0, bound + 1)
        for t in range(-bound, bound + 1)
        if (s > 0 or t > 0)
        and math.gcd(s, t) == 1
        and a * s * s + 2 * b * s * t + c * t * t == 0
    }


def test_isotropic_rays_and_their_sections_on_every_small_unimodular_form():
    # Every unimodular form in the box, a = 0 among them: a = 0 forces
    # b = +-1, and c = 0 is then the one form with the ray (0, 1). Each
    # ray, either way round, is a fiber whose section S has S.fib = 1
    # and S.S in {0, -1}.
    forms = [
        (a, b, c)
        for a in range(-4, 5)
        for b in range(-6, 7)
        for c in range(-8, 9)
        if abs(a * c - b * b) == 1
    ]
    assert sum(a == 0 for a, _, _ in forms) == 34
    dot = classifier._dot
    for a, b, c in forms:
        gram = ((a, b), (b, c))
        rays = classifier._isotropic_rays(gram)
        assert len(rays) == len(set(rays))
        assert set(rays) == _brute_force_rays(a, b, c), gram
        for s, t in rays:
            for fib in ((s, t), (-s, -t)):
                section = classifier._section_for(gram, fib)
                assert dot(gram, section, fib) == 1, (gram, fib)
                assert dot(gram, section, section) in (0, -1), (gram, fib)


@pytest.mark.parametrize("genus", [0, 1, 2])
@pytest.mark.parametrize("bundle", [trivial_bundle, nontrivial_bundle])
def test_bundle_forms_recognise_a_bundle_in_every_small_basis(bundle, genus):
    # A change of basis P takes the Gram matrix to P^T G P and c1's
    # coordinates to P^-1 c1; every form found is a fiber with c1.F = 2
    # and its section, and the bundle's own space is among them.
    space = bundle(genus)
    gram, c1 = space.gram, c1_reduced(space).coeffs
    dot = classifier._dot
    bases = [
        ((p, q), (r, s))
        for p, q, r, s in itertools.product(range(-2, 3), repeat=4)
        if abs(p * s - q * r) == 1
    ]
    for (p, q), (r, s) in bases:
        det = p * s - q * r
        moved = tuple(
            tuple(dot(gram, (p, r) if i == 0 else (q, s), (p, r) if j == 0 else (q, s)) for j in range(2))
            for i in range(2)
        )
        coords = (det * (s * c1[0] - q * c1[1]), det * (-r * c1[0] + p * c1[1]))
        chart = SimpleNamespace(rank=2, base_genus=genus, gram=moved, c1=coords)
        forms = classifier._bundle_forms(chart)
        assert space in [form for form, _, _ in forms], ((p, q), (r, s))
        for form, fib, section in forms:
            assert dot(moved, fib, fib) == 0 and dot(moved, coords, fib) == 2
            assert dot(moved, section, fib) == 1
            square = dot(moved, section, section)
            assert form == (trivial_bundle if square == 0 else nontrivial_bundle)(genus)


def assert_chart_round_trips(minimum, times):
    """Blow the start chart up and down along the new class ``times`` times.

    ``_blow_down`` picks a new basis, so the chart must come back
    isometric: same Gram determinant, c1 square and base genus, and at
    rank 2 a bundle form of the start space (at rank 1 the chart itself).
    """
    start = classifier._start_chart(minimum)
    chart = start
    for _ in range(times):
        up = classifier._blow_up(chart)
        e_n = tuple(int(j == up.rank - 1) for j in range(up.rank))
        assert e_n in classifier._blow_down_candidates(up)
        chart = classifier._blow_down(up, e_n)
        assert chart is not None and chart.rank == start.rank
        assert _gram_det(chart.gram) == _gram_det(start.gram)
        dot = classifier._dot
        assert dot(chart.gram, chart.c1, chart.c1) == dot(start.gram, start.c1, start.c1)
        assert chart.base_genus == start.base_genus
        if chart.rank == 2:
            assert start.pristine in [space for space, _, _ in classifier._bundle_forms(chart)]
        else:
            assert (chart.gram, chart.c1) == (start.gram, start.c1)


@given(
    st.one_of(
        st.just(point(0, 0)),
        st.builds(
            lambda genus, b: surface(0, 0, genus=genus, b=b),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=-4, max_value=4),
        ),
    ),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=40, deadline=None)
def test_blow_round_trip_property(minimum, times):
    assert_chart_round_trips(minimum, times)


@given(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_untwisted_join_chain_always_consistent(n, g, g1):
    data = family_instance("6a", n=n, g=g, g1=g1)
    result = euler_transport(data)
    e = result.start_euler
    assert pair(e, e) == -data.minimum.b
    (crossing,) = result.crossings
    middle = data.components[crossing.position]
    assert crossing.pair_e_eta == -middle.b_minus
    assert crossing.pair_eta_eta == middle.b_plus + middle.b_minus


def test_back_to_back_enumerations_report_the_same():
    # Each enumeration walks with its own dicts, so a second run in the
    # same process sees nothing of the first.
    first = _enumeration_digest(1, (-2, 2))
    assert _enumeration_digest(1, (-2, 2)) == first == ENUMERATION_DIGESTS[(1, (-2, 2))]


# ---------------------------------------------------------------------------
# distinct crossing orders, reached without the factorial


def _mixed_levels(rng):
    """Middles at up to three levels mixing points and surfaces, equal
    surfaces included; up to six middles at one level."""
    comps = [point(0, 0) if rng.random() < 0.5 else surface(0, 0, genus=0, b=1)]
    for _ in range(rng.randint(0, 7)):
        level = rng.randint(1, 3)
        roll = rng.random()
        if roll < 0.3:
            comps.append(point(2, level))
        elif roll < 0.6:
            comps.append(point(4, level))
        else:
            comps.append(surface(2, level, genus=rng.randint(0, 1), b_plus=1, b_minus=rng.randint(0, 1)))
    comps.append(point(6, 4))
    return FixedPointData(tuple(comps))


def _walked_orders(data) -> list[tuple]:
    """The step keys of each crossing order that one descent walks, in order:
    the full-length prefix keys it leaves in its ``walks``."""
    walks: dict = {}
    list(classifier._branches(data, walks))
    return [key[1:] for key in walks if len(key) == len(data.components) - 1]


def test_distinct_orderings_match_the_filtered_permutations():
    rng = random.Random(14)
    data_sets = (
        [data for seed in (1, 2) for _, data in fuzz_data(seed)]
        + list(classifier._shapes(range(2), range(-2, 3)))
        + [_mixed_levels(rng) for _ in range(300)]
    )
    repeated = 0
    for data in data_sets:
        want = filtered_orderings(data)
        assert _walked_orders(data) == [
            tuple(classifier._step_key(pos, data.components[pos]) for pos in ordering)
            for ordering in want
        ]
        repeated += len(want) < len(middle_orderings(data))
    assert repeated > 200


def test_chain_solve_is_fast_with_many_points_at_one_level():
    # 12! orderings of these middles share C(12, 6) = 924 step-key sequences.
    data = FixedPointData(
        (point(0, 0), *[point(2, 1)] * 6, *[point(4, 1)] * 6, point(6, 2))
    )
    raw = data.dumps().encode()
    for command in ("classify", "dh-check"):
        started = time.perf_counter()
        code, _ = cli.run(cli.RunConfig(command=command), raw)
        assert time.perf_counter() - started < 2
        assert code == 1
    assert len(_walked_orders(data)) == 924


# ---------------------------------------------------------------------------
# the chain engine on data that validate would refuse


# Malformed data raise before the walk takes a step, each with its reason.
_UNWALKABLE = {
    # One component: no minimum and maximum to walk between.
    ((point(0, 0),), False): "expected one maximum, found 0",
    # A middle above the maximum.
    (
        (point(0, 0), point(2, 3), point(6, 2)),
        False,
    ): "middle components must sit strictly between the extremes",
    # A surface minimum without b has no start chart.
    (
        (surface(0, 0, genus=0), surface(4, 1, genus=0, b=0)),
        False,
    ): "surface minimum is missing b",
}
# Data whose every walk dies at the maximum have no chain.
_UNCLOSED = [
    # A point maximum over a rank-2 chart, where e = (-1, 1) + eta
    # would otherwise solve e.H = 1 and adjunction.
    ((point(0, 0), point(2, 1), surface(2, 2, genus=0), point(6, 3)), False),
    # A surface maximum without b, and one over a rank-1 chart.
    ((surface(0, 0, genus=0, b=0), surface(4, 1, genus=0)), False),
    ((point(0, 0), surface(4, 1, genus=0, b=1)), False),
    # A twisted surface maximum over a chart with no fiber.
    ((point(0, 0), point(2, 1), surface(4, 2, genus=0, b=0)), True),
]


@pytest.mark.parametrize("components, twist", [*_UNWALKABLE, *_UNCLOSED])
def test_the_chain_check_refuses_malformed_data(components, twist):
    data = FixedPointData(components, twist=twist)
    if (components, twist) in _UNWALKABLE:
        with pytest.raises(InvalidDataError, match=f"^{_UNWALKABLE[components, twist]}$"):
            euler_chain_check(data)
    else:
        assert euler_chain_check(data) is False


def test_a_non_integral_dual_class_is_no_chain():
    # The plane blown up once: the middle sphere's equations have the
    # one rational solution eta = (3/2, -1/2), which is no integral class.
    data = FixedPointData(
        (point(0, 0), point(2, 1), surface(2, 2, genus=0), surface(4, 4, genus=0, b=0))
    )
    (branch,) = classifier._branches(data, {})
    (solution,) = solve_system(list(branch.equations))
    assert solution.as_dict() == {"eta2_0": Fraction(3, 2), "eta2_1": Fraction(-1, 2)}
    assert classifier._chain_solutions(data) == []
    assert euler_chain_check(data) is False


def test_a_free_chain_solution_is_underdetermined():
    # Over a torus minimum with b = 0 the chart is T^2 x S^2, with a
    # section class S of S.S = 0 and c1 = 2S. Two middle tori with
    # b+ = b- = 0 have the duals tS and (2 - t)S for every t: each meets
    # adjunction and its splittings, and the maximum's equations see only
    # their sum. So a branch solution leaves an unknown free. The data
    # validate (validate does not bound b2), and the chain check raises
    # rather than saying yes or no.
    torus = dict(genus=1, b_plus=0, b_minus=0)
    for level in (1, 2):
        data = FixedPointData(
            (
                surface(0, 0, genus=1, b=0),
                surface(2, 1, **torus),
                surface(2, level, **torus),
                surface(4, 3, genus=1, b=0),
            )
        )
        assert validate(data).ok
        branches = classifier._branches(data, {})
        assert any(sol.free for branch in branches for sol in solve_system(list(branch.equations)))
        with pytest.raises(MultipleSolutionsError, match="^the Euler chain is underdetermined for this data$"):
            euler_chain_check(data)


def test_two_chains_make_the_transport_ambiguous():
    # Two lines of the plane without splittings at one level: the chain
    # solves with either one crossed first, and the two disagree.
    data = FixedPointData(
        (point(0, 0), surface(2, 1, genus=0), surface(2, 1, genus=0), point(6, 4))
    )
    assert euler_chain_check(data) is True
    with pytest.raises(MultipleSolutionsError, match="2 distinct Euler chains"):
        euler_transport(data)


def test_b_plus_minus_needs_an_index_2_surface():
    with pytest.raises(InvalidDataError, match="^b_plus_minus needs an index-2 surface$"):
        b_plus_minus(family_instance("6a"), 0)
