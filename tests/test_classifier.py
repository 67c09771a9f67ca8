"""Chart wall crossing, Euler-class chains, and the bounded enumeration."""

import hashlib
import itertools
import json
import random
import time
from fractions import Fraction

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
from semifree._solve import SolverStallError
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
)
from semifree.localization import NoSolutionError, dh_path, solve_restriction_table

from corpus import fuzz_data, middle_orderings

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
    assert classifier._derive_splittings(data, *classifier._chain_solutions(data)) == data
    half = Crossing(1, Fraction(1, 2), 0, None)
    solution = classifier._ChainSolution(((1, Fraction(1, 2), 0),), (half,))
    assert classifier._derive_splittings(data, [solution], False) is None


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


def test_prefix_shared_chain_matches_concrete_chain():
    # Every unique candidate at (1, -2..2) is built here, also those the
    # shape path rejects without building one; the shape path's verdict
    # must equal the concrete chain solve's on each.
    genera, b_values = range(2), range(-2, 3)
    seen = set()
    verdicts = {"unbuilt": 0, "shared": 0, "concrete": 0}
    for shape in classifier._shapes(genera, b_values):
        if shape.maximum.is_point:
            assert shape not in seen
            seen.add(shape)
            verdicts["concrete"] += 1
            continue
        for genus, b, twist, solutions in classifier._surface_maxima(
            shape, genera, b_values
        ):
            candidate = classifier._with_maximum(shape, genus, b, twist)
            assert candidate not in seen
            seen.add(candidate)
            try:
                solved = classifier._chain_solutions(candidate)
            except (InvalidDataError, NotImplementedError):
                concrete = None
            else:
                concrete = classifier._derive_splittings(candidate, *solved)
            if solutions is None:
                verdicts["concrete"] += 1
                continue
            if not solutions:
                verdicts["unbuilt"] += 1
                assert concrete is None
            else:
                verdicts["shared"] += 1
                assert classifier._derive_splittings(candidate, solutions, False) == concrete
    assert len(seen) == 842
    assert all(verdicts.values())


def test_enumeration_decides_each_unique_candidate_once(small_enumeration):
    members = sum(len(m) for m in small_enumeration.families.values())
    assert sum(small_enumeration.rejected.values()) + members == 842


def test_enumeration_rejects_negative_genus_bound():
    with pytest.raises(ValueError):
        enumerate_types(max_genus=-1, b_range=(-1, 1))


def test_enumeration_falls_back_when_the_prefix_solve_stalls(monkeypatch):
    stalled = []

    def stall(branch):
        stalled.append(branch)
        raise SolverStallError("forced")

    monkeypatch.setattr(classifier, "_solve_rest", stall)
    assert _enumeration_digest(0, (-1, 1)) == ENUMERATION_DIGESTS[(0, (-1, 1))]
    assert stalled


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
# distinct orderings, generated without the factorial


def filtered_orderings(data):
    """Every permutation of each level, keeping the first of each step-key
    sequence: how ``_distinct_orderings`` once filtered them."""
    groups = {}
    for pos, comp in enumerate(data.components):
        if not (comp.is_minimum or comp.is_maximum):
            groups.setdefault(comp.level, []).append(pos)
    pools = [list(itertools.permutations(groups[lv])) for lv in sorted(groups)]
    seen, out = set(), []
    for combo in itertools.product(*pools):
        ordering = tuple(pos for part in combo for pos in part)
        steps = tuple(classifier._step_key(pos, data.components[pos]) for pos in ordering)
        if steps not in seen:
            seen.add(steps)
            out.append(ordering)
    return out


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
        assert classifier._distinct_orderings(data) == want
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
    assert len(classifier._distinct_orderings(data)) == 924
