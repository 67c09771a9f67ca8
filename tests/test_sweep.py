"""The Duistermaat-Heckman sweep against the code it replaced.

``_oracle_dh_path`` and ``_oracle_dh_feasible`` below are the sweep as
it was written before its conditions had one list: ``dh_path`` checked
them by hand at the given start and gaps, and ``_dh_feasible`` stated
them again as the constraints of the verdict. They are kept here as the
oracle. ``dh_path`` must give the same ``DHPath``, field for field and
in the same canonical number types, on every valid all-surface datum of
the corpus.
"""

import itertools
from fractions import Fraction

import pytest

from corpus import builtin_data, enumerated_members, family_presets, fuzz_data
from semifree._solve import AffineConstraint, SolverStallError, feasible
from semifree.algebra import ReducedClass, fiber_class, pair
from semifree.classifier import euler_transport
from semifree.fixed_points import InvalidDataError, validate
from semifree.localization import (
    DHPath,
    MultipleSolutionsError,
    NoSolutionError,
    dh_path,
)
from semifree.rationals import canon, format_rational


def _oracle_dh_path(data, alpha0, gaps, transport):
    crossings = transport.crossings
    segments = len(crossings) + 1
    space = transport.chart
    x = fiber_class(space)
    y = ReducedClass.make(space, 0, 1)
    eulers = [transport.start_euler]
    for ev in crossings:
        eulers.append(eulers[-1] + ev.dual)
    collapse, keep = (y, x) if data.twist else (x, y)

    failures = []
    omega = ReducedClass.make(space, alpha0, 0)
    times = [0]
    omegas = [omega]
    wall_areas = []
    if alpha0 <= 0:
        failures.append("starting size alpha0 must be positive")
    for i, gap in enumerate(gaps):
        if gap <= 0:
            failures.append(f"gap {i + 1} must be positive")
        omega = omega - eulers[i].scaled(gap)
        times.append(canon(times[-1] + gap))
        omegas.append(omega)
        terminal = i == segments - 1
        if i < len(crossings):
            area = pair(omega, crossings[i].dual)
            wall_areas.append(area)
            if area <= 0:
                failures.append(
                    f"wall {i + 1} area {format_rational(area)} not positive"
                )
        fiber_area = pair(omega, x)
        base_area = pair(omega, y)
        if terminal:
            if pair(omega, collapse) != 0:
                failures.append(
                    "collapsing class keeps nonzero size at the top"
                )
            if pair(omega, keep) <= 0:
                failures.append("maximum does not keep positive size")
        else:
            if fiber_area <= 0:
                failures.append(
                    f"fiber size {format_rational(fiber_area)} not positive "
                    f"at time {format_rational(times[-1])}"
                )
            if base_area <= 0:
                failures.append(
                    f"base size {format_rational(base_area)} not positive "
                    f"at time {format_rational(times[-1])}"
                )

    feasible_system = _oracle_dh_feasible(space, eulers, crossings, data.twist)
    if not feasible_system:
        verdict = "inconsistent"
    elif not failures:
        verdict = "positive"
    else:
        verdict = "not_positive"
    return DHPath(
        verdict=verdict,
        times=tuple(times),
        omegas=tuple(omegas),
        wall_areas=tuple(wall_areas),
        failures=tuple(failures),
        complete=len(gaps) == segments,
    )


def _oracle_dh_feasible(space, eulers, crossings, twist):
    segments = len(eulers)
    x = fiber_class(space)
    y = ReducedClass.make(space, 0, 1)
    collapse, keep = (y, x) if twist else (x, y)

    def pairing_coeffs(step, target):
        coeffs = {"a0": pair(ReducedClass.make(space, 1, 0), target)}
        for i in range(step):
            coeffs[f"g{i}"] = -pair(eulers[i], target)
        return coeffs

    constraints = [AffineConstraint.make({"a0": 1}, 0, True)]
    for i in range(segments):
        constraints.append(AffineConstraint.make({f"g{i}": 1}, 0, True))
    for step in range(1, segments + 1):
        terminal = step == segments
        if step <= len(crossings):
            constraints.append(
                AffineConstraint.make(
                    pairing_coeffs(step, crossings[step - 1].dual), 0, True
                )
            )
        if terminal:
            c = pairing_coeffs(step, collapse)
            constraints.append(AffineConstraint.make(c, 0, False))
            constraints.append(
                AffineConstraint.make({k: -v for k, v in c.items()}, 0, False)
            )
            constraints.append(
                AffineConstraint.make(pairing_coeffs(step, keep), 0, True)
            )
        else:
            constraints.append(
                AffineConstraint.make(pairing_coeffs(step, x), 0, True)
            )
            constraints.append(
                AffineConstraint.make(pairing_coeffs(step, y), 0, True)
            )
    return feasible(constraints)


STARTS = (0, Fraction(1, 2), 3)
GAP_VALUES = (-1, Fraction(1, 2), 3)
CHAIN_ERRORS = (
    InvalidDataError,
    NoSolutionError,
    MultipleSolutionsError,
    NotImplementedError,
    SolverStallError,
)


def _all_surface_data():
    """Every valid all-surface datum of the corpus."""
    corpus = (
        family_presets()
        + builtin_data()
        + list(enumerated_members())
        + fuzz_data(1)
        + fuzz_data(2)
    )
    return [
        (name, data)
        for name, data in corpus
        if validate(data).ok and all(c.is_surface for c in data.components)
    ]


def test_sweep_matches_the_oracle_over_the_corpus():
    swept, verdicts = 0, set()
    for name, data in _all_surface_data():
        try:
            transport = euler_transport(data)
        except CHAIN_ERRORS as exc:
            # No chain, no sweep: dh_path raises what the chain solve raises.
            with pytest.raises(type(exc)):
                dh_path(data, 1, [])
            continue
        swept += 1
        segments = len(transport.crossings) + 1
        for alpha0 in STARTS:
            for count in range(min(2, segments) + 1):
                for gaps in itertools.product(GAP_VALUES, repeat=count):
                    path = dh_path(data, alpha0, list(gaps))
                    expected = _oracle_dh_path(data, alpha0, gaps, transport)
                    assert repr(path) == repr(expected), (name, alpha0, gaps)
                    verdicts.add(path.verdict)
    assert swept >= 70
    assert verdicts == {"positive", "not_positive", "inconsistent"}
