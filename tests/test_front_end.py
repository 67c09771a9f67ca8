"""The per-datum front end against its earlier form.

``validate`` groups the components in one pass and ``from_json_dict``
parses each entry in one pass; the references below are the earlier,
separately scanning forms of both, kept verbatim apart from the
``FixedPointData`` helpers they called. Reports, parsed data and
``SchemaError`` messages must be equal, in order, on seeded random data
(invalid data too), both fuzz pools, every preset and a corpus of
malformed payloads. The derived facts that a datum memoizes must equal
a fresh computation on an equal datum that was never asked.
"""

from __future__ import annotations

import collections
import json
import random
import types
from functools import lru_cache
from typing import Mapping

import pytest

from corpus import builtin_data, family_presets, fuzz_data, perfbench_module
from semifree.fixed_points import (
    FPDATA_SCHEMA,
    POINT,
    SURFACE,
    FixedComponent,
    FixedPointData,
    InvalidDataError,
    SchemaError,
    ValidationReport,
    _is_int,
    _rank_walk_possible,
    classify_type,
    point,
    surface,
    validate,
)
from semifree.rationals import format_rational, parse_rational


# ---------------------------------------------------------------------------
# references: the earlier validate and parser


def reference_validate(data: FixedPointData) -> ValidationReport:
    problems: list[str] = []
    comps = data.components

    def middles():
        return tuple(c for c in comps if not (c.is_minimum or c.is_maximum))

    def point_count(index):
        return sum(1 for c in comps if c.is_point and c.index == index)

    for c in comps:
        if c.is_surface:
            if c.index in (0, 4) and c.b is None:
                problems.append(f"missing normal Chern number b on {c.describe()}")
            if c.index == 2 and (c.b_plus is None or c.b_minus is None):
                problems.append(f"missing (b_plus, b_minus) on {c.describe()}")

    mins = [c for c in comps if c.is_minimum]
    maxes = [c for c in comps if c.is_maximum]
    if len(mins) != 1:
        problems.append(f"need exactly one minimum, found {len(mins)}")
    if len(maxes) != 1:
        problems.append(f"need exactly one maximum, found {len(maxes)}")
    if len(mins) == 1 and len(maxes) == 1:
        lo, hi = mins[0], maxes[0]
        if lo.level >= hi.level:
            problems.append("minimum level must lie strictly below maximum level")
        for c in comps:
            if c is lo or c is hi:
                continue
            if not (lo.level < c.level < hi.level):
                problems.append(f"{c.describe()} must lie strictly between the extremes")

    if problems:
        return ValidationReport(False, tuple(problems))

    lo, hi = mins[0], maxes[0]
    n2 = point_count(2)
    n4 = point_count(4)

    if lo.is_point and hi.is_point:
        if n2 != n4:
            problems.append(f"point extremes force equal point counts, got N2={n2}, N4={n4}")
    elif lo.is_surface and hi.is_point:
        if lo.genus != 0:
            problems.append("a surface minimum with point maximum must be a sphere")
        if n4 != n2 + 1:
            problems.append(
                f"surface minimum with point maximum forces N4=N2+1, got N2={n2}, N4={n4}"
            )
    elif lo.is_point and hi.is_surface:
        if hi.genus != 0:
            problems.append("a surface maximum with point minimum must be a sphere")
        if n2 != n4 + 1:
            problems.append(
                f"point minimum with surface maximum forces N2=N4+1, got N2={n2}, N4={n4}"
            )
    else:
        if lo.genus != hi.genus:
            problems.append(f"surface extremes must share a genus, got {lo.genus} and {hi.genus}")
        if n2 != n4:
            problems.append(f"surface extremes force equal point counts, got N2={n2}, N4={n4}")

    if lo.is_point and hi.is_point:
        middle_surface_levels = [c.level for c in middles() if c.is_surface]
        if len(middle_surface_levels) != len(set(middle_surface_levels)):
            problems.append("two middle surfaces over point extremes cannot share a level")

    if data.twist:
        if any(c.is_point for c in comps):
            problems.append("a twist requires every fixed component to be a surface")
        else:
            if lo.genus != 0 or hi.genus != 0:
                problems.append("a twist requires genus-0 extremes")
            if lo.b is not None and lo.b % 2 != 0:
                problems.append("a twist requires an even b at the minimum")
            if hi.b is not None and hi.b % 2 != 0:
                problems.append("a twist requires an even b at the maximum")

    has_blow_points = any(c.is_point and c.index in (2, 4) for c in comps)
    if lo.is_surface and hi.is_surface and not has_blow_points:
        if lo.b is not None and hi.b is not None and (lo.b - hi.b) % 2 != 0:
            problems.append(f"surface extremes need matching parity of b, got {lo.b} and {hi.b}")
        if not middles():
            if not data.twist:
                problems.append("two bare surface extremes cannot be joined without a twist")
            elif lo.b != 2 or hi.b != 2:
                problems.append("a bare twisted join needs b=2 at both extremes")

    rank = 1 if lo.is_point else 2
    legal = True
    for level in sorted({c.level for c in comps}):
        events = [
            c for c in comps if c.level == level and not (c.is_minimum or c.is_maximum)
        ]
        deltas = [1 if (c.is_point and c.index == 2) else -1 for c in events if c.is_point]
        if not deltas:
            continue
        if not _rank_walk_possible(rank, deltas):
            legal = False
            problems.append(
                f"no ordering of the level {format_rational(level)} events keeps "
                "the reduced space rank legal"
            )
            break
        rank = rank + sum(deltas)
    if legal:
        expected = 1 if hi.is_point else 2
        if rank != expected:
            problems.append(f"reduced space rank below the maximum is {rank}, expected {expected}")

    return ValidationReport(not problems, tuple(problems))


def reference_from_json_dict(payload) -> FixedPointData:
    if not isinstance(payload, Mapping):
        raise SchemaError("fixed point data must be a JSON object")
    schema = payload.get("schema")
    if schema != FPDATA_SCHEMA:
        raise SchemaError(f"unsupported schema: {schema!r}")
    extra = set(payload) - {"schema", "twist", "components"}
    if extra:
        raise SchemaError(f"unknown fields: {sorted(extra)}")
    twist = payload.get("twist", False)
    if not isinstance(twist, bool):
        raise SchemaError("twist must be a boolean")
    raw = payload.get("components")
    if not isinstance(raw, list) or not raw:
        raise SchemaError("components must be a non-empty list")
    comps = []
    allowed = {"kind", "index", "level", "genus", "b", "b_plus", "b_minus"}
    for entry in raw:
        if not isinstance(entry, Mapping):
            raise SchemaError("component entries must be objects")
        extra = set(entry) - allowed
        if extra:
            raise SchemaError(f"unknown component fields: {sorted(extra)}")
        try:
            level = parse_rational(entry["level"])
        except KeyError:
            raise SchemaError("component missing level") from None
        except ValueError as exc:
            raise SchemaError(str(exc)) from None
        kind = entry.get("kind")
        index = entry.get("index")
        if kind not in (POINT, SURFACE):
            raise SchemaError(f"unknown component kind: {kind!r}")
        if not _is_int(index):
            raise SchemaError("component index must be an integer")

        def _opt_int(name):
            value = entry.get(name)
            if value is None:
                return None
            if not _is_int(value):
                raise SchemaError(f"{name} must be an integer")
            return value

        try:
            comps.append(
                FixedComponent(
                    level=level,
                    index=index,
                    kind=kind,
                    genus=_opt_int("genus"),
                    b=_opt_int("b"),
                    b_plus=_opt_int("b_plus"),
                    b_minus=_opt_int("b_minus"),
                )
            )
        except ValueError as exc:
            raise SchemaError(str(exc)) from None
    return FixedPointData(tuple(comps), twist=twist)


# ---------------------------------------------------------------------------
# corpora


def random_datum(rng: random.Random) -> FixedPointData:
    """Fixed point data that break the rules of ``validate`` as often as not.

    Extremes may be duplicated or missing and lack ``b``; middles may
    lack b+- and sit outside the extremes or share a level; the twist,
    genera and parities are drawn freely, and index-4 points may come
    before any index-2 point (a rank-illegal level).
    """
    levels = [0, 1, 2, 3, "1/2", "5/2"]
    comps = []
    for _ in range(rng.choice([0, 1, 1, 1, 1, 2])):
        if rng.random() < 0.5:
            comps.append(point(0, rng.choice([0, 0, 0, 1])))
        else:
            b = rng.choice([None, -2, -1, 0, 1, 2, 3])
            comps.append(surface(0, rng.choice([0, 0, 0, 1]), genus=rng.choice([0, 0, 1, 2]), b=b))
    for _ in range(rng.choice([0, 1, 1, 1, 1, 2])):
        if rng.random() < 0.5:
            comps.append(point(6, rng.choice([3, 3, 3, 2, 0])))
        else:
            b = rng.choice([None, -2, -1, 0, 1, 2, 3])
            comps.append(surface(4, rng.choice([3, 3, 3, 2, 0]), genus=rng.choice([0, 0, 1, 2]), b=b))
    for _ in range(rng.randrange(6)):
        level = rng.choice(levels)
        roll = rng.random()
        if roll < 0.35:
            comps.append(point(2, level))
        elif roll < 0.7:
            comps.append(point(4, level))
        else:
            b_plus = rng.choice([None, -1, 0, 1, 2])
            b_minus = rng.choice([None, -1, 0, 1, 2])
            comps.append(
                surface(2, level, genus=rng.choice([0, 0, 0, 1]), b_plus=b_plus, b_minus=b_minus)
            )
    rng.shuffle(comps)
    return FixedPointData(tuple(comps), twist=rng.random() < 0.3)


@lru_cache(maxsize=None)
def corpus_data() -> tuple[FixedPointData, ...]:
    """Both fuzz pools, every preset and builtin, and 4,000 random data."""
    rng = random.Random(14)
    named = fuzz_data(1) + fuzz_data(2) + family_presets() + builtin_data()
    return tuple(data for _, data in named) + tuple(random_datum(rng) for _ in range(4000))


def test_random_data_cover_every_rule():
    messages = {v for data in corpus_data() for v in reference_validate(data).violations}
    for needle in (
        "need exactly one minimum, found 0",
        "need exactly one minimum, found 2",
        "need exactly one maximum, found 2",
        "missing normal Chern number b",
        "missing (b_plus, b_minus)",
        "minimum level must lie strictly below maximum level",
        "point extremes force equal point counts",
        "two middle surfaces over point extremes cannot share a level",
        "a twist requires every fixed component to be a surface",
        "a twist requires an even b at the minimum",
        "surface extremes need matching parity of b",
        "two bare surface extremes cannot be joined without a twist",
    ):
        assert any(m.startswith(needle) for m in messages), needle
    assert any(m.startswith("no ordering of the level") for m in messages)
    assert any(m.endswith("must lie strictly between the extremes") for m in messages)


def test_validate_matches_the_reference():
    valid = 0
    for data in corpus_data():
        report = validate(data)
        assert report == reference_validate(data), data
        valid += report.ok
    assert valid > 1600


# ---------------------------------------------------------------------------
# parsing


def _outcome(parse, payload):
    try:
        return "parsed", parse(payload)
    except SchemaError as exc:
        return "SchemaError", str(exc)


BAD_VALUES = [True, False, 1.5, 2.0, "1", "x", None, [1], {"a": 1}]


class Int(int):
    """An int subclass, which every integer field accepts; it prints
    unlike an int, so a message that formats it shows where it came from."""

    def __str__(self) -> str:
        return f"Int({int(self)})"


class Document(dict):
    """A dict subclass: a ``Mapping`` whose type is not ``dict``."""


INTEGER_FIELDS = ("level", "index", "genus", "b", "b_plus", "b_minus")


def _integer_field_payloads(base: list[dict]) -> list:
    """Each integer field of each component of some presets set to an
    ``Int`` (its own value, or 1 for a field the entry lacks, or -1) or
    to a bool, so that the exact-type tests meet every other int."""
    out = []
    for payload in base[::7]:
        for at in range(len(payload["components"])):
            for name in INTEGER_FIELDS:
                entry = payload["components"][at]
                current = entry.get(name)
                whole = 1 if current is None or name == "level" else current
                for value in (Int(whole), Int(-1), True, False):
                    entries = list(payload["components"])
                    entries[at] = {**entry, name: value}
                    out.append({**payload, "components": entries})
    return out


def _mutations(entry: dict, rng: random.Random) -> dict:
    """``entry`` with one random defect, or unchanged."""
    entry = dict(entry)
    roll = rng.randrange(10)
    if roll == 0:
        entry[rng.choice(["extra", "Level", "weight"])] = 1
    elif roll == 1:
        entry.pop("level", None)
    elif roll == 2:
        entry["level"] = rng.choice(BAD_VALUES + ["1/0", "1/2", "-3"])
    elif roll == 3:
        entry["kind"] = rng.choice(["line", None, 3, "Point"])
    elif roll == 4:
        entry.pop(rng.choice(["kind", "index"]), None)
    elif roll == 5:
        entry["index"] = rng.choice(BAD_VALUES + [1, 3, 6, 8])
    elif roll == 6:
        entry[rng.choice(["genus", "b", "b_plus", "b_minus"])] = rng.choice(BAD_VALUES + [-1, 2])
    elif roll == 7:
        # A point carrying a genus, a surface b beside b+-, or b+- on an extremal surface.
        entry[rng.choice(["genus", "b", "b_plus"])] = rng.choice([0, 1])
    elif roll == 8:
        entry.pop("genus", None)
    return entry


@lru_cache(maxsize=None)
def malformed_payloads() -> tuple:
    rng = random.Random(1414)
    base = [json.loads(data.dumps()) for _, data in family_presets()]
    out: list = [
        [],
        "fpdata.v1",
        3,
        None,
        {"schema": "fpdata.v2", "components": base[0]["components"]},
        {"components": base[0]["components"]},
        {**base[0], "extra": 1},
        {**base[0], "twist": 1},
        {**base[0], "twist": None},
        {**base[0], "components": []},
        {**base[0], "components": {}},
        {**base[0], "components": None},
        {**base[0], "components": [1, base[0]["components"][0]]},
        {**base[0], "components": ["point"]},
        {**base[0], "components": [[("kind", "point")]]},
        {**base[0], "components": [None]},
        types.MappingProxyType(base[1]),
        {
            **base[1],
            "components": [types.MappingProxyType(e) for e in base[1]["components"]],
        },
        collections.UserDict(base[2]),
        Document(base[3], components=[Document(e) for e in base[3]["components"]]),
        {**base[4], "components": [collections.UserDict(e) for e in base[4]["components"]]},
    ]
    out += _integer_field_payloads(base)
    for _ in range(3000):
        payload = dict(rng.choice(base))
        entries = list(payload["components"])
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            at = rng.randrange(len(entries))
            entries[at] = _mutations(entries[at], rng)
        payload["components"] = entries
        if rng.random() < 0.1:
            payload[rng.choice(["extra", "twist", "schema"])] = rng.choice(BAD_VALUES)
        out.append(payload)
    return tuple(out)


def test_malformed_payloads_cover_every_message():
    outcomes = [_outcome(reference_from_json_dict, p) for p in malformed_payloads()]
    messages = {message.split(":")[0] for kind, message in outcomes if kind == "SchemaError"}
    for needle in (
        "fixed point data must be a JSON object",
        "unsupported schema",
        "unknown fields",
        "twist must be a boolean",
        "components must be a non-empty list",
        "component entries must be objects",
        "unknown component fields",
        "component missing level",
        "malformed rational '1/0'",
        "expected a rational, got a boolean",
        "unknown component kind",
        "component index must be an integer",
        "genus must be an integer",
        "b_minus must be an integer",
        "isolated point carries no genus",
        "index-2 surface carries (b_plus, b_minus), not b",
        "extremal surface carries a single b",
        "surface needs a genus >= 0",
        "point index must be 0, 2, 4 or 6",
    ):
        assert needle in messages, needle
    assert sum(kind == "parsed" for kind, _ in outcomes) > 100
    # an int subclass is read in every integer field, and a bool in none
    parsed = [vars(c) for kind, data in outcomes if kind == "parsed" for c in data.components]
    for name in INTEGER_FIELDS:
        assert any(type(fields[name]) is Int for fields in parsed), name
        assert not any(type(fields[name]) is bool for fields in parsed), name
    errors = {message for kind, message in outcomes if kind == "SchemaError"}
    assert "surface needs a genus >= 0: Int(-1)" in errors
    assert "point index must be 0, 2, 4 or 6: Int(-1)" in errors


def test_from_json_dict_matches_the_reference():
    for payload in malformed_payloads():
        expected = _outcome(reference_from_json_dict, payload)
        assert _outcome(FixedPointData.from_json_dict, payload) == expected, payload


def _valid_documents() -> list:
    """Both fuzz pools as generated, and every preset as written."""
    workloads = perfbench_module("workloads")
    raws = workloads.fuzz_pool(1) + workloads.fuzz_pool(2)
    return [json.loads(raw) for raw in raws] + [
        json.loads(data.dumps()) for _, data in family_presets()
    ]


def test_reader_builds_the_constructors_components():
    # The reader skips FixedComponent's checks; what it builds must be
    # what the constructor builds, field by field and type by type.
    documents = _valid_documents()
    assert len(documents) == 800 + 800 + 71
    for payload in documents:
        read = FixedPointData.from_json_dict(payload).components
        built = reference_from_json_dict(payload).components
        assert len(read) == len(built)
        for got, want in zip(read, built):
            assert type(got) is FixedComponent
            assert got == want and want == got
            assert hash(got) == hash(want)
            assert vars(got) == vars(want)
            assert [(k, type(v)) for k, v in vars(got).items()] == [
                (k, type(v)) for k, v in vars(want).items()
            ]


def test_mapping_proxy_entries_are_accepted():
    data = family_presets()[0][1]
    payload = json.loads(data.dumps())
    payload["components"] = [types.MappingProxyType(e) for e in payload["components"]]
    assert FixedPointData.from_json_dict(types.MappingProxyType(payload)) == data


# ---------------------------------------------------------------------------
# the per-datum memo


def _fresh(data: FixedPointData) -> FixedPointData:
    copy = FixedPointData(data.components, twist=data.twist)
    assert copy == data and copy is not data
    assert set(vars(copy)) == {"components", "twist"}
    return copy


def _facts(data: FixedPointData) -> tuple:
    """The memoized facts of ``data`` and its extremes, or the error each raises."""
    out = []
    for ask in (
        validate,
        classify_type,
        lambda d: d.minimum,
        lambda d: d.maximum,
    ):
        try:
            out.append(("value", ask(data)))
        except InvalidDataError as exc:
            out.append(("error", str(exc)))
    return tuple(out)


@lru_cache(maxsize=None)
def _memo_corpus() -> tuple[FixedPointData, ...]:
    named = fuzz_data(1) + fuzz_data(2) + family_presets() + builtin_data()
    return tuple(data for _, data in named) + corpus_data()[-500:]


def test_memoized_facts_equal_a_fresh_computation():
    for data in _memo_corpus():
        fresh = _fresh(data)
        first = _facts(data)
        assert _facts(data) == first  # read back from the memo
        assert _facts(fresh) == first


def test_memo_leaves_equality_and_hash_alone():
    for data in _memo_corpus():
        fresh = _fresh(data)
        _facts(data)
        assert data == fresh and fresh == data
        assert hash(data) == hash(fresh)
        assert len({data, fresh}) == 1


def test_failed_lookups_raise_on_every_access():
    data = FixedPointData((point(0, 0), point(0, 1), surface(2, 2, b_plus=1, b_minus=1), point(6, 3)))
    for _ in range(3):
        with pytest.raises(InvalidDataError, match="expected one minimum, found 2"):
            data.minimum
        with pytest.raises(InvalidDataError, match="need exactly one minimum, found 2"):
            classify_type(data)
        assert not validate(data).ok
    assert data.maximum == point(6, 3)
    assert "_type" not in vars(data)
