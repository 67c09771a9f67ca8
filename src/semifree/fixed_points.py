"""Fixed-point data for semi-free Hamiltonian circle actions on
compact six-manifolds.

A ``FixedPointData`` records the connected fixed components (isolated
points and surfaces), their Morse indices for the moment map, their
levels, and the normal-bundle Chern numbers. ``validate`` applies the
structural rules that any such action must satisfy, ``betti_profile``
computes the Morse-theoretic Betti numbers, and ``classify_type``
pattern-matches the data against the known shapes with small second
Betti number.

Every command starts here, so each per-datum cost is paid once. The
parser checks each field of an entry once and builds the component
without re-running its constructor's checks (the rules of a component's
shape live once, in ``_check_shape``), ``validate`` groups the
components in one pass, and a datum keeps its extremes, its ``validate``
report and its type tag once computed (``_memo``).

JSON is read by ``_load_json`` and written by ``_dump_json`` alone,
which gives the text of ``json.dumps(value, indent=2, sort_keys=True)``
without the standard library's slow pure-Python indenting encoder.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .rationals import Rational, format_rational, parse_rational

POINT = "point"
SURFACE = "surface"

FPDATA_SCHEMA = "fpdata.v1"

UNCLASSIFIED = "unclassified"

# The fields a serialized datum and each of its components may carry.
_TOP_FIELDS = frozenset({"schema", "twist", "components"})
_OPTIONAL_FIELDS = ("genus", "b", "b_plus", "b_minus")
_COMPONENT_FIELDS = frozenset({"kind", "index", "level", *_OPTIONAL_FIELDS})


class SchemaError(ValueError):
    """Raised when serialized data does not match a supported schema."""


class InvalidDataError(ValueError):
    """Raised when an operation requires data that passes validation."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class FixedComponent:
    """One connected component of the fixed-point set."""

    level: Rational
    index: int
    kind: str
    genus: int | None = None
    b: int | None = None
    b_plus: int | None = None
    b_minus: int | None = None

    def __post_init__(self) -> None:
        level, index = self.level, self.index
        optional = (self.genus, self.b, self.b_plus, self.b_minus)
        if not (type(level) is int or type(level) is Fraction and level.denominator > 1):
            object.__setattr__(self, "level", parse_rational(level))
        if not _is_int(index):
            raise ValueError(f"index must be an integer: {index!r}")
        for name, value in zip(_OPTIONAL_FIELDS, optional):
            if value is not None and not _is_int(value):
                raise ValueError(f"{name} must be an integer: {value!r}")
        _check_shape(index, self.kind, *optional)

    @property
    def is_point(self) -> bool:
        return self.kind == POINT

    @property
    def is_surface(self) -> bool:
        return self.kind == SURFACE

    @property
    def is_minimum(self) -> bool:
        return self.index == 0

    @property
    def is_maximum(self) -> bool:
        return (self.kind == POINT and self.index == 6) or (
            self.kind == SURFACE and self.index == 4
        )

    def describe(self) -> str:
        if self.is_point:
            return f"point(index {self.index}, level {format_rational(self.level)})"
        extra = ""
        if self.index == 2:
            extra = f", b+={self.b_plus}, b-={self.b_minus}"
        else:
            extra = f", b={self.b}"
        return (
            f"surface(genus {self.genus}, index {self.index}, "
            f"level {format_rational(self.level)}{extra})"
        )


def _check_shape(index: int, kind: str, genus, b, b_plus, b_minus) -> None:
    """Raise ``ValueError`` unless the kind, index and optional fields of
    a component fit together; the fields are already integers or None."""
    if kind == POINT:
        if index not in (0, 2, 4, 6):
            raise ValueError(f"point index must be 0, 2, 4 or 6: {index}")
        for name, value in zip(_OPTIONAL_FIELDS, (genus, b, b_plus, b_minus)):
            if value is not None:
                raise ValueError(f"isolated point carries no {name}")
    elif kind == SURFACE:
        if index not in (0, 2, 4):
            raise ValueError(f"surface index must be 0, 2 or 4: {index}")
        if not isinstance(genus, int) or genus < 0:
            raise ValueError(f"surface needs a genus >= 0: {genus}")
        if index == 2:
            if b is not None:
                raise ValueError("index-2 surface carries (b_plus, b_minus), not b")
        elif b_plus is not None or b_minus is not None:
            raise ValueError("extremal surface carries a single b")
    else:
        raise ValueError(f"unknown component kind: {kind}")


def point(index: int, level: Rational | str) -> FixedComponent:
    return FixedComponent(level=level, index=index, kind=POINT)


def surface(
    index: int,
    level: Rational | str,
    genus: int = 0,
    b: int | None = None,
    b_plus: int | None = None,
    b_minus: int | None = None,
) -> FixedComponent:
    return FixedComponent(
        level=level,
        index=index,
        kind=SURFACE,
        genus=genus,
        b=b,
        b_plus=b_plus,
        b_minus=b_minus,
    )


def _sort_key(c: FixedComponent) -> tuple:
    return (
        c.level,
        c.index,
        c.kind,
        c.genus,  # None exactly for points, which the kind sets apart
        (c.b is None, c.b or 0),
        (c.b_plus is None, c.b_plus or 0),
        (c.b_minus is None, c.b_minus or 0),
    )


@dataclass(frozen=True)
class FixedPointData:
    """All fixed components of one action, ordered by level.

    The data are immutable, so a costly fact derived from them alone,
    and read again, is computed once per datum (``_memo``): the
    extremes, the ``validate`` report, the ``classify_type`` tag and the
    solved wall-crossing chain.
    """

    components: tuple[FixedComponent, ...]
    twist: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(sorted(self.components, key=_sort_key)))

    # -- access helpers ------------------------------------------------------

    @property
    def minimum(self) -> FixedComponent:
        return _memo(self, "_minimum", _extreme, "is_minimum")

    @property
    def maximum(self) -> FixedComponent:
        return _memo(self, "_maximum", _extreme, "is_maximum")

    def middles(self) -> tuple[FixedComponent, ...]:
        return tuple(
            c for c in self.components if not (c.is_minimum or c.is_maximum)
        )

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        comps = []
        for c in self.components:
            entry: dict = {
                "kind": c.kind,
                "index": c.index,
                "level": format_rational(c.level),
            }
            if c.is_surface:
                entry["genus"] = c.genus
                if c.index == 2:
                    if c.b_plus is not None:
                        entry["b_plus"] = c.b_plus
                    if c.b_minus is not None:
                        entry["b_minus"] = c.b_minus
                elif c.b is not None:
                    entry["b"] = c.b
            comps.append(entry)
        return {"schema": FPDATA_SCHEMA, "twist": self.twist, "components": comps}

    @staticmethod
    def from_json_dict(payload: Mapping) -> "FixedPointData":
        """The datum of a parsed ``fpdata.v1`` document.

        Each field is checked once, by an exact-type test before the
        ``Mapping`` and bool-aware ones, and each component is built
        without re-running ``FixedComponent``'s checks.
        """
        if type(payload) is not dict and not isinstance(payload, Mapping):
            raise SchemaError("fixed point data must be a JSON object")
        schema = payload.get("schema")
        if schema != FPDATA_SCHEMA:
            raise SchemaError(f"unsupported schema: {schema!r}")
        if not _TOP_FIELDS.issuperset(payload):
            raise SchemaError(f"unknown fields: {sorted(set(payload) - _TOP_FIELDS)}")
        twist = payload.get("twist", False)
        if not isinstance(twist, bool):
            raise SchemaError("twist must be a boolean")
        raw = payload.get("components")
        if not isinstance(raw, list) or not raw:
            raise SchemaError("components must be a non-empty list")
        comps = []
        for entry in raw:
            if type(entry) is not dict and not isinstance(entry, Mapping):
                raise SchemaError("component entries must be objects")
            if not _COMPONENT_FIELDS.issuperset(entry):
                extra = sorted(set(entry) - _COMPONENT_FIELDS)
                raise SchemaError(f"unknown component fields: {extra}")
            try:
                level = parse_rational(entry["level"])
            except KeyError:
                raise SchemaError("component missing level") from None
            except ValueError as exc:
                raise SchemaError(str(exc)) from None
            get = entry.get
            kind = get("kind")
            index = get("index")
            if kind not in (POINT, SURFACE):
                raise SchemaError(f"unknown component kind: {kind!r}")
            if type(index) is not int and not _is_int(index):
                raise SchemaError("component index must be an integer")
            optional = (get("genus"), get("b"), get("b_plus"), get("b_minus"))
            for name, value in zip(_OPTIONAL_FIELDS, optional):
                if value is not None and type(value) is not int and not _is_int(value):
                    raise SchemaError(f"{name} must be an integer")
            try:
                _check_shape(index, kind, *optional)
            except ValueError as exc:
                raise SchemaError(str(exc)) from None
            genus, b, b_plus, b_minus = optional
            component = object.__new__(FixedComponent)
            component.__dict__.update(
                level=level, index=index, kind=kind, genus=genus, b=b, b_plus=b_plus, b_minus=b_minus
            )
            comps.append(component)
        return FixedPointData(tuple(comps), twist=twist)

    def dumps(self) -> str:
        return _dump_json(self.to_json_dict()) + "\n"

    @staticmethod
    def loads(text: str) -> "FixedPointData":
        return FixedPointData.from_json_dict(_load_json(text, SchemaError))


def _load_json(text: str, error: type[SchemaError]):
    """The JSON value of ``text``; unparsable text raises ``error``.

    A ``RecursionError`` is nesting deeper than the parser's stack, a
    plain ``ValueError`` an integer literal longer than the
    interpreter's int-string limit.
    """
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"invalid JSON: {exc}") from None


def _dump_json(value, newline: str = "\n") -> str:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)``.

    Only what reports hold is written: str-keyed dicts, lists, tuples,
    str, int, bool and None, strings and keys by the standard library's
    C quoting. Anything else (a float, a non-str key, a record, which is
    a tuple subclass) raises ``TypeError``. ``newline`` starts each
    inner line of the value.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        brackets = "{}"
        items = [
            f"{encode_basestring_ascii(key)}: {_dump_json(value[key], inner)}"
            for key in sorted(value)
        ]
    elif type(value) is list or type(value) is tuple:
        brackets = "[]"
        items = [_dump_json(item, inner) for item in value]
    else:
        raise TypeError(f"cannot write {type(value).__name__} as JSON")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


# ---------------------------------------------------------------------------
# validation


def _memo(data: FixedPointData, name: str, compute, *args):
    """``compute(data, *args)``, kept on the datum after its first success.

    The value sits in the instance ``__dict__`` beside the fields, which
    equality and hashing do not read. A computation that raises keeps
    nothing, so it raises again on the next call.
    """
    value = data.__dict__.get(name)
    if value is None:
        value = data.__dict__[name] = compute(data, *args)
    return value


def _extreme(data: FixedPointData, test: str) -> FixedComponent:
    """The one component of ``data`` whose ``test``, "is_minimum" or "is_maximum", holds."""
    found = [c for c in data.components if getattr(c, test)]
    if len(found) != 1:
        raise InvalidDataError(f"expected one {test.removeprefix('is_')}, found {len(found)}")
    return found[0]


class ValidationReport(NamedTuple):
    ok: bool
    violations: tuple[str, ...] = ()


def validate(data: FixedPointData) -> ValidationReport:
    """Check the structural rules for semi-free fixed-point data.

    Covers field completeness, uniqueness and placement of the
    extremes, the pairing rules between isolated points and extremal
    surfaces, level sharing restrictions, twist prerequisites, parity
    of extremal Chern numbers, and the rank bookkeeping of the reduced
    spaces as the level sweeps from bottom to top. The report is
    computed once per datum.
    """
    return _memo(data, "_report", _check_rules)


def _check_rules(data: FixedPointData) -> ValidationReport:
    """``validate``'s report, from one grouping pass over the components."""
    problems: list[str] = []
    mins: list[FixedComponent] = []
    maxes: list[FixedComponent] = []
    middles: list[FixedComponent] = []
    n2 = n4 = 0
    surface_levels: list[Rational] = []  # of the middle surfaces
    steps: dict[Rational, list[int]] = {}  # +1 / -1 per middle point, by level
    for c in data.components:
        index = c.index
        if c.kind == SURFACE:
            # Field completeness.
            if index == 2:
                if c.b_plus is None or c.b_minus is None:
                    problems.append(f"missing (b_plus, b_minus) on {c.describe()}")
                middles.append(c)
                surface_levels.append(c.level)
                continue
            if c.b is None:
                problems.append(f"missing normal Chern number b on {c.describe()}")
            (mins if index == 0 else maxes).append(c)
        elif index == 0:
            mins.append(c)
        elif index == 6:
            maxes.append(c)
        else:
            middles.append(c)
            if index == 2:
                n2 += 1
                steps.setdefault(c.level, []).append(1)
            else:
                n4 += 1
                steps.setdefault(c.level, []).append(-1)

    # Unique extremes at extreme levels.
    if len(mins) != 1:
        problems.append(f"need exactly one minimum, found {len(mins)}")
    if len(maxes) != 1:
        problems.append(f"need exactly one maximum, found {len(maxes)}")
    if len(mins) == 1 and len(maxes) == 1:
        lo, hi = mins[0], maxes[0]
        if lo.level >= hi.level:
            problems.append("minimum level must lie strictly below maximum level")
        for c in middles:
            if not (lo.level < c.level < hi.level):
                problems.append(
                    f"{c.describe()} must lie strictly between the extremes"
                )

    if problems:
        return ValidationReport(False, tuple(problems))

    lo, hi = mins[0], maxes[0]

    # Pairing rules between isolated points and extremal surfaces.
    if lo.is_point and hi.is_point:
        if n2 != n4:
            problems.append(
                f"point extremes force equal point counts, got N2={n2}, N4={n4}"
            )
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
            problems.append(
                f"surface extremes must share a genus, got {lo.genus} and {hi.genus}"
            )
        if n2 != n4:
            problems.append(
                f"surface extremes force equal point counts, got N2={n2}, N4={n4}"
            )

    # Two middle spheres over point extremes never share a level.
    if lo.is_point and hi.is_point:
        if len(surface_levels) != len(set(surface_levels)):
            problems.append(
                "two middle surfaces over point extremes cannot share a level"
            )

    # Twist prerequisites.
    has_blow_points = bool(n2 or n4)
    if data.twist:
        if lo.is_point or hi.is_point or has_blow_points:
            problems.append("a twist requires every fixed component to be a surface")
        else:
            if lo.genus != 0 or hi.genus != 0:
                problems.append("a twist requires genus-0 extremes")
            if lo.b is not None and lo.b % 2 != 0:
                problems.append("a twist requires an even b at the minimum")
            if hi.b is not None and hi.b % 2 != 0:
                problems.append("a twist requires an even b at the maximum")

    # Parity coherence when no blow-up or blow-down can occur.
    if lo.is_surface and hi.is_surface and not has_blow_points:
        if lo.b is not None and hi.b is not None and (lo.b - hi.b) % 2 != 0:
            problems.append(
                f"surface extremes need matching parity of b, got {lo.b} and {hi.b}"
            )
        if not middles:
            if not data.twist:
                problems.append(
                    "two bare surface extremes cannot be joined without a twist"
                )
            elif lo.b != 2 or hi.b != 2:
                problems.append(
                    "a bare twisted join needs b=2 at both extremes"
                )

    # Rank bookkeeping of the reduced space from bottom to top.
    rank = 1 if lo.is_point else 2
    legal = True
    for level in sorted(steps):
        deltas = steps[level]
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
            problems.append(
                f"reduced space rank below the maximum is {rank}, expected {expected}"
            )

    return ValidationReport(not problems, tuple(problems))


def _rank_walk_possible(start: int, deltas: list[int]) -> bool:
    """Can the +1/-1 events be ordered so the rank never drops below 1?

    A -1 step is a blow-down and needs rank >= 2 before it happens.
    Doing every blow-up first is always the best order, so the events
    can be ordered exactly when the rank after all of them is at least 1.
    """
    return start + sum(deltas) >= 1


# ---------------------------------------------------------------------------
# Betti numbers and classification


def betti_profile(data: FixedPointData) -> tuple[int, int, int, int, int, int, int]:
    """Morse-theoretic Betti numbers b_0..b_6 from the fixed components.

    A point of index i contributes t^i; a genus-g surface of index i
    contributes t^i (1 + 2g t + t^2).
    """
    betti = [0] * 7
    for c in data.components:
        if c.is_point:
            betti[c.index] += 1
        else:
            betti[c.index] += 1
            betti[c.index + 1] += 2 * (c.genus or 0)
            betti[c.index + 2] += 1
    return tuple(betti)


def classify_type(data: FixedPointData) -> str:
    """Match validated data against the small-second-Betti shapes.

    Returns one of "1", "2", "3", "4", "5", "6a", "6b" or
    "unclassified". Classification checks the component kinds, indices,
    genus and parity constraints only; deeper consistency is the
    business of the wall-crossing checks. The tag is computed once per
    datum; data that fail ``validate`` raise ``InvalidDataError`` on
    every call.
    """
    return _memo(data, "_type", _match_type)


def _match_type(data: FixedPointData) -> str:
    report = validate(data)
    if not report.ok:
        raise InvalidDataError("; ".join(report.violations))
    if betti_profile(data)[2] >= 3:
        return UNCLASSIFIED

    lo, hi = data.minimum, data.maximum
    middles = data.middles()
    mid_surfaces = [c for c in middles if c.is_surface]
    mid_points = [c for c in middles if c.is_point]

    if lo.is_point and hi.is_point:
        if mid_points or data.twist:
            return UNCLASSIFIED
        if len(mid_surfaces) == 1 and mid_surfaces[0].genus == 0:
            return "1"
        if len(mid_surfaces) == 2 and all(c.genus == 0 for c in mid_surfaces):
            return "2"
        return UNCLASSIFIED

    if lo.is_surface and hi.is_point:
        if data.twist or lo.genus != 0 or lo.b % 2 == 0:
            return UNCLASSIFIED
        if (
            len(mid_surfaces) == 1
            and mid_surfaces[0].genus == 0
            and len(mid_points) == 1
            and mid_points[0].index == 4
        ):
            return "3"
        return UNCLASSIFIED

    if lo.is_point and hi.is_surface:
        return UNCLASSIFIED

    # validate's field completeness gives every surface extreme its b, and
    # its N2 = N4 with b2 < 3 leaves three cases: no middles, one {2, 4}
    # point pair, or one middle surface.
    if not middles:
        return "4" if data.twist else UNCLASSIFIED
    if mid_surfaces:
        return "6b" if data.twist else "6a"
    if lo.genus == 0 and hi.genus == 0 and lo.b % 2 == 1 and hi.b % 2 == 1:
        return "5"
    return UNCLASSIFIED
