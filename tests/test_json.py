"""The package's one JSON writer and its one reader.

``fixed_points._dump_json`` must write exactly the text of
``json.dumps(value, indent=2, sort_keys=True)``: every structured
report, ``FixedPointData.dumps`` and ``enumerate``'s member sort key
go through it, and the recorded report digests hold those bytes. It is
checked against ``json.dumps`` on every payload the commands build
over the test corpus and both fuzz pools, and on generated nested
values. ``_load_json`` must turn every unreadable text into the
loader's schema error.
"""

import ast
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semifree
from semifree import cli
from semifree.cli import RunConfig, run
from semifree.delzant import (
    PolytopeSchemaError,
    builtin_examples,
    loads as polytope_loads,
    polytope_to_json_dict,
)
from semifree.fixed_points import FixedPointData, SchemaError, ValidationReport, _dump_json

from corpus import builtin_data, enumerated_members, family_presets, fuzz_data

DATA_COMMANDS = ("validate", "localize", "restrict-table", "classify", "dh-check")
POLYTOPE_COMMANDS = ("polytope-check", "polytope-extract")


def _reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


@pytest.fixture
def written(monkeypatch):
    """Every value ``cli`` hands to the writer while the test runs."""
    values = []

    def record(value):
        values.append(value)
        return _dump_json(value)

    monkeypatch.setattr(cli, "_dump_json", record)
    return values


def _run_structured(command: str, raw: bytes = b"", **fields) -> None:
    config = RunConfig(command=command, output_format="structured", **fields)
    try:
        run(config, raw)
    except Exception:
        # The few fuzz data the chain solver stalls on raise past
        # ``run`` (ROADMAP item C); they write no report.
        pass


def _assert_written_as_json_dumps(values: list) -> None:
    assert values
    for value in values:
        assert _dump_json(value) == _reference(value)


# ---------------------------------------------------------------------------
# the writer against json.dumps on the commands' own payloads


def test_data_command_reports_over_the_corpus(written):
    corpus = family_presets() + builtin_data() + list(enumerated_members())
    for _, data in corpus:
        raw = data.dumps().encode()
        for command in DATA_COMMANDS:
            _run_structured(command, raw)
    assert len(written) == len(corpus) * len(DATA_COMMANDS)
    _assert_written_as_json_dumps(written)


def test_enumerate_report(written):
    _run_structured("enumerate", max_genus=1, b_range=(-2, 2))
    assert len(written) == 1
    _assert_written_as_json_dumps(written)


def test_polytope_command_reports_over_the_builtins(written):
    for name, polytope in sorted(builtin_examples().items()):
        raw = _reference(polytope_to_json_dict(polytope)).encode()
        for command in POLYTOPE_COMMANDS:
            _run_structured(command, raw)
        _run_structured("polytope-builtin", builtin_name=name)
    assert len(written) == 3 * len(builtin_examples())
    _assert_written_as_json_dumps(written)


@pytest.mark.parametrize("seed", [1, 2])
def test_every_report_over_a_fuzz_pool(written, seed):
    for _, data in fuzz_data(seed):
        raw = data.dumps().encode()
        for command in DATA_COMMANDS:
            _run_structured(command, raw)
    _assert_written_as_json_dumps(written)


def test_error_reports(written):
    for command in ("validate", "polytope-check"):
        _run_structured(command, b"{nope")
    _run_structured("polytope-builtin", builtin_name="nope")
    assert len(written) == 3
    assert all("error" in value for value in written)
    _assert_written_as_json_dumps(written)


def test_fixed_point_data_dumps_over_the_corpus():
    corpus = family_presets() + builtin_data() + list(enumerated_members())
    for name, data in corpus + fuzz_data(1):
        assert data.dumps() == _reference(data.to_json_dict()) + "\n", name


# ---------------------------------------------------------------------------
# the writer against json.dumps on generated values

_TEXT = st.text(
    alphabet=st.one_of(
        st.characters(codec=None, exclude_categories=()),
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f 𐏿\U0001f600é'),
    )
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    _TEXT,
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(_VALUES)
def test_writer_matches_json_dumps_on_nested_values(value):
    assert _dump_json(value) == _reference(value)


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        [[]],
        {"a": {}},
        {"a": [(), {}, [[]]]},
        {"b": 1, "a": [True, False, None], "c": {"é": "\ud800"}},
        -(10**40),
        "",
    ],
)
def test_writer_matches_json_dumps_on_edge_values(value):
    assert _dump_json(value) == _reference(value)


@pytest.mark.parametrize(
    "value",
    [
        0.5,
        [1.0],
        {"a": float("nan")},
        {1: "a"},
        {None: "a"},
        {"a": {("k",): 1}},
        {1, 2},
        {"a": frozenset()},
        b"bytes",
    ],
)
def test_writer_rejects_values_reports_never_hold(value):
    with pytest.raises(TypeError):
        _dump_json(value)


def test_writer_rejects_a_record():
    # A NamedTuple record is a tuple, but a report never holds one: the
    # writer takes exact lists and tuples only.
    for value in ({"a": ValidationReport(True)}, [ValidationReport(False, ("x",))]):
        with pytest.raises(TypeError, match="cannot write ValidationReport as JSON"):
            _dump_json(value)


# ---------------------------------------------------------------------------
# the only writer


def _json_writes() -> list[tuple[str, int]]:
    """``(file, line)`` of every ``json.dump``/``json.dumps`` call or import."""
    found = []
    for path in sorted(Path(semifree.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps"):
                if isinstance(node.value, ast.Name) and node.value.id == "json":
                    found.append((path.name, node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                if any(alias.name in ("dump", "dumps") for alias in node.names):
                    found.append((path.name, node.lineno))
    return found


def test_no_json_dumps_in_the_package():
    assert _json_writes() == []


# ---------------------------------------------------------------------------
# the reader: an integer literal past the int-string limit

# Longer than the interpreter's default 4,300-digit int-string limit.
_LONG_INT = "1" * 5000
FPDATA_LONG_INT = (
    '{"schema": "fpdata.v1", "components": '
    f'[{{"kind": "point", "index": {_LONG_INT}, "level": "0"}}]}}'
)
POLYTOPE_LONG_INT = (
    '{"schema": "polytope.v1", "facets": '
    f'[{{"normal": [{_LONG_INT}, 0, 0], "offset": "0"}}]}}'
)


def test_oversized_integer_is_a_schema_error_for_fixed_point_data():
    with pytest.raises(SchemaError, match="^invalid JSON: "):
        FixedPointData.loads(FPDATA_LONG_INT)


def test_oversized_integer_is_a_schema_error_for_polytopes():
    with pytest.raises(PolytopeSchemaError, match="^invalid JSON: "):
        polytope_loads(POLYTOPE_LONG_INT)


@pytest.mark.parametrize(
    ("command", "text"),
    [
        ("validate", FPDATA_LONG_INT),
        ("classify", FPDATA_LONG_INT),
        ("polytope-check", POLYTOPE_LONG_INT),
    ],
    ids=["validate", "classify", "polytope-check"],
)
def test_oversized_integer_exits_two_with_invalid_json(command, text):
    code, out = run(RunConfig(command=command), text.encode())
    assert code == 2
    assert out.startswith(b"error: invalid JSON: ")
    code, out = run(RunConfig(command=command, output_format="structured"), text.encode())
    assert code == 2
    payload = json.loads(out)
    assert payload["exit_code"] == 2
    assert payload["error"].startswith("invalid JSON: ")
