"""Command-line entry points: exit codes, report bytes, and shell pipelines."""

import json
import shutil
import subprocess
from fractions import Fraction

import pytest

from semifree.cli import COMMANDS, RunConfig, build_parser, config_from_args, main, run
from semifree.classifier import family_instance
from semifree.delzant import (
    PolytopeError,
    builtin_examples,
    extract_fixed_data,
    loads as polytope_loads,
    polytope_to_json_dict,
)
from semifree.fixed_points import FixedPointData, point, surface
from semifree.localization import solve_restriction_table

TYPE1 = family_instance("1").dumps().encode()
TYPE3 = family_instance("3", n=1).dumps().encode()
CUBE_PAYLOAD = json.dumps(
    {
        "schema": "polytope.v1",
        "facets": [
            {"normal": [1, 0, 0], "offset": "0"},
            {"normal": [-1, 0, 0], "offset": "-1"},
            {"normal": [0, 1, 0], "offset": "0"},
            {"normal": [0, -1, 0], "offset": "-1"},
            {"normal": [0, 0, 1], "offset": "0"},
            {"normal": [0, 0, -1], "offset": "-1"},
        ],
    }
).encode()


def polytope_dumps(polytope) -> str:
    return json.dumps(polytope_to_json_dict(polytope), indent=2, sort_keys=True) + "\n"


def invalid_data() -> bytes:
    data = FixedPointData(
        components=(
            point(index=0, level=0),
            point(index=0, level=0),
            surface(genus=0, index=2, level=1, b_plus=2, b_minus=2),
            point(index=6, level=2),
        )
    )
    return data.dumps().encode()


def chainless_data() -> bytes:
    data = FixedPointData(
        components=(
            point(index=0, level=0),
            surface(genus=0, index=2, level=1, b_plus=3, b_minus=2),
            point(index=6, level=2),
        )
    )
    return data.dumps().encode()


# ---------------------------------------------------------------------------
# run() per command


def test_run_rejects_unknown_command():
    with pytest.raises(ValueError):
        RunConfig(command="explode")
    with pytest.raises(ValueError):
        RunConfig(command="validate", output_format="yaml")


def test_validate_text():
    code, out = run(RunConfig(command="validate"), TYPE1)
    assert code == 0
    assert out == b"valid fixed point data, type 1\n"


def test_validate_structured():
    code, out = run(RunConfig(command="validate", output_format="structured"), TYPE1)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "report.v1"
    assert payload["command"] == "validate"
    assert payload["ok"] is True
    assert payload["type"] == "1"
    assert payload["violations"] == []


def test_validate_invalid_data_exits_one():
    code, out = run(RunConfig(command="validate"), invalid_data())
    assert code == 1
    assert b"need exactly one minimum" in out


def test_validate_malformed_input_exits_two():
    code, out = run(RunConfig(command="validate"), b"{not json")
    assert code == 2
    assert out.startswith(b"error:")
    code, _ = run(RunConfig(command="validate"), b"\xff\xfe")
    assert code == 2


# Nesting deeper than the JSON parser's recursion limit.
DEEP_JSON = b"[" * 100000


@pytest.mark.parametrize("command", ["classify", "polytope-check"])
def test_deeply_nested_json_is_a_schema_error(command):
    code, out = run(RunConfig(command=command), DEEP_JSON)
    assert code == 2
    assert out.startswith(b"error: invalid JSON:")
    code, out = run(RunConfig(command=command, output_format="structured"), DEEP_JSON)
    assert code == 2
    payload = json.loads(out)
    assert payload["command"] == command
    assert payload["exit_code"] == 2
    assert payload["error"].startswith("invalid JSON:")


def test_localize_text():
    code, out = run(RunConfig(command="localize"), TYPE1)
    assert code == 0
    assert out == (
        b"integral of 1: 0\n"
        b"integral of c_1: 0\n"
        b"integral of c_1^2: 0\n"
        b"integral of c_1^3: 54\n"
        b"localization relations hold\n"
    )


def test_localize_flags_nonvanishing_integrals():
    data = FixedPointData(
        components=(
            surface(genus=0, index=0, level=0, b=1),
            point(index=2, level=1),
            point(index=2, level=1),
            point(index=4, level=2),
            point(index=4, level=2),
            point(index=4, level=2),
            point(index=6, level=3),
        )
    )
    code, out = run(RunConfig(command="localize"), data.dumps().encode())
    assert code == 1
    assert "integral of 1: (-1)*λ^-3".encode() in out
    assert b"localization relations fail" in out


def test_restrict_table_text():
    code, out = run(RunConfig(command="restrict-table"), TYPE1)
    assert code == 0
    text = out.decode()
    assert "-2λ" in text
    assert "c_1 = 3*λ·α_1, 3*α_2" in text


def test_restrict_table_structured_reparses():
    code, out = run(
        RunConfig(command="restrict-table", output_format="structured"), TYPE3
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "rtable.v1"
    table = solve_restriction_table(family_instance("3", n=1))
    assert payload == json.loads(json.dumps(table.to_json_dict()))


def test_restrict_table_inconsistent_data_exits_one():
    code, out = run(RunConfig(command="restrict-table"), chainless_data())
    assert code == 1
    assert b"no integral solution" in out


def test_classify_text():
    code, out = run(RunConfig(command="classify"), TYPE3)
    assert code == 0
    assert out == (
        b"type: 3\n"
        b"twist: no\n"
        b"wall-crossing chain consistent: yes\n"
        b"second Stiefel-Whitney class vanishes: no\n"
    )


def test_classify_broken_chain_exits_one():
    code, out = run(RunConfig(command="classify"), chainless_data())
    assert code == 1
    assert b"wall-crossing chain consistent: no" in out
    assert b"unknown" in out


def test_enumerate_text():
    code, out = run(
        RunConfig(command="enumerate", max_genus=0, b_range=(-1, 1)), b""
    )
    assert code == 0
    text = out.decode()
    assert "bounds: genus <= 0, b in [-1, 1]" in text
    assert "family 3: 5 instance(s)" in text
    assert "family 4" not in text


def test_enumerate_structured():
    code, out = run(
        RunConfig(
            command="enumerate",
            max_genus=0,
            b_range=(-1, 1),
            output_format="structured",
        ),
        b"",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "families.v1"
    counts = {key: len(members) for key, members in payload["families"].items()}
    assert counts == {"1": 1, "2": 1, "3": 5, "5": 3, "6": 2}


def test_polytope_check_ok():
    raw = polytope_dumps(builtin_examples()["type4"]).encode()
    code, out = run(RunConfig(command="polytope-check"), raw)
    assert code == 0
    text = out.decode()
    assert "smooth (every vertex unimodular): yes" in text
    assert "height circle semi-free: yes" in text


def test_polytope_check_cube_fails_semifree():
    code, out = run(RunConfig(command="polytope-check"), CUBE_PAYLOAD)
    assert code == 1
    assert b"horizontal" in out


def test_polytope_extract_pipe_round_trip():
    code, payload = run(
        RunConfig(command="polytope-builtin", builtin_name="type6b_bmin2"), b""
    )
    assert code == 0
    code, out = run(
        RunConfig(command="polytope-extract", output_format="structured"), payload
    )
    assert code == 0
    extracted = FixedPointData.loads(out.decode())
    direct = extract_fixed_data(builtin_examples()["type6b_bmin2"])
    assert extracted == direct


def test_polytope_extract_text():
    raw = polytope_dumps(builtin_examples()["type4"]).encode()
    code, out = run(RunConfig(command="polytope-extract"), raw)
    assert code == 0
    text = out.decode()
    assert "type: 4" in text
    assert "twist: yes" in text


def test_polytope_extract_error_codes():
    code, _ = run(RunConfig(command="polytope-extract"), b"[]")
    assert code == 2
    code, out = run(RunConfig(command="polytope-extract"), CUBE_PAYLOAD)
    assert code == 1
    assert b"semi-free" in out


CUBE_FACETS = json.loads(CUBE_PAYLOAD)["facets"]
BAD_FIRST_FACETS = [
    {"normal": 5, "offset": "0"},
    {"normal": [1.7, 0, 0], "offset": "0"},
    {"normal": [True, 0, 0], "offset": "0"},
    {"normal": "100", "offset": "0"},
    {"normal": [1, 0, 0]},
]


@pytest.mark.parametrize(
    "facets",
    [[bad] + CUBE_FACETS[1:] for bad in BAD_FIRST_FACETS] + [[]],
    ids=["non-list", "float", "bool", "string", "no-offset", "no-facets"],
)
def test_malformed_polytope_facets_are_schema_errors(facets):
    raw = json.dumps({"schema": "polytope.v1", "facets": facets}).encode()
    with pytest.raises(PolytopeError):
        polytope_loads(raw.decode())
    for command in ("polytope-check", "polytope-extract"):
        code, out = run(RunConfig(command=command), raw)
        assert code == 2, (command, out)
        assert out.startswith(b"error:")


def test_polytope_builtin_is_always_structured():
    for fmt in ("text", "structured"):
        code, out = run(
            RunConfig(
                command="polytope-builtin",
                builtin_name="remark0_twisted",
                output_format=fmt,
            ),
            b"",
        )
        assert code == 0
        assert json.loads(out)["schema"] == "polytope.v1"


def test_polytope_builtin_unknown_name():
    code, out = run(RunConfig(command="polytope-builtin", builtin_name="nope"), b"")
    assert code == 2
    assert b"unknown builtin" in out


def test_dh_check_positive():
    code, out = run(
        RunConfig(command="dh-check", alpha0=Fraction(2), gaps=(Fraction(2),)),
        family_instance("4").dumps().encode(),
    )
    assert code == 0
    text = out.decode()
    assert "verdict: positive" in text
    assert "complete sweep: yes" in text
    assert "t=0: (2)*x" in text
    assert "t=2: (2)*y" in text


def test_dh_check_inconsistent_exits_one():
    code, out = run(
        RunConfig(command="dh-check"),
        family_instance("6b", k=1, k_prime=1).dumps().encode(),
    )
    assert code == 1
    assert b"verdict: inconsistent" in out


def test_dh_check_excess_gaps_exits_two():
    code, out = run(
        RunConfig(command="dh-check", gaps=(Fraction(1), Fraction(1))),
        family_instance("4").dumps().encode(),
    )
    assert code == 2
    assert b"at most 1 gaps" in out


def test_dh_check_validates_first():
    # The surface extremes have different genera, which validate rejects;
    # the sweep alone calls this data positive.
    raw = FixedPointData(
        components=(
            surface(genus=0, index=0, level=0, b=-1),
            surface(genus=0, index=2, level=1, b_plus=2, b_minus=2),
            surface(genus=1, index=4, level=2, b=-1),
        )
    ).dumps().encode()
    expected = run(RunConfig(command="validate"), raw)
    assert expected[0] == 1
    assert b"surface extremes must share a genus" in expected[1]
    assert run(RunConfig(command="dh-check"), raw) == expected
    structured = RunConfig(command="dh-check", output_format="structured")
    code, out = run(structured, raw)
    assert code == 1
    assert json.loads(out)["ok"] is False


@pytest.mark.parametrize("command", COMMANDS)
def test_reports_are_deterministic(command):
    config = RunConfig(
        command=command,
        max_genus=0,
        b_range=(-1, 1),
        builtin_name="type4",
        output_format="structured",
    )
    raw = TYPE1
    if command.startswith("polytope-") and command != "polytope-builtin":
        raw = polytope_dumps(builtin_examples()["type4"]).encode()
    first = run(config, raw)
    second = run(config, raw)
    assert first == second
    assert first[1].decode("utf-8")


@pytest.mark.parametrize("command", COMMANDS)
def test_parser_defaults_are_the_run_config_defaults(command):
    # Only the required positionals are given, so every other field must
    # come out as RunConfig's own default.
    extra = ["type4"] if command == "polytope-builtin" else []
    expected = RunConfig(command=command, builtin_name="type4" if extra else None)
    assert config_from_args(build_parser().parse_args([command, *extra])) == expected


def test_structured_reports_carry_one_schema():
    for command, raw in [
        ("validate", TYPE1),
        ("localize", TYPE1),
        ("classify", TYPE3),
        ("dh-check", family_instance("4").dumps().encode()),
    ]:
        config = RunConfig(
            command=command,
            output_format="structured",
            alpha0=Fraction(2),
            gaps=(Fraction(2),),
        )
        code, out = run(config, raw)
        assert code == 0, command
        payload = json.loads(out)
        assert payload["schema"] == "report.v1"
        assert payload["command"] == command


# ---------------------------------------------------------------------------
# argv entry point


def test_main_reads_file(tmp_path, capsysbinary):
    path = tmp_path / "data.json"
    path.write_bytes(TYPE1)
    assert main(["validate", str(path)]) == 0
    assert capsysbinary.readouterr().out == b"valid fixed point data, type 1\n"


def test_main_parses_negative_range(capsysbinary):
    assert main(["enumerate", "--max-genus", "0", "--b-range", "-1..1"]) == 0
    out = capsysbinary.readouterr().out
    assert b"b in [-1, 1]" in out


def test_main_missing_file_exits_two(capsysbinary):
    assert main(["validate", "/nonexistent/nowhere.json"]) == 2


def test_main_bad_usage_exits_two(capsysbinary):
    assert main(["no-such-command"]) == 2
    assert main(["enumerate", "--b-range", "6..-6"]) == 2


def test_main_negative_genus_bound_exits_two(capsysbinary):
    assert main(["enumerate", "--max-genus", "-1"]) == 2
    out = capsysbinary.readouterr().out
    assert b"max_genus" in out
    assert b"genus <= -1" not in out


def test_main_builtin_to_stdout(capsysbinary):
    assert main(["polytope-builtin", "type3_bmin1"]) == 0
    payload = json.loads(capsysbinary.readouterr().out)
    assert payload["schema"] == "polytope.v1"


# ---------------------------------------------------------------------------
# installed console script


@pytest.mark.skipif(shutil.which("semifree") is None, reason="script not installed")
def test_shell_pipeline_matches_library():
    pipeline = subprocess.run(
        "semifree polytope-builtin type4 | semifree polytope-extract --format structured",
        shell=True,
        capture_output=True,
        timeout=60,
    )
    assert pipeline.returncode == 0
    extracted = FixedPointData.loads(pipeline.stdout.decode())
    assert extracted == extract_fixed_data(builtin_examples()["type4"])
