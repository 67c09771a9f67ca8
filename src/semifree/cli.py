"""Command line front end.

Reads fixed point data or polytopes from a file or standard input,
runs the requested validation, solver or enumeration, and writes a
deterministic UTF-8 report. Exit code 0 means success, 1 means the
input is well-formed but mathematically invalid (validation failure,
no solution, failed check), 2 means the input or command line is
malformed. A structured report is the text of
``json.dumps(payload, indent=2, sort_keys=True)``, written by the
package's one JSON writer, ``fixed_points._dump_json``. Each command
handler builds the report of the requested format only: the payload
for ``--format structured``, the text lines for ``--format text``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import delzant
from .algebra import ReducedClass
from .classifier import enumerate_types, euler_chain_check
from .fixed_points import (
    FixedPointData,
    InvalidDataError,
    SchemaError,
    _dump_json,
    classify_type,
    validate,
)
from .localization import (
    MultipleSolutionsError,
    NoSolutionError,
    _c1_power_integrals,
    _relations_hold,
    dh_path,
    solve_restriction_table,
    w2_vanishes,
)
from .rationals import Rational, format_rational, parse_rational

REPORT_SCHEMA = "report.v1"


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs besides the input bytes."""

    command: str
    input_path: str | None = None
    max_genus: int = 3
    b_range: tuple[int, int] = (-6, 6)
    output_format: str = "text"
    builtin_name: str | None = None
    alpha0: Rational = 1
    gaps: tuple[Rational, ...] = ()

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.output_format not in ("text", "structured"):
            raise ValueError(f"unknown output format {self.output_format!r}")


# ---------------------------------------------------------------------------
# input readers


def _read_fpdata(raw: bytes) -> FixedPointData:
    return FixedPointData.loads(_decode(raw))


def _read_polytope(raw: bytes) -> delzant.LatticePolytope:
    return delzant.loads(_decode(raw))


def _decode(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"input is not UTF-8: {exc}") from exc


# ---------------------------------------------------------------------------
# command handlers; each takes the read input (None for a command
# without one) and the config, returns (exit code, payload dict, text
# lines), and builds only the payload (structured) or only the lines (text)


def _integral_payload(values: dict[int, Fraction]) -> dict[str, str]:
    return {str(k): format_rational(v) for k, v in sorted(values.items())}


def _format_integral(values: dict[int, Fraction]) -> str:
    if not values:
        return "0"
    return " + ".join(
        f"({format_rational(v)})*λ^{k}" if k else format_rational(v)
        for k, v in sorted(values.items())
    )


def _cmd_validate(data: FixedPointData, config: RunConfig):
    report = validate(data)
    code = 0 if report.ok else 1
    tag = classify_type(data) if report.ok else None
    if config.output_format == "structured":
        payload = {"ok": report.ok, "violations": list(report.violations)}
        if report.ok:
            payload["type"] = tag
        return code, payload, []
    if report.ok:
        return code, {}, [f"valid fixed point data, type {tag}"]
    return code, {}, ["invalid fixed point data:"] + [f"  - {v}" for v in report.violations]


def _cmd_localize(data: FixedPointData, config: RunConfig):
    if not validate(data).ok:
        return _cmd_validate(data, config)
    integrals = dict(_c1_power_integrals(data))
    ok = _relations_hold(integrals)
    code = 0 if ok else 1
    if config.output_format == "structured":
        payload = {
            "relations_hold": ok,
            "integrals": {
                name: _integral_payload(values)
                for name, values in integrals.items()
            },
        }
        return code, payload, []
    lines = [
        f"integral of {name}: {_format_integral(values)}"
        for name, values in integrals.items()
    ]
    lines.append(
        "localization relations hold"
        if ok
        else "localization relations fail: some integral below top degree is nonzero"
    )
    return code, {}, lines


def _cmd_restrict_table(data: FixedPointData, config: RunConfig):
    table = solve_restriction_table(data)
    if config.output_format == "structured":
        return 0, table.to_json_dict(), []
    return 0, {}, table.render_text().rstrip("\n").split("\n")


def _cmd_classify(data: FixedPointData, config: RunConfig):
    if not validate(data).ok:
        return _cmd_validate(data, config)
    tag = classify_type(data)
    chain_ok = euler_chain_check(data)
    try:
        w2 = w2_vanishes(data)
    except (InvalidDataError, NoSolutionError, MultipleSolutionsError):
        w2 = None
    code = 0 if chain_ok else 1
    if config.output_format == "structured":
        payload = {
            "type": tag,
            "twist": data.twist,
            "chain_consistent": chain_ok,
            "w2_vanishes": w2,
        }
        return code, payload, []
    lines = [
        f"type: {tag}",
        f"twist: {'yes' if data.twist else 'no'}",
        f"wall-crossing chain consistent: {'yes' if chain_ok else 'no'}",
        "second Stiefel-Whitney class vanishes: "
        + ("unknown" if w2 is None else "yes" if w2 else "no"),
    ]
    return code, {}, lines


def _cmd_enumerate(_: None, config: RunConfig):
    result = enumerate_types(max_genus=config.max_genus, b_range=config.b_range)
    if config.output_format == "structured":
        return 0, result.to_json_dict(), []
    lines = [
        f"bounds: genus <= {config.max_genus}, "
        f"b in [{config.b_range[0]}, {config.b_range[1]}]",
        f"families found: {len(result.families)}",
    ]
    for tag in sorted(result.families):
        members = result.families[tag]
        lines.append(f"  family {tag}: {len(members)} instance(s)")
    lines.append(
        "rejected: "
        + ", ".join(
            f"{stage}={count}" for stage, count in sorted(result.rejected.items())
        )
    )
    return 0, {}, lines


def _cmd_polytope_check(polytope: delzant.LatticePolytope, config: RunConfig):
    dc = delzant.delzant_check(polytope)
    sc = delzant.semifree_check(polytope)
    code = 0 if dc.ok and sc.ok else 1
    if config.output_format == "structured":
        payload = {
            "delzant": {
                "ok": dc.ok,
                "vertex_determinants": [list(cert) for cert in dc.certificates],
            },
            "semifree": {"ok": sc.ok, "violations": list(sc.violations)},
        }
        return code, payload, []
    lines = [
        f"vertices: {len(polytope.vertices)}, edges: {len(polytope.edges)}",
        f"smooth (every vertex unimodular): {'yes' if dc.ok else 'no'}",
        f"height circle semi-free: {'yes' if sc.ok else 'no'}",
    ]
    lines += [f"  - {v}" for v in sc.violations]
    return code, {}, lines


def _cmd_polytope_extract(polytope: delzant.LatticePolytope, config: RunConfig):
    data = delzant.extract_fixed_data(polytope)
    if config.output_format == "structured":
        return 0, data.to_json_dict(), []
    lines = []
    for component in data.components:
        parts = [
            f"level {format_rational(component.level)}:",
            component.describe(),
        ]
        lines.append(" ".join(parts))
    lines.append(f"type: {classify_type(data)}")
    lines.append(f"twist: {'yes' if data.twist else 'no'}")
    return 0, {}, lines


def _cmd_polytope_builtin(_: None, config: RunConfig):
    examples = delzant.builtin_examples()
    name = config.builtin_name
    if name not in examples:
        choices = ", ".join(sorted(examples))
        raise SchemaError(f"unknown builtin {name!r}; choices: {choices}")
    # Always emit the schema document so the output pipes into
    # polytope-extract regardless of the format flag.
    payload = delzant.polytope_to_json_dict(examples[name])
    if config.output_format == "structured":
        return 0, payload, []
    return 0, {}, _dump_json(payload).split("\n")


def _format_reduced(cls: ReducedClass) -> str:
    names = ("u",) if len(cls.coeffs) == 1 else ("x", "y")
    parts = [
        f"({format_rational(c)})*{n}"
        for c, n in zip(cls.coeffs, names)
        if c
    ]
    return " + ".join(parts) if parts else "0"


def _cmd_dh_check(data: FixedPointData, config: RunConfig):
    if not validate(data).ok:
        return _cmd_validate(data, config)
    path = dh_path(data, config.alpha0, list(config.gaps))
    code = 0 if path.verdict == "positive" else 1
    if config.output_format == "structured":
        payload = {
            "verdict": path.verdict,
            "complete": path.complete,
            "times": [format_rational(t) for t in path.times],
            "classes": [_format_reduced(w) for w in path.omegas],
            "wall_areas": [format_rational(a) for a in path.wall_areas],
            "failures": list(path.failures),
        }
        return code, payload, []
    lines = [f"verdict: {path.verdict}", f"complete sweep: {'yes' if path.complete else 'no'}"]
    for t, w in zip(path.times, path.omegas):
        lines.append(f"  t={format_rational(t)}: {_format_reduced(w)}")
    if path.wall_areas:
        lines.append(
            "wall areas: "
            + ", ".join(format_rational(a) for a in path.wall_areas)
        )
    lines += [f"  - {f}" for f in path.failures]
    return code, {}, lines


# ---------------------------------------------------------------------------
# the command table and the driver

# Each command's input reader (None when it reads no input), handler and help.
_COMMANDS = {
    "validate": (_read_fpdata, _cmd_validate, "check fixed point data against the shape rules"),
    "localize": (
        _read_fpdata,
        _cmd_localize,
        "evaluate the localized integrals of 1, c_1, c_1^2, c_1^3",
    ),
    "restrict-table": (_read_fpdata, _cmd_restrict_table, "solve the full restriction table"),
    "classify": (_read_fpdata, _cmd_classify, "name the family and run the wall-crossing chain"),
    "enumerate": (None, _cmd_enumerate, "enumerate all families within bounds"),
    "polytope-check": (
        _read_polytope,
        _cmd_polytope_check,
        "check polytope smoothness and semi-freeness",
    ),
    "polytope-extract": (
        _read_polytope,
        _cmd_polytope_extract,
        "read fixed point data off a polytope",
    ),
    "polytope-builtin": (None, _cmd_polytope_builtin, "emit one of the named example polytopes"),
    "dh-check": (_read_fpdata, _cmd_dh_check, "sweep the reduced symplectic class upward"),
}
COMMANDS = tuple(_COMMANDS)


def run(config: RunConfig, raw: bytes) -> tuple[int, bytes]:
    """Execute one command; returns (exit code, report bytes)."""
    structured = config.output_format == "structured"
    reader, handler, _ = _COMMANDS[config.command]
    try:
        code, payload, lines = handler(None if reader is None else reader(raw), config)
    except SchemaError as exc:
        return 2, _render_error(config, 2, str(exc), structured)
    except (
        InvalidDataError,
        NoSolutionError,
        MultipleSolutionsError,
        NotImplementedError,
        delzant.PolytopeError,
    ) as exc:
        return 1, _render_error(config, 1, str(exc), structured)
    except ValueError as exc:
        # Bad argument combinations surfaced by the library (for
        # example more gap durations than there are segments).
        return 2, _render_error(config, 2, str(exc), structured)

    if structured:
        if "schema" not in payload:
            payload = {"schema": REPORT_SCHEMA, "command": config.command, **payload}
        return code, _encode_json(payload)
    return code, ("\n".join(lines) + "\n").encode("utf-8")


def _encode_json(payload: dict) -> bytes:
    return (_dump_json(payload) + "\n").encode("utf-8")


def _render_error(
    config: RunConfig, code: int, message: str, structured: bool
) -> bytes:
    if structured:
        return _encode_json(
            {"schema": REPORT_SCHEMA, "command": config.command, "error": message, "exit_code": code}
        )
    return (f"error: {message}\n").encode("utf-8")


# ---------------------------------------------------------------------------
# argument parsing


def _parse_b_range(text: str) -> tuple[int, int]:
    try:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected LO..HI integers, got {text!r}"
        ) from exc
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _parse_gaps(text: str) -> tuple[Rational, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(parse_rational(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_alpha0(text: str) -> Rational:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semifree",
        description="Exact checks for semi-free circle actions on "
        "compact six-dimensional Hamiltonian manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, (reader, _, help_text) in _COMMANDS.items():
        p = parsers[name] = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--format",
            dest="output_format",
            choices=("text", "structured"),
            default=RunConfig.output_format,
            help="report style (default: %(default)s)",
        )
        if reader is not None:
            p.add_argument(
                "input_path",
                metavar="input",
                nargs="?",
                default=None,
                help="input file (default: standard input)",
            )
    p = parsers["enumerate"]
    p.add_argument(
        "--max-genus", type=int, default=RunConfig.max_genus, help="largest genus tried"
    )
    p.add_argument(
        "--b-range",
        type=_parse_b_range,
        default=RunConfig.b_range,
        metavar="LO..HI",
        help="range of normal Euler numbers tried",
    )
    parsers["polytope-builtin"].add_argument(
        "builtin_name", metavar="name", help="builtin name, e.g. type4"
    )
    p = parsers["dh-check"]
    p.add_argument(
        "--alpha0",
        type=_parse_alpha0,
        default=RunConfig.alpha0,
        help="initial fiber area (rational, default %(default)s)",
    )
    p.add_argument(
        "--gaps",
        type=_parse_gaps,
        default=(),
        help="comma-separated segment durations from the bottom",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The run described by ``args``; a field its command has no
    argument for keeps its ``RunConfig`` default."""
    return RunConfig(**vars(args))


def _merge_dash_values(argv: list[str]) -> list[str]:
    """Join flags with values that start with a dash, e.g. -6..6."""
    merged = []
    skip = False
    for position, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if (
            token in ("--b-range", "--alpha0", "--gaps")
            and position + 1 < len(argv)
            and argv[position + 1].startswith("-")
        ):
            merged.append(f"{token}={argv[position + 1]}")
            skip = True
        else:
            merged.append(token)
    return merged


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_dash_values(list(argv)))
    except SystemExit as exc:
        # argparse exits 2 on bad usage, matching the malformed-input code
        return int(exc.code or 0)
    config = config_from_args(args)
    raw = b""
    if _COMMANDS[config.command][0] is not None:
        if config.input_path:
            try:
                with open(config.input_path, "rb") as handle:
                    raw = handle.read()
            except OSError as exc:
                sys.stderr.write(f"error: cannot read {config.input_path}: {exc}\n")
                return 2
        else:
            raw = sys.stdin.buffer.read()
    code, report = run(config, raw)
    sys.stdout.buffer.write(report)
    sys.stdout.buffer.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
