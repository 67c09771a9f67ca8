"""Cross-command agreement: the commands, run on one datum, agree.

Each command is tested against its own expectations elsewhere; here
the same datum goes through several commands as a user would run them
(``cli.run`` on its serialized form), and their exit codes must agree
with what is known about the datum:

- a member that ``enumerate`` admits passes every data command, its
  localization relations vanish, and the chain derives the normal
  splittings it declares;
- each of the 71 family presets of the benchmark passes every data
  command but ``dh-check``, and ``classify``'s w2 verdict is the parity
  of ``restrict-table``'s c_1 decomposition;
- the data extracted from a toric builtin, realizable by construction,
  pass every data command, except that ``restrict-table`` has no basis
  for the two ``remark0_*`` data (b_2 = 3) and says so;
- every datum of the fuzz pools ends in exit 0, 1 or 2 with a report,
  never in a traceback.
"""

import json
from fractions import Fraction

import pytest

from corpus import builtin_data, enumerated_members, family_presets, fuzz_data
from semifree.classifier import b_plus_minus
from semifree.cli import RunConfig, run
from semifree.localization import _c1_power_integrals, _relations_hold

DATA_COMMANDS = ("validate", "classify", "restrict-table", "localize")


def _exit_code(command, data):
    code, report = run(RunConfig(command=command), data.dumps().encode())
    assert report, (command, data)
    return code


def _all_surface(data):
    return all(c.is_surface for c in data.components)


def test_enumerated_members_pass_every_command():
    members = enumerated_members()
    assert len(members) == 28
    swept = 0
    for name, data in members:
        for command in DATA_COMMANDS:
            assert _exit_code(command, data) == 0, (name, command)
        if _all_surface(data):
            assert _exit_code("dh-check", data) == 0, name
            swept += 1
    assert swept == 18


def test_enumerated_members_satisfy_the_relations_and_their_splittings():
    surfaces = 0
    for name, data in enumerated_members():
        assert _relations_hold(dict(_c1_power_integrals(data))), name
        for position, component in enumerate(data.components):
            if component.is_surface and component.index == 2:
                declared = (component.b_plus, component.b_minus)
                assert b_plus_minus(data, position) == declared, (name, position)
                surfaces += 1
    assert surfaces == 25


def test_family_presets_pass_every_command_and_agree_on_w2():
    presets = family_presets()
    assert len(presets) == 71
    vanishing = 0
    for name, data in presets:
        reports = {}
        for command in DATA_COMMANDS:
            code, report = run(RunConfig(command=command, output_format="structured"), data.dumps().encode())
            assert code == 0, (name, command)
            reports[command] = json.loads(report)
        decomposition = reports["restrict-table"]["c1"]["decomposition"]
        even = all(Fraction(coeff).denominator == 1 and Fraction(coeff).numerator % 2 == 0 for _, coeff in decomposition)
        assert reports["classify"]["w2_vanishes"] is even, name
        vanishing += even
    assert vanishing == 37


def test_builtin_data_pass_every_command():
    for name, data in builtin_data():
        for command in ("validate", "classify", "localize"):
            assert _exit_code(command, data) == 0, (name, command)
        table = _exit_code("restrict-table", data)
        assert table == (1 if name.startswith("remark0_") else 0), name
        assert _exit_code("dh-check", data) == (0 if _all_surface(data) else 1), name


@pytest.mark.parametrize("seed", [1, 2])
def test_fuzz_data_end_in_an_exit_code(seed):
    for name, data in fuzz_data(seed):
        for command in ("validate", "localize", "restrict-table"):
            assert _exit_code(command, data) in (0, 1, 2), (name, command)
