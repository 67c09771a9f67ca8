"""Golden digests of the ``validate``, ``restrict-table``, ``classify``,
``localize`` and ``dh-check`` reports.

The corpus is the 71 benchmark family presets plus the data extracted
from the 6 builtin polytopes. Each digest is the sha256 over every
datum's name, exit code and report bytes, in corpus order. The
benchmark's correctness gate checks only the structured format, and
only on the presets and the fuzz pools; these pin the text format and
the builtin data as well. The text reports of all five data commands
on fuzz pool 1 are pinned by one more digest, so the rejection path's
text rendering is covered too.

The example scripts' stdout is pinned the same way: they are the only
callers of ``b_plus_minus`` and ``slice_polygon`` outside the tests.
"""

import hashlib
import runpy
import sys
from pathlib import Path

import pytest

from corpus import builtin_data, family_presets, perfbench_module
from semifree.cli import RunConfig, run

GOLDEN_DIGESTS = {
    ("validate", "text"):
        "121984d752b6c5a7e6c6c48a6eabf09ee5a9580196dad5ce7a9e5f99d5b4c8bf",
    ("validate", "structured"):
        "9a1e268aee77fd08a152fa9240a66d2381eb41dd3e86c62e51d56318d097e648",
    ("restrict-table", "text"):
        "15262faaf597120081b10209540c380b864250c1ab84895bf61a589baccecd8a",
    ("restrict-table", "structured"):
        "3f6b4ddbf6012c38ccc3938e5c1dc1940af62259bdfa1f1dfedb16296a3678cf",
    ("classify", "text"):
        "123d580ca6f0bbe38ae9ebb7eb7d25ecf587b9fbd315476a8b88b109da37497e",
    ("classify", "structured"):
        "094215b55c0d23d80041de438fbbf26940e115adde9fe456caa70d08f662887b",
    ("localize", "text"):
        "795bfceb4b72fc1be20548c0e7c478655fdbc4d06e64dbc1b6102415852359d5",
    ("localize", "structured"):
        "8bc4047b2f8aba5aa76d72f1135617cae6111fd8412b014a63bfaadd5f01aef1",
    ("dh-check", "text"):
        "708f58340cc4b9193696c20125435c441ee31dbce6a42008bafb1129c3f1c381",
    ("dh-check", "structured"):
        "7eba8542f99c47ea53c005294c62c892fa42366ba78c6ab8e0caa18b914167d2",
}


@pytest.fixture(scope="module")
def corpus():
    return family_presets() + builtin_data()


def test_corpus_size(corpus):
    assert len(corpus) == 71 + 6


@pytest.mark.parametrize(("command", "output_format"), sorted(GOLDEN_DIGESTS))
def test_report_digest_frozen(corpus, command, output_format):
    h = hashlib.sha256()
    for name, data in corpus:
        code, out = run(
            RunConfig(command=command, output_format=output_format),
            data.dumps().encode(),
        )
        h.update(f"{name}\0{code}\0{len(out)}\0".encode())
        h.update(out)
    assert h.hexdigest() == GOLDEN_DIGESTS[(command, output_format)]


FUZZ_TEXT_DIGEST = "3df99a1d3b785299dacc804cd51db1b7e7d5877030935dd4b72c54f51ef44438"


def test_fuzz_pool_text_reports_digest_frozen():
    # An exception that escapes ``run`` is digested by its class, as the
    # benchmark's correctness gate records it (C.1's solver stalls).
    workloads = perfbench_module("workloads")
    configs = [RunConfig(command=command) for command in workloads.DATA_COMMANDS]
    h = hashlib.sha256()
    for position, raw in enumerate(workloads.fuzz_pool(1)):
        for config in configs:
            h.update(f"{position}\0{config.command}\0".encode())
            try:
                code, out = run(config, raw)
            except Exception as exc:  # noqa: BLE001 - a raise is an outcome here
                h.update(f"raise:{type(exc).__name__}\0".encode())
                continue
            h.update(f"{code}\0{len(out)}\0".encode())
            h.update(out)
    assert h.hexdigest() == FUZZ_TEXT_DIGEST


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

SCRIPT_DIGESTS = {
    ("reproduce_tables.py",):
        "34ee1a8fa735a299c61986394247e5f178ea243e17d34e7fc002d1a70cb2f9c2",
    ("polytope_gallery.py", "--slice", "1/2"):
        "6c3d207a68c4af39d5dc82b820f9f59156027f059a1c09e6f5d99647b1a66a9d",
}


@pytest.mark.parametrize("argv", sorted(SCRIPT_DIGESTS))
def test_script_output_digest_frozen(monkeypatch, capsys, argv):
    script = str(SCRIPTS / argv[0])
    monkeypatch.setattr(sys, "argv", [script, *argv[1:]])
    runpy.run_path(script, run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SCRIPT_DIGESTS[argv]
