"""Golden digests of the ``restrict-table`` and ``classify`` reports.

The corpus is the 71 benchmark family presets plus the data extracted
from the 6 builtin polytopes. Each digest is the sha256 over every
datum's name, exit code and report bytes, in corpus order. The
benchmark's correctness gate checks only the structured format; these
pin the text format as well.
"""

import hashlib

import pytest

from corpus import builtin_data, family_presets
from semifree.cli import RunConfig, run

GOLDEN_DIGESTS = {
    ("restrict-table", "text"):
        "15262faaf597120081b10209540c380b864250c1ab84895bf61a589baccecd8a",
    ("restrict-table", "structured"):
        "3f6b4ddbf6012c38ccc3938e5c1dc1940af62259bdfa1f1dfedb16296a3678cf",
    ("classify", "text"):
        "123d580ca6f0bbe38ae9ebb7eb7d25ecf587b9fbd315476a8b88b109da37497e",
    ("classify", "structured"):
        "094215b55c0d23d80041de438fbbf26940e115adde9fe456caa70d08f662887b",
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
