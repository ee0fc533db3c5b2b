"""The CLI bytes match the golden corpus tests/golden/cli.json.

The corpus was generated by tests/golden/regen.py; this test compares and
never rewrites it.  Demo stdout is compared in tests/test_demos.py, which
already runs each demo.
"""

import json

import pytest
from golden.regen import COLUMNS, CORPUS, INVOCATIONS, run_invocation

GOLDEN = json.loads(CORPUS.read_text(encoding="utf-8"))["cli"]


@pytest.mark.parametrize("expected", GOLDEN, ids=lambda entry: " ".join(entry["argv"]) or "no-args")
def test_cli_bytes_match_the_corpus(monkeypatch, expected):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert run_invocation(expected["argv"]) == expected


def test_corpus_lists_every_invocation():
    assert [entry["argv"] for entry in GOLDEN] == INVOCATIONS
