"""CLI exit codes on failure: 1 when a claim fails, 3 when stdout cannot be written.

The exit-1 tests break only the closed-form side of one claim per command,
so the oracle stays as it is and the command must report the disagreement.
"""

import ast
import contextlib
import errno
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from jacobsthal3 import cli
from jacobsthal3.identities import IdentityId

ROOT = Path(__file__).resolve().parent.parent


def run(*argv):
    """(exit code, stdout, stderr) of main(argv), run in this process."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(list(argv))
    return code, stdout.getvalue(), stderr.getvalue()


def test_verify_exits_1_when_one_entry_fails(monkeypatch):
    monkeypatch.setattr(IdentityId.E4, "_evaluate", lambda params, n, r: ((1, 1), (2, 1)))
    code, out, err = run("verify", "--identity", "all", "--n-max", "5")
    assert (code, err) == (1, "")
    failed = {report["identity"]: report["failed"] for report in map(json.loads, out.splitlines())}
    assert failed.pop("e4") > 0
    assert len(failed) == len(IdentityId) - 1 and not any(failed.values())


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_gf_exits_1_when_a_coefficient_is_off(monkeypatch, fmt):
    expand = cli.gf_coefficients

    def off_by_one(params, count):
        coeffs = expand(params, count)
        coeffs[3] += 1
        return coeffs

    monkeypatch.setattr(cli, "gf_coefficients", off_by_one)
    code, out, err = run("gf", "--terms", "6", "--format", fmt)
    assert (code, err) == (1, "")
    if fmt == "json":
        assert json.loads(out)["matches_recurrence"] is False
    else:
        assert out.endswith("\n# matches_recurrence,false\n")


def test_sum_exits_1_when_the_closed_form_is_off(monkeypatch):
    closed = cli.weighted_sum_closed
    monkeypatch.setattr(cli, "weighted_sum_closed", lambda params, x, n: closed(params, x, n) + 1)
    code, out, err = run("sum", "--mode", "weighted", "--x=3", "--n", "5")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["agree"] is False
    assert Fraction(payload["closed_form"]) == Fraction(payload["oracle"]) + 1


def test_selftest_exits_1_when_one_line_fails(monkeypatch):
    checks = [("first", 2, True), ("second", 3, False), ("third", 1, True)]
    monkeypatch.setattr(cli, "_selftest_checks", lambda: iter(checks))
    code, out, err = run("selftest")
    assert (code, err) == (1, "")
    *lines, last = out.splitlines()
    assert lines == [
        "PASS  first                    (2 checks)",
        "FAIL  second                   (3 checks)",
        "PASS  third                    (1 checks)",
    ]
    assert last.startswith("FAIL  selftest finished in ")


class _FullDisk(io.TextIOBase):
    """A text stream whose every write fails as on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


_COMMANDS = [
    ["gen", "--to", "3"],
    ["verify", "--identity", "e4", "--n-max", "5"],
    ["gf", "--terms", "4"],
    ["sum", "--mode", "prefix", "--n", "3"],
    ["selftest"],
]


@pytest.mark.parametrize("stdout", [_FullDisk, lambda: None], ids=["full-disk", "closed"])
@pytest.mark.parametrize("argv", _COMMANDS, ids=lambda argv: argv[0])
def test_a_failed_stdout_write_exits_3(argv, stdout):
    stderr = io.StringIO()
    with contextlib.redirect_stdout(stdout()), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    err = stderr.getvalue()
    assert code == 3
    assert err.count("\n") == 1 and err.startswith("error: cannot write stdout: ")
    assert "Traceback" not in err


def test_stdout_is_written_only_in_emit():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    emit = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_emit")
    inside = range(emit.lineno, emit.end_lineno + 1)
    stdout_lines = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "stdout"
        and isinstance(node.value, ast.Name) and node.value.id == "sys"
    ]
    assert stdout_lines and all(line in inside for line in stdout_lines)
    prints = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
    ]
    assert prints
    for call in prints:
        assert [ast.unparse(kw.value) for kw in call.keywords if kw.arg == "file"] == ["sys.stderr"]


class _ClosedPipe(io.RawIOBase):
    """A raw stream whose reader has gone away."""

    def writable(self):
        return True

    def write(self, data):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


def test_a_closed_pipe_exits_0_quietly_and_closes_stdout():
    stdout, stderr = io.TextIOWrapper(io.BufferedWriter(_ClosedPipe())), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["gen", "--to", "3"])
    assert (code, stderr.getvalue()) == (0, "")
    # The interpreter's flush at exit skips a closed stdout; an open one would
    # fail again on the buffered lines and turn the exit code into 120.
    assert stdout.closed


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_disk_under_block_buffered_stdout_exits_3():
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "jacobsthal3", "gen", "--to", "3"], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (3, "error: cannot write stdout: No space left on device\n")
