"""Tests of the benchmark itself: its reference checks catch bad output.

Run with `python3 -m pytest -q perfbench`.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import reference
import run

run._load_package()

import workloads  # noqa: E402  (needs the package on sys.path)
from jacobsthal3 import cli, closed_forms  # noqa: E402
from jacobsthal3.identities import IdentityId, verify_range  # noqa: E402


def test_reference_terms_are_the_jacobsthal_numbers():
    assert reference.terms((0, 1, 1), 7) == [0, 1, 1, 2, 5, 9, 18, 37]
    lines = [b"0 2\n", b"1 1\n", b"2 5\n", b"3 10\n"]
    assert reference.bfile_ok(lines, (2, 1, 5), 3)
    assert not reference.bfile_ok(lines[:-1], (2, 1, 5), 3)
    assert not reference.bfile_ok(lines + [b"4 17\n"], (2, 1, 5), 3)


def test_instance_counts_follow_the_catalog_domains():
    for name, *_ in reference.CATALOG:
        assert reference.instance_count(name, 10) == verify_range(IdentityId(name), n_max=10).total


def test_bfile_check_catches_a_corrupted_byte(tmp_path):
    out = tmp_path / "b.txt"
    request = workloads._gen_request((-3, 7, 20), str(out))
    code = request.call()
    assert request.check(code)
    data = bytearray(out.read_bytes())
    position = len(data) // 2
    data[position] = ord("7") if data[position] != ord("7") else ord("3")
    out.write_bytes(bytes(data))
    assert not request.check(code)
    out.write_bytes(out.read_bytes()[:-1])
    assert not request.check(code)


def test_verify_check_needs_the_full_instance_count(tmp_path):
    out = tmp_path / "report.json"
    seeds = (Fraction(-2, 5), Fraction(3), Fraction(-7, 4))
    request = workloads._verify_request("cassini-gen", seeds, str(out))
    code = request.call()
    assert request.check(code)
    report = json.loads(out.read_text())
    assert report["params"] == ["-2/5", "3", "-7/4"]
    report["total"] -= 1
    report["passed"] -= 1
    out.write_text(json.dumps(report) + "\n")
    assert not request.check(code)


def test_closed_form_check_catches_one_flipped_value():
    seeds = (Fraction(1, 2), Fraction(-3), Fraction(7, 5))
    expected = workloads.expected_rows(seeds)
    for label, rows in expected.items():
        request = workloads._closed_form_request(label, seeds, rows)
        got = request.call()
        assert request.check(got), label
        middle = len(got) // 2
        closed, *oracle = got[middle]
        got[middle] = (closed + 1, *oracle)
        assert not request.check(got), label
        got[middle] = (closed, *oracle)
        first, *oracle = got[0]  # X(0) = 1/2 or X(1) = -3: exact as a float
        got[0] = (float(first), *oracle)
        assert got == rows and not request.check(got), label


def test_wrong_output_counts_as_a_failed_request(monkeypatch):
    real = closed_forms.binet_term
    monkeypatch.setattr(closed_forms, "binet_term", lambda p, n: real(p, n) + (n == 7))
    result = run.measure("closed-forms", seed=1, seconds=0.001)
    assert (result["attempted"], result["failed"]) == (5, 1)

    real_range = cli.term_range
    monkeypatch.setattr(cli, "term_range", lambda p, a, b: real_range(p, a, b)[:-1] + [Fraction(0)])
    result = run.measure("bfile-gen", seed=1, seconds=0.001)
    assert (result["attempted"], result["failed"]) == (1, 1)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(Path(run.HERE.name) / "run.py"), "--workload", "bfile-gen",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_workload_is_correct_on_this_commit(workload):
    result = run.measure(workload, seed=3, seconds=0.001)
    assert result["failed"] == 0 and result["attempted"] >= 1
