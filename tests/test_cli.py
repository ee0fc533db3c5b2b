"""CLI surface: formats, exit codes, round trips, determinism."""

import json
import re
import sys

import pytest

from jacobsthal3.cli import main
from jacobsthal3.sequences import JACOBSTHAL, term, term_range


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_csv(capsys):
    code, out, _ = run(capsys, "gen", "--a", "0", "--b", "1", "--c", "1",
                       "--from", "0", "--to", "6", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,value"
    assert [line.split(",")[1] for line in lines[1:]] == ["0", "1", "1", "2", "5", "9", "18"]


def test_gen_default_seeds_are_jacobsthal(capsys):
    code, out, _ = run(capsys, "gen", "--to", "4")
    assert code == 0
    assert out == "n,value\n0,0\n1,1\n2,1\n3,2\n4,5\n"


def test_gen_lucas_preset(capsys):
    code, out, _ = run(capsys, "gen", "--a", "2", "--b", "1", "--c", "5",
                       "--from", "0", "--to", "2")
    assert code == 0
    assert out.splitlines()[1:] == ["0,2", "1,1", "2,5"]


def test_gen_json(capsys):
    code, out, _ = run(capsys, "gen", "--to", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == [
        {"n": 0, "value": "0"},
        {"n": 1, "value": "1"},
        {"n": 2, "value": "1"},
        {"n": 3, "value": "2"},
    ]


def test_gen_rational_seeds_render_as_fractions(capsys):
    code, out, _ = run(capsys, "gen", "--a", "1/2", "--to", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["value"] == "1/2"


def test_gen_invalid_range_exits_2(capsys):
    code, _, err = run(capsys, "gen", "--from", "5", "--to", "4")
    assert code == 2
    assert "from" in err


def test_gen_malformed_rational_exits_2(capsys):
    code, _, _ = run(capsys, "gen", "--a", "nonsense", "--to", "3")
    assert code == 2


def test_gen_bfile_rejects_fractions(capsys):
    code, _, err = run(capsys, "gen", "--a", "1/2", "--to", "3", "--format", "bfile")
    assert code == 2
    assert "b-file" in err


def test_gen_bfile_round_trip(capsys, tmp_path):
    path = tmp_path / "b.txt"
    code, _, _ = run(capsys, "gen", "--to", "50", "--format", "bfile", "--output", str(path))
    assert code == 0
    first = path.read_bytes()
    parsed = [line.split(" ") for line in first.decode().splitlines()]
    values = term_range(JACOBSTHAL, 0, 50)
    assert [int(n) for n, _ in parsed] == list(range(51))
    assert [v for _, v in parsed] == [str(x) for x in values]
    # regenerate: byte-identical
    code, _, _ = run(capsys, "gen", "--to", "50", "--format", "bfile", "--output", str(path))
    assert code == 0
    assert path.read_bytes() == first


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "gen", "--to", "30", "--format", "json")
    _, second, _ = run(capsys, "gen", "--to", "30", "--format", "json")
    assert first == second


def test_verify_single_identity(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "e4", "--n-max", "100")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == payload["passed"] == 101
    assert payload["failed"] == 0


def test_verify_gen_identity_with_seeds(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "catalan-gen",
                       "--a", "1", "--b", "2", "--c", "3", "--n-max", "32")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"] == ["1", "2", "3"]
    assert payload["failed"] == 0


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "all", "--n-max", "24")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 16
    for line in lines:
        assert json.loads(line)["failed"] == 0


def test_verify_unknown_identity_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--identity", "nosuch")
    assert code == 2
    assert "catalan-gen" in err  # usage error lists the valid names


def test_verify_n_max_below_domain_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--identity", "e5", "--n-max", "1")
    assert code == 2
    assert "minimum" in err


def test_verify_negative_r_max_exits_2(capsys):
    code, out, err = run(capsys, "verify", "--identity", "catalan-gen", "--r-max", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "--r-max" in err
    assert "Traceback" not in err


def test_gf_default_format(capsys):
    code, out, _ = run(capsys, "gf", "--terms", "7")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,coefficient"
    assert [line.split(",")[1] for line in lines[1:8]] == ["0", "1", "1", "2", "5", "9", "18"]
    assert lines[-1] == "# matches_recurrence,true"


def test_gf_json(capsys):
    code, out, _ = run(capsys, "gf", "--a", "1", "--b", "2", "--c", "3",
                       "--terms", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == ["1", "2", "3", "7"]
    assert payload["matches_recurrence"] is True


def test_gf_zero_terms_exits_2(capsys):
    code, _, _ = run(capsys, "gf", "--terms", "0")
    assert code == 2


def test_sum_weighted(capsys):
    code, out, _ = run(capsys, "sum", "--mode", "weighted", "--x", "1", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_form"] == "4"
    assert payload["oracle"] == "4"
    assert payload["agree"] is True


def test_sum_weighted_pole_exits_2(capsys):
    code, _, err = run(capsys, "sum", "--mode", "weighted", "--x", "2", "--n", "3")
    assert code == 2
    assert "pole" in err


def test_sum_prefix(capsys):
    code, out, _ = run(capsys, "sum", "--mode", "prefix", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_form"] == "9"
    assert payload["agree"] is True


def test_sum_prefix_rejects_other_seeds(capsys):
    code, _, _ = run(capsys, "sum", "--mode", "prefix", "--a", "1", "--n", "4")
    assert code == 2


def test_sum_strided(capsys):
    code, out, _ = run(capsys, "sum", "--mode", "strided", "--m", "2", "--r", "2", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_form"] == "6"
    assert payload["agree"] is True


def test_sum_strided_degenerate_warns_but_succeeds(capsys):
    code, out, _ = run(capsys, "sum", "--mode", "strided", "--m", "3", "--r", "3", "--n", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_form"] is None
    assert payload["agree"] is None
    assert payload["warning"] == "sigma=0 for m divisible by 3"
    assert payload["oracle"] == "85596"


def test_sum_strided_offset_below_stride_exits_2(capsys):
    code, _, _ = run(capsys, "sum", "--mode", "strided", "--m", "2", "--r", "1", "--n", "4")
    assert code == 2


def test_sum_csv_format(capsys):
    code, out, _ = run(capsys, "sum", "--mode", "weighted", "--x", "3", "--n", "1",
                       "--format", "csv")
    assert code == 0
    header, row = out.splitlines()
    record = dict(zip(header.split(","), row.split(",")))
    assert record["closed_form"] == "1/3"
    assert record["agree"] == "true"


def test_output_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "out.csv"
    code, out, _ = run(capsys, "gen", "--to", "3", "--output", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text().startswith("n,value\n")


def test_unwritable_output_exits_3(capsys):
    code, out, err = run(capsys, "gen", "--to", "3", "--output", "/nonexistent/x.csv")
    assert code == 3
    assert out == ""
    assert err.startswith("error: cannot write /nonexistent/x.csv: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("gen", "--from", "15000", "--to", "15000"), lambda: term(JACOBSTHAL, 15000)),
        (("sum", "--mode", "prefix", "--n", "15000"), lambda: sum(term_range(JACOBSTHAL, 0, 15000))),
        (("gf", "--terms", "14400", "--format", "json"), lambda: term(JACOBSTHAL, 14399)),
    ],
    ids=["gen", "sum-prefix", "gf-json"],
)
def test_gen_prints_terms_past_the_int_digit_limit(capsys, argv, expected):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert "Traceback" not in out + err
    tail = expected().numerator % 10**50
    assert any(len(digits) > 4300 and int(digits[-50:]) == tail for digits in re.findall(r"\d+", out))
    assert sys.get_int_max_str_digits() == limit


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 20


SELFTEST_STDOUT = """\
PASS  closed-form agreement    (1290 checks)
PASS  e4                       (101 checks)
PASS  e5                       (98 checks)
PASS  ec5                      (101 checks)
PASS  e6                       (101 checks)
PASS  e7                       (101 checks)
PASS  e8                       (101 checks)
PASS  e9                       (98 checks)
PASS  e10                      (101 checks)
PASS  e12                      (98 checks)
PASS  catalan-j                (2145 checks)
PASS  cassini-j                (100 checks)
PASS  gelin-cesaro-j           (63 checks)
PASS  catalan-gen              (2805 checks)
PASS  cassini-gen              (320 checks)
PASS  gelin-cesaro-gen         (315 checks)
PASS  gelin-cesaro-cases       (315 checks)
PASS  generating function      (640 checks)
PASS  weighted sums            (990 checks)
PASS  strided sums             (2102 checks)
"""


def test_selftest_lines_and_counts_are_pinned(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    battery, _, last = out.rpartition("PASS  selftest finished in ")
    assert battery == SELFTEST_STDOUT
    assert re.fullmatch(r"\d+\.\ds\n", last)
