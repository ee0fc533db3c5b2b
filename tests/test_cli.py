"""CLI surface: formats, exit codes, round trips, determinism."""

import argparse
import contextlib
import decimal
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from jacobsthal3.cli import build_parser, main
from jacobsthal3.identities import IdentityId, verify_range
from jacobsthal3.sequences import JACOBSTHAL, SequenceParams, term, term_range

ROOT = Path(__file__).resolve().parent.parent


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


def test_gen_bfile_rejects_fractions(capsys, tmp_path):
    message = (
        "error: b-file output requires integer values, got 1/2 at n=0; "
        "use csv or json for fractional seeds\n"
    )
    code, out, err = run(capsys, "gen", "--a", "1/2", "--to", "3", "--format", "bfile")
    assert (code, out, err) == (2, "", message)
    # The check runs before the output file is opened: none is created, and
    # an unwritable path is still a usage error, not an I/O error.
    for path in (tmp_path / "b.txt", Path("/nonexistent/x")):
        code, out, err = run(capsys, "gen", "--a", "1/2", "--to", "3", "--format", "bfile",
                             "--output", str(path))
        assert (code, out, err) == (2, "", message)
        assert not path.exists()


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


def _gen_as_formatted_from_the_oracle(seeds, first, last, fmt):
    """The (exit code, stdout, stderr) gen must produce, formatted from the oracle's values."""
    rows = list(zip(range(first, last + 1), term_range(SequenceParams(*seeds), first, last)))
    if fmt == "bfile":
        for n, value in rows:
            if value.denominator != 1:
                return 2, "", (
                    f"error: b-file output requires integer values, got {value} at n={n}; "
                    "use csv or json for fractional seeds\n"
                )
        return 0, "".join(f"{n} {value}\n" for n, value in rows), ""
    if fmt == "csv":
        return 0, "\n".join(["n,value"] + [f"{n},{value}" for n, value in rows]) + "\n", ""
    return 0, json.dumps([{"n": n, "value": str(value)} for n, value in rows]) + "\n", ""


_SEED = st.builds(Fraction, st.integers(-20, 20), st.integers(-20, 20).filter(bool))


@settings(max_examples=60, deadline=None)
@given(
    seeds=st.tuples(_SEED, _SEED, _SEED),
    first=st.integers(0, 40),
    count=st.integers(1, 200),
    fmt=st.sampled_from(["csv", "json", "bfile"]),
)
@example(seeds=(0, 0, 0), first=0, count=30, fmt="bfile")
@example(seeds=(1, 1, -2), first=0, count=30, fmt="csv")
@example(seeds=(Fraction(-1, 3), Fraction(2, 3), Fraction(-1, 3)), first=0, count=30, fmt="json")
@example(seeds=(Fraction(-1, 3), Fraction(2, 3), Fraction(-1, 3)), first=2, count=30, fmt="bfile")
@example(seeds=(Fraction(1, 2), 0, 0), first=0, count=30, fmt="bfile")
@example(seeds=(Fraction(1, 2), 0, 0), first=1, count=30, fmt="bfile")
@example(seeds=(0, 0, Fraction(1, 2)), first=0, count=30, fmt="bfile")
@example(seeds=(0, 1, 1), first=15000, count=1, fmt="csv")
def test_gen_matches_the_oracle_byte_for_byte(seeds, first, count, fmt):
    last = first + count - 1
    argv = ["gen", *(f"--{name}={seed}" for name, seed in zip("abc", seeds)),
            "--from", str(first), "--to", str(last), "--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = _gen_as_formatted_from_the_oracle(seeds, first, last, fmt)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out.getvalue(), err.getvalue()) == expected


def test_gen_memory_does_not_grow_with_the_range(tmp_path):
    path = tmp_path / "b.txt"
    tracemalloc.start()
    try:
        code = main(["gen", "--a=3", "--b=-7", "--c=11", "--to", "10000", "--format", "bfile",
                     "--output", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert path.read_text().splitlines()[-1] == f"10000 {term(SequenceParams(3, -7, 11), 10000)}"
    assert peak < 2_000_000


@pytest.mark.parametrize(
    "argv, code",
    [
        (("gen", "--a=1/3", "--to", "500", "--format", "json"), 0),
        (("gen", "--a=1/2", "--to", "500", "--format", "bfile"), 2),
        (("gen", "--to", "2000", "--output", "/dev/full"), 3),
    ],
    ids=["returns", "usage-error", "write-error"],
)
def test_gen_leaves_the_decimal_context_alone(capsys, argv, code):
    if "/dev/full" in argv and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    context = decimal.getcontext()
    prec = context.prec
    assert run(capsys, *argv)[0] == code
    assert decimal.getcontext() is context
    assert context.prec == prec


def _subprocess_env():
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def test_gen_exits_cleanly_when_the_reader_closes_the_pipe():
    env = _subprocess_env()
    for _ in range(3):
        proc = subprocess.Popen([sys.executable, "-m", "jacobsthal3", "gen", "--to", "20000"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"n,value\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert b"Traceback" not in err and b"BrokenPipeError" not in err


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


# main reuses one parser per process; these sequences check that nothing
# of one call reaches the next.

def test_reused_parser_keeps_no_seeds_between_calls(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "catalan-gen",
                       "--a=1/2", "--b=-3", "--c=7/5")
    assert code == 0 and json.loads(out)["params"] == ["1/2", "-3", "7/5"]
    default_seeds = verify_range(IdentityId.CATALAN_GEN, n_max=50).to_json() + "\n"
    assert run(capsys, "verify", "--identity", "catalan-gen") == (0, default_seeds, "")


def test_reused_parser_keeps_no_output_path_between_calls(capsys, tmp_path):
    path = tmp_path / "out.csv"
    assert run(capsys, "gen", "--to", "4", "--output", str(path)) == (0, "", "")
    expected = "n,value\n0,0\n1,1\n2,1\n3,2\n4,5\n"
    assert run(capsys, "gen", "--to", "4") == (0, expected, "")
    assert path.read_text() == expected


def test_usage_errors_leave_the_next_call_as_in_a_fresh_process(capsys):
    argv = ["verify", "--identity", "e4", "--n-max", "5"]
    fresh = subprocess.run([sys.executable, "-m", "jacobsthal3", *argv], capture_output=True,
                           text=True, env=_subprocess_env(), timeout=120)
    for bad in (["gen", "--a=1/0", "--to", "3"], ["gen"]):
        code, out, err = run(capsys, *bad)
        assert (code, out) == (2, "")
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(bad)
        assert exc.value.code == 2
        assert capsys.readouterr().err == err
    assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)


def _subparser(parser, name):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[name]


def test_help_follows_the_terminal_width_of_each_call(capsys, monkeypatch):
    helps = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        fresh = build_parser()
        assert run(capsys, "--help") == (0, fresh.format_help(), "")
        verify_help = _subparser(fresh, "verify").format_help()
        assert run(capsys, "verify", "--help") == (0, verify_help, "")
        helps.append(fresh.format_help())
    assert helps[0] != helps[1]


def test_build_parser_returns_a_new_parser_each_call():
    assert build_parser() is not build_parser()


def test_main_builds_no_parser_after_its_first_call(capsys, monkeypatch):
    argv = ["verify", "--identity", "e4", "--n-max", "3"]
    assert run(capsys, *argv)[0] == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(5):
        assert run(capsys, *argv)[0] == 0
    assert built == []
