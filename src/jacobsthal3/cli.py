"""Command-line interface.

Subcommands: gen (emit sequence terms), verify (sweep the identity
catalog), gf (expand the generating function), sum (evaluate summation
closed forms against the oracle), selftest (run the whole battery).

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error
(stdout or the --output file cannot be written; a reader that closes the
pipe early is not an error).  Every command writes through _emit, the one
place that maps a failed write to exit 3.  Output is deterministic:
identical invocations produce byte-identical results.

selftest's weighted sums and strided sums lines run the same pairing of
closed form and oracle (_sum_pair) whose values sum prints.

gen streams: it takes the first three terms of the range from the oracle
and writes each line as soon as the next term is computed, keeping three
terms in memory however many it writes.  Its usage errors are all raised
before anything is written, but a write error partway through, to stdout or
to --output, still exits 3 and may leave partial output.

main builds its argparse parser on its first call and reuses it for every
later call in the same process, so each cmd_* function is bound to its
subcommand once per process.  Reuse changes no output: each parse fills a
new Namespace, every default is immutable, and argparse reads the streams
and the terminal width (COLUMNS) only when it formats help or an error.
build_parser still returns a new parser on every call.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
import time
from contextlib import nullcontext, suppress
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded
from fractions import Fraction
from itertools import chain, islice, zip_longest
from math import gcd, lcm
from operator import eq
from typing import Iterable, Iterator, Optional, Sequence

from .closed_forms import binet_term, decomposed_term
from .identities import IdentityId, verify_range
from .sequences import JACOBSTHAL, SequenceParams, term_range
from .series import gf_coefficients
from .sums import (
    DegenerateStrideError,
    StridedSumContext,
    prefix_sum_closed,
    strided_sum_closed,
    sum_oracle,
    weighted_sum_closed,
)


class UsageError(Exception):
    """Invalid arguments detected after parsing; maps to exit code 2."""


class OutputError(Exception):
    """stdout or the --output file cannot be written; maps to exit code 3."""


def _rational_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational literal: {text!r} ({exc})")


def _add_seed_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--a", type=_rational_arg, default=Fraction(0),
                        help="seed X(0), integer or p/q (default 0)")
    parser.add_argument("--b", type=_rational_arg, default=Fraction(1),
                        help="seed X(1), integer or p/q (default 1)")
    parser.add_argument("--c", type=_rational_arg, default=Fraction(1),
                        help="seed X(2), integer or p/q (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacobsthal3",
        description="Exact-arithmetic toolkit for third-order Jacobsthal sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit sequence terms")
    _add_seed_flags(gen)
    gen.add_argument("--from", dest="start", type=int, default=0, metavar="N",
                     help="first index (default 0)")
    gen.add_argument("--to", dest="stop", type=int, required=True, metavar="N",
                     help="last index, inclusive")
    gen.add_argument("--format", choices=("csv", "json", "bfile"), default="csv")
    gen.set_defaults(func=cmd_gen)

    verify = sub.add_parser("verify", help="sweep the identity catalog (JSON reports)")
    _add_seed_flags(verify)
    verify.add_argument("--identity", required=True,
                        choices=[ident.value for ident in IdentityId] + ["all"],
                        help="catalog entry, or 'all'")
    verify.add_argument("--n-max", type=int, default=50, metavar="N",
                        help="largest n in the sweep (default 50)")
    verify.add_argument("--r-max", type=int, default=None, metavar="R",
                        help="clip r for Catalan sweeps (default: r <= n)")
    verify.set_defaults(func=cmd_verify)

    gf = sub.add_parser("gf", help="expand the generating function")
    _add_seed_flags(gf)
    gf.add_argument("--terms", type=int, default=16, metavar="N",
                    help="number of coefficients to emit (default 16)")
    gf.add_argument("--format", choices=("csv", "json"), default="csv")
    gf.set_defaults(func=cmd_gf)

    sum_cmd = sub.add_parser("sum", help="evaluate a summation closed form vs the oracle")
    _add_seed_flags(sum_cmd)
    sum_cmd.add_argument("--mode", required=True, choices=("prefix", "weighted", "strided"))
    sum_cmd.add_argument("--n", type=int, required=True, metavar="N",
                         help="number of summands minus one (sum over k = 0..n)")
    sum_cmd.add_argument("--x", type=_rational_arg, default=None,
                         help="weight base for --mode weighted (weights x**-k)")
    sum_cmd.add_argument("--m", type=int, default=None, help="stride for --mode strided")
    sum_cmd.add_argument("--r", type=int, default=None, help="offset for --mode strided")
    sum_cmd.add_argument("--format", choices=("json", "csv"), default="json")
    sum_cmd.set_defaults(func=cmd_sum)

    selftest = sub.add_parser("selftest", help="run the full verification battery")
    selftest.set_defaults(func=cmd_selftest)

    # last, so that --output ends each of these commands' usage and help
    for command in (gen, verify, gf, sum_cmd):
        command.add_argument("--output", metavar="PATH", help="write to PATH instead of stdout")
    return parser


#: The parser main parses with, built on its first call.
_parser = functools.cache(build_parser)


def _emit(lines: Iterable[str], output: Optional[str]) -> None:
    """Write lines to stdout, or to the file output, as they are produced.

    Every OSError but a broken pipe is an OutputError that names stdout, or
    output as given; so is a closed stdout (None).  A failed write closes
    stdout, so that the interpreter's flush at exit, which skips a closed
    stream, does not fail again on what the write left in the buffer.
    """
    try:
        if output is None and sys.stdout is None:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        target = nullcontext(sys.stdout) if output is None else open(output, "w", encoding="utf-8", newline="\n")
        with target as handle:
            handle.writelines(lines)
            handle.flush()
    except OSError as exc:
        if output is None and sys.stdout is not None:
            with suppress(OSError):
                sys.stdout.close()
        if isinstance(exc, BrokenPipeError):
            raise
        raise OutputError(f"cannot write {'stdout' if output is None else output}: {exc.strerror or exc}") from exc


def _params(args: argparse.Namespace) -> SequenceParams:
    return SequenceParams(args.a, args.b, args.c)


#: Exact integer arithmetic in base 10, where text conversion is linear in
#: the digit count (int's is quadratic).  Rounding of any kind raises.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])


def _term_texts(params: SequenceParams, first: int, last: int) -> Iterator[str]:
    """str(X(n)) for first <= n <= last, rendered as str(Fraction) renders it.

    Takes X(first..first+2) from the oracle and runs the recurrence on from
    there on Decimal integers, the terms scaled by the lcm D of those three
    denominators (integer coefficients keep every later term a multiple of
    1/D), keeping three terms.  Uses the methods of an exact context rather
    than localcontext, so the caller's decimal context stays in force while
    the generator is suspended.

    >>> list(_term_texts(SequenceParams(Fraction(1, 2), 0, 0), 0, 6))
    ['1/2', '0', '0', '1', '1', '2', '5']
    """
    add, multiply = _EXACT.add, _EXACT.multiply
    window = term_range(params, first, first + 2)
    scale = lcm(*(value.denominator for value in window))
    divisor, two = Decimal(scale), Decimal(2)
    x0, x1, x2 = (Decimal(int(value * scale)) for value in window)

    def text(y: Decimal) -> str:
        if scale == 1:
            return str(y)
        g = gcd(int(_EXACT.remainder(y, divisor)), scale)
        numerator = str(_EXACT.divide_int(y, Decimal(g)))
        return numerator if g == scale else f"{numerator}/{scale // g}"

    for _ in range(last - first + 1):
        yield text(x0)
        x0, x1, x2 = x1, x2, add(add(x2, x1), multiply(two, x0))


def _json_rows(rows: Iterable[tuple[int, str]]) -> Iterator[str]:
    """json.dumps([{"n": n, "value": text}, ...]) + "\n", one row at a time."""
    separator = "["
    for n, text in rows:
        yield separator + json.dumps({"n": n, "value": text})
        separator = ", "
    yield "]\n"


def cmd_gen(args: argparse.Namespace) -> int:
    if args.start < 0 or args.start > args.stop:
        raise UsageError(f"need 0 <= from <= to, got from={args.start}, to={args.stop}")
    rows = zip(range(args.start, args.stop + 1), _term_texts(_params(args), args.start, args.stop))
    if args.format == "bfile":
        # The recurrence has integer coefficients, so when three consecutive
        # terms are integers every later term is one too.
        head = list(islice(rows, 3))
        for n, text in head:
            if "/" in text:
                raise UsageError(
                    f"b-file output requires integer values, got {text} at n={n}; "
                    "use csv or json for fractional seeds"
                )
        lines = (f"{n} {text}\n" for n, text in chain(head, rows))
    elif args.format == "csv":
        lines = chain(("n,value\n",), (f"{n},{text}\n" for n, text in rows))
    else:
        lines = _json_rows(rows)
    _emit(lines, args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    identities = list(IdentityId) if args.identity == "all" else [IdentityId(args.identity)]
    if args.r_max is not None and args.r_max < 0:
        raise UsageError(f"--r-max must be nonnegative, got {args.r_max}")
    for ident in identities:
        if args.n_max < ident.min_n:
            raise UsageError(
                f"--n-max {args.n_max} is below the minimum n ({ident.min_n}) for {ident.value}"
            )
    params = _params(args)
    reports = [verify_range(ident, params, n_max=args.n_max, r_max=args.r_max) for ident in identities]
    _emit((report.to_json() + "\n" for report in reports), args.output)
    return 0 if all(report.ok for report in reports) else 1


def cmd_gf(args: argparse.Namespace) -> int:
    if args.terms < 1:
        raise UsageError(f"--terms must be positive, got {args.terms}")
    params = _params(args)
    coeffs = gf_coefficients(params, args.terms)
    oracle = term_range(params, 0, args.terms - 1)
    matches = coeffs == oracle
    if args.format == "csv":
        lines = ["n,coefficient"]
        lines += [f"{n},{value}" for n, value in enumerate(coeffs)]
        lines.append(f"# matches_recurrence,{'true' if matches else 'false'}")
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "params": [str(params.a), str(params.b), str(params.c)],
            "terms": args.terms,
            "coefficients": [str(value) for value in coeffs],
            "matches_recurrence": matches,
        }
        text = json.dumps(payload) + "\n"
    _emit((text,), args.output)
    return 0 if matches else 1


def _sum_pair(params: SequenceParams, mode: str, n: int, x: Optional[Fraction] = None,
              m: Optional[int] = None, r: Optional[int] = None) -> tuple[Optional[Fraction], Fraction]:
    """(closed form, oracle) of the mode's sum over k = 0..n, for sum and selftest.

    The closed form is None when the stride m is divisible by 3.  Any other
    ValueError from a closed form is a UsageError.  The oracle runs only
    once the closed form has accepted its arguments, outside that mapping.
    """
    try:
        if mode == "prefix":
            closed = prefix_sum_closed(n)
        elif mode == "weighted":
            closed = weighted_sum_closed(params, x, n)
        else:
            closed = strided_sum_closed(params, m, r, n)
    except DegenerateStrideError:
        closed = None
    except ValueError as exc:
        raise UsageError(str(exc))
    ks = range(n + 1)
    if mode == "weighted":
        return closed, sum_oracle(params, ks, [x ** (-k) for k in ks])
    return closed, sum_oracle(params, [m * k + r for k in ks] if mode == "strided" else ks)


def _sum_payload(args: argparse.Namespace) -> dict:
    params = _params(args)
    if args.n < 0:
        raise UsageError(f"--n must be nonnegative, got {args.n}")
    payload: dict = {
        "mode": args.mode,
        "params": [str(params.a), str(params.b), str(params.c)],
        "n": args.n,
    }
    if args.mode == "prefix" and params != JACOBSTHAL:
        raise UsageError("the prefix closed form is specific to seeds (0, 1, 1)")
    if args.mode == "weighted":
        if args.x is None:
            raise UsageError("--mode weighted requires --x")
        payload["x"] = str(args.x)
    elif args.mode == "strided":
        if args.m is None or args.r is None:
            raise UsageError("--mode strided requires --m and --r")
        payload.update(m=args.m, r=args.r)
    closed, oracle = _sum_pair(params, args.mode, args.n, args.x, args.m, args.r)
    if closed is None:
        payload["warning"] = "sigma=0 for m divisible by 3"
    payload["closed_form"] = None if closed is None else str(closed)
    payload["oracle"] = str(oracle)
    payload["agree"] = None if closed is None else closed == oracle
    return payload


def cmd_sum(args: argparse.Namespace) -> int:
    payload = _sum_payload(args)
    if args.format == "json":
        text = json.dumps(payload) + "\n"
    else:
        flat = dict(payload)
        a, b, c = flat.pop("params")
        flat = {"mode": flat.pop("mode"), "a": a, "b": b, "c": c, **flat}
        render = lambda value: "" if value is None else str(value).lower() if isinstance(value, bool) else str(value)
        text = ",".join(flat) + "\n" + ",".join(render(v) for v in flat.values()) + "\n"
    _emit((text,), args.output)
    return 1 if payload["agree"] is False else 0


# Seed triples exercised by selftest; the catalog must hold for all of them.
SELFTEST_SEEDS = (
    SequenceParams(0, 1, 1),
    SequenceParams(2, 1, 5),
    SequenceParams(1, 2, 3),
    SequenceParams(5, -1, 2),
    SequenceParams(Fraction(1, 2), -3, Fraction(7, 5)),
)


#: selftest's n bound per identity: 100 for J / jL entries, 64 per seed
#: triple for general ones, except the entries listed here.
_SELFTEST_N_MAX = {
    IdentityId.CATALAN_J: 64,
    IdentityId.GELIN_CESARO_J: 64,
    IdentityId.CATALAN_GEN: 32,
}


def _battery_line(label: str, outcomes: Iterable[bool]) -> tuple[str, int, bool]:
    results = list(outcomes)
    return label, len(results), all(results)


def _selftest_checks():
    """Yield (label, total_instances, ok) tuples for the whole battery."""
    yield _battery_line("closed-form agreement", (
        closed(seeds, n) == expected
        for seeds in SELFTEST_SEEDS
        for n, expected in enumerate(term_range(seeds, 0, 128))
        for closed in (binet_term, decomposed_term)
    ))

    for ident in IdentityId:
        n_max = _SELFTEST_N_MAX.get(ident, 100 if ident.fixed_seeds else 64)
        seed_set = (JACOBSTHAL,) if ident.fixed_seeds else SELFTEST_SEEDS
        reports = [verify_range(ident, seeds, n_max=n_max) for seeds in seed_set]
        yield ident.value, sum(rep.total for rep in reports), all(rep.ok for rep in reports)

    # zip_longest pairs a missing coefficient with None, so a short series fails.
    yield _battery_line("generating function", (
        got == want
        for seeds in SELFTEST_SEEDS
        for got, want in zip_longest(gf_coefficients(seeds, 128), term_range(seeds, 0, 127))
    ))

    xs = (Fraction(1), Fraction(-1), Fraction(3), Fraction(1, 2), Fraction(-2, 3), Fraction(5))
    yield _battery_line("weighted sums", (
        eq(*_sum_pair(seeds, "weighted", n, x=x))
        for seeds in SELFTEST_SEEDS
        for x in xs
        for n in range(33)
    ))

    yield _battery_line("strided sums", chain(
        (
            eq(*_sum_pair(seeds, "strided", n, m=m, r=r))
            for seeds in SELFTEST_SEEDS[:3]
            for m in (1, 2, 4, 5)
            for r in range(m, m + 7)
            for n in range(25)
        ),
        (
            StridedSumContext.of(m, m).sigma == 0 and _sum_pair(JACOBSTHAL, "strided", 1, m=m, r=m)[0] is None
            for m in (3, 6)
        ),
    ))


def cmd_selftest(args: argparse.Namespace) -> int:
    started = time.monotonic()
    failed = []

    def lines() -> Iterator[str]:
        for label, total, ok in _selftest_checks():
            if not ok:
                failed.append(label)
            yield f"{'PASS' if ok else 'FAIL'}  {label:<24} ({total} checks)\n"
        yield f"{'FAIL' if failed else 'PASS'}  selftest finished in {time.monotonic() - started:.1f}s\n"

    _emit(lines(), None)
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    # Terms from about n = 14,290 have more digits than the interpreter lets
    # str() produce by default; every command prints each value in full.
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (UsageError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 3
    except BrokenPipeError:
        return 0
    finally:
        sys.set_int_max_str_digits(digit_limit)


def run() -> None:
    raise SystemExit(main())
