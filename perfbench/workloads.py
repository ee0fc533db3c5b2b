"""The benchmark's workloads: seeded request streams over jacobsthal3.

Each workload is a generator of rounds drawn from a random.Random: the
requests of one round share a seed triple, and a run ends only between
rounds, so every run sends each kind of request equally often.  A
request's `call` is the timed part: what a user of the CLI or the library
does.  Its `check` compares the output with the reference recurrence and
runs outside the timed region.  Calls look functions up on their module at
call time, so the tracer's wrappers see them.

Seeds reach the CLI as `--a=<value>`: `--a -2/5` is read by argparse as a
flag, and negative seeds stay in the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Optional

from jacobsthal3 import cli, closed_forms, sequences, series, sums

import reference

#: verify sweeps run up to this n, as in the acceptance Catalan sweeps.
N_MAX = 64
#: b-files hold X(0..BFILE_LAST), below the known gen crash near n = 14,290.
BFILE_LAST = 10_000
#: closed-form and generating-function values are checked for n <= EVAL_LAST.
EVAL_LAST = 200
WEIGHTS = (Fraction(1), Fraction(-1), Fraction(3), Fraction(1, 2), Fraction(-2, 3), Fraction(5))
WEIGHTED_N = 32
STRIDES = (1, 2, 4, 5)
#: strides divisible by 3, where the strided closed form must refuse
DEGENERATE_STRIDES = (3, 6)
STRIDED_N = 24


@dataclass
class Request:
    label: str
    #: values the request verifies when its check passes
    items: int
    call: Callable[[], object]
    check: Callable[[object], bool]
    #: file the call writes, if any
    output: Optional[str] = None


def _rational(rng: random.Random) -> Fraction:
    # the acceptance draw: numerator and denominator in [-20, 20]
    num = rng.randint(-20, 20)
    den = 0
    while den == 0:
        den = rng.randint(-20, 20)
    return Fraction(num, den)


def rational_triples(rng: random.Random) -> Iterator[tuple[Fraction, ...]]:
    while True:
        yield tuple(_rational(rng) for _ in range(3))


def integer_triples(rng: random.Random) -> Iterator[tuple[int, ...]]:
    """Integer seeds in [-20, 20] with a + b + c != 0.

    For a + b + c == 0 the terms are periodic and small, so the b-file
    would not carry the 2**n growth this workload exists to measure.
    """
    while True:
        seeds = tuple(rng.randint(-20, 20) for _ in range(3))
        if sum(seeds):
            yield seeds


def seed_flags(seeds) -> list[str]:
    return [f"--{name}={value}" for name, value in zip("abc", seeds)]


def _verify_request(name: str, seeds, out: str) -> Request:
    argv = ["verify", "--identity", name, "--n-max", str(N_MAX), *seed_flags(seeds), "--output", out]
    return Request(
        label=name,
        items=reference.instance_count(name, N_MAX),
        call=lambda: cli.main(argv),
        check=lambda code: code == 0
        and reference.verify_report_ok(name, seeds, N_MAX, Path(out).read_text(encoding="utf-8")),
        output=out,
    )


def catalog_sweep(rng: random.Random, out: str) -> Iterator[list[Request]]:
    """`verify` of every catalog entry, in turn, for each drawn triple."""
    for seeds in rational_triples(rng):
        yield [_verify_request(name, seeds, out) for name, *_ in reference.CATALOG]


def _gen_request(seeds, out: str) -> Request:
    argv = ["gen", *seed_flags(seeds), "--to", str(BFILE_LAST), "--format", "bfile", "--output", out]
    return Request(
        label="gen",
        items=BFILE_LAST + 1,
        call=lambda: cli.main(argv),
        check=lambda code: code == 0 and _bfile_ok(out, seeds),
        output=out,
    )


def _bfile_ok(path: str, seeds) -> bool:
    with open(path, "rb") as lines:
        return reference.bfile_ok(lines, seeds, BFILE_LAST)


def bfile_gen(rng: random.Random, out: str) -> Iterator[list[Request]]:
    """One `gen --format bfile` of X(0..10000) per fresh integer triple."""
    for seeds in integer_triples(rng):
        yield [_gen_request(seeds, out)]


def _binet(params):
    oracle = sequences.term_range(params, 0, EVAL_LAST)
    return [(closed_forms.binet_term(params, n), oracle[n]) for n in range(EVAL_LAST + 1)]


def _decomposed(params):
    oracle = sequences.term_range(params, 0, EVAL_LAST)
    return [(closed_forms.decomposed_term(params, n), oracle[n]) for n in range(EVAL_LAST + 1)]


def _generating_function(params):
    return [(value,) for value in series.gf_coefficients(params, EVAL_LAST + 1)]


def _weighted(params):
    rows = []
    for x in WEIGHTS:
        for n in range(WEIGHTED_N + 1):
            weights = [x ** (-k) for k in range(n + 1)]
            rows.append(
                (sums.weighted_sum_closed(params, x, n), sums.sum_oracle(params, range(n + 1), weights))
            )
    return rows


def _strided(params):
    rows = []
    for m in STRIDES + DEGENERATE_STRIDES:
        for r in range(m, m + 7):
            for n in range(STRIDED_N + 1):
                try:
                    closed = sums.strided_sum_closed(params, m, r, n)
                except sums.DegenerateStrideError:
                    closed = None
                rows.append((closed, sums.sum_oracle(params, [m * k + r for k in range(n + 1)])))
    return rows


# Each evaluator returns rows of (closed form, oracle) values, or (closed form,)
# where the generating function is the only side computed.
_EVALUATORS = {
    "binet_term": _binet,
    "decomposed_term": _decomposed,
    "gf_coefficients": _generating_function,
    "weighted_sums": _weighted,
    "strided_sums": _strided,
}


def expected_rows(seeds) -> dict:
    """The rows each evaluator must return for `seeds`, from the reference recurrence."""
    values = reference.terms(seeds, EVAL_LAST)
    return {
        "binet_term": [(value, value) for value in values],
        "decomposed_term": [(value, value) for value in values],
        "gf_coefficients": [(value,) for value in values],
        "weighted_sums": [
            (total, total) for x in WEIGHTS for total in reference.weighted_sums(values, x, WEIGHTED_N)
        ],
        "strided_sums": [
            (None if m in DEGENERATE_STRIDES else total, total)
            for m in STRIDES + DEGENERATE_STRIDES
            for r in range(m, m + 7)
            for total in reference.strided_sums(values, m, r, STRIDED_N)
        ],
    }


def _closed_form_request(label: str, seeds, expected: list) -> Request:
    evaluate = _EVALUATORS[label]
    return Request(
        label=label,
        items=len(expected),
        call=lambda: evaluate(sequences.SequenceParams(*seeds)),
        check=lambda rows: rows == expected and all(map(_exact, rows)),
    )


def _exact(row) -> bool:
    # a float can compare equal to a Fraction; the package promises exact values
    return all(value is None or isinstance(value, (int, Fraction)) for value in row)


def closed_forms_workload(rng: random.Random, out: str) -> Iterator[list[Request]]:
    """Each closed-form evaluator, in turn, on each drawn triple."""
    for seeds in rational_triples(rng):
        expected = expected_rows(seeds)
        yield [_closed_form_request(label, seeds, expected[label]) for label in _EVALUATORS]


WORKLOADS = {
    "catalog-sweep": catalog_sweep,
    "closed-forms": closed_forms_workload,
    "bfile-gen": bfile_gen,
}
