"""Benchmark of jacobsthal3: one workload per run, or all of them.

    python3 perfbench/run.py --workload catalog-sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --all --seed 1

A workload run imports the package from `src/` next to this directory,
sends requests from a single client in a closed loop (the next request
starts when the previous one has returned) until the requests have taken
`--seconds` of measured time, checks every output against the reference
recurrence outside the measured time, and prints the metrics.  Between
rounds it times a fixed calibration loop, by whose measure of host speed
request timings are scaled, and runs the set-up of a fresh interpreter
(see NOTES.md).  The last line of standard output is one JSON object:
with `--trace 0` it holds the end-to-end metrics, with `--trace 1` the
per-layer metrics of a traced run.  The exit code is 0 only when every
output was correct.

`--all` runs every workload untraced and traced, each in a fresh
interpreter, and prints all metrics by name with units, the error rate and
the tracing overhead.  See NOTES.md for the metrics and known defects.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("catalog-sweep", "closed-forms", "bfile-gen")
#: peak_rss_mb is read after the first whole rounds that hold this many
#: requests, so it does not grow with the speed of the code: on bfile-gen it
#: counts the oracle cache of 8 triples.  sequences.retained_mb is measured
#: over as many requests.
RSS_AFTER_REQUESTS = 8
SETUP_RUNS = 21
#: Run by a fresh interpreter: prints the CPU seconds that importing the CLI
#: and building its parser took, leaving out the interpreter's own start.
SETUP_CODE = (
    "import time; start = time.process_time(); "
    "import jacobsthal3.cli; jacobsthal3.cli.build_parser(); "
    "print(time.process_time() - start)"
)
#: After every round the calibration loop runs for at least this share of the
#: round's request time, so that it samples the host's speed phases in step
#: with the requests.
CALIBRATION_SHARE = 0.05
#: Duration of one calibration pass at the reference host speed, 1.0.
CALIBRATION_REFERENCE_S = 0.004
_CALIBRATION_SEEDS = (Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11))
_CALIBRATION_INT = 7**4000


def _load_package() -> dict:
    """Import jacobsthal3 from this checkout's src/, never from elsewhere."""
    if not (SRC / "jacobsthal3" / "__init__.py").is_file():
        raise SystemExit(f"error: no jacobsthal3 sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import jacobsthal3
    from jacobsthal3 import cli, closed_forms, eisenstein, identities, sequences, series, sums

    if Path(jacobsthal3.__file__).resolve().parent != SRC / "jacobsthal3":
        raise SystemExit(f"error: imported jacobsthal3 from {jacobsthal3.__file__}")
    return {
        "cli": cli,
        "identities": identities,
        "sequences": sequences,
        "closed_forms": closed_forms,
        "eisenstein": eisenstein,
        "series": series,
        "sums": sums,
    }


def _calibrate(passes: list[float], seconds: float) -> None:
    """Time passes of fixed work, at least one, until they have taken
    `seconds` of CPU time, and append their CPU times.

    The work is the benchmark's own and of the kinds the workloads do:
    Fraction arithmetic and big-integer-to-text conversion.  Garbage
    collection is off, so the package's heap cannot slow it down.
    """
    import reference

    gc.disable()
    try:
        spent = 0.0
        while not spent or spent < seconds:
            start = time.process_time()
            reference.terms(_CALIBRATION_SEEDS, 300)
            for _ in range(4):
                str(_CALIBRATION_INT)
            passes.append(time.process_time() - start)
            spent += passes[-1]
    finally:
        gc.enable()


def _host_speed(passes: list[float]) -> float:
    """Host speed relative to the reference: above 1 means faster."""
    return CALIBRATION_REFERENCE_S / statistics.mean(passes)


def _setup_run() -> tuple[float, float]:
    """CPU seconds a fresh interpreter took to import the CLI and build its
    parser, timed inside it, and the wall time of its whole process."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
    return float(proc.stdout), time.perf_counter() - start


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _percentile(latencies: list[float], which: int) -> float:
    if len(latencies) == 1:
        return latencies[0]
    return statistics.quantiles(latencies, n=10)[which // 10 - 1]


def _serve(request, tracer) -> tuple[float, float, bool]:
    """Send one request; return its CPU time, its wall time and whether its
    output checked out."""
    call = request.call if tracer is None else tracer.wrap(request.call, "request", span=True)
    start, start_cpu = time.perf_counter(), time.process_time()
    try:
        result = call()
        cpu, wall = time.process_time() - start_cpu, time.perf_counter() - start
        ok = request.check(result)
    except Exception:
        cpu, wall = time.process_time() - start_cpu, time.perf_counter() - start
        traceback.print_exc()
        ok = False
    if not ok:
        print(f"error: a {request.label} request failed its check", file=sys.stderr)
    if tracer is not None and request.output is not None and os.path.exists(request.output):
        tracer.bytes_out += os.path.getsize(request.output)
    return cpu, wall, ok


def measure(workload: str, seed: int, seconds: float, tracer=None, setup_runs: int = 0) -> dict:
    """Run whole rounds of one workload until its requests have taken `seconds`
    of wall time.

    Request times are the process's CPU time across each request, which
    leaves out the time the hypervisor gives the CPU to others (see
    NOTES.md); the wall-clock figures are returned beside them.

    Between rounds, `setup_runs` set-up runs are spread evenly over the
    measured time, so that they meet the same phases of host speed as the
    requests do; setup_s is the median of their times.

    With a tracer, the per-layer metrics cover exactly that timed part.
    Then, untraced, whole rounds of at least RSS_AFTER_REQUESTS requests run
    under tracemalloc, whose growth across them is sequences.retained_mb;
    tracemalloc slows allocation-heavy code several times over, so it stays
    out of the timed part.
    """
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    output = OUT_DIR / f"{workload}.out"
    stream = workloads.WORKLOADS[workload](random.Random(seed), str(output))
    latencies: list[float] = []
    wall_latencies: list[float] = []
    passes: list[float] = []
    busy = busy_cpu = 0.0
    items = failed = rounds = 0
    rss_mb = None
    setups: list[tuple[float, float]] = []
    if setup_runs:
        _setup_run()  # unmeasured: it may compile bytecode
    for round_ in stream:
        rounds += 1
        round_start = busy
        for request in round_:
            if tracer is not None:
                tracer.request = len(latencies)
            cpu, wall, ok = _serve(request, tracer)
            latencies.append(cpu)
            wall_latencies.append(wall)
            busy += wall
            busy_cpu += cpu
            items += request.items if ok else 0
            failed += not ok
        _calibrate(passes, CALIBRATION_SHARE * (busy - round_start))
        while len(setups) < setup_runs * min(busy / seconds, 1):
            setups.append(_setup_run())
        if rss_mb is None and len(latencies) >= RSS_AFTER_REQUESTS:
            rss_mb = _peak_rss_mb()
        if busy >= seconds:
            break
    result = {
        "attempted": len(latencies),
        "failed": failed,
        "rounds": rounds,
        "items_per_s": items / busy_cpu,
        "req_p50_ms": _percentile(latencies, 50) * 1e3,
        "req_p90_ms": _percentile(latencies, 90) * 1e3,
        "wall": {
            "items_per_s": items / busy,
            "req_p50_ms": _percentile(wall_latencies, 50) * 1e3,
            "req_p90_ms": _percentile(wall_latencies, 90) * 1e3,
        },
        "peak_rss_mb": _peak_rss_mb() if rss_mb is None else rss_mb,
        "host_speed": _host_speed(passes),
    }
    if setups:
        result["setup_s"] = statistics.median(inside for inside, _ in setups)
        result["setup_process_s"] = statistics.median(process for _, process in setups)
    if tracer is not None:
        import reference

        result["layers"] = tracer.metrics([name for name, *_ in reference.CATALOG])
        tracer.write_spans(OUT_DIR / f"spans-{workload}-seed{seed}.json")
        tracer.uninstall()
        gc.collect()
        tracemalloc.start()
        served = 0
        while served < RSS_AFTER_REQUESTS:
            for request in next(stream):
                served += 1
                result["failed"] += not _serve(request, None)[2]
        result["attempted"] += served
        gc.collect()
        result["retained_mb"] = tracemalloc.get_traced_memory()[0] / 2**20
        tracemalloc.stop()
    if output.exists():
        output.unlink()
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    modules = _load_package()
    sys.path.insert(0, str(HERE))
    from tracing import Tracer

    if not trace:
        result = measure(workload, seed, seconds, setup_runs=SETUP_RUNS)
        speed = result["host_speed"]
        wall = {
            "items_per_s": (result["wall"]["items_per_s"], "1/s"),
            "req_p50_ms": (result["wall"]["req_p50_ms"], "ms"),
            "req_p90_ms": (result["wall"]["req_p90_ms"], "ms"),
            "setup_s": (result["setup_process_s"], "s"),
        }
        # CPU times scaled to the reference host speed; see "Host speed" in NOTES.md
        metrics = {
            "items_per_s": (result["items_per_s"] / speed, "1/s"),
            "req_p50_ms": (result["req_p50_ms"] * speed, "ms"),
            "req_p90_ms": (result["req_p90_ms"] * speed, "ms"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            "setup_s": (result["setup_s"], "s"),
        }
        note = f"host speed {speed:.4f}"
    else:
        tracer = Tracer()
        tracer.install(modules)
        result = measure(workload, seed, seconds, tracer)
        wall = {"trace.items_per_s": (result["wall"]["items_per_s"], "1/s")}
        metrics = result["layers"]
        metrics["sequences.retained_mb"] = (result["retained_mb"], "MB")
        metrics["trace.items_per_s"] = (result["items_per_s"] / result["host_speed"], "1/s")
        metrics["trace.rounds"] = (result["rounds"], "count")
        note = f"host speed {result['host_speed']:.4f}"

    attempted, failed = result["attempted"], result["failed"]
    print(f"{workload} seed={seed} trace={int(trace)}: {attempted} requests in {result['rounds']} rounds, "
          f"{failed} failed, error_rate {failed / attempted:g}, {note}")
    for name, (value, unit) in metrics.items():
        line = f"  {name:<44} {value:>14.6g} {unit}"
        if name in wall and wall[name][0] != value:
            line += f"  (wall clock {wall[name][0]:.6g} {unit})"
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def _run_child(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    """Run one workload in a fresh interpreter; echo its report, return its result."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]))
    if proc.returncode != 0 or not lines:
        print(f"{workload}: FAILED (exit code {proc.returncode})")
        return None
    return json.loads(lines[-1])


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced, and the tracing overhead."""
    ok = True
    for workload in WORKLOAD_NAMES:
        plain = _run_child(workload, seed, seconds, 0)
        traced = _run_child(workload, seed, seconds, 1)
        if plain is None or traced is None:
            ok = False
            continue
        overhead = plain["metrics"]["items_per_s"]["value"] / traced["metrics"]["trace.items_per_s"]["value"]
        print(f"{workload}: tracing overhead (untraced / traced items_per_s) {overhead:.3f}\n")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=WORKLOAD_NAMES)
    what.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured request time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    if args.all:
        return run_all(args.seed, seconds)
    return run_workload(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
