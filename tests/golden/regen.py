"""Regenerate cli.json, the golden corpus of CLI and demo output bytes.

    python tests/golden/regen.py

runs every invocation in INVOCATIONS against the package under src/ of
this checkout, and every demos/*.py script, and rewrites cli.json next to
this file.  Each CLI entry records its argv, exit code, stderr, stdout
and, for argv naming OUTPUT, the bytes written to that file; each demo
entry records the script's stdout.  Outputs under INLINE_LIMIT bytes are
stored as text, longer ones as their sha256 and length.  The only masked
text is the elapsed time on selftest's "finished in" line.

tests/test_golden.py and tests/test_demos.py compare the current tree
against the file and never rewrite it: a change that alters bytes on
purpose reruns this script and says which entries changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CORPUS = HERE / "cli.json"
INLINE_LIMIT = 4096
#: Stands for the --output path, a fresh file in a temporary directory.
OUTPUT = "{output}"
#: The terminal width argparse formats help and usage for.
COLUMNS = "80"

_SEEDS = ((), ("--a=1/2", "--b=-3", "--c=7/5"), ("--a=1/13", "--b=-1/17", "--c=5/19"))
_ELAPSED = re.compile(r"(selftest finished in )\d+\.\d+s")

INVOCATIONS: list[list[str]] = [
    [],
    ["--help"],
    *[[command, "--help"] for command in ("gen", "verify", "gf", "sum", "selftest")],
    ["selftest"],
    *[["gen", "--to", "24", "--format", fmt, *seeds] for fmt in ("csv", "json") for seeds in _SEEDS],
    ["gen", "--from", "5", "--to", "12", "--format", "bfile", "--a=2", "--b=1", "--c=5"],
    ["gen", "--to", "2000", "--format", "bfile", "--output", OUTPUT],
    ["gen", "--to", "3", "--format", "bfile", "--a=1/2"],
    ["gen", "--from", "5", "--to", "4"],
    ["gen", "--to", "3", "--a=nonsense"],
    ["gen", "--to", "3", "--output", "/"],
    ["gen", "--to", "3", "--output", ""],
    *[["verify", "--identity", "all", "--n-max", "30", *clip, *seeds]
      for clip in ((), ("--r-max", "3")) for seeds in _SEEDS],
    ["verify", "--identity", "catalan-gen", "--n-max", "12", "--r-max", "3", "--a=3", "--output", OUTPUT],
    ["verify", "--identity", "e5", "--n-max", "2"],
    ["verify", "--identity", "all", "--n-max", "2"],
    ["verify", "--identity", "catalan-gen", "--r-max", "-1"],
    ["verify", "--identity", "nosuch"],
    *[["gf", "--terms", "20", "--format", fmt, *seeds] for fmt in ("csv", "json") for seeds in _SEEDS],
    ["gf", "--terms", "300", "--format", "json", "--output", OUTPUT],
    ["gf", "--terms", "0"],
    *[["sum", "--mode", "prefix", "--n", "20", "--format", fmt] for fmt in ("json", "csv")],
    ["sum", "--mode", "prefix", "--n", "4", "--a=1"],
    *[["sum", "--mode", "weighted", "--x=-2/3", "--n", "20", *seeds] for seeds in _SEEDS],
    ["sum", "--mode", "weighted", "--x=3", "--n", "5", "--format", "csv", *_SEEDS[2]],
    ["sum", "--mode", "weighted", "--n", "3"],
    ["sum", "--mode", "weighted", "--x=2", "--n", "3"],
    ["sum", "--mode", "weighted", "--x=0", "--n", "3"],
    *[["sum", "--mode", "strided", "--m", "2", "--r", "3", "--n", "20", *seeds] for seeds in _SEEDS],
    ["sum", "--mode", "strided", "--m", "5", "--r", "7", "--n", "9", "--format", "csv", *_SEEDS[1]],
    ["sum", "--mode", "strided", "--m", "3", "--r", "3", "--n", "5", "--output", OUTPUT],
    ["sum", "--mode", "strided", "--m", "2", "--r", "1", "--n", "4"],
    ["sum", "--mode", "strided", "--n", "4"],
    ["sum", "--mode", "prefix", "--n", "-1"],
    ["sum", "--mode", "strided", "--m", "6", "--r", "7", "--n", "4", "--format", "csv"],
    ["sum", "--mode", "strided", "--m", "0", "--r", "1", "--n", "2"],
    ["sum", "--mode", "weighted", "--x=3", "--n", "2", "--m", "2", "--r", "3"],
    ["sum", "--mode", "prefix", "--n", "5", "--x=3", "--format", "csv"],
]


def stored(text: str) -> object:
    """text inline when short, else {"sha256": ..., "length": ...} of its UTF-8 bytes."""
    data = text.encode("utf-8")
    if len(data) < INLINE_LIMIT:
        return text
    return {"sha256": hashlib.sha256(data).hexdigest(), "length": len(data)}


def _mask(text: str) -> str:
    return _ELAPSED.sub(r"\1<elapsed>", text)


def run_invocation(argv: list[str]) -> dict:
    """The corpus entry of one CLI invocation, run in this process."""
    # imported late, so that running this script puts its own src/ first on sys.path
    from jacobsthal3.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([path if arg == OUTPUT else arg for arg in argv])
        entry = {"argv": argv, "exit": code, "stderr": stderr.getvalue(), "stdout": stored(_mask(stdout.getvalue()))}
        if OUTPUT in argv:
            with open(path, encoding="utf-8", newline="") as handle:
                entry["output"] = stored(handle.read())
    return entry


def demo_stdout(script: Path) -> object:
    """The stored form of a demo script's stdout, run against src/ of this checkout."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
        check=True,
    )
    return stored(proc.stdout)


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["COLUMNS"] = COLUMNS
    corpus = {
        "cli": [run_invocation(argv) for argv in INVOCATIONS],
        "demos": {script.name: demo_stdout(script) for script in sorted((ROOT / "demos").glob("*.py"))},
    }
    CORPUS.write_text(json.dumps(corpus, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
