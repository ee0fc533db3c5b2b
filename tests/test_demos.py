"""Every demo script runs to completion against the package in src/ and prints
the stdout recorded in the golden corpus tests/golden/cli.json.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from golden.regen import CORPUS, stored

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = json.loads(CORPUS.read_text(encoding="utf-8"))["demos"]


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert stored(proc.stdout) == GOLDEN[script.name]
