"""The package runs on the standard library alone (`dependencies = []`)."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THIRD_PARTY = ("numpy", "sympy", "hypothesis", "pytest", "mpmath")


def test_import_loads_no_third_party_module():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, jacobsthal3, jacobsthal3.cli\n"
        f"print(' '.join(name for name in {THIRD_PARTY!r} if name in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
