"""What the package imports and exports, and where its library reads values.

It runs on the standard library alone (`dependencies = []`), no module
imports a name it never uses, `__all__` is derived from the imports, and
no library module but the CLI reads the oracle through the public
`term`, `term_range` or `companions` views.  Q(w) values are imported
only by the Binet form and re-exported by the package root.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import jacobsthal3
from jacobsthal3.closed_forms import decomposed_term
from jacobsthal3.identities import IdentityId, verify_range
from jacobsthal3.sequences import SequenceParams
from jacobsthal3.sums import (
    prefix_sum_closed,
    strided_sum_closed,
    sum_oracle,
    weighted_sum_charpoly_form,
    weighted_sum_closed,
)

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


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import in source and never read as a name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    # no linter is installed, so this is the unused-import check;
    # __init__.py imports only to re-export
    assert _unused_imports("import os.path\nfrom a import b as c, d\nd()") == ["c", "os"]
    unused = {
        path.name: names
        for path in sorted((ROOT / "src" / "jacobsthal3").glob("*.py"))
        if path.name != "__init__.py"
        for names in [_unused_imports(path.read_text())]
        if names
    }
    assert unused == {}


def test_q_w_stays_in_the_binet_form():
    # sums reads the strided trace from m mod 3; only the Binet form computes
    # in Q(w), and the package root re-exports its names
    q_w = {"Eisenstein", "OMEGA1", "OMEGA2", "OMEGA_POWERS"}
    importers = set()
    for path in (ROOT / "src" / "jacobsthal3").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                # `from . import eisenstein` reaches every name of the module
                if (node.module or "").endswith("eisenstein") and names & q_w or "eisenstein" in names:
                    importers.add(path.name)
    assert importers == {"__init__.py", "closed_forms.py"}


def test_all_is_every_public_name_of_the_package_sorted():
    names = jacobsthal3.__all__
    assert names == sorted(names)
    assert "term" in names
    public = {
        name
        for name, value in vars(jacobsthal3).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(names) == public
    assert not any(isinstance(getattr(jacobsthal3, name), ModuleType) for name in names)
    namespace: dict = {}
    exec("from jacobsthal3 import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == names


def test_library_reads_neither_term_nor_term_range_nor_companions(monkeypatch):
    # closed forms and sums read oracle values from the scaled prefix and
    # seed constants from _rhs_ints; only the CLI takes the public views
    def unread(*args):
        raise AssertionError("a library module read a public oracle view")

    modules = [jacobsthal3] + [
        importlib.import_module(f"jacobsthal3.{info.name}")
        for info in pkgutil.iter_modules(jacobsthal3.__path__)
        if info.name != "cli"
    ]
    for module in modules:
        for name in ("term", "term_range", "companions"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, unread)
    params = SequenceParams(Fraction(2, 3), Fraction(-5, 7), 4)
    assert decomposed_term(params, 11) == Fraction(24320, 21)
    weighted = weighted_sum_closed(params, Fraction(-3, 2), 8)
    assert weighted == -weighted_sum_charpoly_form(params, Fraction(-3, 2), 8)
    assert weighted == sum_oracle(params, range(9), [Fraction(-3, 2) ** -k for k in range(9)])
    assert prefix_sum_closed(9) == 292
    assert strided_sum_closed(params, 2, 3, 5) == sum_oracle(params, range(3, 14, 2))
    for identity in IdentityId:
        assert verify_range(identity, params, n_max=9).ok
