"""The examples in the package's docstrings run and pass (pytest does not collect them)."""

import doctest
import importlib
import pkgutil

import jacobsthal3


def test_every_module_doctest_passes():
    modules = [jacobsthal3] + [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(jacobsthal3.__path__, "jacobsthal3.")
    ]
    failed = attempted = 0
    for module in modules:
        result = doctest.testmod(module)
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    assert attempted >= 8
