"""The examples in the package's docstrings run and print what they show."""

from __future__ import annotations

import doctest
import importlib
import pkgutil

import basicq


def test_docstring_examples():
    names = ["basicq"] + [m.name for m in pkgutil.iter_modules(basicq.__path__, "basicq.")]
    results = [doctest.testmod(importlib.import_module(name)) for name in names]
    assert sum(r.failed for r in results) == 0
    # every module is searched: the package holds at least 11 examples
    assert sum(r.attempted for r in results) >= 11
