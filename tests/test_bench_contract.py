"""What the benchmark under ``bench/`` relies on from the package.

``bench/tracing.py`` rebinds named module functions while a traced command
runs, and counts ``exprparse.evaluate`` calls made through the module
attribute.  These tests read ``bench/`` and edit nothing there.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from basicq import cli, exprparse

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    traced = _load_tracing().TRACED
    assert traced
    for module, name, _, _ in traced:
        target = getattr(importlib.import_module(f"basicq.{module}"), name)
        assert callable(target), f"basicq.{module}.{name}"


def test_cli_evaluates_expressions_through_the_module_attribute(capsys, monkeypatch):
    calls = []
    original = exprparse.evaluate

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(exprparse, "evaluate", counting)
    assert cli.main(["qint", "--expr", "x", "--upper", "1"]) == 0
    capsys.readouterr()
    assert len(calls) > 10
