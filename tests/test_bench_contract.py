"""What the benchmark under ``bench/`` relies on from the package.

``bench/tracing.py`` rebinds named module functions while a traced command
runs, and counts ``exprparse.evaluate`` calls made through the module
attribute.  These tests read ``bench/`` and edit nothing there.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import subprocess
import sys
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


def test_traced_commands_keep_integer_counters(capsys, tmp_path, monkeypatch):
    # The traced benchmark run ends in json.dumps of these metrics: a counter
    # fed an array (a public E/S/C call with an array argument adds its
    # terms_used) makes that last line fail to serialize.
    monkeypatch.chdir(tmp_path)
    tracer = _load_tracing().Tracer()
    commands = (["verify", "--q", "0.9"], ["eval", "--fn", "Sq", "--points", "0", "1.5"],
                ["qint", "--expr", "Eq(2*x)", "--upper", "1"])
    for cid, argv in enumerate(commands):
        tracer.command = cid
        tracer.install()
        try:
            assert cli.main(argv) == 0
        finally:
            tracer.uninstall()
    capsys.readouterr()
    assert tracer.counters["qfunctions.terms"] > 0
    for key, value in tracer.counters.items():
        assert type(value) is int, key
    metrics, _ = tracer.layer_metrics({cid: argv[0] for cid, argv in enumerate(commands)})
    json.dumps(metrics)


def test_import_basicq_lists_scipy_linalg_in_importtime(child_env):
    # bench/run.py reads import.scipy_linalg_s from this output and turns a
    # missing line into NaN, which makes its last line invalid JSON.  So
    # `import basicq` keeps loading scipy.linalg until a benchmark change
    # reports an absent import as 0; this test goes with that change, which
    # unblocks the lazy scipy import (ROADMAP item 1).
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import basicq"],
                          capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0
    names = [line.split("|")[-1].strip() for line in proc.stderr.splitlines()]
    assert "scipy.linalg" in names
