"""The output-diff tool under ``tools/``: what it records and what it reports."""

from __future__ import annotations

import importlib.util
import os
import re
import subprocess
from pathlib import Path

import pytest

from basicq.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _load_tool():
    spec = importlib.util.spec_from_file_location("diff_outputs",
                                                  ROOT / "tools" / "diff_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_records_exit_code_stdout_and_written_files():
    code, out, err, files = _load_tool().outputs(
        ROOT, ["solve", "--potential", "x^2", "--k", "1"], "1")
    assert (code, err) == (0, b"")
    assert out.decode().split() == ["./spectrum.json", "./eigfunc_000.csv"]
    assert sorted(files) == ["eigfunc_000.csv", "spectrum.json"]
    assert all(len(digest) == 64 for digest in files.values())


def test_main_prints_each_differing_command_and_exits_1(capsys, monkeypatch):
    tool = _load_tool()
    records = {"old": (0, b"same", b"", {}), "new": (0, b"same", b"", {})}

    def outputs(tree, argv, threads):
        return records[tree] if argv == ["verify", "--help"] else (0, b"", b"", {})

    monkeypatch.setattr(tool, "outputs", outputs)
    monkeypatch.setattr(tool, "workload_commands", lambda seed, rounds: [])
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert tool.main(["old", "new"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "both trees run with OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=2")
    records["new"] = (2, b"other", b"", {})
    assert tool.main(["old", "new"]) == 1
    lines = capsys.readouterr().out.splitlines()
    total = (1 + len(tool.COMMANDS) + len(tool.MISUSE) + len(tool.EXPRESSIONS)
             + len(tool.OUTPUTS))
    assert lines[-2:] == ["differs (exit code, stdout): basicq verify --help",
                          f"1 of {total} commands differ"]
    records["new"] = (0, b"same", b"warning", {})
    assert tool.main(["old", "new"]) == 1
    assert capsys.readouterr().out.splitlines()[-2] == "differs (stderr): basicq verify --help"


@pytest.mark.parametrize("inherited", [None, "", "3"])
def test_both_trees_run_at_one_blas_thread_count(capsys, monkeypatch, inherited):
    # The inherited OPENBLAS_NUM_THREADS, else the core count, reaches every
    # command of both trees in all three variables.
    tool = _load_tool()
    seen = {"old": set(), "new": set()}

    def run(args, cwd, env, capture_output):
        tree = Path(env["PYTHONPATH"]).parent.name
        seen[tree].add(tuple(env[var] for var in tool.THREAD_VARS))
        return subprocess.CompletedProcess(args, 0, b"", b"")

    monkeypatch.setattr(tool.subprocess, "run", run)
    monkeypatch.setattr(tool, "workload_commands", lambda seed, rounds: [])
    for var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "7")
    if inherited is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", inherited)
    assert tool.main(["old", "new"]) == 0
    want = inherited or str(len(os.sched_getaffinity(0)))
    assert seen == {"old": {(want,) * 3}, "new": {(want,) * 3}}
    assert capsys.readouterr().out.splitlines()[0].endswith(f"MKL_NUM_THREADS={want}")


def test_every_misuse_command_is_refused_before_it_writes(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    for argv in _load_tool().MISUSE:
        assert main(list(argv)) == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(r"basicq( \w+)?: (error|invalid configuration): .+",
                            err.splitlines()[-1]), argv
    assert not any(tmp_path.iterdir())
