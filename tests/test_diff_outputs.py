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
             + len(tool.OUTPUTS) + len(tool.DEMOS))
    assert lines[-2:] == ["differs (exit code, stdout): basicq verify --help",
                          f"1 of {total} commands differ"]
    records["new"] = (0, b"same", b"warning", {})
    assert tool.main(["old", "new"]) == 1
    assert capsys.readouterr().out.splitlines()[-2] == "differs (stderr): basicq verify --help"


def test_demos_are_every_file_in_demos_and_named_by_file(capsys, monkeypatch):
    tool = _load_tool()
    assert tool.DEMOS == tuple(f"demos/{p.name}" for p in sorted((ROOT / "demos").glob("*.py")))
    assert all(demo.split("/")[1] in tool.__doc__ for demo in tool.DEMOS)
    demo = "demos/03_special_functions.py"
    monkeypatch.setattr(tool, "outputs", lambda tree, argv, threads: (
        0, tree.encode() if argv == [demo] else b"", b"", {}))
    monkeypatch.setattr(tool, "workload_commands", lambda seed, rounds: [])
    assert tool.main(["old", "new"]) == 1
    assert capsys.readouterr().out.splitlines()[-2] == f"differs (stdout): {demo}"


def test_outputs_runs_a_demo_against_the_trees_src(tmp_path):
    # A stand-in demo, in a tree whose src is this one's: it names where
    # basicq and the demo came from, and writes a file in its directory.
    (tmp_path / "demos").mkdir()
    (tmp_path / "src").symlink_to(ROOT / "src")
    (tmp_path / "demos" / "01_deformed_numbers.py").write_text(
        "import sys, basicq\nprint('story')\nopen('out.txt', 'w').write('x')\n"
        "sys.exit(basicq.__file__ + ' ' + __file__)\n")
    code, out, err, files = _load_tool().outputs(tmp_path, ["demos/01_deformed_numbers.py"], "1")
    assert (code, out, sorted(files)) == (1, b"story\n", ["out.txt"])
    assert err == b"<src>/basicq/__init__.py <tree>/demos/01_deformed_numbers.py\n"


@pytest.mark.parametrize("inherited", [None, "", "3"])
def test_both_trees_run_at_one_blas_thread_count(capsys, monkeypatch, inherited):
    # The inherited OPENBLAS_NUM_THREADS, else the core count, reaches every
    # command of both trees in all three variables.
    tool = _load_tool()
    seen = {"old": set(), "new": set()}

    def run(args, cwd, env, capture_output, preexec_fn):
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


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two cores for two BLAS threads")
def test_thread_mode_lists_the_full_solve_of_a_500_point_block(capsys, monkeypatch):
    # One tree at 1 and at 2 threads: stevd's bits move with the thread
    # count on the unsplit 500-point block, and not on the 400-point one.
    tool = _load_tool()
    evolve = ["evolve", "--potential", "x^2+0.3*x", "--psi0", "gauss(x)", "--t", "0.5",
              "--q", "0.99"]
    cmds = [[*evolve, "--lattice=-150:349:1"], [*evolve, "--lattice=-150:249:1"]]
    monkeypatch.setattr(tool, "commands", lambda seed, rounds: cmds)
    assert tool.main([str(ROOT), str(ROOT), "--threads", "1,2"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "the old tree runs with OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1, "
        "the new one with 2",
        "differs (files): basicq evolve --potential 'x^2+0.3*x' --psi0 'gauss(x)' --t 0.5 "
        "--q 0.99 --lattice=-150:349:1",
        "1 of 2 commands differ"]


@pytest.mark.parametrize("text", ["1", "1,2,3", "0,2", "a,2", ""])
def test_thread_mode_takes_two_positive_counts(capsys, text):
    with pytest.raises(SystemExit):
        _load_tool().main(["old", "new", "--threads", text])
    assert "expected two positive counts OLD,NEW" in capsys.readouterr().err
