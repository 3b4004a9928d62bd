#!/usr/bin/env python3
"""Compare what the ``basicq`` CLI of two source trees prints and writes.

    python3 tools/diff_outputs.py OLD_TREE NEW_TREE [--rounds 4] [--seed 17]
                                  [--threads OLD,NEW]

A tree is a checkout holding the package under ``src/``.  The commands are
the first ``--rounds`` rounds of every benchmark workload at ``--seed``, as
``bench/workloads.py`` generates them, plus ``basicq --help``, each
command's ``--help``, the ``MISUSE`` commands, one for each way the CLI
refuses its arguments, so a change to any usage error shows, and the
``EXPRESSIONS`` commands, whose expressions take every grammar node and
every way out of the array evaluation, onto the lattice and into errors,
and the ``OUTPUTS`` commands, which write every eigenfunction, write
files on lattices under one CSV row block and off a multiple of it, and
run ``verify`` at q 0.001, 0.3 and 1000, where the lattice window of its
momentum rows holds few exponents or is taken at the reciprocal q, and
run ``eval``, ``qint`` and ``solve`` at the reciprocals of 0.9 and 0.999.
Last come the six ``DEMOS`` (``demos/01_deformed_numbers.py``,
``02_deformed_calculus.py``, ``03_special_functions.py``,
``04_oscillator_algebra.py``, ``05_lattice_hilbert_space.py`` and
``06_deformed_schrodinger.py``), which reach library paths no command
does: the shifted series, expectations, the ladder algebra and point bases.
Each command runs as ``python -m basicq``, and each demo as ``python
<tree>/demos/<file>``, in a fresh temporary directory, once against each
tree (``PYTHONPATH=<tree>/src``, no ``BASICQ_*`` variable, one BLAS thread
count), so ``solve`` and ``evolve`` write their files there.
The exit code, the standard output, the standard error (with the tree's
``src`` path written as ``<src>`` and the tree itself as ``<tree>``, so a
warning's file name matches) and the SHA-256 of every written file are
compared.  Each command whose record differs is printed with the parts that
differ, a demo by its file, and the exit status is 1 when any command
differs.  Both trees run with ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to one count, the inherited
``OPENBLAS_NUM_THREADS`` or else the number of usable cores, as the
benchmark sets them; the first line names it.  A full solve of a block of
about 500 points or more changes bits with it, so two reports compare like
with like only at one count.  ``--threads 1,2`` runs the old tree at 1
thread and the new one at 2 instead; given one tree twice, it lists the
commands whose bytes depend on the thread count.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
COMMANDS = ("eval", "qderiv", "qint", "verify", "solve", "evolve")
PARTS = ("exit code", "stdout", "stderr", "files")
_EVOLVE = ["evolve", "--potential", "x^2", "--psi0", "gauss(x)"]
# Commands the CLI refuses with exit 2: no command, a missing or unknown
# option, each group, a bad value of each option that checks one, and an
# evolve time whose phase E t / hbar overflows.
MISUSE = (
    [],
    ["eval"],
    ["eval", "--fn", "Tq", "--points", "1"],
    ["eval", "--fn", "Eq"],
    ["eval", "--fn", "Eq", "--points", "1", "--range", "0:1:0.5"],
    ["eval", "--fn", "Eq", "--points", "1", "nan"],
    ["eval", "--fn", "Eq", "--points", "-inf"],
    ["eval", "--fn", "Eq", "--range", "0:1"],
    ["eval", "--fn", "Eq", "--range", "0:a:1"],
    ["eval", "--fn", "Eq", "--range", "0:1:0"],
    ["eval", "--fn", "Eq", "--range", "1:0:1"],
    ["eval", "--fn", "Eq", "--range", "0:1e6:1"],
    ["eval", "--fn", "Eq", "--points", "1", "--q", "-1e-3"],
    ["eval", "--fn", "Eq", "--points", "1", "--hbar", "2"],
    ["qderiv", "--expr", "x", "--points", "inf"],
    ["qderiv", "--expr", "x", "--points"],
    ["qderiv", "--expr", "x", "--points", "0"],
    ["qint", "--expr", "x", "--upper", "nan"],
    ["qint", "--expr", "x", "--upper", "2", "--halfline"],
    ["qint", "--expr", "x", "--halfline", "--fullline"],
    ["qint", "--expr", "x", "--format", "xml"],
    ["solve", "--potential", "x^2", "--lattice", "5:1:1"],
    ["solve", "--potential", "x^2", "--lattice=-3000000:10:1", "--k", "1"],
    [*_EVOLVE, "--steps", "0"],
    [*_EVOLVE, "--steps", "2.5"],
    [*_EVOLVE, "--snap-every", "0"],
    [*_EVOLVE, "--t", "-1"],
    [*_EVOLVE, "--t", "5e-324", "--steps", "2"],
    [*_EVOLVE, "--steps", "1" + "0" * 400],
    [*_EVOLVE, "--t", "1e308", "--steps", "1"],
    # The potential does not parse, so a CLI without the snapshot cap fails
    # there rather than writing a million snapshots.
    ["evolve", "--potential", "x^", "--psi0", "gauss(x)", "--steps", "1000001",
     "--snap-every", "1"],
)
# solve, evolve and qint commands whose expressions cover every grammar node,
# each operation without an array form (non-integral, large or x-dependent
# powers, sqrt, sin, cos, pow, Eq, Sq, Cq, exp past 700), non-finite values,
# complex ones and failures, among them in which order a potential's
# complex value and an evaluation error are reported, and failures in a
# subexpression that does not depend on x.  In the last, a NaN reaches abs()
# before exp overflows: CPython's complex abs of a NaN reports an overflow
# when the C errno was left at ERANGE, so abs must not see that NaN.  Last,
# qderiv commands whose derivative is not finite, in csv and in json.
_CONSTANT_FAILURES = ("x + 1/0", "x*exp(1000)", "gauss(x) + Eq(1e300)", "x + pow(0, -1)",
                      "abs(1e999*0) - exp(1000) + x")
EXPRESSIONS = (
    ["solve", "--potential", "x^2.5"],
    ["solve", "--potential", "1e-60*(x^99 + x^100) + 2^x", "--k", "2"],
    ["evolve", "--potential", "x^2", "--psi0", "x^-3*gauss(x)", "--snap-every", "50"],
    ["evolve", "--potential", "0.5*x^2", "--psi0", "pow(x,0.5)*gauss(x)"],
    ["evolve", "--potential", "x^2", "--psi0", "x/abs(x)*gauss(x)", "--snap-every", "25"],
    ["evolve", "--potential", "x^2", "--psi0", "exp(144*x)*gauss(10*x)"],
    ["evolve", "--potential", "x^2", "--psi0", "exp(200*x)"],
    ["evolve", "--potential", "x^2", "--psi0", "(x-x)^-1"],
    ["solve", "--potential", "sqrt(-1)*x"],
    ["solve", "--potential", "sin(x)^2 + cos(q*x) - (x - 1)/(x^2 + 2)", "--k", "3"],
    ["solve", "--potential", "x^2 + Eq(x) - Sq(x)*Cq(x)", "--q", "0.8"],
    ["solve", "--potential", "1e200*x^2", "--q", "0.5", "--lattice=-181:40:1"],
    ["evolve", "--potential", "x^2", "--psi0", "1e200*x^2*gauss(x/1e53)", "--q", "0.5",
     "--lattice=-181:40:1"],
    ["solve", "--potential", "sqrt(x) + 1/(x - 0.5)", "--q", "0.5"],
    ["solve", "--potential", "sqrt(-x) + 1/(x + 0.5)", "--q", "0.5"],
    ["solve", "--potential", "1/(x-x)"],
    ["solve", "--potential", "-2*gauss(x/0.5) + 0.1*x/abs(x)", "--q", "0.99",
     "--lattice=-150:600:1", "--k", "3"],
    ["qint", "--expr", "x^2.5*gauss(x) + sin(x)*cos(q*x) - Eq(-x^2)", "--upper", "2"],
    ["qint", "--expr", "x/abs(x)*exp(-x^2)/(1 + x^4) + abs(x)^-0.5*gauss(x)", "--fullline"],
    *(["solve", "--potential", text] for text in _CONSTANT_FAILURES),
    *(["qint", "--expr", text, "--upper", "2"] for text in _CONSTANT_FAILURES),
    ["qderiv", "--expr", "x", "--points", "1e308", "--q", "0.5"],
    ["qderiv", "--expr", "1/x", "--points", "1e-310", "--q", "0.9", "--format", "json"],
)

# solve and evolve commands where the file writing splits: every
# eigenfunction of a parity-split and of a whole spectrum, and lattices of
# 72 rows (under one block of l2q.CSV_BLOCK_ROWS = 256), 258 (one point per
# branch past a block) and 602 (three blocks, the last part-filled); and
# verify where l2q.default_window keeps its two-exponent floor (q 0.001 and
# its reciprocal) and at a q off the default sweep; last, commands at q > 1,
# 1/0.9 and 1/0.999, whose bytes are those of the same command at 0.9 and
# 0.999.
OUTPUTS = (
    ["solve", "--potential", "x^2", "--k", "76"],
    ["solve", "--potential", "x^2 + 0.3*x", "--k", "76"],
    ["solve", "--potential", "x^2", "--q", "0.8", "--lattice=-5:30:1", "--k", "3"],
    [*_EVOLVE, "--q", "0.8", "--lattice=-5:30:1", "--snap-every", "50"],
    ["solve", "--potential", "x^2 + 0.3*x", "--q", "0.97", "--lattice=-40:88:1", "--k", "3"],
    [*_EVOLVE, "--q", "0.97", "--lattice=-40:88:1", "--snap-every", "50"],
    ["solve", "--potential", "x^2", "--q", "0.98", "--lattice=-60:240:1", "--k", "3"],
    ["evolve", "--potential", "x^2 + 0.3*x", "--psi0", "gauss(x)", "--q", "0.98",
     "--lattice=-60:240:1", "--snap-every", "50"],
    ["verify", "--q", "0.001"],
    ["verify", "--q", "0.3"],
    ["verify", "--q", "1000"],
    ["eval", "--fn", "Eq", "--q", "1.1111111111111112", "--range=-15:-14:1"],
    ["qint", "--expr", "x^2", "--q", "1.001001001001001"],
    ["solve", "--potential", "x^2", "--q", "1.1111111111111112", "--k", "3"],
)

DEMOS = tuple(f"demos/{name}" for name in (
    "01_deformed_numbers.py", "02_deformed_calculus.py", "03_special_functions.py",
    "04_oscillator_algebra.py", "05_lattice_hilbert_space.py", "06_deformed_schrodinger.py"))


def workload_commands(seed: int, rounds: int) -> list:
    """The argument vectors of every workload's first ``rounds`` rounds."""
    sys.dont_write_bytecode = True  # import bench/ without writing into it
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    return [c.argv for name in workloads.WORKLOADS
            for c in workloads.generate(name, seed, rounds)]


def _is_demo(argv) -> bool:
    return len(argv) == 1 and argv[0] in DEMOS


def outputs(tree, argv, threads: str) -> tuple:
    """``(exit code, stdout bytes, stderr bytes, {written file: SHA-256})`` of
    one command, or of the demo ``[file]`` of ``DEMOS``, run with ``threads``
    BLAS threads."""
    tree = Path(tree).resolve()
    src = tree / "src"
    env = {k: v for k, v in os.environ.items() if not k.startswith("BASICQ_")}
    env.update(dict.fromkeys(THREAD_VARS, threads), PYTHONPATH=str(src))
    script = [str(tree / argv[0])] if _is_demo(argv) else ["-m", "basicq", *argv]
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, *script], cwd=cwd, env=env, capture_output=True)
        files = {f.relative_to(cwd).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
                 for f in sorted(Path(cwd).rglob("*")) if f.is_file()}
    stderr = proc.stderr.replace(bytes(src), b"<src>").replace(bytes(tree), b"<tree>")
    return proc.returncode, proc.stdout, stderr, files


def commands(seed: int, rounds: int) -> list:
    """The argument vectors of every command compared, in order."""
    return [["--help"], *([c, "--help"] for c in COMMANDS), *MISUSE, *EXPRESSIONS,
            *OUTPUTS, *workload_commands(seed, rounds), *([demo] for demo in DEMOS)]


def _thread_counts(text: str) -> list:
    counts = text.split(",")
    if len(counts) != 2 or not all(c.isdigit() and int(c) > 0 for c in counts):
        raise argparse.ArgumentTypeError(f"expected two positive counts OLD,NEW, got {text!r}")
    return counts


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old", help="source tree to compare against")
    p.add_argument("new", help="source tree under test")
    p.add_argument("--rounds", type=int, default=4, help="rounds per workload (default 4)")
    p.add_argument("--seed", type=int, default=17, help="workload seed (default 17)")
    p.add_argument("--threads", type=_thread_counts, metavar="OLD,NEW",
                   help="BLAS thread counts of the old and the new tree (default: both at "
                        "the inherited OPENBLAS_NUM_THREADS, else the number of usable cores)")
    args = p.parse_args(argv)
    old_threads, new_threads = args.threads or [
        os.environ.get("OPENBLAS_NUM_THREADS") or str(len(os.sched_getaffinity(0)))] * 2
    variables = "=".join(THREAD_VARS)
    print(f"both trees run with {variables}={old_threads}" if old_threads == new_threads else
          f"the old tree runs with {variables}={old_threads}, the new one with {new_threads}",
          flush=True)
    differing = 0
    cmds = commands(args.seed, args.rounds)
    for cmd in cmds:
        old, new = outputs(args.old, cmd, old_threads), outputs(args.new, cmd, new_threads)
        parts = [part for part, a, b in zip(PARTS, old, new) if a != b]
        if parts:
            differing += 1
            name = cmd[0] if _is_demo(cmd) else shlex.join(["basicq", *cmd])
            print(f"differs ({', '.join(parts)}): {name}", flush=True)
    print(f"{differing} of {len(cmds)} commands differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
