"""Seeded fuzz of the CLI's refusal contract.

Every command ends with exit 0, 1 or 2, never in a traceback.  A command
that exits 0 prints nothing on stderr.  A refused one (exit 1 or 2) writes no
file and prints exactly one line starting ``basicq`` on stderr, after
argparse's usage block (exit 2 only) and before the indented
``  <row>: <reason>`` lines of a failed ``verify``; no other line, such as a
Python warning, and no reason that is a bare errno tuple ``(34, '...')``.
The argument lists come from the CLI's and the expression language's
grammars, drawn by stdlib ``random`` at a fixed seed, with the
edge values of float input: signed zeros, subnormals, 1e+-308, inf and NaN,
q from 1e-300 to 1e300 and q within 1e-10 of 1.  They all run through
``cli.main`` in one child process whose address space ``RLIMIT_AS`` caps,
so an allocation that grows with the input is refused there, not by the OS.
"""

from __future__ import annotations

import json
import random
import re
import resource
import subprocess
import sys

SEED = 36
CASES = 240
# Address space of the child: numpy and scipy at one BLAS thread take about
# a third of it.
ADDRESS_SPACE = 1 << 30

_NUMBERS = ("0", "-0", "0.0", "5e-324", "-5e-324", "1e-320", "2.2250738585072014e-308",
            "1e-308", "1e308", "-1e308", "1.7976931348623157e308", "1e309", "nan", "inf",
            "-inf", "1", "-1", "0.5", "2.5", "-3", "40", "1e5", "1e-5")
_FUNCTIONS = ("exp", "sin", "cos", "sqrt", "abs", "gauss", "Eq", "Sq", "Cq")

# The child: runs each argument list of its stdin in a fresh directory and
# writes, per list, the exit code (or the escaping exception), the standard
# error and the names the directory then holds.
_CHILD = r"""
import contextlib, io, json, os, sys, tempfile, warnings
from basicq import cli

warnings.simplefilter("always")  # each command shows its own warnings

records = []
for argv in json.load(sys.stdin):
    with tempfile.TemporaryDirectory() as cwd:
        os.chdir(cwd)
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            code = f"{type(exc).__name__}: {exc}"
        os.chdir(os.path.dirname(cwd))
        records.append([code, err.getvalue(), sorted(os.listdir(cwd))])
json.dump(records, sys.stdout)
"""


def _number(rng):
    if rng.random() < 0.6:
        return rng.choice(_NUMBERS)
    return repr(rng.choice((1, -1)) * 10 ** rng.uniform(-320, 308))


def _q(rng):
    r = rng.random()
    if r < 0.35:
        return repr(10 ** rng.uniform(-300, 300))
    if r < 0.7:  # within 1e-10 of 1, either side
        return repr(1.0 + rng.choice((1, -1)) * rng.randint(1, 10) * 1e-11)
    return rng.choice(("0.5", "0.9", "0.99", "1", "1.1111111111111112", "0", "-0.5", "nan",
                       "5e-324", "1e308"))


def _expr(rng, depth=0):
    r = rng.random()
    if depth >= 3 or r < 0.3:
        return rng.choice(("x", "x", "q", rng.choice(_NUMBERS).lstrip("-")))
    if r < 0.45:
        return "-" + _expr(rng, depth + 1)
    if r < 0.75:
        op = rng.choice("+-*/^")
        return f"({_expr(rng, depth + 1)}{op}{_expr(rng, depth + 1)})"
    if r < 0.8:
        return f"pow({_expr(rng, depth + 1)},{_expr(rng, depth + 1)})"
    return f"{rng.choice(_FUNCTIONS)}({_expr(rng, depth + 1)})"


def _text(rng):
    """An expression, now and then cut short or with a stray character."""
    text = _expr(rng)
    r = rng.random()
    if r < 0.05:
        return text[:rng.randint(0, len(text))]
    if r < 0.1:
        i = rng.randint(0, len(text))
        return text[:i] + rng.choice("$,)(^x") + text[i:]
    return text


def _lattice(rng):
    if rng.random() < 0.5:  # a few exponents about 0: in float range at every q
        m_min, m_max = rng.randint(-2, 0), rng.randint(1, 2)
    else:
        m_min = rng.randint(-60, 40)
        m_max = m_min + rng.randint(-2, 80)
    return f"--lattice={m_min}:{m_max}:{rng.choice(_NUMBERS)}"


def _command(rng):
    kind = rng.choice(("eval", "qderiv", "qint", "solve", "evolve", "parse", "verify"))
    if kind == "eval":
        argv = ["eval", "--fn", rng.choice(("Eq", "Sq", "Cq")), "--q", _q(rng)]
        if rng.random() < 0.8:
            argv += ["--points", *(_number(rng) for _ in range(rng.randint(1, 3)))]
        else:
            start = rng.uniform(-50, 50)
            stop, step = start + rng.uniform(-5, 5), rng.uniform(-1, 1)
            argv.append(f"--range={start!r}:{stop!r}:{step!r}")
        if rng.random() < 0.3:
            argv += ["--tol", rng.choice(("1e-3", "0.5", "2", "1e-300", "0"))]
    elif kind == "qderiv":
        argv = ["qderiv", "--expr", _text(rng), "--q", _q(rng),
                "--points", *(_number(rng) for _ in range(rng.randint(1, 3)))]
    elif kind == "qint":
        # Away from q 1: a sum there takes its 10^6 terms, seconds a command,
        # before it refuses.
        argv = ["qint", "--expr", _text(rng), "--q", repr(rng.uniform(0.05, 0.95))]
        argv += rng.choice((["--upper", _number(rng)], ["--halfline"], ["--fullline"]))
    elif kind == "solve":
        argv = ["solve", "--potential", _text(rng), "--q", _q(rng),
                "--k", str(rng.randint(-1, 6))]
    elif kind == "evolve":
        argv = ["evolve", "--potential", _text(rng), "--psi0", _text(rng), "--q", _q(rng),
                "--t", _number(rng), "--steps", str(rng.randint(0, 40)),
                "--snap-every", str(rng.randint(1, 30))]
    elif kind == "verify":
        # Mostly far from q 1, where the suite takes milliseconds; near 1 its
        # integral rows take their 10^6 terms.  A failed suite still writes
        # its whole report, so it takes no --output here.
        return ["verify", "--q", repr(10 ** rng.uniform(-300, 300)),
                "--format", rng.choice(("csv", "json"))]
    else:  # an expression the parser sees first
        argv = ["solve", "--potential", _text(rng) + rng.choice(("", ")", "+", "^^", "@"))]
    if kind in ("solve", "evolve"):
        if rng.random() < 0.6:
            argv.append(_lattice(rng))
        for name in ("--hbar", "--mass"):
            if rng.random() < 0.2:
                argv += [name, _number(rng)]
    if rng.random() < 0.2:
        argv += ["--output", "out"]
    return argv


def commands(seed=SEED, count=CASES) -> list:
    """``count`` argument lists drawn at ``seed``."""
    rng = random.Random(seed)
    return [_command(rng) for _ in range(count)]


def run_child(argvs, child_env) -> list:
    """The child's record of each of ``argvs``."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))

    env = {**child_env, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _CHILD], input=json.dumps(argvs),
                          capture_output=True, text=True, env=env, preexec_fn=cap,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_VERIFY_ROW = re.compile(r"  [\w-]+: \S")
_ERRNO = re.compile(r"\(\d+, '")


def _stray_lines(argv, code, err) -> list:
    """The lines of a refusal's stderr that the contract does not allow."""
    lines = err.splitlines()
    heads = [i for i, line in enumerate(lines) if line.startswith("basicq")]
    if len(heads) != 1:
        return [f"{len(heads)} basicq lines"]
    before, after = lines[:heads[0]], lines[heads[0] + 1:]
    if code == 2 and before and before[0].startswith("usage: "):
        before = [line for line in before[1:] if not line.startswith(" ")]
    rows = argv[0] == "verify"
    stray = before + [line for line in after if not (rows and _VERIFY_ROW.match(line))]
    return stray + [line for line in lines if _ERRNO.search(line)]


def breaches(argvs, records) -> list:
    """``(argv, what is wrong)`` for each command off the refusal contract."""
    found = []
    for argv, (code, err, files) in zip(argvs, records):
        if code not in (0, 1, 2):
            found.append((argv, f"exit {code!r}"))
        elif code == 0:
            if err:
                found.append((argv, f"exit 0 with stderr {err!r}"))
        else:
            stray = _stray_lines(argv, code, err)
            if stray:
                found.append((argv, f"stderr lines off the contract {stray!r}: {err!r}"))
            if files:
                found.append((argv, f"wrote {files}"))
    return found


def test_every_fuzzed_command_exits_0_1_or_2_and_a_refusal_writes_nothing(child_env):
    argvs = commands()
    records = run_child(argvs, child_env)
    assert len(records) == len(argvs)
    assert breaches(argvs, records) == []
    codes = [code for code, _, _ in records]
    # The draw reaches all three outcomes.
    assert {0, 1, 2} <= set(codes)
