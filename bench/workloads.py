"""Seeded command generators for the three benchmark workloads.

A workload is an endless stream of *rounds*.  Every round holds each of the
workload's command categories exactly once, in a shuffled order, with freshly
drawn parameters; a category given as a tuple of alternatives uses them in
turn, one per round.  Runs are whole rounds, so every run of a workload has the
same command mix whatever the seed, and medians taken per run stay
comparable across seeds.

Each command carries the ``basicq`` argument vector (all the program ever
sees) and an ``expect`` record with the parameters its output checker needs,
so the checks never re-parse the command line.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

SWEEP = ("0.5", "0.8", "0.9", "0.95", "0.99")

# Odd-sublattice sizes 750 and 3750: the eigenvector matrix is 4.5 MB (fits
# in L2+L3) and 112 MB (about the 105 MiB L3) respectively.
LATTICE_750 = ("0.99", "-150:600:1")
LATTICE_3750 = ("0.999", "-750:2999:1")

# Seed defect: the parser reads "-x^2" as (-x)^2, the README as -(x^2).
UNARY_MINUS = "unary-minus-precedence"


def _opt(name: str, value: str) -> list:
    """An option and its value; '=' form when the value starts with '-', which
    argparse would otherwise take for an option (the only form that parses)."""
    return [f"{name}={value}"] if value.startswith("-") else [name, value]


@dataclass
class Command:
    cid: int
    kind: str
    argv: list
    expect: dict
    known_defect: str | None = None
    writes_dir: bool = False


def _num(v: float, digits: int = 3) -> str:
    """Short decimal text; checkers use float(text) so both sides agree."""
    return repr(round(v, digits))


def _poly(rng, nmin: int = 1, nmax: int = 6):
    """c*x^n, or in one case of four the defect template -x^2 (README: -(x^2))."""
    if rng.random() < 0.25:
        return "-x^2", {"c": -1.0, "n": 2}, UNARY_MINUS
    c = _num(rng.choice((-1, 1)) * rng.uniform(0.25, 2.0))
    n = rng.randint(nmin, nmax)
    return f"{c}*x^{n}", {"c": float(c), "n": n}, None


def _potential(rng, allow_defect: bool = False):
    """Potential text and the independent description checkers rebuild it from."""
    choices = ["harmonic", "quartic", "well", "vee"]
    if allow_defect:
        choices.append("double")
    kind = rng.choice(choices)
    if kind == "harmonic":
        return "x^2", {"kind": kind}, None
    if kind == "quartic":
        b = _num(rng.uniform(0.5, 2.0))
        return f"x^4 - {b}*x^2", {"kind": kind, "b": float(b)}, None
    if kind == "well":
        c, w = _num(rng.uniform(1.0, 5.0)), _num(rng.uniform(0.3, 1.0))
        return f"-{c}*gauss(x/{w})", {"kind": kind, "c": float(c), "w": float(w)}, None
    if kind == "vee":
        a = _num(rng.uniform(0.5, 2.0))
        return f"{a}*abs(x)", {"kind": kind, "a": float(a)}, None
    d = _num(rng.uniform(2.0, 8.0))
    return f"-x^2 + x^4/{d}", {"kind": kind, "d": float(d)}, UNARY_MINUS


def _gauss_state(rng, shift: float, width: tuple) -> str:
    x0 = _num(rng.uniform(-shift, shift))
    s = _num(rng.uniform(*width))
    return f"gauss((x - {x0})/{s})"


# -- cli-short: the README commands at the default lattice -------------------

def _cs_eval(rng):
    fn = rng.choice(("Eq", "Sq", "Cq"))
    q = rng.choice(SWEEP)
    start = round(rng.uniform(-2.0, 0.0), 1)
    stop = round(start + rng.choice((2.0, 3.0)), 1)
    argv = ["eval", "--fn", fn, "--q", q, f"--range={start}:{stop}:0.1"]
    return "eval", argv, {"check": "eval", "fn": fn, "q": float(q)}, None


def _cs_qderiv(rng):
    q = rng.choice(SWEEP)
    text, poly, defect = _poly(rng)
    pts = [_num(rng.choice((-1, 1)) * rng.uniform(0.2, 3.0)) for _ in range(rng.randint(2, 4))]
    argv = ["qderiv", *_opt("--expr", text), "--q", q, "--points", *pts]
    return "qderiv", argv, {"check": "qderiv", "q": float(q), **poly}, defect


def _cs_qint(rng):
    q = rng.choice(SWEEP)
    text, poly, defect = _poly(rng)
    upper = _num(rng.uniform(0.5, 2.0))
    argv = ["qint", *_opt("--expr", text), "--upper", upper, "--q", q]
    return "qint", argv, {"check": "qint_poly", "q": float(q), "upper": float(upper),
                          **poly}, defect


def _cs_solve(rng):
    q = rng.choice(SWEEP)
    text, pot, defect = _potential(rng, allow_defect=True)
    k = rng.randint(1, 6)
    argv = ["solve", *_opt("--potential", text), "--q", q, "--k", str(k)]
    return "solve", argv, {"check": "solve", "q": float(q), "lattice": "-15:60:1.0",
                           "k": k, "potential": pot}, defect


def _cs_evolve(rng):
    q = rng.choice(SWEEP)
    if rng.random() < 0.4:
        text, pot = "0", {"kind": "zero"}
    else:
        text, pot, _ = _potential(rng)
    psi0 = _gauss_state(rng, 0.5, (0.5, 1.5))
    t = _num(rng.uniform(0.5, 2.0))
    argv = ["evolve", *_opt("--potential", text), "--psi0", psi0, "--t", t, "--q", q]
    return "evolve", argv, {"check": "evolve", "q": float(q), "lattice": "-15:60:1.0",
                            "potential": pot, "snapshots": 2}, None


def _cs_verify(q):
    # verify --q 0.99 costs about three times the others, so q takes each
    # sweep value in turn rather than a random one.
    return lambda rng: ("verify", ["verify", "--q", q], {"check": "verify"}, None)


# -- series: scalar kernels (series sums and q-integrals) --------------------

def _eval_table(fn):
    def gen(rng):
        q = rng.choice(SWEEP)
        start = round(rng.uniform(-40.0, -10.0), 2)
        stop = round(rng.uniform(10.0, 40.0), 2)
        step = round((stop - start) / rng.randint(200, 300), 4)
        argv = ["eval", "--fn", fn, "--q", q, f"--range={start}:{stop}:{step}"]
        return "eval", argv, {"check": "eval", "fn": fn, "q": float(q)}, None
    return gen


def _se_qint_poly(rng):
    q = rng.choice(SWEEP)
    text, poly, defect = _poly(rng, 0, 8)
    upper = _num(rng.uniform(0.5, 3.0))
    argv = ["qint", *_opt("--expr", text), "--upper", upper, "--q", q]
    return "qint", argv, {"check": "qint_poly", "q": float(q), "upper": float(upper),
                          **poly}, defect


def _se_qint_special(rng):
    """int_0^a F(b y) d_q y for F in E, S, C and real or imaginary b."""
    q = rng.choice(SWEEP)
    fn = rng.choice(("Eq", "Sq", "Cq"))
    b = _num(rng.choice((-1, 1)) * rng.uniform(0.3, 3.0))
    imaginary = rng.random() < 0.4
    arg = f"sqrt(-1)*{b}*x" if imaginary else f"{b}*x"
    upper = _num(rng.uniform(0.5, 3.0))
    argv = ["qint", "--expr", f"{fn}({arg})", "--upper", upper, "--q", q]
    return "qint", argv, {"check": "qint_special", "q": float(q), "upper": float(upper),
                          "fn": fn, "b": float(b), "imaginary": imaginary}, None


def _gauss_poly(rng, shifted: bool):
    c = _num(rng.uniform(0.5, 3.0))
    n = rng.choice((0, 2, 4)) if shifted else rng.randint(0, 4)
    w = _num(rng.uniform(0.5, 2.0))
    s = _num(rng.uniform(-1.0, 1.0)) if shifted else "0"
    arg = f"(x - {s})/{w}" if shifted else f"x/{w}"
    text = f"{c}*gauss({arg})" if n == 0 else f"{c}*x^{n}*gauss({arg})"
    return text, {"c": float(c), "n": n, "w": float(w), "s": float(s)}


def _se_qint_halfline(rng):
    q = rng.choice(SWEEP)
    text, integrand = _gauss_poly(rng, shifted=False)
    argv = ["qint", "--expr", text, "--halfline", "--q", q]
    return "qint", argv, {"check": "qint_lattice", "mode": "halfline", "q": float(q),
                          **integrand}, None


def _se_qint_fullline(rng):
    q = rng.choice(SWEEP)
    text, integrand = _gauss_poly(rng, shifted=True)
    argv = ["qint", "--expr", text, "--fullline", "--q", q]
    return "qint", argv, {"check": "qint_lattice", "mode": "fullline", "q": float(q),
                          **integrand}, None


def _se_verify(rng):
    return "verify", ["verify"], {"check": "verify"}, None


# -- spectral: lattice solver at n_odd 750 and 3750 ---------------------------

def _sp_solve(lattice):
    def gen(rng):
        q, lat = lattice
        text, pot, defect = _potential(rng)
        k = rng.randint(1, 16)
        argv = ["solve", *_opt("--potential", text), "--q", q, f"--lattice={lat}", "--k", str(k)]
        return "solve", argv, {"check": "solve", "q": float(q), "lattice": lat, "k": k,
                               "potential": pot}, defect
    return gen


def _sp_evolve(lattice, shift, width, snap_every=None):
    def gen(rng):
        q, lat = lattice
        text, pot, defect = _potential(rng)
        psi0 = _gauss_state(rng, shift, width)
        t = _num(rng.uniform(0.2, 1.0))
        argv = ["evolve", *_opt("--potential", text), "--psi0", psi0, "--t", t, "--q", q,
                f"--lattice={lat}"]
        snapshots = 2
        if snap_every:
            argv += ["--snap-every", str(snap_every)]
            snapshots = 100 // snap_every + 1
        return "evolve", argv, {"check": "evolve", "q": float(q), "lattice": lat,
                                "potential": pot, "snapshots": snapshots}, defect
    return gen


WORKLOADS = {
    "cli-short": (_cs_eval, _cs_qderiv, _cs_qint, _cs_solve, _cs_evolve,
                  tuple(_cs_verify(q) for q in SWEEP)),
    "series": (_se_verify, _eval_table("Eq"), _eval_table("Sq"), _eval_table("Cq"),
               _se_qint_poly, _se_qint_special, _se_qint_halfline, _se_qint_fullline),
    # Snapshots every 10 of the default 100 steps at n_odd 750 and every 20 at
    # 3750 (1/10 and 1/5).  Rounds alternate the two n_odd 3750 evolves, the
    # heaviest commands, so the mix does not depend on the seed and most
    # commands are light enough that the median falls among them.
    "spectral": (_sp_solve(LATTICE_750), _sp_solve(LATTICE_3750),
                 _sp_evolve(LATTICE_750, 1.0, (0.5, 1.0)),
                 _sp_evolve(LATTICE_750, 1.0, (0.5, 1.0), 10),
                 (_sp_evolve(LATTICE_3750, 0.5, (0.3, 0.6)),
                  _sp_evolve(LATTICE_3750, 0.5, (0.3, 0.6), 20))),
}

# Wall time of one round at the seed commit (2-core Xeon, Python 3.11): as a
# separate process per command, and replayed in-process untraced plus traced.
# They size a run: --seconds S runs ceil(S / seconds-per-round) whole rounds,
# so a run of the seed commit on that host measures about S seconds, and two
# commits compared on one seed do identical work.
ROUND_SECONDS = {"cli-short": 3.9, "series": 7.1, "spectral": 7.5}
INPROC_ROUND_SECONDS = {"cli-short": 0.85, "series": 4.5, "spectral": 7.0}


def rounds_for(workload: str, seconds: float, inproc: bool = False) -> int:
    per = (INPROC_ROUND_SECONDS if inproc else ROUND_SECONDS)[workload]
    return max(1, math.ceil(seconds / per))


def generate(workload: str, seed: int, rounds: int) -> list:
    """The first ``rounds`` rounds of the workload's command stream for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    commands = []
    for r in range(rounds):
        gens = [g[r % len(g)] if isinstance(g, tuple) else g for g in WORKLOADS[workload]]
        rng.shuffle(gens)
        for gen in gens:
            kind, argv, expect, defect = gen(rng)
            commands.append(Command(len(commands), kind, argv, expect, defect,
                                    writes_dir=kind in ("solve", "evolve")))
    return commands
