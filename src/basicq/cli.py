"""Command-line interface.

Subcommands: eval (special-function tables), qderiv (Jackson derivative of
an expression), qint (q-integrals), verify (identity suite report), solve
(stationary states to files), evolve (time evolution snapshots).  Each
command takes only the shared options it reads, besides its own and
--output:

    eval            --q --tol --format
    qderiv          --q --format
    qint            --q --tol --format
    verify          --q --format
    solve, evolve   --q --hbar --mass --lattice

Exit codes: 0 success, 1 computation failure (evaluation or convergence),
2 usage, parse, or configuration failure.  A refusal, exit 1 or 2, is
exactly one stderr line starting ``basicq`` and no partial output (no
table, file or directory); :func:`main` alone prints it, from the
exception the command raised.  A failed verify is no refusal: it writes its
whole report, then names each failed row, and why it failed, on stderr.
argparse checks every option
before a command runs, so a usage error is its usage line and one
``basicq <command>: error: ...`` line: eval takes exactly one of --points
and --range, qint at most one of --upper, --halfline and --fullline, and a
number may be negative in any spelling.  Output is deterministic: the same
invocation produces byte-identical files on one numpy and scipy build, one
CPU kernel set and one BLAS thread count.  A full solve (every
eigenvector) of a block of about 500 points or more changes bits with
``OPENBLAS_NUM_THREADS``, and so do the files of an ``evolve``, or of a
``solve`` of the whole spectrum, on such a lattice.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import os
import re
import sys

from . import exprparse, l2q, qcalculus, qfunctions
from .errors import BasicQError, ParseError
from .qschrodinger import build_hamiltonian, evolve, stationary_states

__all__ = ["main", "run"]

SCHEMA_VERSION = 1


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return value


def _positive(name: str):
    def conv(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
        return value
    return conv


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"expected an integer >= 1, got {value}")
    return value


def _parse_lattice(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("expected m_min:m_max:a")
    m_min, m_max, a = int(parts[0]), int(parts[1]), float(parts[2])
    if m_min >= m_max:
        raise ValueError(f"lattice needs m_min < m_max, got {m_min}:{m_max}")
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"lattice scale a must be positive, got {a!r}")
    return m_min, m_max, a


def _parse_format(text: str) -> str:
    if text not in ("csv", "json"):
        raise ValueError("format must be csv or json")
    return text


# Options shared between commands: name -> (converter that validates,
# default, help).  A subparser registers the names its handler reads; a
# converter's ValueError becomes argparse's usage error (exit 2).
_SHARED = {
    "q": (_positive("q"), l2q.DEFAULT_Q, f"deformation parameter (default {l2q.DEFAULT_Q})"),
    "tol": (_positive("tol"), qcalculus.DEFAULT_TOL,
            f"series truncation tolerance (default {qcalculus.DEFAULT_TOL:g})"),
    "hbar": (_positive("hbar"), 1.0, "reduced Planck constant (default 1)"),
    "mass": (_positive("mass"), 1.0, "particle mass (default 1)"),
    "lattice": (_parse_lattice, (*l2q.default_window(l2q.DEFAULT_Q), 1.0),
                "lattice exponent window and scale M_MIN:M_MAX:A "
                "(default {}:{}:1.0)".format(*l2q.default_window(l2q.DEFAULT_Q))),
    "format": (_parse_format, "csv", "csv or json (default csv)"),
}


def _canon(v):
    # Collapse -0.0 so equivalent runs emit identical bytes.
    if isinstance(v, float) and v == 0.0:
        return 0.0
    return v


def _fmt_cell(v) -> str:
    v = _canon(v)
    return "%.17g" % v if isinstance(v, float) else str(v)


def _emit_table(columns, rows, fmt: str, path: str | None):
    if fmt == "csv":
        buf = io.StringIO()
        buf.write("# schema_version=%d\n" % SCHEMA_VERSION)
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(columns)
        w.writerows([_fmt_cell(v) for v in row] for row in rows)
        text = buf.getvalue()
    else:
        doc = {"schema_version": SCHEMA_VERSION, "columns": list(columns),
               "rows": [[_canon(v) for v in r] for r in rows]}
        text = json.dumps(doc) + "\n"
    _write_out(text, path)


# Characters handed to a text stream per write: it encodes each piece
# whole, so a file's text is never alive a second time as its bytes.
_WRITE_SLICE = 1 << 16


def _write_out(text: str, path: str | None):
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8", newline="")) as fh:
        for i in range(0, len(text), _WRITE_SLICE):
            fh.write(text[i:i + _WRITE_SLICE])


# Points a --range may hold (a million scalar series take about a minute),
# and snapshots an evolve may write.
_MAX_POINTS = 10**6


def _parse_range(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected start:stop:step, got {text!r}")
    start, stop, step = map(float, parts)
    if step == 0 or not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError(f"needs finite bounds and a nonzero step, got {text!r}")
    if (stop - start) * step < 0:
        raise ValueError(f"step walks away from stop in {text!r}")
    # Inclusive endpoint: 0:2:0.1 yields 21 points despite float rounding.
    n = int(round(min((stop - start) / step, _MAX_POINTS + 1)))
    direction = 1.0 if step > 0 else -1.0
    while n > 0 and (start + n * step - stop) * direction > abs(step) * 1e-9:
        n -= 1
    if n >= _MAX_POINTS:
        raise ValueError(f"{text!r} holds more than {_MAX_POINTS} points")
    return [start + i * step for i in range(n + 1)]


def _expr_fn(text: str, q: float) -> exprparse.BoundExpression:
    # One QParam for every point, not one built per evaluate call; sample and
    # build_hamiltonian hand it the whole lattice at once.
    return exprparse.BoundExpression(exprparse.parse(text), q)


def cmd_eval(args) -> int:
    fnmap = {"Eq": qfunctions.q_exp, "Sq": qfunctions.q_sin, "Cq": qfunctions.q_cos}
    fn = fnmap[args.fn]
    rows = []
    for x in args.points:
        r = fn(x, args.q, tol=args.tol)
        val = complex(r.value)
        rows.append((x, val.real, val.imag, r.terms_used))
    _emit_table(("x", "re", "im", "terms_used"), rows, args.format, args.output)
    return 0


def cmd_qderiv(args) -> int:
    f = _expr_fn(args.expr, args.q)
    rows = []
    for x in args.points:
        val = complex(qcalculus.jackson_derivative(f, x, args.q))
        rows.append((x, val.real, val.imag))
    _emit_table(("x", "re", "im"), rows, args.format, args.output)
    return 0


def cmd_qint(args) -> int:
    f = _expr_fn(args.expr, args.q)
    if args.halfline:
        val = qcalculus.q_integral_halfline(f, args.q, tol=args.tol)
    elif args.fullline:
        val = qcalculus.q_integral_fullline(f, args.q, tol=args.tol)
    else:
        val = qcalculus.q_integral_finite(f, args.upper, args.q, tol=args.tol)
    val = complex(val)
    _emit_table(("re", "im"), [(val.real, val.imag)], args.format, args.output)
    return 0


def cmd_verify(args) -> int:
    # The suite is imported here, so no other command holds it.
    from . import verify

    sweep = l2q.DEFAULT_SWEEP if args.q is None else (args.q,)
    report = verify.run_verify(sweep)
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "q_values": list(report.q_values),
            "results": [
                {"identity": r.name, "detail": r.detail,
                 "max_residual": None if math.isnan(r.max_residual) else r.max_residual,
                 "tolerance": r.tolerance, "status": r.status}
                for r in report.results
            ],
            "all_pass": report.all_pass,
        }
        _write_out(json.dumps(doc) + "\n", args.output)
    else:
        rows = [(r.name, r.detail,
                 "" if math.isnan(r.max_residual) else "%.6e" % r.max_residual,
                 "%g" % r.tolerance, r.status)
                for r in report.results]
        _emit_table(("identity", "detail", "max_residual", "tolerance", "status"),
                    rows, "csv", args.output)
    if not report.all_pass:
        names = ", ".join(r.name for r in report.failures)
        reasons = "".join(f"\n  {r.name}: {r.reason}" for r in report.failures)
        print(f"basicq: verify failed: {names}{reasons}", file=sys.stderr)
        return 1
    return 0


def _spectrum_doc(lat, eigenvalues, args):
    return {
        "schema_version": SCHEMA_VERSION,
        "q": lat.q,
        "lattice": {"m_min": lat.m_min, "m_max": lat.m_max, "a": lat.a},
        "eigenvalues": [float(e) for e in eigenvalues],
        "meta": {"hbar": args.hbar, "mass": args.mass, "potential_text": args.potential},
    }


def _hamiltonian(args):
    lat = l2q.build_lattice(args.q, *args.lattice)
    return build_hamiltonian(_expr_fn(args.potential, args.q), args.mass, args.hbar, lat)


def _out_dir(args) -> str:
    d = args.output if args.output is not None else "."
    os.makedirs(d, exist_ok=True)
    return d


def cmd_solve(args) -> int:
    H = _hamiltonian(args)
    spec = stationary_states(H, args.k)
    outdir = _out_dir(args)
    spath = os.path.join(outdir, "spectrum.json")
    doc = _spectrum_doc(H.lattice, spec.eigenvalues, args)
    _write_out(json.dumps(doc) + "\n", spath)

    def fpath(n):
        return os.path.join(outdir, "eigfunc_%03d.csv" % n)

    # One eigenfunction unfolded from its block's column at a time, as it is
    # written: no (n_odd, k) array is built, and no list of k paths either.
    k = len(spec.eigenvalues)
    for n in range(k):
        _write_out(l2q.to_csv(l2q._from_odd(H.lattice, spec.vector(n))), fpath(n))
    print(spath)
    for n in range(k):
        print(fpath(n))
    return 0


def cmd_evolve(args) -> int:
    # A time grid past float range or of more snapshots than a --range has
    # points, and a step t/steps that underflows, are refused before any
    # expression is read.
    steps, snap_every = args.steps, args.snap_every or args.steps
    try:
        dt = args.t / steps
    except OverflowError:
        raise ValueError("steps is past float range") from None
    if -(-steps // snap_every) >= _MAX_POINTS:
        raise ValueError(f"steps={steps} snap_every={snap_every} asks for more than "
                         f"{_MAX_POINTS} snapshots")
    if dt == 0:
        raise ValueError(f"time step t/steps underflows to 0: t={args.t!r} steps={steps}")

    # Snapshot times accumulate one chunk of steps at a time; the last chunk
    # may be short.
    times, t = [], 0.0
    for done in range(0, steps, snap_every):
        t = t + dt * min(snap_every, steps - done)
        times.append(t)

    H = _hamiltonian(args)
    psi = l2q.sample(_expr_fn(args.psi0, args.q), H.lattice)
    nrm = l2q.q_norm(psi)
    if not (math.isfinite(nrm) and nrm > 0):
        raise BasicQError(f"initial state has q-norm {nrm!r}, cannot normalize")
    psi = (1.0 / nrm) * psi

    # evolve solves every block at the call, before any file is written, so
    # no serialization garbage is resident across an eigensolve.  A failed
    # solve, or a time grid it refuses because a phase E t / hbar is not
    # finite, leaves nothing behind: the output directory is made after it.
    # For few snapshots it also computes each block's part of each and drops
    # that block's eigenvectors before the next block is solved or any
    # snapshot written.  Its states are then synthesized one at a time, each
    # as the loop below writes it.
    states = evolve(psi, H, times)
    outdir = _out_dir(args)
    written, norm_rows = [], []

    def snap(t, psi_t):
        path = os.path.join(outdir, "snapshot_%04d.csv" % len(norm_rows))
        _write_out(l2q.to_csv(psi_t), path)
        written.append(path)
        norm_rows.append((t, l2q.q_norm(psi_t)))

    snap(0.0, psi)
    for t, psi_t in zip(times, states):
        snap(t, psi_t)
    npath = os.path.join(outdir, "norms.csv")
    _emit_table(("t", "norm"), norm_rows, "csv", npath)
    written.append(npath)
    for p in written:
        print(p)
    return 0


def _argtype(conv):
    def convert(text):
        try:
            return conv(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _add_shared(sp, handler, *names):
    for name in names:
        conv, default, help_text = _SHARED[name]
        sp.add_argument("--" + name, type=_argtype(conv), default=default, help=help_text)
    sp.add_argument("--output", default=None,
                    help="output file (tables) or directory (solve/evolve)")
    sp.set_defaults(handler=handler)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="basicq",
                                description="Symmetric q-deformed calculus toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", help="tabulate a deformed special function")
    sp.add_argument("--fn", required=True, choices=("Eq", "Sq", "Cq"))
    points = sp.add_mutually_exclusive_group(required=True)
    points.add_argument("--points", type=_argtype(_finite_float), nargs="+")
    points.add_argument("--range", type=_argtype(_parse_range), dest="points",
                        metavar="START:STOP:STEP")
    _add_shared(sp, cmd_eval, "q", "tol", "format")

    sp = sub.add_parser("qderiv", help="Jackson derivative of an expression")
    sp.add_argument("--expr", required=True)
    sp.add_argument("--points", type=_argtype(_finite_float), nargs="+", required=True)
    _add_shared(sp, cmd_qderiv, "q", "format")

    sp = sub.add_parser("qint", help="q-integral of an expression")
    sp.add_argument("--expr", required=True)
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--upper", type=_argtype(_finite_float), default=1.0,
                      help="finite upper limit (default 1)")
    mode.add_argument("--halfline", action="store_true")
    mode.add_argument("--fullline", action="store_true")
    _add_shared(sp, cmd_qint, "q", "tol", "format")

    sp = sub.add_parser("verify", help="run the identity suite and report")
    sweep = ", ".join(map(str, l2q.DEFAULT_SWEEP))
    sp.add_argument("--q", type=_argtype(_SHARED["q"][0]), default=None,
                    help=f"deformation parameter (default: sweep {sweep})")
    _add_shared(sp, cmd_verify, "format")

    sp = sub.add_parser("solve", help="stationary states of a potential")
    sp.add_argument("--potential", required=True)
    sp.add_argument("--k", type=int, default=4, help="number of lowest eigenpairs")
    _add_shared(sp, cmd_solve, "q", "hbar", "mass", "lattice")

    sp = sub.add_parser("evolve", help="evolve an initial state in time")
    sp.add_argument("--potential", required=True)
    sp.add_argument("--psi0", required=True, help="initial wavefunction expression")
    sp.add_argument("--t", type=_argtype(_positive("t")), default=1.0,
                    help="total evolution time (default 1)")
    sp.add_argument("--steps", type=_argtype(_count), default=100,
                    help="number of steps (default 100)")
    sp.add_argument("--snap-every", type=_argtype(_count), default=None,
                    help="steps between snapshots (default: final state only)")
    _add_shared(sp, cmd_evolve, "q", "hbar", "mass", "lattice")
    return p


# Options taking one string that may begin with '-': a window or range with
# a negative start, or an expression with a leading minus.
_DASH_VALUE_OPTIONS = ("--lattice", "--range", "--expr", "--potential", "--psi0")


def _negative_number(tok: str) -> bool:
    try:
        float(tok)
    except ValueError:
        return False
    return tok.startswith("-")


def _join_dash_values(argv):
    """Rewrite ``--range -10:10:0.5`` as ``--range=-10:10:0.5``.

    argparse takes a token that starts with '-' for an option unless it
    reads as ``-2`` or ``-.5``.  So a value of an option in
    ``_DASH_VALUE_OPTIONS``, and any negative number ``float`` reads
    (``-1e-3``), is joined to the option it follows; in the list of
    ``--points``, which the ``=`` form cannot hold, it gets a leading space,
    which ``float`` ignores.  A token starting with '--' stays an option.
    """
    out, listing = [], False
    for tok in argv:
        prev = out[-1] if out else ""
        if listing and _negative_number(tok):
            tok = " " + tok
        elif prev.startswith("--") and "=" not in prev and (
                _negative_number(tok) or prev in _DASH_VALUE_OPTIONS and re.match(r"-[^-]", tok)):
            out[-1] = prev + "=" + tok
            continue
        elif tok.startswith("-"):
            listing = tok == "--points"
        out.append(tok)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_dash_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"basicq: parse error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"basicq: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except BasicQError as exc:
        print(f"basicq: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"basicq: i/o error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Process entry of the ``basicq`` command: ``python -m basicq``, this
    module run as a script and the installed console script.

    Every module the CLI needs but the identity suite, which ``verify``
    imports when it runs, is imported by now, and nothing it imported is
    freed before exit, so ``gc.freeze()`` moves that heap (numpy's and
    scipy's module graphs, about 40k container objects) out of the
    collector's reach: neither a full collection during the command nor the
    interpreter's collection at exit walks it again.  :func:`main` and
    ``import basicq`` leave the collector as they find it.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
