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

A shared option comes from its flag, else from the environment variable
BASICQ_<NAME> (BASICQ_Q, BASICQ_TOL, BASICQ_HBAR, BASICQ_MASS,
BASICQ_LATTICE, BASICQ_FORMAT), else from the built-in default.  A command
reads no variable for an option it does not take.

Exit codes: 0 success, 1 computation failure (evaluation or convergence),
2 usage, parse, or configuration failure.  Output is deterministic: the
same invocation produces byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys

from . import exprparse, l2q, qcalculus, qfunctions, verify as verify_mod
from .errors import BasicQError, ConvergenceError, EvaluationError, ParseError
from .qnum import as_qparam
from .qschrodinger import build_hamiltonian, evolve, stationary_states

__all__ = ["main"]

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


def _positive(name: str):
    def conv(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
        return value
    return conv


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
# default, help).  A subparser registers the names its handler reads.
_SHARED = {
    "q": (_positive("q"), 0.9, "deformation parameter (default 0.9)"),
    "tol": (_positive("tol"), qcalculus.DEFAULT_TOL,
            f"series truncation tolerance (default {qcalculus.DEFAULT_TOL:g})"),
    "hbar": (_positive("hbar"), 1.0, "reduced Planck constant (default 1)"),
    "mass": (_positive("mass"), 1.0, "particle mass (default 1)"),
    "lattice": (_parse_lattice, (-15, 60, 1.0),
                "lattice exponent window and scale M_MIN:M_MAX:A (default -15:60:1.0)"),
    "format": (_parse_format, "csv", "csv or json (default csv)"),
}


def _resolve_shared(args, env) -> None:
    """Replace each registered shared option on ``args`` by its value.

    The flag wins, then ``BASICQ_<NAME>``, then the default; only the
    chosen source is converted.  ``args.explicit`` gets the names that
    came from a flag or the environment.
    """
    args.explicit = set()
    for name in args.shared:
        conv, default, _ = _SHARED[name]
        text, source = getattr(args, name), "--" + name
        if text is None:
            source = "BASICQ_" + name.upper()
            text = env.get(source)
        if text is None:
            setattr(args, name, default)
            continue
        try:
            setattr(args, name, conv(text))
        except ValueError as exc:
            raise UsageError(f"bad {source} value {text!r}: {exc}") from None
        args.explicit.add(name)


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


def _write_out(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# Points a --range may hold: a million scalar series take about a minute.
_MAX_POINTS = 10**6


def _parse_range(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--range expects start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad --range value {text!r}: {exc}") from None
    if step == 0 or not all(math.isfinite(v) for v in (start, stop, step)):
        raise UsageError(f"bad --range value {text!r}")
    if (stop - start) * step < 0:
        raise UsageError(f"--range step walks away from stop in {text!r}")
    # Inclusive endpoint: 0:2:0.1 yields 21 points despite float rounding.
    n = int(round(min((stop - start) / step, _MAX_POINTS + 1)))
    direction = 1.0 if step > 0 else -1.0
    while n > 0 and (start + n * step - stop) * direction > abs(step) * 1e-9:
        n -= 1
    if n >= _MAX_POINTS:
        raise UsageError(f"--range {text!r} holds more than {_MAX_POINTS} points")
    return [start + i * step for i in range(n + 1)]


def _finite(values, option):
    for x in values:
        if not math.isfinite(x):
            raise UsageError(f"bad {option} value {x!r}: not finite")
    return values


def _expr_fn(text: str, q: float):
    # One QParam for every point, not one built per evaluate call.
    ast, qp = exprparse.parse(text), as_qparam(q)
    return lambda x: exprparse.evaluate(ast, x, qp)


def cmd_eval(args) -> int:
    fnmap = {"Eq": qfunctions.q_exp, "Sq": qfunctions.q_sin, "Cq": qfunctions.q_cos}
    fn = fnmap[args.fn]
    if args.points is not None and args.range is not None:
        raise UsageError("--points and --range are mutually exclusive")
    if args.points is not None:
        points = _finite(args.points, "--points")
    elif args.range is not None:
        points = _parse_range(args.range)
    else:
        raise UsageError("one of --points or --range is required")
    rows = []
    for x in points:
        r = fn(x, args.q, tol=args.tol)
        val = complex(r.value)
        rows.append((x, val.real, val.imag, r.terms_used))
    _emit_table(("x", "re", "im", "terms_used"), rows, args.format, args.output)
    return 0


def cmd_qderiv(args) -> int:
    f = _expr_fn(args.expr, args.q)
    rows = []
    for x in _finite(args.points, "--points"):
        val = complex(qcalculus.jackson_derivative(f, x, args.q))
        rows.append((x, val.real, val.imag))
    _emit_table(("x", "re", "im"), rows, args.format, args.output)
    return 0


def cmd_qint(args) -> int:
    f = _expr_fn(args.expr, args.q)
    chosen = [name for name in ("upper", "halfline", "fullline")
              if getattr(args, name)]
    if len(chosen) > 1:
        raise UsageError("--upper, --halfline and --fullline are mutually exclusive")
    if args.halfline:
        val = qcalculus.q_integral_halfline(f, args.q, tol=args.tol)
    elif args.fullline:
        val = qcalculus.q_integral_fullline(f, args.q, tol=args.tol)
    else:
        upper = args.upper if args.upper is not None else 1.0
        _finite([upper], "--upper")
        val = qcalculus.q_integral_finite(f, upper, args.q, tol=args.tol)
    val = complex(val)
    _emit_table(("re", "im"), [(val.real, val.imag)], args.format, args.output)
    return 0


def cmd_verify(args) -> int:
    sweep = (args.q,) if "q" in args.explicit else verify_mod.DEFAULT_SWEEP
    report = verify_mod.run_verify(sweep, tol_override=args.force_tolerance)
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
        print(f"basicq: verify failed: {names}", file=sys.stderr)
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
    written = [spath]
    # One eigenfunction embedded on the lattice at a time, as it is written.
    for n, v in enumerate(spec.vectors.T):
        fpath = os.path.join(outdir, "eigfunc_%03d.csv" % n)
        _write_out(l2q.to_csv(l2q._from_odd(H.lattice, v)), fpath)
        written.append(fpath)
    for p in written:
        print(p)
    return 0


def cmd_evolve(args) -> int:
    H = _hamiltonian(args)
    psi = l2q.sample(_expr_fn(args.psi0, args.q), H.lattice)
    nrm = l2q.q_norm(psi)
    if not (math.isfinite(nrm) and nrm > 0):
        print(f"basicq: error: initial state has q-norm {nrm!r}, cannot normalize",
              file=sys.stderr)
        return 1
    psi = (1.0 / nrm) * psi

    steps = args.steps
    if steps < 1:
        raise UsageError(f"--steps must be >= 1, got {steps}")
    dt = args.t / steps
    if not (math.isfinite(dt) and dt > 0):
        raise UsageError(f"bad evolution grid: t={args.t!r} steps={steps}")
    snap_every = args.snap_every if args.snap_every is not None else steps
    if snap_every < 1:
        raise UsageError(f"--snap-every must be >= 1, got {snap_every}")

    # Snapshot times accumulate one chunk of steps at a time; the last chunk
    # may be short.
    times, t = [], 0.0
    for done in range(0, steps, snap_every):
        t = t + dt * min(snap_every, steps - done)
        times.append(t)

    outdir = _out_dir(args)
    # evolve solves and expands at the call, before any file is written, so
    # no serialization garbage is resident across the eigensolve and a failed
    # solve leaves no snapshot behind.  Its states are then synthesized one
    # at a time, each as the loop below writes it.
    states = evolve(psi, H, times)
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


def _add_shared(sp, handler, *names):
    for name in names:
        sp.add_argument("--" + name, default=None, help=_SHARED[name][2])
    sp.add_argument("--output", default=None,
                    help="output file (tables) or directory (solve/evolve)")
    sp.set_defaults(handler=handler, shared=names)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="basicq",
                                description="Symmetric q-deformed calculus toolkit")
    sub = p.add_subparsers(dest="command")

    sp = sub.add_parser("eval", help="tabulate a deformed special function")
    sp.add_argument("--fn", required=True, choices=("Eq", "Sq", "Cq"))
    sp.add_argument("--points", type=float, nargs="+", default=None)
    sp.add_argument("--range", type=str, default=None, metavar="START:STOP:STEP")
    _add_shared(sp, cmd_eval, "q", "tol", "format")

    sp = sub.add_parser("qderiv", help="Jackson derivative of an expression")
    sp.add_argument("--expr", required=True)
    sp.add_argument("--points", type=float, nargs="+", required=True)
    _add_shared(sp, cmd_qderiv, "q", "format")

    sp = sub.add_parser("qint", help="q-integral of an expression")
    sp.add_argument("--expr", required=True)
    sp.add_argument("--upper", type=float, default=None,
                    help="finite upper limit (default 1 when no mode is chosen)")
    sp.add_argument("--halfline", action="store_true")
    sp.add_argument("--fullline", action="store_true")
    _add_shared(sp, cmd_qint, "q", "tol", "format")

    sp = sub.add_parser("verify", help="run the identity suite and report")
    sp.add_argument("--force-tolerance", type=float, default=None,
                    help="override every identity tolerance (report-format demo)")
    _add_shared(sp, cmd_verify, "q", "format")

    sp = sub.add_parser("solve", help="stationary states of a potential")
    sp.add_argument("--potential", required=True)
    sp.add_argument("--k", type=int, default=4, help="number of lowest eigenpairs")
    _add_shared(sp, cmd_solve, "q", "hbar", "mass", "lattice")

    sp = sub.add_parser("evolve", help="evolve an initial state in time")
    sp.add_argument("--potential", required=True)
    sp.add_argument("--psi0", required=True, help="initial wavefunction expression")
    sp.add_argument("--t", type=float, default=1.0, help="total evolution time (default 1)")
    sp.add_argument("--steps", type=int, default=100, help="number of steps (default 100)")
    sp.add_argument("--snap-every", type=int, default=None,
                    help="steps between snapshots (default: final state only)")
    _add_shared(sp, cmd_evolve, "q", "hbar", "mass", "lattice")
    return p


# Options taking one string that may begin with '-': a window or range with
# a negative start, or an expression with a leading minus.
_DASH_VALUE_OPTIONS = ("--lattice", "--range", "--expr", "--potential", "--psi0")


def _join_dash_values(argv):
    """Rewrite ``--range -10:10:0.5`` as ``--range=-10:10:0.5``.

    argparse takes a token that starts with '-' and is not a plain number
    for an option, so such a value of an option in ``_DASH_VALUE_OPTIONS``
    would otherwise parse only in the ``=`` form.  A token starting with
    '--' stays an option, so a missing value is still a usage error.
    """
    out = []
    for tok in argv:
        if out and out[-1] in _DASH_VALUE_OPTIONS and re.match(r"-[^-]", tok):
            out[-1] = out[-1] + "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_dash_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    if getattr(args, "handler", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        _resolve_shared(args, os.environ)
        return args.handler(args)
    except UsageError as exc:
        print(f"basicq: usage error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"basicq: parse error: {exc}", file=sys.stderr)
        return 2
    except (EvaluationError, ConvergenceError) as exc:
        print(f"basicq: error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"basicq: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except BasicQError as exc:
        print(f"basicq: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"basicq: i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
