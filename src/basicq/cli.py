"""Command-line interface.

Subcommands: eval (special-function tables), qderiv (Jackson derivative of
an expression), qint (q-integrals), verify (identity suite report), solve
(stationary states to files), evolve (time evolution snapshots).  Every
command takes --q --tol --hbar --mass --lattice, and the table commands
(eval, qderiv, qint, verify) also --format; environment variables
BASICQ_Q, BASICQ_TOL, BASICQ_HBAR, BASICQ_MASS, BASICQ_LATTICE and
BASICQ_FORMAT override the built-in defaults, explicit flags override both.

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
from dataclasses import dataclass

from . import exprparse, l2q, qcalculus, qfunctions, verify as verify_mod
from .errors import BasicQError, ConvergenceError, EvaluationError, ParseError
from .qschrodinger import build_hamiltonian, evolve, stationary_states

__all__ = ["main"]

SCHEMA_VERSION = 1

_DEFAULTS = {
    "q": 0.9,
    "tol": qcalculus.DEFAULT_TOL,
    "hbar": 1.0,
    "mass": 1.0,
    "lattice": "-15:60:1.0",
    "format": "csv",
}


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    q: float
    q_explicit: bool
    tol: float
    hbar: float
    mass: float
    m_min: int
    m_max: int
    a: float
    fmt: str
    output: str | None


def _env_or(env, key: str, fallback):
    return env.get("BASICQ_" + key.upper(), fallback)


def _parse_lattice(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--lattice expects m_min:m_max:a, got {text!r}")
    try:
        m_min, m_max, a = int(parts[0]), int(parts[1]), float(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad --lattice value {text!r}: {exc}") from None
    return m_min, m_max, a


def _resolve_config(args, env) -> RunConfig:
    def pick(name, conv):
        flag = getattr(args, name, None)
        if flag is not None:
            return conv(flag), True
        raw = _env_or(env, name, None)
        if raw is not None:
            try:
                return conv(raw), True
            except (TypeError, ValueError) as exc:
                raise UsageError(f"bad BASICQ_{name.upper()} value {raw!r}: {exc}") from None
        return conv(_DEFAULTS[name]), False

    q, q_explicit = pick("q", float)
    tol, _ = pick("tol", float)
    hbar, _ = pick("hbar", float)
    mass, _ = pick("mass", float)
    lattice_text, _ = pick("lattice", str)
    fmt, _ = pick("format", str)
    if not (math.isfinite(q) and q > 0):
        raise UsageError(f"q must be finite and positive, got {q!r}")
    if not (math.isfinite(tol) and tol > 0):
        raise UsageError(f"tol must be finite and positive, got {tol!r}")
    if not (math.isfinite(hbar) and hbar > 0):
        raise UsageError(f"hbar must be positive, got {hbar!r}")
    if not (math.isfinite(mass) and mass > 0):
        raise UsageError(f"mass must be positive, got {mass!r}")
    if fmt not in ("csv", "json"):
        raise UsageError(f"format must be csv or json, got {fmt!r}")
    m_min, m_max, a = _parse_lattice(lattice_text)
    if m_min >= m_max:
        raise UsageError(f"lattice needs m_min < m_max, got {m_min}:{m_max}")
    if not (math.isfinite(a) and a > 0):
        raise UsageError(f"lattice scale a must be positive, got {a!r}")
    return RunConfig(q=q, q_explicit=q_explicit, tol=tol, hbar=hbar, mass=mass,
                     m_min=m_min, m_max=m_max, a=a, fmt=fmt,
                     output=getattr(args, "output", None))


def _canon(v):
    # Collapse -0.0 so equivalent runs emit identical bytes.
    if isinstance(v, float) and v == 0.0:
        return 0.0
    return v


def _fmt_cell(v) -> str:
    v = _canon(v)
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _emit_table(columns, rows, fmt: str, path: str | None):
    if fmt == "csv":
        lines = ["# schema_version=%d" % SCHEMA_VERSION, ",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt_cell(v) for v in row))
        text = "\n".join(lines) + "\n"
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
    n = int(round((stop - start) / step))
    direction = 1.0 if step > 0 else -1.0
    while n > 0 and (start + n * step - stop) * direction > abs(step) * 1e-9:
        n -= 1
    return [start + i * step for i in range(n + 1)]


def _expr_fn(text: str, q: float):
    ast = exprparse.parse(text)
    return lambda x: exprparse.evaluate(ast, x, q)


def cmd_eval(args, cfg: RunConfig) -> int:
    fnmap = {"Eq": qfunctions.q_exp, "Sq": qfunctions.q_sin, "Cq": qfunctions.q_cos}
    fn = fnmap[args.fn]
    if args.points is not None and args.range is not None:
        raise UsageError("--points and --range are mutually exclusive")
    if args.points is not None:
        points = [float(p) for p in args.points]
    elif args.range is not None:
        points = _parse_range(args.range)
    else:
        raise UsageError("one of --points or --range is required")
    rows = []
    for x in points:
        r = fn(x, cfg.q, tol=cfg.tol)
        val = complex(r.value)
        rows.append((x, val.real, val.imag, r.terms_used))
    _emit_table(("x", "re", "im", "terms_used"), rows, cfg.fmt, cfg.output)
    return 0


def cmd_qderiv(args, cfg: RunConfig) -> int:
    f = _expr_fn(args.expr, cfg.q)
    rows = []
    for x in args.points:
        val = complex(qcalculus.jackson_derivative(f, float(x), cfg.q))
        rows.append((float(x), val.real, val.imag))
    _emit_table(("x", "re", "im"), rows, cfg.fmt, cfg.output)
    return 0


def cmd_qint(args, cfg: RunConfig) -> int:
    f = _expr_fn(args.expr, cfg.q)
    chosen = [name for name in ("upper", "halfline", "fullline")
              if getattr(args, name)]
    if len(chosen) > 1:
        raise UsageError("--upper, --halfline and --fullline are mutually exclusive")
    if args.halfline:
        val = qcalculus.q_integral_halfline(f, cfg.q, tol=cfg.tol)
    elif args.fullline:
        val = qcalculus.q_integral_fullline(f, cfg.q, tol=cfg.tol)
    else:
        upper = args.upper if args.upper is not None else 1.0
        val = qcalculus.q_integral_finite(f, upper, cfg.q, tol=cfg.tol)
    val = complex(val)
    _emit_table(("re", "im"), [(val.real, val.imag)], cfg.fmt, cfg.output)
    return 0


def cmd_verify(args, cfg: RunConfig) -> int:
    sweep = (cfg.q,) if cfg.q_explicit else verify_mod.DEFAULT_SWEEP
    report = verify_mod.run_verify(sweep, tol_override=args.force_tolerance)
    if cfg.fmt == "json":
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
        _write_out(json.dumps(doc) + "\n", cfg.output)
    else:
        buf = io.StringIO()
        buf.write("# schema_version=%d\n" % SCHEMA_VERSION)
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(("identity", "detail", "max_residual", "tolerance", "status"))
        for r in report.results:
            res = "" if math.isnan(r.max_residual) else "%.6e" % r.max_residual
            w.writerow((r.name, r.detail, res, "%g" % r.tolerance, r.status))
        _write_out(buf.getvalue(), cfg.output)
    if not report.all_pass:
        names = ", ".join(r.name for r in report.failures)
        print(f"basicq: verify failed: {names}", file=sys.stderr)
        return 1
    return 0


def _spectrum_doc(lat, eigenvalues, cfg: RunConfig, potential_text: str):
    return {
        "schema_version": SCHEMA_VERSION,
        "q": lat.q,
        "lattice": {"m_min": lat.m_min, "m_max": lat.m_max, "a": lat.a},
        "eigenvalues": [float(e) for e in eigenvalues],
        "meta": {"hbar": cfg.hbar, "mass": cfg.mass, "potential_text": potential_text},
    }


def _out_dir(cfg: RunConfig) -> str:
    d = cfg.output if cfg.output is not None else "."
    os.makedirs(d, exist_ok=True)
    return d


def cmd_solve(args, cfg: RunConfig) -> int:
    lat = l2q.build_lattice(cfg.q, cfg.m_min, cfg.m_max, cfg.a)
    H = build_hamiltonian(_expr_fn(args.potential, cfg.q), cfg.mass, cfg.hbar, lat)
    spec = stationary_states(H, args.k)
    outdir = _out_dir(cfg)
    spath = os.path.join(outdir, "spectrum.json")
    doc = _spectrum_doc(lat, spec.eigenvalues, cfg, args.potential)
    _write_out(json.dumps(doc) + "\n", spath)
    written = [spath]
    for n, f in enumerate(spec.eigenfunctions):
        fpath = os.path.join(outdir, "eigfunc_%03d.csv" % n)
        _write_out(l2q.to_csv(f), fpath)
        written.append(fpath)
    for p in written:
        print(p)
    return 0


def cmd_evolve(args, cfg: RunConfig) -> int:
    lat = l2q.build_lattice(cfg.q, cfg.m_min, cfg.m_max, cfg.a)
    H = build_hamiltonian(_expr_fn(args.potential, cfg.q), cfg.mass, cfg.hbar, lat)
    psi = l2q.sample(_expr_fn(args.psi0, cfg.q), lat)
    nrm = l2q.q_norm(psi)
    if not (math.isfinite(nrm) and nrm > 0):
        print(f"basicq: error: initial state has q-norm {nrm!r}, cannot normalize",
              file=sys.stderr)
        return 1
    psi = (1.0 / nrm) * psi

    t_total, dt, steps = args.t, args.dt, args.steps
    if dt is not None and t_total is not None:
        steps = int(round(t_total / dt))
    elif dt is not None:
        steps = steps if steps is not None else 100
        t_total = dt * steps
    else:
        t_total = t_total if t_total is not None else 1.0
        steps = steps if steps is not None else 100
        dt = t_total / steps
    if steps < 1 or not (math.isfinite(dt) and dt > 0):
        raise UsageError(f"bad evolution grid: t={t_total!r} dt={dt!r} steps={steps!r}")
    snap_every = args.snap_every if args.snap_every is not None else steps
    if snap_every < 1:
        raise UsageError(f"--snap-every must be >= 1, got {snap_every}")

    # Snapshot times accumulate one chunk of steps at a time; the last chunk
    # may be short.
    times, t = [], 0.0
    for done in range(0, steps, snap_every):
        t = t + dt * min(snap_every, steps - done)
        times.append(t)

    outdir = _out_dir(cfg)
    written, norm_rows = [], []

    def snap(t, psi_t):
        path = os.path.join(outdir, "snapshot_%04d.csv" % len(norm_rows))
        _write_out(l2q.to_csv(psi_t), path)
        written.append(path)
        norm_rows.append((t, l2q.q_norm(psi_t)))

    snap(0.0, psi)
    for t, psi_t in zip(times, evolve(psi, H, times)):
        snap(t, psi_t)
    npath = os.path.join(outdir, "norms.csv")
    _emit_table(("t", "norm"), norm_rows, "csv", npath)
    written.append(npath)
    for p in written:
        print(p)
    return 0


def _add_common(sp, table: bool):
    sp.add_argument("--q", type=float, default=None,
                    help="deformation parameter (default %(default)s -> 0.9)")
    sp.add_argument("--tol", type=float, default=None,
                    help="series truncation tolerance")
    sp.add_argument("--hbar", type=float, default=None)
    sp.add_argument("--mass", type=float, default=None)
    sp.add_argument("--lattice", type=str, default=None, metavar="M_MIN:M_MAX:A",
                    help="lattice exponent window and scale")
    if table:
        sp.add_argument("--format", type=str, default=None, choices=("csv", "json"))
    sp.add_argument("--output", type=str, default=None,
                    help="output file (tables) or directory (solve/evolve)")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="basicq",
                                description="Symmetric q-deformed calculus toolkit")
    sub = p.add_subparsers(dest="command")

    sp = sub.add_parser("eval", help="tabulate a deformed special function")
    sp.add_argument("--fn", required=True, choices=("Eq", "Sq", "Cq"))
    sp.add_argument("--points", type=float, nargs="+", default=None)
    sp.add_argument("--range", type=str, default=None, metavar="START:STOP:STEP")
    _add_common(sp, table=True)
    sp.set_defaults(handler=cmd_eval)

    sp = sub.add_parser("qderiv", help="Jackson derivative of an expression")
    sp.add_argument("--expr", required=True)
    sp.add_argument("--points", type=float, nargs="+", required=True)
    _add_common(sp, table=True)
    sp.set_defaults(handler=cmd_qderiv)

    sp = sub.add_parser("qint", help="q-integral of an expression")
    sp.add_argument("--expr", required=True)
    sp.add_argument("--upper", type=float, default=None,
                    help="finite upper limit (default 1 when no mode is chosen)")
    sp.add_argument("--halfline", action="store_true")
    sp.add_argument("--fullline", action="store_true")
    _add_common(sp, table=True)
    sp.set_defaults(handler=cmd_qint)

    sp = sub.add_parser("verify", help="run the identity suite and report")
    sp.add_argument("--force-tolerance", type=float, default=None,
                    help="override every identity tolerance (report-format demo)")
    _add_common(sp, table=True)
    sp.set_defaults(handler=cmd_verify)

    sp = sub.add_parser("solve", help="stationary states of a potential")
    sp.add_argument("--potential", required=True)
    sp.add_argument("--k", type=int, default=4, help="number of lowest eigenpairs")
    _add_common(sp, table=False)
    sp.set_defaults(handler=cmd_solve)

    sp = sub.add_parser("evolve", help="evolve an initial state in time")
    sp.add_argument("--potential", required=True)
    sp.add_argument("--psi0", required=True, help="initial wavefunction expression")
    sp.add_argument("--t", type=float, default=None, help="total evolution time")
    sp.add_argument("--dt", type=float, default=None, help="time step")
    sp.add_argument("--steps", type=int, default=None, help="number of steps")
    sp.add_argument("--snap-every", type=int, default=None,
                    help="steps between snapshots (default: final state only)")
    _add_common(sp, table=False)
    sp.set_defaults(handler=cmd_evolve)
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
        cfg = _resolve_config(args, os.environ)
        return args.handler(args, cfg)
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
