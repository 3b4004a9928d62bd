"""Output checks for every command kind, with the tolerances they enforce.

Each checker takes the command's ``expect`` record, its standard output and
its output directory, and returns a list of :class:`Failure`.  References are
independent of the program's own arithmetic: series and lattice sums in mpmath,
closed forms, and a Hamiltonian rebuilt by ``build_hamiltonian`` from a
potential the benchmark evaluates itself (with the README's operator
precedence).  A failure that a documented seed defect explains carries that
defect's name; it is still a failure.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import mpmath
import numpy as np

# Tolerances (relative unless stated).
EVAL_RTOL = 1e-10        # eval row vs 50-digit series sum, relative to |ref|
QDERIV_RTOL = 1e-10      # D (c x^n) vs c [n] x^(n-1)
QINT_RTOL = 1e-9         # q-integral vs closed form or mpmath lattice sum
ORTHO_ATOL = 1e-9        # max |<psi_i, psi_j>_q - delta_ij|
RESIDUAL_RTOL = 1e-12    # ||H psi - E psi||_q / (||H||_inf ||psi||_q)
NORM_ATOL = 1e-9         # |norm - 1| per norms.csv row and per snapshot
ENERGY_RTOL = 1e-12      # |E_last - E_first| / ||H||_inf

EVAL_DPS = 50            # digits of the eval reference
LATTICE_DPS = 30         # digits of the q-integral lattice-sum reference
EPS = 2.0 ** -52

# Seed defect (ROADMAP item 3): the double-precision series loses accuracy by
# cancellation, by a factor of about kappa = sum |t_k| / |sum t_k|.
SERIES_CANCELLATION = "series-cancellation"
ILL_CONDITIONED = 1e-12 / EPS  # kappa above which the double sum cannot meet 1e-12

# Seed defect found by this benchmark: unary minus turns the real -1 into
# complex(-1, -0.0), so the expression sqrt(-1) is -i, not i.
SIGNED_ZERO_SQRT = "sqrt-of-negative-zero-imag"

VERIFY_IDENTITIES = (
    "leibniz-1", "leibniz-2", "chain-scaling", "fundamental-deriv-of-int",
    "fundamental-int-of-deriv", "by-parts-shifted-q", "by-parts-shifted-qinv",
    "q-pythagoras", "trig-deriv-sin", "trig-deriv-cos", "wave-equation",
    "exp-eigenrelation", "dual-integral", "factorial-bridge", "dual-representation",
    "fock-algebra", "momentum-hermiticity-even", "momentum-hermiticity-odd",
)


@dataclass(frozen=True)
class Failure:
    check: str
    detail: str
    known_defect: str | None = None


# -- references ----------------------------------------------------------------

class SeriesReference:
    """E, S, C series summed in mpmath, with coefficients cached per q."""

    def __init__(self, dps: int = EVAL_DPS):
        self.dps = dps
        self._coeffs = {}

    def _inv_factorials(self, q: float, dps: int, count: int):
        key = (q, dps)
        have = self._coeffs.get(key)
        if have is None or len(have) < count:
            with mpmath.workdps(dps + 10):
                t = mpmath.log(min(mpmath.mpf(q), 1 / mpmath.mpf(q)))
                sh = mpmath.sinh(t)
                have = have or [mpmath.mpf(1)]
                for k in range(len(have), count):
                    have.append(have[-1] * sh / mpmath.sinh(k * t))
            self._coeffs[key] = have
        return have

    def _terms_needed(self, q: float, z: complex, dps: int) -> int:
        """Index past the peak term where terms fall dps+5 digits below it."""
        qc = min(q, 1.0 / q)
        t = math.log(qc)
        log_z = math.log(abs(z)) if z != 0 else -700.0
        peak = logt = 0.0
        log_inv_fact = 0.0
        k = 0
        drop = (dps + 5) * math.log(10.0)
        while True:
            k += 1
            bn = k if qc == 1.0 else math.sinh(k * t) / math.sinh(t)
            log_inv_fact -= math.log(abs(bn))
            logt = log_inv_fact + k * log_z
            peak = max(peak, logt)
            if k > 2 and logt < peak - drop:
                return k + 1

    def value(self, fn: str, q: float, z) -> tuple:
        """(reference value, condition number kappa) of fn in {Eq, Sq, Cq} at z."""
        dps = self.dps
        while True:
            val, kappa = self._sum(fn, q, z, dps)
            # The reference itself loses log10(kappa) digits; keep 20 of them.
            if mpmath.isinf(kappa) or kappa * mpmath.mpf(10) ** (-dps) < 1e-20:
                return val, kappa
            dps += int(mpmath.log10(kappa)) + 10

    def _sum(self, fn, q, z, dps):
        count = self._terms_needed(q, complex(z), dps)
        inv = self._inv_factorials(q, dps, count)
        with mpmath.workdps(dps + 10):
            zz = mpmath.mpc(z) if isinstance(z, complex) else mpmath.mpf(z)
            coeffs, powers, absp = [], [], []
            p, ap, az = mpmath.mpf(1), mpmath.mpf(1), abs(zz)
            for k in range(count):
                if fn == "Eq":
                    c = inv[k]
                elif fn == "Sq":
                    c = 0 if k % 2 == 0 else inv[k] * (-1 if k % 4 == 3 else 1)
                else:
                    c = 0 if k % 2 else inv[k] * (-1 if k % 4 == 2 else 1)
                if c:
                    coeffs.append(c)
                    powers.append(p)
                    absp.append(ap)
                p *= zz
                ap *= az
            total = mpmath.fdot(coeffs, powers)
            mag = mpmath.fdot([abs(c) for c in coeffs], absp)
            if mag == 0:   # S(0): every term is exactly 0
                return total, mpmath.mpf(1)
            return total, mag / abs(total) if total != 0 else mpmath.inf


def basic_number(n: int, q: float):
    """[n] in mpmath."""
    t = mpmath.log(min(mpmath.mpf(q), 1 / mpmath.mpf(q)))
    return mpmath.sinh(n * t) / mpmath.sinh(t)


def lattice_integral(q: float, mode: str, c: float, n: int, w: float, s: float):
    """Jackson sum of c x^n exp(-((x - s)/w)^2) over [0, inf) or the full line."""
    with mpmath.workdps(LATTICE_DPS):
        qc = min(mpmath.mpf(q), 1 / mpmath.mpf(q))

        def f(x):
            return c * x**n * mpmath.exp(-((x - s) / w) ** 2)

        def halfline(g):
            total = mpmath.mpf(0)
            for step in (1, -1):   # x -> 0 tail, then x -> inf tail
                j = 0 if step == 1 else -1
                small = 0
                while small < 3:
                    x = qc ** (2 * j + 1)
                    term = x * g(x)
                    total += term
                    small = small + 1 if abs(term) <= mpmath.mpf(10) ** (-LATTICE_DPS + 5) * abs(total) else 0
                    j += step
            return (1 / qc - qc) * total

        if mode == "halfline":
            return halfline(f)
        return halfline(f) + halfline(lambda x: f(-x))


# -- helpers -------------------------------------------------------------------

def _table(text: str):
    """Rows of a CSV table written by the CLI (schema comment line first)."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    return header, list(reader)


def _rel(got: complex, ref) -> float:
    ref = complex(ref)
    diff = abs(got - ref)
    return diff / abs(ref) if ref != 0 else diff


def _reference_potential(pot: dict):
    kind = pot["kind"]
    if kind == "zero":
        return lambda x: 0.0
    if kind == "harmonic":
        return lambda x: x * x
    if kind == "quartic":
        return lambda x: x**4 - pot["b"] * x * x
    if kind == "well":
        return lambda x: -pot["c"] * math.exp(-((x / pot["w"]) ** 2))
    if kind == "vee":
        return lambda x: pot["a"] * abs(x)
    if kind == "double":
        return lambda x: -(x * x) + x**4 / pot["d"]
    raise ValueError(f"unknown potential kind {kind!r}")


def _lattice_args(expect):
    m_min, m_max, a = expect["lattice"].split(":")
    return expect["q"], int(m_min), int(m_max), float(a)


def read_lattice_csv(path: str):
    """(sign, m, x, weight, values) arrays of a lattice-function CSV."""
    data = np.loadtxt(path, delimiter=",", comments="#", skiprows=2, ndmin=2)
    return data[:, 0], data[:, 1], data[:, 2], data[:, 3], data[:, 4] + 1j * data[:, 5]


class HamiltonianCache:
    """Reference Hamiltonians keyed by (lattice, potential), built on demand."""

    def __init__(self):
        self._cache = {}

    def get(self, expect):
        key = (expect["lattice"], expect["q"], json.dumps(expect["potential"], sort_keys=True))
        H = self._cache.get(key)
        if H is None:
            from basicq.l2q import build_lattice
            from basicq.qschrodinger import build_hamiltonian
            lat = build_lattice(*_lattice_args(expect))
            H = build_hamiltonian(_reference_potential(expect["potential"]), 1.0, 1.0, lat)
            self._cache[key] = H
        return H


def _apply(H, v):
    out = H.di * v
    out[:-1] += H.up * v[1:]
    out[1:] += H.lo * v[:-1]
    return out


def _h_scale(H) -> float:
    off = np.zeros_like(H.di)
    off[:-1] += np.abs(H.up)
    off[1:] += np.abs(H.lo)
    return float(np.max(np.abs(H.di) + off))


# -- checkers ------------------------------------------------------------------

class Checker:
    """Holds the reference caches; ``check`` dispatches on the command kind."""

    def __init__(self):
        self.series = SeriesReference()
        self.hamiltonians = HamiltonianCache()

    def check(self, cmd, rc: int, stdout: str, outdir: str) -> list:
        if cmd.expect["check"] == "verify":
            return self.verify(cmd, rc, stdout)
        if rc != 0:
            return [Failure("exit_code", f"exit {rc}")]
        try:
            return getattr(self, cmd.expect["check"])(cmd, stdout, outdir)
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            return [Failure(f"{cmd.kind}.unreadable", f"{type(exc).__name__}: {exc}")]

    def _tag(self, cmd, failures):
        """Attach the command's template defect to failures nothing else explains."""
        if cmd.known_defect is None:
            return failures
        return [f if f.known_defect else Failure(f.check, f.detail, cmd.known_defect)
                for f in failures]

    def eval(self, cmd, stdout, outdir):
        header, rows = _table(stdout)
        if header != ["x", "re", "im", "terms_used"] or not rows:
            return [Failure("eval.table", f"header {header}, {len(rows)} rows")]
        fails = []
        for row in rows:
            x = float(row[0])
            got = complex(float(row[1]), float(row[2]))
            ref, kappa = self.series.value(cmd.expect["fn"], cmd.expect["q"], x)
            err = _rel(got, ref)
            if not err <= EVAL_RTOL:
                defect = SERIES_CANCELLATION if kappa > ILL_CONDITIONED else None
                fails.append(Failure("eval.row", f"x={x!r} rel_err={err:.3g} kappa={float(kappa):.3g}",
                                     defect))
        return fails

    def qderiv(self, cmd, stdout, outdir):
        e = cmd.expect
        header, rows = _table(stdout)
        if header != ["x", "re", "im"] or not rows:
            return [Failure("qderiv.table", f"header {header}, {len(rows)} rows")]
        fails = []
        bn = basic_number(e["n"], e["q"])
        for row in rows:
            x = float(row[0])
            ref = e["c"] * bn * mpmath.mpf(x) ** (e["n"] - 1)
            err = _rel(complex(float(row[1]), float(row[2])), ref)
            if not err <= QDERIV_RTOL:
                fails.append(Failure("qderiv.monomial", f"x={x!r} rel_err={err:.3g}"))
        return self._tag(cmd, fails)

    def _qint_value(self, stdout):
        header, rows = _table(stdout)
        if header != ["re", "im"] or len(rows) != 1:
            raise ValueError(f"qint table header {header}, {len(rows)} rows")
        return complex(float(rows[0][0]), float(rows[0][1]))

    def qint_poly(self, cmd, stdout, outdir):
        e = cmd.expect
        got = self._qint_value(stdout)
        ref = e["c"] * mpmath.mpf(e["upper"]) ** (e["n"] + 1) / basic_number(e["n"] + 1, e["q"])
        err = _rel(got, ref)
        if err <= QINT_RTOL:
            return []
        return self._tag(cmd, [Failure("qint.closed_form", f"rel_err={err:.3g}")])

    def _special_integral(self, fn, q, beta, upper):
        """int_0^a F(beta y) d_q y in closed form, and kappa of F at beta a."""
        z = beta * upper
        if fn == "Eq":
            fa, kappa = self.series.value("Eq", q, z)
            return (fa - 1) / beta, kappa
        if fn == "Sq":
            fa, kappa = self.series.value("Cq", q, z)
            return (1 - fa) / beta, kappa
        fa, kappa = self.series.value("Sq", q, z)
        return fa / beta, kappa

    def qint_special(self, cmd, stdout, outdir):
        e = cmd.expect
        got = self._qint_value(stdout)
        beta = complex(0.0, e["b"]) if e["imaginary"] else e["b"]
        ref, kappa = self._special_integral(e["fn"], e["q"], beta, e["upper"])
        err = _rel(got, ref)
        if err <= QINT_RTOL:
            return []
        # The integrand's series is worst conditioned at the upper limit.
        defect = SERIES_CANCELLATION if kappa > ILL_CONDITIONED else None
        if e["imaginary"] and defect is None:
            flipped, _ = self._special_integral(e["fn"], e["q"], -beta, e["upper"])
            if _rel(got, flipped) <= QINT_RTOL:
                defect = SIGNED_ZERO_SQRT
        return [Failure("qint.closed_form", f"rel_err={err:.3g} kappa={float(kappa):.3g}", defect)]

    def qint_lattice(self, cmd, stdout, outdir):
        e = cmd.expect
        got = self._qint_value(stdout)
        ref = lattice_integral(e["q"], e["mode"], e["c"], e["n"], e["w"], e["s"])
        err = _rel(got, ref)
        if err <= QINT_RTOL:
            return []
        return [Failure("qint.lattice_sum", f"rel_err={err:.3g}")]

    def solve(self, cmd, stdout, outdir):
        e = cmd.expect
        with open(os.path.join(outdir, "spectrum.json"), encoding="utf-8") as fh:
            evals = np.array(json.load(fh)["eigenvalues"], dtype=float)
        fails = []
        if len(evals) != e["k"]:
            fails.append(Failure("solve.count", f"{len(evals)} eigenvalues, asked {e['k']}"))
        if np.any(np.diff(evals) < 0):
            fails.append(Failure("solve.ascending", "eigenvalues not ascending"))
        H = self.hamiltonians.get(e)
        odd = H.lattice.odd_indices
        w = H.lattice.w[odd]
        vecs = []
        for j in range(len(evals)):
            _, _, x, weight, vals = read_lattice_csv(os.path.join(outdir, "eigfunc_%03d.csv" % j))
            if not np.array_equal(x, H.lattice.x):
                return fails + [Failure("solve.lattice", f"eigfunc_{j:03d} has other points")]
            vecs.append((vals[odd], weight[odd]))
        for i, (vi, wi) in enumerate(vecs):
            for j, (vj, _) in enumerate(vecs):
                g = np.sum(wi * np.conj(vi) * vj)
                if not abs(g - (i == j)) <= ORTHO_ATOL:
                    fails.append(Failure("solve.orthonormal", f"<{i},{j}> = {g:.3g}"))
        scale = _h_scale(H)
        for j, (v, _) in enumerate(vecs):
            r = _apply(H, v) - evals[j] * v
            res = math.sqrt(float(np.sum(w * np.abs(r) ** 2))) / (
                scale * math.sqrt(float(np.sum(w * np.abs(v) ** 2))))
            if not res <= RESIDUAL_RTOL:
                fails.append(Failure("solve.residual", f"pair {j}: {res:.3g}"))
        return self._tag(cmd, fails)

    def evolve(self, cmd, stdout, outdir):
        e = cmd.expect
        fails = []
        with open(os.path.join(outdir, "norms.csv"), encoding="utf-8") as fh:
            header, rows = _table(fh.read())
        if header != ["t", "norm"] or len(rows) != e["snapshots"]:
            fails.append(Failure("evolve.norms", f"{len(rows)} rows, expected {e['snapshots']}"))
        for t, nrm in rows:
            if not abs(float(nrm) - 1.0) <= NORM_ATOL:
                fails.append(Failure("evolve.norms", f"t={t} norm={nrm}"))
        H = self.hamiltonians.get(e)
        odd = H.lattice.odd_indices
        w = H.lattice.w[odd]
        energies = []
        for i in range(e["snapshots"]):
            path = os.path.join(outdir, "snapshot_%04d.csv" % i)
            _, _, x, weight, vals = read_lattice_csv(path)
            if not np.array_equal(x, H.lattice.x):
                return fails + [Failure("evolve.lattice", f"snapshot_{i:04d} has other points")]
            nrm = math.sqrt(float(np.sum(weight * np.abs(vals) ** 2)))
            if not abs(nrm - 1.0) <= NORM_ATOL:
                fails.append(Failure("evolve.snapshot_norm", f"snapshot {i}: norm {nrm!r}"))
            if i in (0, e["snapshots"] - 1):
                v = vals[odd]
                energies.append(float(np.real(np.sum(w * np.conj(v) * _apply(H, v)))) / nrm**2)
        drift = abs(energies[-1] - energies[0]) / _h_scale(H)
        if not drift <= ENERGY_RTOL:
            fails.append(Failure("evolve.energy_drift", f"{drift:.3g} of ||H||"))
        return self._tag(cmd, fails)

    def verify(self, cmd, rc, stdout):
        fails = []
        if rc != 0:
            fails.append(Failure("verify.exit", f"exit {rc}"))
        try:
            header, rows = _table(stdout)
        except StopIteration:
            return fails + [Failure("verify.report", "empty report")]
        status = {r[0]: r[4] for r in rows if len(r) == 5}
        missing = [n for n in VERIFY_IDENTITIES if n not in status]
        if missing:
            fails.append(Failure("verify.names", "missing " + ", ".join(missing)))
        bad = [n for n, s in status.items() if s != "PASS"]
        if bad:
            fails.append(Failure("verify.all_pass", "not PASS: " + ", ".join(bad)))
        return fails
