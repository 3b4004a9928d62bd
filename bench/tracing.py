"""Per-layer tracing from outside the program.

The benchmark replaces public functions of each ``basicq`` module with
wrappers while a traced command runs; ``src/basicq`` itself is not edited.
A function is rebound wherever a ``basicq`` module holds it (the defining
module and every ``from .x import f`` binding), so calls between modules are
seen too.  Timed wrappers record a span (name, start, end, parent span,
command id); hot scalar functions get counting wrappers only, because timing
them would distort the very kernels being measured.

Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array


def _terms(result):
    return {"qfunctions.terms": result.terms_used}


# (module, function, mode, result hook).  mode "span" times the call, "count"
# only counts it.  A hook maps the result to {counter: increment}.
TRACED = (
    ("cli", "main", "span", None),
    ("exprparse", "parse", "span", None),
    ("exprparse", "evaluate", "span", None),
    ("qnum", "basic_number", "count", None),
    ("qnum", "basic_factorial", "span", None),
    ("qnum", "q_shifted_factorial", "span", None),
    ("qnum", "basic_factorial_via_shifted", "span", None),
    ("qfunctions", "q_exp", "span", _terms),
    ("qfunctions", "q_sin", "span", _terms),
    ("qfunctions", "q_cos", "span", _terms),
    ("qfunctions", "q_pythagoras_residual", "span", None),
    ("qfunctions", "trig_derivative_residual", "span", None),
    ("qfunctions", "wave_equation_residual", "span", None),
    ("qcalculus", "jackson_derivative", "span", None),
    ("qcalculus", "jackson_derivative_series", "span", None),
    ("qcalculus", "q_integral_finite", "span", None),
    ("qcalculus", "q_integral_halfline", "span", None),
    ("qcalculus", "q_integral_fullline", "span", None),
    ("qcalculus", "q_leibniz_residual", "span", None),
    ("qcalculus", "chain_scaling_residual", "span", None),
    ("qcalculus", "integration_by_parts_residual", "span", None),
    ("qfock", "build_ladder", "span", None),
    ("qfock", "algebra_residuals", "span", None),
    ("qfock", "fock_state", "span", None),
    ("l2q", "build_lattice", "span", None),
    ("l2q", "sample", "span", lambda r: {"l2q.sample.points": r.lattice.size}),
    ("l2q", "inner_product", "count", None),
    ("l2q", "q_norm", "span", None),
    ("l2q", "to_csv", "span", lambda r: {"l2q.to_csv.bytes": len(r.encode())}),
    ("l2q", "momentum_matrix", "span", None),
    ("l2q", "derivative_matrix", "span", None),
    ("l2q", "hermiticity_residual", "span", None),
    ("qschrodinger", "build_hamiltonian", "span", None),
    ("qschrodinger", "stationary_states", "span",
     lambda r: {"qschrodinger.eigenpairs": len(r.eigenvalues)}),
    ("qschrodinger", "eigh_tridiagonal", "span", None),
    ("qschrodinger", "expand", "span", None),
    ("qschrodinger", "synthesize", "span", None),
    ("qschrodinger", "evolve", "span", None),
    ("verify", "run_verify", "span", None),
)

COUNT_ONLY = {f"{m}.{f}.calls" for m, f, mode, _ in TRACED if mode == "count"}

# Every per-layer metric the traced run prints, with its unit.  The ones that
# read 0 on some workload (a layer that workload never reaches) are printed
# and recorded but left out of BENCHMARK.json.
REPORTED = (
    ("import.basicq_s", "s"), ("import.scipy_linalg_s", "s"), ("import.numpy_s", "s"),
    ("cli.main.calls", "count"), ("cli.self_s", "s"), ("cli.bytes_out", "B"),
    ("exprparse.parse.calls", "count"), ("exprparse.evaluate.calls", "count"),
    ("exprparse.self_s", "s"),
    ("qnum.calls", "count"), ("qnum.self_s", "s"), ("qnum.basic_number.calls", "count"),
    ("qfunctions.calls", "count"), ("qfunctions.terms", "count"), ("qfunctions.self_s", "s"),
    ("qcalculus.derivative.calls", "count"), ("qcalculus.integral.calls", "count"),
    ("qcalculus.self_s", "s"),
    ("qfock.calls", "count"), ("qfock.self_s", "s"),
    ("l2q.build_lattice_s", "s"), ("l2q.sample_s", "s"), ("l2q.sample.points", "count"),
    ("l2q.to_csv_s", "s"), ("l2q.to_csv.bytes", "B"), ("l2q.inner_product.calls", "count"),
    ("l2q.momentum_matrix_s", "s"), ("l2q.self_s", "s"),
    ("qschrodinger.build_hamiltonian_s", "s"), ("qschrodinger.stationary_states_s", "s"),
    ("qschrodinger.eigh_tridiagonal_s", "s"), ("qschrodinger.eigh_tridiagonal.calls", "count"),
    ("qschrodinger.eigenpairs", "count"), ("qschrodinger.expand.calls", "count"),
    ("qschrodinger.expand_s", "s"), ("qschrodinger.synthesize_s", "s"),
    ("qschrodinger.self_s", "s"),
    ("verify.run_verify_s", "s"), ("verify.self_s", "s"),
    ("trace.overhead_frac", "ratio"), ("trace.spans", "count"),
)

LAYERS = ("cli", "exprparse", "qnum", "qfunctions", "qcalculus", "qfock", "l2q",
          "qschrodinger", "verify")


class Tracer:
    """Spans kept in flat arrays, plus named counters."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.nid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cmd = array("i")
        self.counters = {}
        self.current = -1
        self.command = -1
        self._restore = []

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def add_span(self, name, start, end, parent, command=0):
        """Append a finished span (used by tests to build trees by hand)."""
        self.nid.append(self._name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.cmd.append(command)
        return len(self.nid) - 1

    def _bump(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def _timed(self, fn, name, hook):
        name_id = self._name_id(name)
        calls_key = name + ".calls"
        clock = time.perf_counter
        nid, start, end, parent, cmd = self.nid, self.start, self.end, self.parent, self.cmd

        def wrapper(*args, **kwargs):
            idx = len(nid)
            nid.append(name_id)
            parent.append(self.current)
            cmd.append(self.command)
            end.append(0.0)
            self.current = idx
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                self.current = parent[idx]
            self._bump(calls_key)
            if hook is not None:
                for key, n in hook(result).items():
                    self._bump(key, n)
            return result

        return wrapper

    def _counted(self, fn, name):
        key = name + ".calls"
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[key] = counters.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Rebind every traced function in every loaded basicq module."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "basicq" or n.startswith("basicq.")]
        for modname, fname, mode, hook in TRACED:
            original = getattr(importlib.import_module("basicq." + modname), fname)
            name = f"{modname}.{fname}"
            wrapper = (self._timed(original, name, hook) if mode == "span"
                       else self._counted(original, name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore = []

    # -- analysis --------------------------------------------------------------

    def self_times(self):
        """Self time of every span: duration minus its direct children's durations."""
        n = len(self.nid)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        out = list(dur)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                out[p] -= dur[i]
        return out

    def layer_metrics(self, command_kinds):
        """Flat metrics (self time per layer and per function, plus counters),
        and self time per layer for each command kind, keyed ``<kind>:<layer>``.

        ``command_kinds`` maps command id to command kind.
        """
        selfs = self.self_times()
        by_name = {}
        by_kind = {}
        for i, s in enumerate(selfs):
            name = self.names[self.nid[i]]
            by_name[name] = by_name.get(name, 0.0) + s
            key = f"{command_kinds[self.cmd[i]]}:{name.split('.')[0]}"
            by_kind[key] = by_kind.get(key, 0.0) + s
        m = dict(self.counters)
        # <layer>.calls counts calls of the timed functions only.
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v for k, v in by_name.items() if k.startswith(layer + "."))
            m[f"{layer}.calls"] = sum(v for k, v in self.counters.items()
                                      if k.startswith(layer + ".") and k.endswith(".calls")
                                      and k not in COUNT_ONLY)
        for name, s in by_name.items():
            m[name + "_s"] = s
        return m, by_kind

    def write_spans(self, path):
        """Spans as gzipped CSV: id,name,start_s,end_s,parent,command."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,command\n")
            for i in range(len(self.nid)):
                fh.write("%d,%s,%.9f,%.9f,%d,%d\n" % (
                    i, self.names[self.nid[i]], self.start[i] - t0, self.end[i] - t0,
                    self.parent[i], self.cmd[i]))
