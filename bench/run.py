#!/usr/bin/env python3
"""Benchmark for the basicq CLI: seeded closed-loop workloads, checked outputs.

    python3 bench/run.py --workload cli-short --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run from the root of a source checkout; the program is taken from ``src/``.

``--trace 0`` runs each generated command as its own ``python -m basicq``
process, one at a time (a closed loop with one client: the next command starts
when the previous one exits), and times it from process start to exit.  It
reports set-up time, throughput, median and tail latency and peak memory.

``--trace 1`` replays the same commands in-process through
``basicq.cli.main(argv)``, each once untraced and once with the module entry
points wrapped (see ``tracing.py``), and reports per-layer self times and
counts, the ``python -X importtime`` breakdown and the tracing overhead.

Every command's outputs are checked (``checks.py``) outside the timed
interval, and hashed with SHA-256.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Records (commands, hashes, failures, machine, spans) go to ``.bench_results/``.
"""

from __future__ import annotations

import os

# Hold BLAS/OpenMP threads at the core count, for this process and its children,
# before numpy is first imported.
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
WORK = ROOT / ".bench_work"

COMMAND_TIMEOUT_S = 120.0   # a single command
RUN_DEADLINE_S = 150.0      # stop starting commands after this much wall time
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
KINDS = ("eval", "qderiv", "qint", "verify", "solve", "evolve")


class BenchError(Exception):
    pass


# -- environment ---------------------------------------------------------------

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("BASICQ_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def machine_record() -> dict:
    import mpmath
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": NPROC,
        "blas_threads": NPROC,
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "machine": platform.machine(),
    }


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the host runs right now.

    Recorded at the start and end of each run to show host drift; it does
    not enter any metric.
    """
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        x = 0
        for i in range(100_000):
            x += i * i
        times.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def load_program():
    """Import basicq from this checkout's src/, or fail."""
    if not (SRC / "basicq" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'basicq'}")
    sys.path.insert(0, str(SRC))
    import basicq
    if Path(basicq.__file__).resolve().parent != (SRC / "basicq").resolve():
        raise BenchError(f"basicq imported from {basicq.__file__}, not from {SRC}")
    import basicq.cli  # noqa: F401
    return basicq


# -- running one command ---------------------------------------------------------

def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _collect(stdout: bytes, outdir: Path) -> dict:
    """SHA-256 of standard output and of every file the command wrote."""
    hashes = {"stdout": _sha256(stdout)}
    if outdir.is_dir():
        for p in sorted(outdir.iterdir()):
            hashes[p.name] = _sha256(p.read_bytes())
    return hashes


def _output_bytes(stdout: bytes, outdir: Path) -> int:
    n = len(stdout)
    if outdir.is_dir():
        n += sum(p.stat().st_size for p in outdir.iterdir())
    return n


def _fresh(outdir: Path):
    if outdir.exists():
        shutil.rmtree(outdir)


def run_process(argv, cwd: Path, env: dict):
    """Run argv to completion; (wall seconds, exit code, peak RSS MB, stdout bytes)."""
    out_path, err_path = cwd / "stdout.bin", cwd / "stderr.bin"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, out_path.read_bytes()


def cli_argv(cmd) -> list:
    return list(cmd.argv) + (["--output", "out"] if cmd.writes_dir else [])


def process_argv(cmd) -> list:
    return [sys.executable, "-m", "basicq", *cli_argv(cmd)]


def run_inprocess(basicq, argv):
    """basicq.cli.main(argv) with standard streams captured; (wall, rc, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = basicq.cli.main(argv)
        except Exception as exc:  # a crash is a failed command, not a failed run
            print(f"{type(exc).__name__}: {exc}", file=err)
            rc = -1
    wall = time.perf_counter() - t0
    return wall, rc, out.getvalue().encode()


# -- statistics ------------------------------------------------------------------

def tail(values):
    """(percentile, value): the highest whole percentile with >= 10 samples above it."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return 100, xs[-1]
    p = math.floor(100 * (n - 10) / n)
    while n - math.ceil(p * n / 100) < 10:
        p -= 1
    return p, xs[max(0, math.ceil(p * n / 100) - 1)]


def _fmt(v):
    return "%.6g" % v if isinstance(v, float) else str(v)


# -- the two modes ---------------------------------------------------------------

class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: int):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.t_start = time.perf_counter()
        self.basicq = load_program()
        self.env = child_env()
        self.checker = checks.Checker()
        self.rounds = workloads.rounds_for(workload, seconds, inproc=bool(trace))
        self.commands = workloads.generate(workload, seed, self.rounds)
        self.work = WORK / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
        self.records = []
        self.lines = []

    def say(self, text=""):
        self.lines.append(text)

    def _check(self, cmd, rc, stdout: bytes, outdir: Path):
        return self.checker.check(cmd, rc, stdout.decode("utf-8", "replace"), str(outdir))

    def _record(self, cmd, wall, rc, hashes, failures, **extra):
        rec = {"cid": cmd.cid, "kind": cmd.kind, "argv": cmd.argv, "wall_s": wall, "rc": rc,
               "outputs": hashes,
               "failures": [[f.check, f.detail, f.known_defect] for f in failures], **extra}
        self.records.append(rec)
        return rec

    def _out_of_time(self):
        return time.perf_counter() - self.t_start > RUN_DEADLINE_S

    # trace 0 -------------------------------------------------------------------
    def measure_setup(self):
        argv = [sys.executable, "-c", "import basicq"]
        run_process(argv, self.work, self.env)  # warm-up: compiles bytecode
        times = []
        for _ in range(SETUP_REPEATS):
            wall, rc, _, _ = run_process(argv, self.work, self.env)
            if rc != 0:
                raise BenchError(f"import basicq exited {rc}")
            times.append(wall)
        return times

    def run_processes(self):
        setup = self.measure_setup()
        outdir = self.work / "out"
        for cmd in self.commands:
            if self._out_of_time():
                break
            _fresh(outdir)
            wall, rc, rss, stdout = run_process(process_argv(cmd), self.work, self.env)
            hashes = _collect(stdout, outdir)
            failures = self._check(cmd, rc, stdout, outdir)
            self._record(cmd, wall, rc, hashes, failures, rss_mb=rss)
        # Repeat the quickest command: same argv must give the same bytes.
        if self.records:
            rec = min(self.records, key=lambda r: r["wall_s"])
            cmd = self.commands[rec["cid"]]
            _fresh(outdir)
            _, rc, _, stdout = run_process(process_argv(cmd), self.work, self.env)
            if _collect(stdout, outdir) != rec["outputs"]:
                rec["failures"].append(["determinism", "repeat gave other bytes", None])
        return setup

    def report_processes(self, setup):
        recs = self.records
        walls = [r["wall_s"] for r in recs]
        n = len(walls)
        p, tail_v = tail(walls)
        metrics = {
            "setup_s": (statistics.median(setup), "s", len(setup), "python -c 'import basicq'"),
            "cmds_per_s": (n / sum(walls), "1/s", n, "closed loop, 1 client"),
            "cmd_p50_s": (statistics.median(walls), "s", n, ""),
            "cmd_tail_s": (tail_v, "s", n, f"p{p}"),
            "peak_rss_mb": (max(r["rss_mb"] for r in recs), "MB", n, "max over commands"),
        }
        for kind in KINDS:
            kw = [r["wall_s"] for r in recs if r["kind"] == kind]
            metrics[f"{kind}_p50_s"] = (statistics.median(kw) if kw else float("nan"), "s",
                                        len(kw), "" if kw else "no such command here")
        failed = [r for r in recs if r["failures"]]
        metrics["failed_frac"] = (len(failed) / n, "ratio", n, f"{len(failed)} failed")
        self.say(f"{'metric':<16} {'value':>12} {'unit':<6} {'n':>4}  note")
        for name, (v, unit, cnt, note) in metrics.items():
            self.say(f"{name:<16} {_fmt(v):>12} {unit:<6} {cnt:>4}  {note}")
        return {k: (v[0], v[1]) for k, v in metrics.items()}

    # trace 1 -------------------------------------------------------------------
    def importtime(self):
        wanted = {"basicq": "import.basicq_s", "scipy.linalg": "import.scipy_linalg_s",
                  "numpy": "import.numpy_s"}
        samples = {v: [] for v in wanted.values()}
        text = ""
        for _ in range(IMPORTTIME_REPEATS):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import basicq"],
                                  cwd=self.work, env=self.env, capture_output=True, text=True,
                                  timeout=COMMAND_TIMEOUT_S)
            text = proc.stderr
            for line in text.splitlines():
                parts = line.split("|")
                if len(parts) == 3 and parts[2].strip() in wanted:
                    samples[wanted[parts[2].strip()]].append(int(parts[1]) / 1e6)
        return {k: statistics.median(v) if v else float("nan") for k, v in samples.items()}, text

    def run_traced(self):
        basicq = self.basicq
        tracer = tracing.Tracer()
        outdir = self.work / "out"
        here = os.getcwd()
        os.chdir(self.work)
        # Warm-up outside the measurement: first calls pay one-time costs.
        with contextlib.redirect_stdout(io.StringIO()):
            basicq.cli.main(["eval", "--fn", "Eq", "--points", "1"])
            basicq.cli.main(["solve", "--potential", "x^2", "--k", "2", "--output", "out"])
        plain_s = traced_s = 0.0
        bytes_out = 0
        try:
            for cmd in self.commands:
                if self._out_of_time():
                    break
                argv = cli_argv(cmd)
                results = {}
                # Alternate which pass goes first so neither always runs warm.
                for traced in ((False, True) if cmd.cid % 2 == 0 else (True, False)):
                    _fresh(outdir)
                    if traced:
                        tracer.command = cmd.cid
                        tracer.install()
                    try:
                        wall, rc, stdout = run_inprocess(basicq, argv)
                    finally:
                        tracer.uninstall()
                    results[traced] = (wall, rc, stdout, _collect(stdout, outdir))
                    if traced:
                        failures = self._check(cmd, rc, stdout, outdir)
                        bytes_out += _output_bytes(stdout, outdir)
                plain_s += results[False][0]
                traced_s += results[True][0]
                wall, rc, _, hashes = results[True]
                rec = self._record(cmd, wall, rc, hashes, failures, untraced_s=results[False][0])
                if results[False][3] != hashes:
                    rec["failures"].append(["determinism", "untraced and traced bytes differ", None])
        finally:
            os.chdir(here)
        return tracer, plain_s, traced_s, bytes_out

    def report_traced(self, tracer, plain_s, traced_s, bytes_out, imports):
        kinds = {c.cid: c.kind for c in self.commands}
        m, by_kind = tracer.layer_metrics(kinds)
        c = tracer.counters
        m["cli.bytes_out"] = bytes_out
        m["qcalculus.derivative.calls"] = c.get("qcalculus.jackson_derivative.calls", 0)
        m["qcalculus.integral.calls"] = sum(
            c.get(f"qcalculus.q_integral_{mode}.calls", 0)
            for mode in ("finite", "halfline", "fullline"))
        m["trace.overhead_frac"] = traced_s / plain_s - 1.0 if plain_s > 0 else float("nan")
        m["trace.spans"] = len(tracer.nid)
        m.update(imports)
        self.say(f"traced replay: {len(self.records)} commands in-process; "
                 f"untraced {plain_s:.3f} s, traced {traced_s:.3f} s, "
                 f"overhead {m['trace.overhead_frac']:.1%}")
        used = sorted({k.split(":")[0] for k in by_kind})
        self.say(f"{'layer self_s':<14}" + "".join(f"{k:>11}" for k in used) + f"{'total':>11}")
        for layer in tracing.LAYERS:
            row = [by_kind.get(f"{k}:{layer}", 0.0) for k in used]
            self.say(f"{layer:<14}" + "".join(f"{v:>11.4f}" for v in row) + f"{sum(row):>11.4f}")
        return m

    # both ------------------------------------------------------------------------
    def execute(self, metric_spec):
        self.work.mkdir(parents=True, exist_ok=True)
        probe_start = host_probe_ms()
        try:
            if self.trace:
                imports, importtime_text = self.importtime()
                tracer, plain_s, traced_s, bytes_out = self.run_traced()
            else:
                setup = self.run_processes()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        if not self.records:
            raise BenchError("no command completed")
        self.say(f"# workload={self.workload} seed={self.seed} trace={self.trace} "
                 f"rounds={self.rounds} commands={len(self.records)}")
        machine = machine_record()
        machine["host_probe_ms"] = [round(probe_start, 3), round(host_probe_ms(), 3)]
        self.say("# " + " ".join(f"{k}={v}" for k, v in machine.items()))
        if self.trace:
            measured = self.report_traced(tracer, plain_s, traced_s, bytes_out, imports)
            measured = {k: (measured.get(k, 0), unit) for k, unit in tracing.REPORTED}
            self.say(f"{'per-layer metric':<36} {'value':>14} unit")
            for k, (v, unit) in measured.items():
                self.say(f"{k:<36} {_fmt(v):>14} {unit}")
            metrics = {s["name"]: measured[s["name"]] for s in metric_spec["per_layer"]}
        else:
            measured = self.report_processes(setup)
            metrics = {s["name"]: measured[s["name"]] for s in metric_spec["end_to_end"]}
        failures = self.failure_summary()
        stem = RESULTS / f"{self.workload}-seed{self.seed}-trace{self.trace}"
        RESULTS.mkdir(exist_ok=True)
        record = {"workload": self.workload, "seed": self.seed, "trace": self.trace,
                  "seconds": self.seconds, "rounds": self.rounds, "machine": machine,
                  "metrics": {k: v[0] if isinstance(v, tuple) else v
                              for k, v in measured.items()},
                  "commands": self.records}
        stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
        if self.trace:
            tracer.write_spans(str(stem) + "-spans.csv.gz")
            Path(str(stem) + "-importtime.txt").write_text(importtime_text)
        return metrics, failures

    def failure_summary(self):
        """(attempted, failed, unexpected) and a printed list of failing checks."""
        counts = {}
        for rec in self.records:
            for check, _, defect in rec["failures"]:
                counts[(check, defect)] = counts.get((check, defect), 0) + 1
        failed = sum(1 for r in self.records if r["failures"])
        unexpected = sum(1 for r in self.records
                         if any(defect is None for _, _, defect in r["failures"]))
        self.say(f"failed {failed}/{len(self.records)} commands "
                 f"({unexpected} not explained by a known seed defect)")
        for (check, defect), cnt in sorted(counts.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
            self.say(f"  {check:<24} {cnt:>5} failing checks  "
                     f"{'known defect: ' + defect if defect else 'UNEXPECTED'}")
        for rec in self.records:
            for check, detail, defect in rec["failures"][:1]:
                if defect is None:
                    self.say(f"  cmd {rec['cid']} {' '.join(rec['argv'])}: {check}: {detail}")
        return len(self.records), failed, unexpected


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        if args.workload == "all":
            return run_all(args, spec)
        run = Run(args.workload, args.seed, args.seconds, args.trace)
        metrics, (attempted, failed, unexpected) = run.execute(spec)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(run.lines))
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args, spec) -> int:
    """Every workload, untraced then traced; one summary line at the end."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            run = Run(name, args.seed, args.seconds, trace)
            metrics, (attempted, failed, unexpected) = run.execute(spec)
            print("\n".join(run.lines) + "\n", flush=True)
            total["correct"] &= unexpected == 0
            total["attempted"] += attempted
            total["failed"] += failed
            for k, (v, u) in metrics.items():
                total["metrics"][f"{name}:{k}"] = {"value": v, "unit": u}
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
