#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not part of the repository's test suite).

    python3 bench/selftest.py

Checks that command generation is a pure function of the seed, that the
output checkers reject corrupted outputs, and that the tracing arithmetic is
right on a hand-built span tree.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _cli(argv):
    import basicq.cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = basicq.cli.main(argv)
    return rc, out.getvalue()


def _command(kind, argv, expect, writes_dir=False):
    return workloads.Command(0, kind, argv, expect, None, writes_dir)


class Generation(unittest.TestCase):
    def test_same_seed_same_commands(self):
        for name in workloads.WORKLOADS:
            a = [c.argv for c in workloads.generate(name, 7, 3)]
            b = [c.argv for c in workloads.generate(name, 7, 3)]
            self.assertEqual(a, b)
            self.assertNotEqual(a, [c.argv for c in workloads.generate(name, 8, 3)])

    def test_rounds_hold_every_category_once(self):
        for name, gens in workloads.WORKLOADS.items():
            cmds = workloads.generate(name, 1, 2)
            self.assertEqual(len(cmds), 2 * len(gens))

    def test_longer_run_extends_shorter_one(self):
        short = [c.argv for c in workloads.generate("series", 3, 2)]
        long = [c.argv for c in workloads.generate("series", 3, 4)]
        self.assertEqual(long[:len(short)], short)


class Checkers(unittest.TestCase):
    def setUp(self):
        self.checker = checks.Checker()

    def test_eval_rejects_one_flipped_digit(self):
        argv = ["eval", "--fn", "Eq", "--q", "0.9", "--range=0:2:0.1"]
        cmd = _command("eval", argv, {"check": "eval", "fn": "Eq", "q": 0.9})
        rc, text = _cli(argv)
        self.assertEqual(self.checker.check(cmd, rc, text, ""), [])
        lines = text.splitlines()
        row = lines[7].split(",")
        # Change the 8th significant digit of the real part.
        digits = [i for i, ch in enumerate(row[1]) if ch.isdigit()]
        i = digits[8]
        row[1] = row[1][:i] + str((int(row[1][i]) + 1) % 10) + row[1][i + 1:]
        lines[7] = ",".join(row)
        fails = self.checker.check(cmd, rc, "\n".join(lines) + "\n", "")
        self.assertEqual([f.check for f in fails], ["eval.row"])
        self.assertIsNone(fails[0].known_defect)

    def test_evolve_rejects_unnormalized_snapshot(self):
        argv = ["evolve", "--potential", "x^2", "--psi0", "gauss(x)", "--t", "0.5",
                "--snap-every", "50", "--output", "out"]
        expect = {"check": "evolve", "q": 0.9, "lattice": "-15:60:1.0",
                  "potential": {"kind": "harmonic"}, "snapshots": 3}
        cmd = _command("evolve", argv, expect, writes_dir=True)
        here = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                rc, text = _cli(argv)
                self.assertEqual(self.checker.check(cmd, rc, text, "out"), [])
                path = Path("out") / "snapshot_0001.csv"
                lines = path.read_text().splitlines()
                for k in range(2, len(lines)):
                    f = lines[k].split(",")
                    f[4] = repr(1.01 * float(f[4]))
                    f[5] = repr(1.01 * float(f[5]))
                    lines[k] = ",".join(f)
                path.write_text("\n".join(lines) + "\n")
                fails = self.checker.check(cmd, rc, text, "out")
            finally:
                os.chdir(here)
        self.assertIn("evolve.snapshot_norm", [f.check for f in fails])

    def test_qint_closed_form_and_defect_tag(self):
        argv = ["qint", "--expr=-x^2", "--upper", "1.5", "--q", "0.9"]
        expect = {"check": "qint_poly", "q": 0.9, "upper": 1.5, "c": -1.0, "n": 2}
        cmd = workloads.Command(0, "qint", argv, expect, workloads.UNARY_MINUS)
        rc, text = _cli(argv)
        fails = self.checker.check(cmd, rc, text, "")
        self.assertEqual([(f.check, f.known_defect) for f in fails],
                         [("qint.closed_form", workloads.UNARY_MINUS)])
        argv[1] = "--expr=0-x^2"
        rc, text = _cli(argv)
        self.assertEqual(self.checker.check(cmd, rc, text, ""), [])

    def test_series_reference(self):
        ref, kappa = self.checker.series.value("Eq", 0.9, 1.0)
        import basicq
        self.assertAlmostEqual(float(ref), basicq.q_exp(1.0, 0.9).value.real, places=13)
        self.assertEqual(float(kappa), 1.0)


class Tracing(unittest.TestCase):
    def test_self_time_on_hand_built_tree(self):
        t = tracing.Tracer()
        root = t.add_span("cli.main", 0.0, 10.0, -1)
        a = t.add_span("qschrodinger.stationary_states", 1.0, 7.0, root)
        t.add_span("qschrodinger.eigh_tridiagonal", 2.0, 6.0, a)
        t.add_span("l2q.to_csv", 7.5, 9.0, root)
        self.assertEqual(t.self_times(), [2.5, 2.0, 4.0, 1.5])
        m, by_kind = t.layer_metrics({0: "solve"})
        self.assertEqual(m["qschrodinger.self_s"], 6.0)
        self.assertEqual(m["qschrodinger.stationary_states_s"], 2.0)
        self.assertEqual(m["cli.self_s"], 2.5)
        self.assertEqual(by_kind["solve:l2q"], 1.5)

    def test_install_wraps_both_bindings_and_restores(self):
        import basicq.cli
        import basicq.qschrodinger
        originals = (basicq.cli.build_hamiltonian, basicq.qschrodinger.eigh_tridiagonal,
                     basicq.qschrodinger.build_hamiltonian)
        t = tracing.Tracer()
        t.install()
        try:
            self.assertIsNot(basicq.cli.build_hamiltonian, originals[0])
            self.assertIs(basicq.cli.build_hamiltonian, basicq.qschrodinger.build_hamiltonian)
            rc, _ = _cli(["qint", "--expr", "x", "--upper", "1", "--q", "0.9"])
        finally:
            t.uninstall()
        self.assertEqual(rc, 0)
        self.assertEqual((basicq.cli.build_hamiltonian, basicq.qschrodinger.eigh_tridiagonal,
                          basicq.qschrodinger.build_hamiltonian), originals)
        self.assertEqual(t.counters["cli.main.calls"], 1)
        self.assertEqual(t.counters["qcalculus.q_integral_finite.calls"], 1)
        self.assertGreater(t.counters["exprparse.evaluate.calls"], 10)


class Statistics(unittest.TestCase):
    def test_tail_keeps_ten_samples_beyond(self):
        for n in (11, 12, 20, 37, 42, 100):
            p, v = run.tail(list(range(n)))
            self.assertGreaterEqual(sum(1 for x in range(n) if x > v), 10)
            self.assertLess(sum(1 for x in range(n) if x > v), 12)
            self.assertTrue(0 < p < 100)


if __name__ == "__main__":
    unittest.main()
