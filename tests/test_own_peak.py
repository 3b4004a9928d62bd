"""The own-peak launcher under ``tools/``: what it runs and what it reads."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "own_peak.py"


def own_peak(*argv):
    return subprocess.run([sys.executable, str(TOOL), *argv],
                          capture_output=True, text=True)


def test_a_bare_interpreter_reads_its_own_small_peak():
    # The launcher holds nothing heavy, so the fork it execs from does not
    # lift the child's reading.
    proc = own_peak("-n", "3", "--", sys.executable, "-c", "print('not shown')")
    assert proc.returncode == 0, proc.stderr
    *runs, median = proc.stdout.splitlines()
    peaks = []
    for n, line in enumerate(runs, 1):
        run, code, peak = line.split()
        assert (int(run), int(code)) == (n, 0)
        peaks.append(float(peak))
    assert len(peaks) == 3 and all(0 < p < 30 for p in peaks)
    assert median == f"median {sorted(peaks)[1]:.2f}"


def test_a_failing_run_is_reported_and_fails_the_tool():
    proc = own_peak("-n", "1", "--", sys.executable, "-c", "raise SystemExit(3)")
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[0].split()[:2] == ["1", "3"]
