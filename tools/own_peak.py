#!/usr/bin/env python3
"""Peak resident memory of a command's own process, over repeated runs.

    python3 tools/own_peak.py [-n 5] -- CMD [ARG ...]

Each run forks this launcher and execs CMD in the child, with the child's
standard output sent to the null device; the launcher waits for it with
``os.wait4`` and reads its ``ru_maxrss``.  Linux counts the pages the
forked copy holds before the exec toward that figure, so the launcher
imports nothing but the standard library: started from a process holding
numpy, a small command would read that process's size instead of its own.
One line per run gives the run's number, exit code and peak in MB
(``ru_maxrss`` KiB / 1024, as the benchmark reads it), and a last line the
median peak.  The exit status is 1 when any run exits nonzero.

Set ``PYTHONDONTWRITEBYTECODE=1`` in the environment to keep a Python
command from writing bytecode caches between runs.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys


def own_peak(argv) -> tuple:
    """Run ``argv`` once from a fork of this process: (exit code, peak MB)."""
    pid = os.fork()
    if pid == 0:
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.execvp(argv[0], argv)
        except OSError as exc:
            print(f"own_peak: cannot run {argv[0]}: {exc}", file=sys.stderr)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("-n", type=int, default=5, help="runs (default 5)")
    p.add_argument("command", nargs="+", help="the command and its arguments, after --")
    args = p.parse_args(argv)
    if args.n < 1:
        p.error("-n must be at least 1")
    peaks, failed = [], False
    for run in range(1, args.n + 1):
        code, peak = own_peak(args.command)
        failed |= code != 0
        peaks.append(peak)
        print(f"{run} {code} {peak:.2f}", flush=True)
    print(f"median {statistics.median(peaks):.2f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
