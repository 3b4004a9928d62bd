"""The scalar series and q-integral sums, frozen bit for bit.

``tests/data/scalar_sums.json`` holds, as ``float.hex``, the value and term
count of scalar ``q_exp``/``q_sin``/``q_cos`` and the value of scalar
``q_integral_finite``/``q_integral_halfline``/``q_integral_fullline`` over
the grid below.  It pins today's bits, not their accuracy: a change that
moves a value on purpose regenerates the table with

    PYTHONPATH=src python3 tests/test_scalar_sums.py

and lists each changed entry.  The bits depend on the build (libm, numpy),
so on a build other than the recorded one the test skips and names both.
"""

from __future__ import annotations

import json
import math
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from basicq import (
    q_cos,
    q_exp,
    q_integral_finite,
    q_integral_fullline,
    q_integral_halfline,
    q_sin,
)

TABLE = Path(__file__).resolve().parent / "data" / "scalar_sums.json"

QS = (0.5, 0.9, 0.99)
# Real, imaginary and complex arguments up to |z| = 40.
ARGS = (0.0, 0.7, -3.5, 10.0, -20.0, 40.0, -40.0, 1j, -5j, 20j, 40j,
        1 + 1j, -3 + 4j, 12 - 16j, -24 + 32j)
SERIES = {"q_exp": q_exp, "q_sin": q_sin, "q_cos": q_cos}


def _wave(x):
    return complex(math.cos(x), math.sin(x)) * math.exp(-x * x)


# name -> (integral, f, upper limit or None)
INTEGRALS = {
    "finite x": (q_integral_finite, lambda x: x, 2.0),
    "finite x^2": (q_integral_finite, lambda x: x * x, 0.5),
    "finite exp(-x)": (q_integral_finite, lambda x: math.exp(-x), 3.0),
    "finite wave": (q_integral_finite, _wave, 1.5),
    "halfline exp(-x)": (q_integral_halfline, lambda x: math.exp(-x), None),
    "halfline 1/(1+x^2)^2": (q_integral_halfline, lambda x: 1.0 / (1.0 + x * x) ** 2, None),
    "fullline exp(-x^2)": (q_integral_fullline, lambda x: math.exp(-x * x), None),
    "fullline wave": (q_integral_fullline, _wave, None),
}


def build():
    """The build the bits belong to."""
    libc = " ".join(platform.libc_ver())
    return (f"{sys.implementation.name} {platform.python_version()}, numpy {np.__version__}, "
            f"{platform.system()} {platform.machine()}, {libc}")


def _hex(v):
    if isinstance(v, complex):
        return [v.real.hex(), v.imag.hex()]
    return float(v).hex()


def generate():
    """Every entry of the table, from the basicq under test."""
    series, integrals = {}, {}
    for q in QS:
        for name, fn in SERIES.items():
            for z in ARGS:
                s = fn(z, q)
                series[f"{name} q={q!r} z={z!r}"] = [_hex(s.value), int(s.terms_used)]
        for name, (integral, f, a) in INTEGRALS.items():
            v = integral(f, q) if a is None else integral(f, a, q)
            integrals[f"{name} q={q!r}" + ("" if a is None else f" a={a!r}")] = _hex(v)
    return {"build": build(), "series": series, "integrals": integrals}


def test_scalar_sums_match_the_frozen_table_bit_for_bit():
    want = json.loads(TABLE.read_text())
    if want["build"] != build():
        pytest.skip(f"table recorded on {want['build']!r}, this build is {build()!r}")
    got = generate()
    for part in ("series", "integrals"):
        assert sorted(got[part]) == sorted(want[part])
        changed = [k for k in want[part] if got[part][k] != want[part][k]]
        assert not changed, f"{part} changed: {changed}"


if __name__ == "__main__":
    TABLE.parent.mkdir(exist_ok=True)
    TABLE.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {TABLE}")
