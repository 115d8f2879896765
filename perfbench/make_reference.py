"""Write perfbench/reference.json, the data the benchmark checks against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only on a commit whose outputs are trusted (the references were made
at the commit that introduced the benchmark).  It records:

* local_shock: the last time block of trajectory.csv from one CLI case;
* fractional_ensemble: the base run's interior state at T;
* verify_suites: the scanned symbol m(xi) = 2 int_{1/32}^inf (1 - cos xi z)
  z^(-1.7) dz in closed form, evaluated with mpmath at 40 digits.  It does
  not depend on the package's quadrature at all.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import mpmath as mp

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))


def symbol_closed_form(xi, alpha, lo):
    """2 xi^alpha (C - S(xi lo)) with C = int_0^inf (1 - cos s) s^(-1-alpha) ds
    and S(x) the same integral over [0, x], summed as its power series."""
    xi = mp.mpf(xi)
    if xi == 0:
        return mp.mpf(0)
    al = mp.mpf(alpha)
    c = mp.pi / (2 * mp.gamma(1 + al) * mp.sin(mp.pi * al / 2))
    x = xi * mp.mpf(lo)
    s = mp.nsum(lambda k: (-1) ** (k + 1) * x ** (2 * k - al)
                / (mp.factorial(2 * k) * (2 * k - al)), [1, mp.inf])
    return 2 * xi ** al * (c - s)


def main() -> int:
    mp.mp.dps = 40
    ref = {}
    with tempfile.TemporaryDirectory() as tmp:
        inp = wl.local_shock_prepare(0, tmp)
        rc = wl.local_shock_run(inp)
        if rc != 0:
            print(f"local_shock exited with {rc}", file=sys.stderr)
            return 1
        t, u = wl.read_last_csv_time(os.path.join(inp["out"],
                                                  "trajectory.csv"))
        ref["local_shock"] = {"t": t, "u": u.tolist(),
                              "l1_error": wl.local_shock_l1_error(t, u)}

        out = wl.fractional_run(wl.fractional_prepare(0, tmp))
        ref["fractional_ensemble"] = {"u": out["base_final"].tolist()}

    measure = wl.scan_measure()
    xis = wl.suites_prepare(0, "")["xis"]
    ref["verify_suites"] = {
        "alpha": measure.alpha, "lo": measure.lo,
        "m_exact": [float(symbol_closed_form(float(x), measure.alpha,
                                             measure.lo)) for x in xis]}
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
