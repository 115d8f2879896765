"""The benchmark's three workloads.

Each workload has three parts:

* ``prepare(seed, workdir)`` builds the inputs of every case (untimed by the
  case clock; it is what ``setup_s`` measures);
* ``run(inputs)`` is one case, the only part that is timed;
* ``check(inputs, out, tally, ref)`` verifies the case's outputs against the
  references in ``reference.json`` and counts operations in ``tally``.

Cases call the package through module attributes (``scheme.solve``, not a
name imported into this file), so the tracer's patches see these calls too.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os

import numpy as np

from levyfv import analysis, cli, measures, problem, scheme, stencil
from levyfv.errors import QuadratureNotConverged

# the package exports a function named `multiplier` that shadows the module
multiplier = importlib.import_module("levyfv.multiplier")

GOLDEN_RTOL = 1e-10   # max-norm agreement with the seed commit's states


class Tally:
    """Operations attempted and failed over a run.

    A failed operation either produced a wrong output (a failed package
    check, a nonzero exit code, a golden mismatch) or produced none (an
    evaluator that refused, as the symbol quadrature does when it cannot
    certify its error).  Only the first kind makes the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes = []

    def op(self, ok, what, wrong=True):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += bool(wrong)
            if len(self.notes) < 20:
                self.notes.append(what)


def golden_match(values, ref) -> bool:
    values = np.asarray(values, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if values.shape != ref.shape or not np.all(np.isfinite(values)):
        return False
    scale = max(float(np.max(np.abs(ref))), 1e-300)
    return float(np.max(np.abs(values - ref))) <= GOLDEN_RTOL * scale


def _quiet(fn, *args):
    """Call a CLI entry point with its PASS/FAIL lines kept off stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


# ---------------------------------------------------------------------------
# local_shock: the CLI solve mode, no jumps, fine grid, many steps
# ---------------------------------------------------------------------------

LOCAL_SHOCK_CONFIG = {
    "mode": "solve",
    "problem": "burgers_riemann",
    "measure": "none",
    "dx": 1.0 / 4096,
    "r": 1.0 / 4096,
    "Z": 1.0 / 256,          # a 16-cell halo
    "store_every": 64,
}


def read_last_csv_time(path):
    """(t, u) of the last time block of a `t,cell_index,u` trajectory CSV.

    Only the tail of the file is read; the window doubles until it holds the
    whole last block, which starts at cell index 0.
    """
    size = os.path.getsize(path)
    window = 1 << 18
    while True:
        start = max(0, size - window)
        with open(path, "rb") as fh:
            fh.seek(start)
            # drop the header, or a line the window cut
            lines = fh.read().decode().splitlines()[1:]
        t_last = lines[-1].split(",", 1)[0]
        cells = [ln.split(",") for ln in lines if ln.startswith(t_last + ",")]
        if cells[0][1] == "0" or start == 0:
            break
        window *= 2
    if [int(c[1]) for c in cells] != list(range(len(cells))):
        raise ValueError(f"{path}: last time block is not cells 0..n-1")
    return float(t_last), np.array([float(c[2]) for c in cells])


def local_shock_l1_error(t, u):
    """dx * sum |u - u_exact| for the Burgers shock at x = 1/2 + t/2."""
    dx = 1.0 / u.size
    x = (np.arange(u.size) + 0.5) * dx
    exact = np.where(x < 0.5 + 0.5 * t, 1.0, 0.0)
    return dx * float(np.abs(u - exact).sum())


def local_shock_prepare(seed, workdir):
    # the workload is deterministic; the seed selects nothing here
    cfg_path = os.path.join(workdir, "local_shock.json")
    with open(cfg_path, "w") as fh:
        json.dump(LOCAL_SHOCK_CONFIG, fh)
    return {"cfg": cfg_path, "out": os.path.join(workdir, "local_shock")}


def local_shock_run(inp):
    return _quiet(cli.main,
                  ["run", "--config", inp["cfg"], "--out", inp["out"]])


def local_shock_check(inp, rc, tally, ref):
    tally.op(rc == 0, f"cli run exit code {rc}")
    with open(os.path.join(inp["out"], "report.json")) as fh:
        report = json.load(fh)
    for name, chk in sorted(report["checks"].items()):
        tally.op(bool(chk["pass"]), f"check {name}")
    # the CLI's solve mode runs the base solve and one companion on the
    # same time grid, and writes stats only once both have finished
    for _ in range(2):
        tally.op("stats" in report, "solve")
    n_steps = int(report["stats"]["n_steps"])
    t, u = read_last_csv_time(os.path.join(inp["out"], "trajectory.csv"))
    tally.op(abs(t - ref["t"]) <= 1e-12 and golden_match(u, ref["u"]),
             "trajectory.csv last stored state vs reference")
    return {"cell_updates": 2 * n_steps * u.size, "solve_steps": 2 * n_steps,
            "l1_error": local_shock_l1_error(t, u), "t_last": t}


# ---------------------------------------------------------------------------
# fractional_ensemble: library API, kernel-dominated steps, four members
# ---------------------------------------------------------------------------

FRACTIONAL_DX = 1.0 / 512
FRACTIONAL_R = 1.0 / 32
FRACTIONAL_Z = 1.0
N_COMPANIONS = 3


def fractional_problem():
    return problem.make_problem("burgers", "identity", "bump", T=0.3)


def fractional_measure():
    return measures.truncate(measures.FractionalRadial(alpha=1.0),
                             FRACTIONAL_R)[1]


def bump_params(seed):
    """Center, width and height of each companion's positive bump."""
    rng = np.random.default_rng(seed)
    return [(float(rng.uniform(0.25, 0.75)), float(rng.uniform(0.03, 0.12)),
             float(rng.uniform(0.05, 0.5))) for _ in range(N_COMPANIONS)]


def _bumped(u0, center, width, height):
    def shifted(x):
        x = np.asarray(x, dtype=float)
        bump = height * np.exp(-((x - center) / width) ** 2)
        return np.clip(u0(x) + bump, 0.0, 1.0)
    return shifted


def fractional_prepare(seed, workdir):
    from dataclasses import replace
    spec = fractional_problem()
    companions = [replace(spec, u0=_bumped(spec.u0, *p))
                  for p in bump_params(seed)]
    return {"spec": spec, "companions": companions,
            "measure": fractional_measure(),
            "config": scheme.SchemeConfig(dx=FRACTIONAL_DX, r=FRACTIONAL_R,
                                          Z=FRACTIONAL_Z)}


def fractional_run(inp):
    conf = inp["config"]
    st = stencil.build_stencil(inp["measure"], conf.dx, conf.r, conf.Z)
    base = scheme.solve(inp["spec"], st, conf)
    dt = float(base.times[1] - base.times[0])
    steps = [base.stats["n_steps"]]
    members = []
    for spec in inp["companions"]:
        other = scheme.solve(spec, st, conf, dt_override=dt)
        steps.append(other.stats["n_steps"])
        members.append((analysis.max_principle_check(other),
                        analysis.l1_contraction_check(base, other)[1],
                        analysis.order_preservation_check(base, other)))
    return {"base_final": base.states[-1, base.grid.interior].copy(),
            "n_cells": base.grid.n, "steps": steps, "members": members,
            "mass": analysis.mass_budget_check(base),
            "energy": analysis.energy_report(base)}


def fractional_check(inp, out, tally, ref):
    for _ in out["steps"]:
        tally.op(True, "solve")
    for results in out["members"]:
        for res in results:
            tally.op(bool(res.passed), f"companion check {res.name}")
    tally.op(bool(out["mass"].passed), "check mass_budget")
    # the CLI's pass rule for the energy inequality
    tally.op(out["energy"]["slack"] >= -1e-6, "check energy")
    tally.op(golden_match(out["base_final"], ref["u"]),
             "base final state vs reference")
    return {"cell_updates": out["n_cells"] * sum(out["steps"]),
            "solve_steps": sum(out["steps"])}


# ---------------------------------------------------------------------------
# verify_suites: the CLI suites on small grids plus a symbol scan
# ---------------------------------------------------------------------------

SUITES = ("appendix", "apriori", "chains")
SCAN_XI_MAX = 200.0
SCAN_NUM = 2000


def scan_measure():
    return measures.FractionalRadial(alpha=0.7, lo=1.0 / 32)


def suites_prepare(seed, workdir):
    # the workload is deterministic; the seed selects nothing here
    return {"out": os.path.join(workdir, "suites"),
            "xis": np.linspace(0.0, SCAN_XI_MAX, SCAN_NUM)}


def suites_run(inp):
    codes = [_quiet(cli.main, ["suite", name, "--out", inp["out"]])
             for name in SUITES]
    # a fresh evaluator per case: its per-instance cache must not turn
    # repeated cases into cache hits
    ev = multiplier.MultiplierEval(scan_measure())
    values = np.full(inp["xis"].size, np.nan)
    for i, xi in enumerate(inp["xis"]):
        try:
            values[i] = ev.m(xi)
        except QuadratureNotConverged:
            pass
    return {"codes": codes, "values": values}


def scan_tolerance(exact):
    """The evaluator's own acceptance rule: rel_tol 1e-8 with a 1e-9 floor."""
    return np.maximum(1e-8 * np.abs(exact), 1e-9)


def suites_check(inp, out, tally, ref):
    for name, rc in zip(SUITES, out["codes"]):
        tally.op(rc == 0, f"suite {name} exit code {rc}")
        with open(os.path.join(inp["out"], f"suite_{name}.json")) as fh:
            checks = json.load(fh)["checks"]
        for key, chk in sorted(checks.items()):
            tally.op(bool(chk["pass"]), f"suite {name}/{key}")
    exact = np.asarray(ref["m_exact"])
    values = out["values"]
    done = np.isfinite(values)
    close = np.abs(values - exact) <= scan_tolerance(exact)
    for i in range(values.size):
        if not done[i]:
            tally.op(False, f"scan xi={inp['xis'][i]:.6g} not converged",
                     wrong=False)
        else:
            tally.op(bool(close[i]),
                     f"scan xi={inp['xis'][i]:.6g} vs closed form")
    return {"cell_updates": None, "scan_not_converged": int((~done).sum())}


WORKLOADS = {
    "local_shock": (local_shock_prepare, local_shock_run, local_shock_check),
    "fractional_ensemble": (fractional_prepare, fractional_run,
                            fractional_check),
    "verify_suites": (suites_prepare, suites_run, suites_check),
}
