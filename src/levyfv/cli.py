"""Command-line orchestration: runs, verification suites, CSV/JSON artifacts.

Exit codes: 0 pass, 1 check failure, 2 config error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import analysis
from .errors import (ConfigParse, IoFailure, LevyFvError, UnknownPreset,
                     UnknownSuite)
from .measures import (FractionalRadial, measure_from_config, single_atom,
                       truncate, validate_measure, zero_measure)
from .multiplier import MultiplierEval, write_multiplier_scan
from .problem import (diffusion_identity, diffusion_power, diffusion_stefan,
                      discretize, make_problem, problem_from_config)
from .scheme import (SchemeConfig, build_stencil, picard_solve, solve,
                     stability_run, time_grid, vanishing_viscosity_run)
from .stencil import fourier_energy_check


def _load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigParse(f"cannot parse {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigParse("config root must be an object")
    return cfg


def _reference(raw, loader):
    """A reference is a preset name, an inline mapping (a dict, or a JSON
    object given as a string), or a JSON file path.  Missing or ill-typed
    entries are config errors."""
    if isinstance(raw, str) and raw.lstrip().startswith("{"):
        try:
            raw = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigParse(f"cannot parse inline JSON: {exc}") from exc
    elif isinstance(raw, str) and (raw.endswith(".json")
                                   or os.path.sep in raw):
        raw = _load_config(raw)
    try:
        return loader(raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigParse(f"bad entry in {raw!r}: {exc!r}") from exc


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def write_report(path, payload):
    payload = dict(payload)
    payload["timestamp"] = {
        "written_at": datetime.now(timezone.utc).isoformat(),
        "wall_time_s": payload.pop("_wall_time_s", None),
    }
    try:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True,
                      default=_json_default)
            fh.write("\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def write_trajectory_csv(path, traj, every=1):
    """`t,cell_index,u` rows for every `every`-th stored time, written one
    joined string per time."""
    with open(path, "w") as fh:
        fh.write("t,cell_index,u\n")
        interior = traj.interior()
        for n in range(0, len(traj.times), every):
            t = repr(float(traj.times[n]))
            fh.write("".join([f"{t},{i},{v!r}\n"
                              for i, v in enumerate(interior[n].tolist())]))


def write_gaps_csv(path, gaps):
    with open(path, "w") as fh:
        fh.write("k,gap\n")
        for k, g in enumerate(gaps, start=1):
            fh.write(f"{k},{float(g)!r}\n")


def write_moduli_csv(path, tables):
    with open(path, "w") as fh:
        fh.write("kind,h_or_tau,value\n")
        for kind in ("space", "time"):
            for h, v in tables.get(kind, []):
                fh.write(f"{kind},{float(h)!r},{float(v)!r}\n")


def write_gallery_csv(path, rows):
    with open(path, "w") as fh:
        fh.write("name,check,param,value,reference,pass\n")
        for r in rows:
            fh.write(f"{r.name},{r.check},{float(r.param)!r},"
                     f"{float(r.value)!r},{float(r.reference)!r},"
                     f"{int(r.passed)}\n")


# ---------------------------------------------------------------------------
# run modes
# ---------------------------------------------------------------------------

def trend_holds(distances) -> bool:
    """The trend rule of the vanishing-viscosity and stability chains: each
    distance lies below its predecessor or is exactly 0 (with b = 0 every
    member equals the reference)."""
    d = np.asarray(distances, dtype=float)
    return bool(np.all((d[1:] < d[:-1]) | (d[1:] == 0.0)))


def trend_check(name, distances, params) -> analysis.CheckResult:
    """A chain's trend as a check: `trend_holds`, and as worst slack the
    negated largest step up (0 for fewer than two distances)."""
    diffs = np.diff(distances)
    return analysis.CheckResult(
        name, trend_holds(distances),
        float(-diffs.max()) if diffs.size else 0.0, params)


def _scheme_config(cfg):
    try:
        return SchemeConfig(
            dx=float(cfg["dx"]),
            r=float(cfg.get("r", cfg["dx"])),
            Z=float(cfg.get("Z", 1.0)),
            # auto_cfl (default: no dt given) drops a given dt
            dt=None if cfg.get("auto_cfl", "dt" not in cfg)
            else float(cfg["dt"]),
            numerical_flux={"eo": "engquist_osher",
                            "lf": "lax_friedrichs"}.get(cfg.get("flux", "eo"),
                                                        cfg.get("flux", "eo")),
            tail_mode=cfg.get("tail_mode", "exterior_mean"),
            store_every=int(cfg.get("store_every", 1)),
            enforce_cfl=bool(cfg.get("enforce_cfl", True)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigParse(f"bad scheme config: {exc!r}") from exc


def _alpha(cfg):
    """The vanishing and stability modes' fractional order, in (0, 2)."""
    alpha = cfg.get("alpha", 1.0)
    if not isinstance(alpha, (int, float)) or not 0.0 < alpha < 2.0:
        raise ConfigParse(f"alpha must lie in (0, 2), got {alpha!r}")
    return float(alpha)


def _positive_list(cfg, key, default):
    """A chain mode's list of positive finite numbers (`n_list`, `r_list`),
    returned as given."""
    vals = cfg.get(key, default)
    if not isinstance(vals, list) or not all(
            isinstance(v, (int, float)) and 0.0 < v < math.inf for v in vals):
        raise ConfigParse(f"{key} must be a list of positive numbers, "
                          f"got {vals!r}")
    return vals


def companion_spec(spec, data_range):
    """The solve mode's companion problem: the initial datum raised by a
    Gaussian bump at mid-domain, clipped to `data_range`, so the L1
    contraction check has a second run with the same exterior data."""
    lo, hi = data_range
    a, b = spec.domain
    mid = 0.5 * (a + b)

    def perturbed(x, _u0=spec.u0):
        bump = 0.05 * (hi - lo + 1e-12) * np.exp(
            -((np.asarray(x, dtype=float) - mid) / (0.1 * (b - a))) ** 2)
        return np.clip(_u0(x) + bump, lo, hi)

    return replace(spec, u0=perturbed)


def cmd_run(cfg, out_dir) -> int:
    os.makedirs(out_dir, exist_ok=True)
    mode = cfg.get("mode", "solve")
    seed = int(cfg.get("seed", 0))
    if mode == "gallery":
        rows = analysis.counterexample_gallery()
        write_gallery_csv(os.path.join(out_dir, "gallery.csv"), rows)
        ok = all(r.passed for r in rows)
        for r in rows:
            if not r.passed:
                print(f"FAIL {r.name}/{r.check} param={r.param} "
                      f"value={r.value} reference={r.reference}")
        print(f"gallery: {'PASS' if ok else 'FAIL'} ({len(rows)} rows)")
        res = analysis.CheckResult("gallery", ok, 0.0, {"rows": len(rows)})
        write_report(os.path.join(out_dir, "report.json"),
                     {"config": cfg, "checks": {res.name: res.as_dict()}})
        return 0 if ok else 1

    spec = _reference(cfg.get("problem", "burgers_riemann"),
                      problem_from_config)
    if "T" in cfg:
        spec = replace(spec, T=float(cfg["T"]))
    measure = _reference(cfg.get("measure", "none"), measure_from_config)
    sconf = _scheme_config(cfg)
    checks = {}
    report = {"config": cfg, "seed": seed, "checks": checks}

    def record(res):
        checks[res.name] = res.as_dict()

    if mode == "solve":
        stencil = build_stencil(measure, sconf.dx, sconf.r, sconf.Z)
        disc = discretize(spec, sconf.dx, stencil.Z)
        dt, _ = time_grid(disc, [stencil], sconf)
        observers = [analysis.MaxPrinciple(disc),
                     analysis.MassBudget(disc, stencil, sconf, dt)]
        if cfg.get("contraction", True):
            # companion run with a perturbed datum on the same time grid,
            # stored whole for the base run's L1 observer
            other = solve(companion_spec(spec, disc.data_range), stencil,
                          replace(sconf, store_every=1), dt_override=dt)
            observers.append(analysis.L1Contraction(other))
        # the moduli and the energy form read every step of the base run
        keep = (1 if cfg.get("moduli", False) or cfg.get("energy", False)
                else sconf.store_every)
        traj = solve(spec, stencil, replace(sconf, store_every=keep),
                     dt_override=dt, observers=observers)
        for check in observers:
            record(check.result())
        if cfg.get("moduli", False):
            tables = analysis.translation_moduli(
                traj.gamma(), traj.dt, sconf.dx,
                space_shifts=[1, 2, 4, 8], time_shifts=[1, 2, 4, 8])
            write_moduli_csv(os.path.join(out_dir, "moduli.csv"), tables)
        if cfg.get("energy", False):
            checks["energy"] = analysis.energy_report(traj)
            checks["energy"]["pass"] = bool(checks["energy"]["slack"]
                                            >= -1e-6)
        write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), traj,
                             every=sconf.store_every // keep)
        report["stats"] = {k: v for k, v in traj.stats.items()
                           if k != "wall_time_s"}
        report["_wall_time_s"] = traj.stats["wall_time_s"]
    elif mode == "picard":
        if not math.isfinite(measure.total_mass()):
            raise ConfigParse("picard mode needs a finite-mass measure")
        try:
            k_max, tol = int(cfg.get("k_max", 12)), float(cfg.get("tol", 1e-6))
        except (TypeError, ValueError) as exc:
            raise ConfigParse(f"bad picard parameter: {exc!r}") from exc
        res = picard_solve(spec, measure, sconf, k_max=k_max, tol=tol)
        write_gaps_csv(os.path.join(out_dir, "gaps.csv"), res.gaps)
        write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"),
                             res.trajectory, every=sconf.store_every)
        record(analysis.CheckResult("picard_converged", res.converged, 0.0,
                                    {"iterations": res.iterations}))
        report["gaps"] = res.gaps
    elif mode == "vanishing":
        n_list = _positive_list(cfg, "n_list", [1, 4, 16, 64])
        rep = vanishing_viscosity_run(spec, _alpha(cfg), n_list, sconf)
        record(trend_check("vanishing_trend", rep.l1_distances,
                           {"n_list": list(n_list),
                            "distances": list(map(float, rep.l1_distances))}))
    elif mode == "stability":
        r_list = _positive_list(cfg, "r_list",
                                [0.25, 0.125, 0.0625, 0.03125, 0.015625])
        base = FractionalRadial(alpha=_alpha(cfg))
        measures = [truncate(base, r)[1] for r in r_list]
        rep = stability_run(spec, measures, sconf, labels=r_list[:-1])
        record(trend_check(
            "stability_trend", rep.l2_b_distances,
            {"r_list": list(map(float, r_list)),
             "l2_b": list(map(float, rep.l2_b_distances)),
             "measure_tv": list(map(float, rep.measure_distances))}))
    else:
        raise ConfigParse(f"unknown mode {mode!r}")

    write_report(os.path.join(out_dir, "report.json"), report)
    failed = [k for k, v in checks.items() if not v.get("pass", True)]
    for name in checks:
        status = "PASS" if checks[name].get("pass", True) else "FAIL"
        print(f"{status} {name}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _run_checks(checks):
    """Evaluate (name, fn) pairs in declaration order."""
    return {name: bool(fn()) for name, fn in checks}


def _suite_appendix(out_dir):
    def gallery():
        rows = analysis.counterexample_gallery()
        write_gallery_csv(os.path.join(out_dir, "gallery.csv"), rows)
        return all(r.passed for r in rows)

    def fourier_identity():
        n, box = 1024, 20.0
        dx = 2 * box / n
        x = -box + (np.arange(n) + 0.5) * dx
        atom = single_atom(z=32 * dx, w=0.5)
        st = build_stencil(atom, dx, dx, 2.0)
        chk = fourier_energy_check(np.exp(-x ** 2), dx,
                                   MultiplierEval(atom), st)
        return chk["rel_err"] <= 1e-3

    def sandwich():
        rng = np.random.default_rng(7)
        grid = np.linspace(0.0, 400.0, 40001)
        for _ in range(20):
            atoms = tuple((float(rng.uniform(0.2, 3.0)),
                           float(rng.uniform(0.1, 1.0)))
                          for _ in range(int(rng.integers(1, 8))))
            m = measure_from_config({"kind": "atoms", "entries": atoms})
            mass = m.total_mass()
            sup = float(np.max(MultiplierEval(m).m_many(grid)))
            if not (sup <= 2.0 * mass * (1 + 1e-12) and sup >= 0.95 * mass):
                return False
        return True

    def mean_bound():
        rep = analysis.mean_bound_suite(np.random.default_rng(11),
                                        trials=10000)
        return rep["violations"] == 0

    def mollification_bound():
        rep = analysis.mollification_bound_suite(
            [diffusion_identity(), diffusion_power(2.0),
             diffusion_stefan(0.25)],
            np.random.default_rng(13), trials=10000)
        return rep["violations"] == 0

    return _run_checks([("gallery", gallery),
                        ("fourier_identity", fourier_identity),
                        ("sandwich", sandwich),
                        ("mean_bound", mean_bound),
                        ("mollification_bound", mollification_bound)])


def _suite_apriori(out_dir):
    def max_principle_and_contraction():
        conf = SchemeConfig(dx=1.0 / 128, r=1.0 / 128, Z=0.5)
        stencil = build_stencil(single_atom(), conf.dx, conf.r, conf.Z)
        spec = make_problem("burgers", "stefan", "riemann", ell=0.4)
        traj = solve(spec, stencil, conf)
        pert = replace(spec, u0=lambda x: np.clip(
            spec.u0(x) + 0.1 * np.exp(-80 * (np.asarray(x) - 0.3) ** 2),
            0, 1))
        traj_v = solve(pert, stencil, conf, dt_override=traj.dt)
        _, verdict = analysis.l1_contraction_check(traj, traj_v)
        return analysis.max_principle_check(traj).passed and verdict.passed

    def energy():
        espec = make_problem("burgers", "identity", "bump")
        emeasure = truncate(FractionalRadial(alpha=1.0), 1.0 / 16)[1]
        slacks = {}
        for dx in (1.0 / 64, 1.0 / 128):
            c = SchemeConfig(dx=dx, r=1.0 / 16, Z=1.0)
            tr = solve(espec, build_stencil(emeasure, dx, c.r, c.Z), c)
            slacks[dx] = analysis.energy_report(tr)["slack"]
        eps = analysis.two_grid_tolerance(slacks[1.0 / 64], slacks[1.0 / 128])
        return slacks[1.0 / 128] >= -eps

    def entropy_residuals():
        shock = make_problem("burgers", "zero", "riemann", T=0.25)
        worst = {}
        for dx in (1.0 / 64, 1.0 / 128):
            c = SchemeConfig(dx=dx, r=dx, Z=0.25)
            tr = solve(shock, build_stencil(zero_measure(), dx, dx, 0.25), c)
            fam = analysis.default_test_family(0.0, 1.0, shock.T)
            levels = analysis.quantile_levels(*tr.disc.data_range)
            rep = analysis.entropy_residual(tr, zero_measure(), fam, levels,
                                            4 * dx)
            worst[dx] = rep.worst
        eps = analysis.two_grid_tolerance(worst[1.0 / 64], worst[1.0 / 128])
        return worst[1.0 / 128] <= eps

    return _run_checks([
        ("max_principle_and_contraction", max_principle_and_contraction),
        ("energy", energy),
        ("entropy_residuals", entropy_residuals)])


def _suite_chains(out_dir):
    def picard_envelope():
        spec = make_problem("burgers", "identity", "bump", T=0.4)
        res = picard_solve(spec, single_atom(z=0.3, w=0.5),
                           SchemeConfig(dx=1.0 / 64, r=1.0 / 64, Z=0.5),
                           k_max=9, tol=0.0)
        rate = 2.0 * 1.0 * 1.0 * spec.T  # 2 L_b ||mu|| T
        return all(
            g <= res.first_iterate_norm * rate ** k / math.factorial(k) * 1.1
            + 1e-14 for k, g in enumerate(res.gaps, start=1))

    def vanishing_trend():
        rare = make_problem("burgers", "identity", "riemann_up", T=0.25)
        rep = vanishing_viscosity_run(
            rare, 1.0, [1, 4, 16],
            SchemeConfig(dx=1.0 / 64, r=1.0 / 64, Z=0.5))
        return trend_holds(rep.l1_distances)

    def stability_trend():
        base = FractionalRadial(alpha=1.0)
        measures = [truncate(base, 1.0 / n)[1] for n in (4, 8, 16, 32)]
        srep = stability_run(
            make_problem("burgers", "identity", "bump", T=0.25), measures,
            SchemeConfig(dx=1.0 / 64, r=1.0 / 64, Z=1.0), labels=[4, 8, 16])
        return (trend_holds(srep.l2_b_distances)
                and trend_holds(srep.measure_distances))

    return _run_checks([("picard_envelope", picard_envelope),
                        ("vanishing_trend", vanishing_trend),
                        ("stability_trend", stability_trend)])


SUITES = {"appendix": _suite_appendix, "apriori": _suite_apriori,
          "chains": _suite_chains}


def cmd_suite(name, out_dir) -> int:
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; "
                           f"choose from {sorted(SUITES)}")
    os.makedirs(out_dir, exist_ok=True)
    results = SUITES[name](out_dir)
    for key, ok in results.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}/{key}")
    payload = {"suite": name,
               "checks": {k: {"pass": bool(v)} for k, v in results.items()}}
    write_report(os.path.join(out_dir, f"suite_{name}.json"), payload)
    return 0 if all(results.values()) else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser():
    p = argparse.ArgumentParser(prog="levyfv")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment from flags/config")
    run.add_argument("--config", help="JSON config file")
    run.add_argument("--problem")
    run.add_argument("--measure")
    run.add_argument("--dx", type=float)
    run.add_argument("--dt", type=float)
    run.add_argument("--auto-cfl", action="store_true")
    run.add_argument("--r", type=float)
    run.add_argument("--Z", type=float)
    run.add_argument("--T", type=float)
    run.add_argument("--flux", choices=["eo", "lf"])
    run.add_argument("--mode", choices=["solve", "picard", "vanishing",
                                        "stability", "gallery"])
    run.add_argument("--seed", type=int)
    run.add_argument("--moduli", action="store_true")
    run.add_argument("--energy", action="store_true")
    run.add_argument("--out", default="out")

    st = sub.add_parser("suite", help="run a verification suite")
    st.add_argument("name")
    st.add_argument("--out", default="out")

    sc = sub.add_parser("scan", help="emit a symbol scan CSV (xi,m)")
    sc.add_argument("--measure", required=True)
    sc.add_argument("--xi-max", type=float, default=50.0)
    sc.add_argument("--num", type=int, default=500)
    sc.add_argument("--out", required=True)

    du = sub.add_parser("stencil", help="emit stencil weights CSV")
    du.add_argument("--measure", required=True)
    du.add_argument("--dx", type=float, required=True)
    du.add_argument("--r", type=float, required=True)
    du.add_argument("--Z", type=float, required=True)
    du.add_argument("--out", required=True)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = _load_config(args.config) if args.config else {}
            overrides = {
                "problem": args.problem, "measure": args.measure,
                "dx": args.dx, "dt": args.dt, "r": args.r, "Z": args.Z,
                "T": args.T, "flux": args.flux, "mode": args.mode,
                "seed": args.seed,
            }
            cfg.update({k: v for k, v in overrides.items() if v is not None})
            if args.auto_cfl:
                cfg["auto_cfl"] = True
            if args.moduli:
                cfg["moduli"] = True
            if args.energy:
                cfg["energy"] = True
            if "dx" not in cfg:
                raise ConfigParse("dx is required (flag or config)")
            return cmd_run(cfg, args.out)
        if args.command == "suite":
            return cmd_suite(args.name, args.out)
        if args.command == "scan":
            measure = _reference(args.measure, measure_from_config)
            validate_measure(measure)
            xis = np.linspace(0.0, args.xi_max, args.num)
            write_multiplier_scan(MultiplierEval(measure), xis, args.out)
            return 0
        if args.command == "stencil":
            measure = _reference(args.measure, measure_from_config)
            st = build_stencil(measure, args.dx, args.r, args.Z)
            st.dump_csv(args.out)
            return 0
        raise ConfigParse(f"unknown command {args.command!r}")
    except (ConfigParse, UnknownPreset, UnknownSuite) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LevyFvError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
