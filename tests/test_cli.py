import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from levyfv import measures
from levyfv.cli import main, trend_holds, write_trajectory_csv
from levyfv.errors import QuadratureNotConverged
from levyfv.measures import zero_measure
from levyfv.problem import make_problem
from levyfv.scheme import SchemeConfig, solve
from levyfv.stencil import build_stencil


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_run_gallery_writes_golden_values(tmp_path):
    out = tmp_path / "g"
    assert main(["run", "--mode", "gallery", "--dx", "0.01",
                 "--out", str(out)]) == 0
    rows = read_csv(out / "gallery.csv")
    moments = {r["name"]: float(r["value"]) for r in rows
               if r["check"] == "levy_moment"}
    assert moments["dyadic_a"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert moments["dyadic_b"] == pytest.approx(1.0, abs=1e-12)
    assert all(r["pass"] == "1" for r in rows)


def test_run_solve_hyperbolic_preset(tmp_path):
    out = tmp_path / "solve"
    code = main(["run", "--mode", "solve", "--problem", "burgers_riemann",
                 "--measure", "none", "--dx", "0.015625", "--Z", "0.0625",
                 "--auto-cfl", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["checks"]["max_principle"]["pass"]
    assert report["checks"]["mass_budget"]["pass"]
    rows = read_csv(out / "trajectory.csv")
    assert set(rows[0]) == {"t", "cell_index", "u"}


def test_run_picard_writes_gaps(tmp_path):
    out = tmp_path / "pic"
    code = main(["run", "--mode", "picard", "--problem", "burgers_bump",
                 "--measure", "single_atom", "--dx", "0.03125",
                 "--Z", "0.5", "--auto-cfl", "--out", str(out)])
    assert code == 0
    gaps = read_csv(out / "gaps.csv")
    assert len(gaps) >= 1
    assert float(gaps[-1]["gap"]) <= 1e-6


def test_malformed_config_exit_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["run", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 2


def test_unknown_preset_exit_2(tmp_path):
    assert main(["run", "--mode", "solve", "--problem", "nope",
                 "--measure", "none", "--dx", "0.03125",
                 "--out", str(tmp_path / "o")]) == 2


def test_unknown_suite_exit_2(tmp_path):
    assert main(["suite", "nonsense", "--out", str(tmp_path / "o")]) == 2


def test_missing_dx_exit_2(tmp_path):
    assert main(["run", "--mode", "solve", "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("key, value", [
    ("flux", "xyz"),
    ("tail_mode", "bogus"),
    ("store_every", 0),
    ("dx", "abc"),
    ("measure", {"kind": "atoms"}),
    ("measure", {"kind": "fractional", "alpha": 3}),
    ("measure", {"kind": "fractional", "dim": 2}),
    ("measure", {"kind": "atoms", "entries": [[[0.1, 0.2], 0.5]]}),
])
def test_bad_config_entry_exit_2(tmp_path, capsys, key, value):
    cfg = {"mode": "solve", "problem": "burgers_riemann", "measure": "none",
           "dx": 1 / 32, "Z": 0.125, key: value}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_negative_atom_weight_exit_3(tmp_path):
    # the same refusal as `scan`: a non-monotone stencil is never built
    measure = json.dumps({"kind": "atoms", "entries": [[0.5, -1.0]]})
    st = tmp_path / "st.csv"
    assert main(["stencil", "--measure", measure, "--dx", "0.1", "--r", "0.1",
                 "--Z", "1", "--out", str(st)]) == 3
    assert not st.exists()
    assert main(["run", "--mode", "solve", "--measure", measure,
                 "--dx", "0.03125", "--Z", "0.5",
                 "--out", str(tmp_path / "o")]) == 3
    assert main(["scan", "--measure", measure, "--num", "5",
                 "--out", str(tmp_path / "scan.csv")]) == 3


SOLVE_ARGS = ["--mode", "solve", "--problem", "burgers_bump", "--measure",
              "single_atom", "--dx", "0.03125", "--Z", "0.5", "--T", "0.1"]


# bad run parameters: each is refused where it is parsed or validated
@pytest.mark.parametrize("args, cfg", [
    (SOLVE_ARGS + ["--dt", "0"], {}),
    (SOLVE_ARGS + ["--dt", "nan"], {}),
    (SOLVE_ARGS + ["--dt", "-0.1"], {}),
    (SOLVE_ARGS + ["--dt", "-0.1"], {"enforce_cfl": False}),
    (SOLVE_ARGS + ["--mode", "picard"], {"k_max": 0}),
    (SOLVE_ARGS + ["--mode", "picard"], {"k_max": 0, "tol": 0}),
    (SOLVE_ARGS + ["--mode", "picard", "--measure", "fractional"], {}),
    (SOLVE_ARGS + ["--mode", "vanishing"], {"alpha": 3}),
    (SOLVE_ARGS + ["--mode", "stability"], {"alpha": 3}),
    (SOLVE_ARGS + ["--mode", "stability"], {"alpha": "x"}),
    (SOLVE_ARGS + ["--mode", "picard"], {"k_max": "abc"}),
    (SOLVE_ARGS + ["--mode", "picard"], {"tol": "x"}),
    (SOLVE_ARGS + ["--mode", "vanishing"], {"n_list": [0]}),
    (SOLVE_ARGS + ["--mode", "stability"], {"r_list": [0.25, 0]}),
], ids=["dt_zero", "dt_nan", "dt_negative", "dt_negative_unenforced",
        "picard_k_max_0", "picard_k_max_0_tol_0", "picard_infinite_mass",
        "vanishing_alpha_3", "stability_alpha_3", "stability_alpha_text",
        "picard_k_max_text", "picard_tol_text", "vanishing_n_list_0",
        "stability_r_list_0"])
def test_bad_run_parameter_exit_2(tmp_path, capsys, args, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", *args, "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")


def test_auto_cfl_in_a_config_drops_its_dt_as_the_flag_does(tmp_path):
    path = tmp_path / "cfg.json"
    dts = {}
    for name, cfg, flags in (("key", {"dt": 0.001, "auto_cfl": True}, []),
                             ("flag", {"dt": 0.001}, ["--auto-cfl"]),
                             ("none", {}, []),
                             ("dt", {"dt": 0.001}, [])):
        path.write_text(json.dumps(cfg))
        out = tmp_path / name
        assert main(["run", *SOLVE_ARGS, *flags, "--config", str(path),
                     "--out", str(out)]) == 0
        dts[name] = json.loads((out / "report.json").read_text())["stats"][
            "dt"]
    assert dts["key"] == dts["flag"] == dts["none"] > 0.001 == dts["dt"]

def test_overflowing_measure_exit_3(tmp_path, capsys):
    # 2 * coeff overflows: the levy moment is inf, so no stencil of inf
    # weights is written and no run divides by a CFL bound of 0
    measure = json.dumps({"kind": "fractional", "alpha": 1.0, "coeff": 1e308,
                          "lo": 0.1})
    st = tmp_path / "st.csv"
    assert main(["stencil", "--measure", measure, "--dx", "0.03125",
                 "--r", "0.03125", "--Z", "1", "--out", str(st)]) == 3
    assert not st.exists()
    out = tmp_path / "o"
    assert main(["run", "--mode", "solve", "--measure", measure,
                 "--dx", "0.03125", "--Z", "0.5", "--auto-cfl",
                 "--out", str(out)]) == 3
    assert not (out / "trajectory.csv").exists()
    assert capsys.readouterr().err.splitlines() == [
        "runtime error: levy moment diverges"] * 2


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_cfl_bound_of_zero_exit_3(tmp_path, capsys):
    # the flux's Lipschitz constant overflows to inf: a given dt and the
    # automatic one are refused alike
    problem = json.dumps({"flux": {"x": [0, 1e-10, 1], "y": [0, 1e300, 0]},
                          "data": "bump"})
    args = ["run", "--mode", "solve", "--problem", problem, "--measure",
            "single_atom", "--dx", "0.03125", "--Z", "0.5"]
    assert main(args + ["--dt", "0.001", "--out", str(tmp_path / "a")]) == 3
    assert main(args + ["--auto-cfl", "--out", str(tmp_path / "b")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all("monotonicity bound" in ln for ln in err)


def test_runtime_error_exit_3(tmp_path):
    # explicit dt above the monotonicity bound with enforcement on
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mode": "solve", "problem": "burgers_riemann", "measure": "none",
        "dx": 1 / 32, "Z": 0.125, "dt": 0.5, "auto_cfl": False}))
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 3


def test_report_reproducible_modulo_timestamp(tmp_path):
    args = ["run", "--mode", "solve", "--problem", "burgers_riemann",
            "--measure", "single_atom", "--dx", "0.03125", "--Z", "0.25",
            "--auto-cfl", "--seed", "7"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    ra = json.loads((a / "report.json").read_text())
    rb = json.loads((b / "report.json").read_text())
    ra.pop("timestamp")
    rb.pop("timestamp")
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


def test_scan_csv(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--measure", "dyadic_a", "--xi-max", "10",
                 "--num", "21", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert set(rows[0]) == {"xi", "m"}
    assert float(rows[0]["m"]) == 0.0
    assert all(float(r["m"]) >= 0.0 for r in rows)


def test_scan_failure_writes_no_csv(tmp_path, capsys, monkeypatch):
    # the symbol fails at one frequency of the scan, after earlier ones
    # succeeded: exit 3, the frequency named, and no partial CSV
    symbol = measures.LevyMeasure.multiplier_value

    def failing_at_7_5(self, xi):
        if float(xi) == 7.5:
            raise QuadratureNotConverged(
                f"symbol quadrature error 1.00e-03 at xi={xi}")
        return symbol(self, xi)

    monkeypatch.setattr(measures.LevyMeasure, "multiplier_value",
                        failing_at_7_5)
    out = tmp_path / "scan.csv"
    assert main(["scan", "--measure", "dyadic_a", "--xi-max", "10",
                 "--num", "21", "--out", str(out)]) == 3
    assert "xi=7.5" in capsys.readouterr().err
    assert not out.exists()


def test_stencil_dump(tmp_path):
    out = tmp_path / "st.csv"
    assert main(["stencil", "--measure", "single_atom", "--dx", "0.1",
                 "--r", "0.1", "--Z", "1.0", "--out", str(out)]) == 0
    rows = read_csv(out)
    weights = {int(r["offset"]): float(r["weight"]) for r in rows}
    assert weights[5] == weights[-5] == 0.5


def test_config_file_with_inline_measure(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mode": "solve", "problem": "burgers_riemann",
        "measure": {"kind": "atoms", "entries": [[0.125, 0.5]]},
        "dx": 1 / 32, "Z": 0.25, "auto_cfl": True}))
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 0


def test_inline_json_measure_and_problem_flags(tmp_path):
    measure = json.dumps({"kind": "atoms", "entries": [[0.125, 0.5]]})
    problem = json.dumps({"flux": "burgers", "diffusion": "identity",
                          "data": "riemann", "T": 0.2})
    out = tmp_path / "o"
    assert main(["run", "--mode", "solve", "--problem", problem,
                 "--measure", measure, "--dx", "0.03125", "--Z", "0.25",
                 "--auto-cfl", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["checks"]["mass_budget"]["pass"]


def test_malformed_inline_json_exit_2(tmp_path, capsys):
    assert main(["run", "--mode", "solve", "--problem", "burgers_riemann",
                 "--measure", '{"kind": "atoms", "entries": [[0.125, 0.5]',
                 "--dx", "0.03125", "--Z", "0.25", "--auto-cfl",
                 "--out", str(tmp_path / "o")]) == 2
    assert "inline JSON" in capsys.readouterr().err
    assert main(["stencil", "--measure", "{kind: atoms}", "--dx", "0.1",
                 "--r", "0.1", "--Z", "1",
                 "--out", str(tmp_path / "st.csv")]) == 2
    assert "inline JSON" in capsys.readouterr().err


def test_run_solve_reports_contraction_check(tmp_path):
    out = tmp_path / "solve2"
    assert main(["run", "--mode", "solve", "--problem", "burgers_riemann",
                 "--measure", "none", "--dx", "0.015625", "--Z", "0.0625",
                 "--auto-cfl", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["checks"]["l1_contraction"]["pass"]


def test_run_check_failure_exit_1(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mode": "solve", "problem": "linear_bump", "measure": "none",
        "dx": 1 / 32, "Z": 0.125, "dt": 0.0625, "auto_cfl": False,
        "enforce_cfl": False, "T": 0.25, "contraction": False}))
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 1


def test_problem_reference_from_file(tmp_path):
    pfile = tmp_path / "prob.json"
    pfile.write_text(json.dumps({"flux": "burgers", "diffusion": "stefan",
                                 "ell": 0.4, "data": "riemann", "T": 0.2}))
    out = tmp_path / "o"
    assert main(["run", "--mode", "solve", "--problem", str(pfile),
                 "--measure", "single_atom", "--dx", "0.03125",
                 "--Z", "0.25", "--auto-cfl", "--out", str(out)]) == 0


def test_suite_appendix(tmp_path):
    assert main(["suite", "appendix", "--out", str(tmp_path / "s")]) == 0
    rep = json.loads((tmp_path / "s" / "suite_appendix.json").read_text())
    assert all(v["pass"] for v in rep["checks"].values())


def test_suite_apriori(tmp_path):
    assert main(["suite", "apriori", "--out", str(tmp_path / "s")]) == 0


def test_suite_chains(tmp_path):
    assert main(["suite", "chains", "--out", str(tmp_path / "s")]) == 0


def test_run_energy_report_is_valid_json(tmp_path):
    out = tmp_path / "e"
    assert main(["run", "--problem", "burgers_bump", "--measure",
                 '{"kind":"fractional","alpha":1.0,"lo":0.0625}',
                 "--dx", "0.03125", "--r", "0.0625", "--Z", "1.0",
                 "--energy", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["checks"]["energy"]["pass"] is True


def test_run_vanishing_with_zero_diffusion_passes(tmp_path):
    # b = 0: every member equals the reference, all distances are exactly 0
    out = tmp_path / "v"
    assert main(["run", "--mode", "vanishing", "--problem",
                 "burgers_rarefaction", "--dx", "0.015625", "--Z", "0.5",
                 "--auto-cfl", "--out", str(out)]) == 0
    check = json.loads((out / "report.json").read_text())[
        "checks"]["vanishing_trend"]
    assert check["pass"] is True
    assert check["params"]["distances"] == [0.0, 0.0, 0.0, 0.0]


def test_run_stability_with_zero_diffusion_passes(tmp_path):
    # b = 0: every l2_b distance is exactly 0
    out = tmp_path / "s"
    assert main(["run", "--mode", "stability", "--problem",
                 "burgers_rarefaction", "--dx", "0.03125", "--Z", "1.0",
                 "--auto-cfl", "--out", str(out)]) == 0
    check = json.loads((out / "report.json").read_text())[
        "checks"]["stability_trend"]
    assert check["pass"] is True
    assert check["params"]["l2_b"] == [0.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("distances, holds", [
    ([0.3, 0.2, 0.1], True),
    ([0.3, 0.0, 0.0], True),
    ([0.0, 0.0, 0.0], True),
    ([0.1, 0.2, 0.3], False),
    ([0.3, 0.3, 0.1], False),
    ([0.0, 0.1], False),
])
def test_vanishing_trend_rule(distances, holds):
    assert trend_holds(distances) is holds


def test_trajectory_csv_bytes_match_per_value_loop(tmp_path):
    c = SchemeConfig(dx=0.125, r=0.125, Z=0.25)
    traj = solve(make_problem("burgers", "zero", "riemann", T=0.35),
                 build_stencil(zero_measure(), c.dx, c.r, c.Z), c)
    n_times = 8                              # n_steps = 7, every = 3
    values = [1e-05, 1 / 3, 5e-324, 1e16, -0.0, 1.0, -2.5, 0.1]
    states = np.zeros((n_times, traj.grid.n_full))
    for n in range(n_times):
        states[n, traj.grid.interior] = np.roll(values, n)
    traj = replace(traj, times=np.linspace(0.0, 0.35, n_times),
                   states=states)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, traj, every=3)
    want = ["t,cell_index,u\n"]
    interior = traj.interior()
    for n in range(0, n_times, 3):
        t = float(traj.times[n])
        for i, v in enumerate(interior[n]):
            want.append(f"{t!r},{i},{float(v)!r}\n")
    assert path.read_bytes() == "".join(want).encode()
    assert b"-0.0\n" in path.read_bytes()


# -- thinned storage in the run modes -------------------------------------------

TRUNCATED_FRACTIONAL = {"kind": "fractional", "alpha": 1.0, "lo": 0.0625}
# a null stencil; jumps with a tail (Z = 0.25 below the measure's reach)
# under each tail rule
SOLVE_STENCILS = {
    "null": {"measure": "none"},
    "tail_exterior_mean": {"measure": TRUNCATED_FRACTIONAL},
    "tail_drop": {"measure": TRUNCATED_FRACTIONAL, "tail_mode": "drop"},
}


def run_config(tmp_path, name, cfg):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / name
    code = main(["run", "--config", str(path), "--out", str(out)])
    return code, out


def time_blocks(path):
    """The lines of a trajectory CSV grouped by time, in file order."""
    blocks = {}
    for line in path.read_text().splitlines()[1:]:
        blocks.setdefault(line.split(",", 1)[0], []).append(line)
    return list(blocks.values())


@pytest.mark.parametrize("every", [1, 7])
@pytest.mark.parametrize("name", sorted(SOLVE_STENCILS))
def test_solve_mode_checks_equal_the_checks_on_two_full_trajectories(
        tmp_path, name, every):
    from levyfv import analysis
    from levyfv.cli import companion_spec
    from levyfv.measures import measure_from_config
    from levyfv.problem import problem_from_config
    cfg = {"mode": "solve", "problem": "burgers_bump", "dx": 1 / 64,
           "Z": 0.25, "store_every": every, **SOLVE_STENCILS[name]}
    code, out = run_config(tmp_path, "run", cfg)
    assert code == 0
    report = json.loads((out / "report.json").read_text())

    c = SchemeConfig(dx=cfg["dx"], r=cfg["dx"], Z=cfg["Z"],
                     tail_mode=cfg.get("tail_mode", "exterior_mean"))
    spec = problem_from_config(cfg["problem"])
    st = build_stencil(measure_from_config(cfg["measure"]), c.dx, c.r, c.Z)
    base = solve(spec, st, c)
    other = solve(companion_spec(spec, base.disc.data_range), st, c,
                  dt_override=base.dt)
    assert base.stats["n_steps"] % 7
    expected = [analysis.max_principle_check(base),
                analysis.mass_budget_check(base),
                analysis.l1_contraction_check(base, other)[1]]
    assert list(report["checks"]) == sorted(res.name for res in expected)
    for res in expected:
        assert report["checks"][res.name] == json.loads(
            json.dumps(res.as_dict()))
    write_trajectory_csv(tmp_path / "full.csv", base, every=every)
    assert (out / "trajectory.csv").read_bytes() == \
        (tmp_path / "full.csv").read_bytes()


@pytest.mark.parametrize("mode, extra", [
    ("picard", {"measure": "single_atom"}),
    ("vanishing", {"n_list": [1, 4]}),
    ("stability", {"r_list": [0.25, 0.125, 0.0625]}),
])
def test_drivers_write_the_same_artifacts_at_any_cadence(tmp_path, mode,
                                                         extra):
    cfg = {"mode": mode, "problem": "burgers_bump", "dx": 1 / 32, "Z": 0.5,
           "T": 0.25, **extra}
    runs = {every: run_config(tmp_path, f"every_{every}",
                              {**cfg, "store_every": every})
            for every in (1, 7)}
    assert [code for code, _ in runs.values()] == [0, 0]
    (_, full), (_, thin) = runs[1], runs[7]
    reports = [json.loads((o / "report.json").read_text()) for o in (full,
                                                                   thin)]
    for rep in reports:
        rep.pop("timestamp")
        rep["config"].pop("store_every")
    assert reports[0] == reports[1]
    assert sorted(p.name for p in full.iterdir()) == \
        sorted(p.name for p in thin.iterdir())
    for path in full.iterdir():
        if path.name == "trajectory.csv":
            assert time_blocks(thin / path.name) == \
                time_blocks(path)[::7]
        elif path.name != "report.json":
            assert (thin / path.name).read_bytes() == path.read_bytes()


def test_solve_mode_holds_one_full_trajectory(tmp_path):
    # the base run stores every 64th state and its checks observe the
    # march; only the companion is stored whole
    import tracemalloc
    from levyfv.problem import discretize, problem_from_config
    from levyfv.scheme import time_grid
    cfg = {"mode": "solve", "problem": "burgers_riemann", "measure": "none",
           "dx": 1 / 1024, "r": 1 / 1024, "Z": 1 / 64, "store_every": 64}
    c = SchemeConfig(dx=cfg["dx"], r=cfg["r"], Z=cfg["Z"])
    disc = discretize(problem_from_config(cfg["problem"]), c.dx, c.Z)
    _, n_steps = time_grid(disc, [build_stencil(zero_measure(), c.dx, c.r,
                                                c.Z)], c)
    full_nbytes = 8 * (n_steps + 1) * disc.grid.n_full
    tracemalloc.start()
    try:
        code, _ = run_config(tmp_path, "run", cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1.3 * full_nbytes
