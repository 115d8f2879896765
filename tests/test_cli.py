import csv
import json
import math
import os
import subprocess
import sys
import warnings
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


IMPORTS_NO_SCIPY = """
import json, sys
import levyfv, levyfv.cli
code = levyfv.cli.main(["run", "--mode", "solve", "--problem",
                        "burgers_riemann", "--measure", "single_atom",
                        "--dx", "0.015625", "--Z", "0.25", "--auto-cfl",
                        "--out", sys.argv[1]])
# the vanishing chain's TV distances to the zero measure are closed form
code += levyfv.cli.main(["run", "--mode", "vanishing", "--problem",
                         "burgers_bump", "--dx", "0.03125", "--Z", "0.5",
                         "--T", "0.1", "--out", sys.argv[1] + "_v"])
print(json.dumps({"code": code, "scipy": sorted(
    m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_import_and_run_load_no_scipy(tmp_path):
    # a fresh interpreter: only the generic weighted-TV quadrature may load
    # scipy, so a new top-level import would show here
    src = os.path.dirname(os.path.dirname(measures.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", IMPORTS_NO_SCIPY,
                           str(tmp_path / "o")], env=env, capture_output=True,
                          text=True, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == {"code": 0,
                                                        "scipy": []}


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
    # a bool is not a number, in a nested mapping too
    ("problem", {"flux": "burgers", "diffusion": "identity", "data": "bump",
                 "T": True}),
    ("problem", {"flux": "burgers", "data": "bump", "domain": [False, True]}),
    ("measure", {"kind": "fractional", "alpha": True, "lo": 0.0625}),
    ("measure", {"kind": "atoms", "entries": [[0.25, True]]}),
    ("measure", {"kind": "fractional", "lo": 0.0625, "dim": True}),
    # text is not a number, though `float` would read it
    ("dx", "0.03125"),
    ("dx", 10 ** 400),                  # an int that no double holds
    ("measure", {"kind": "fractional", "alpha": "1.0", "lo": 0.0625}),
    ("problem", {"flux": "burgers", "diffusion": "identity", "data": "bump",
                 "T": "0.5"}),
    # a run flag is a JSON boolean: text would be truthy
    ("contraction", "false"),
    ("energy", "no"),
    ("moduli", 1),
    ("auto_cfl", "true"),
    ("enforce_cfl", "yes"),
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



def without(*flags):
    """SOLVE_ARGS less `flags` and their values, so the config's entries
    for them are read."""
    args = list(SOLVE_ARGS)
    for flag in flags:
        i = args.index(flag)
        del args[i:i + 2]
    return args


# a horizon that is not positive and finite, a bool for a number, and a bool
# or a fraction for an integer entry: (args, config, the entry the error
# names)
NAMED_BAD_ENTRIES = {
    "T_nan": (SOLVE_ARGS + ["--T", "nan"], {}, "T"),
    "T_inf": (SOLVE_ARGS + ["--T", "inf"], {}, "T"),
    "T_zero": (SOLVE_ARGS + ["--T", "0"], {}, "T"),
    "T_negative": (SOLVE_ARGS + ["--T", "-1"], {}, "T"),
    "store_every_fraction": (SOLVE_ARGS, {"store_every": 2.5}, "store_every"),
    "store_every_bool": (SOLVE_ARGS, {"store_every": True}, "store_every"),
    "picard_k_max_fraction": (SOLVE_ARGS + ["--mode", "picard"],
                              {"k_max": 2.7}, "k_max"),
    "picard_k_max_bool": (SOLVE_ARGS + ["--mode", "picard"],
                          {"k_max": True}, "k_max"),
    "seed_text": (SOLVE_ARGS, {"seed": "abc"}, "seed"),
    "seed_fraction": (SOLVE_ARGS, {"seed": 2.5}, "seed"),
    "seed_bool": (SOLVE_ARGS, {"seed": True}, "seed"),
    # SOLVE_ARGS passes --T, which would override the config's T
    "T_text": (without("--T"), {"T": "abc"}, "T"),
    # float() reads a bool as 0.0 or 1.0
    "T_bool": (without("--T"), {"T": True}, "T"),
    "dx_bool": (without("--dx"), {"dx": True}, "dx"),
    "r_bool": (SOLVE_ARGS, {"r": True}, "r"),
    "Z_bool": (without("--Z"), {"Z": True}, "Z"),
    "dt_bool": (SOLVE_ARGS, {"dt": True}, "dt"),
    "picard_tol_bool": (SOLVE_ARGS + ["--mode", "picard"], {"tol": True},
                        "tol"),
}


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
    (SOLVE_ARGS + ["--mode", "picard"], {"tol": -1, "k_max": 3}),
    (SOLVE_ARGS + ["--mode", "picard"], {"tol": math.nan, "k_max": 3}),
    (SOLVE_ARGS + ["--mode", "vanishing"], {"n_list": [0]}),
    (SOLVE_ARGS + ["--mode", "stability"], {"r_list": [0.25, 0]}),
    # without a measure, which the chain modes would refuse first
    (without("--measure") + ["--mode", "vanishing"], {"alpha": True}),
    (without("--measure") + ["--mode", "vanishing"], {"n_list": [True, 2]}),
    (without("--measure") + ["--mode", "stability"],
     {"r_list": [0.25, True]}),
    (without("--measure") + ["--mode", "vanishing"], {"n_list": []}),
    (without("--measure") + ["--mode", "stability"], {"r_list": []}),
    (SOLVE_ARGS, {"contraction": "false", "energy": "no"}),
] + [(args, cfg) for args, cfg, _ in NAMED_BAD_ENTRIES.values()],
    ids=["dt_zero", "dt_nan", "dt_negative", "dt_negative_unenforced",
         "picard_k_max_0", "picard_k_max_0_tol_0", "picard_infinite_mass",
         "vanishing_alpha_3", "stability_alpha_3", "stability_alpha_text",
         "picard_k_max_text", "picard_tol_text", "picard_tol_negative",
         "picard_tol_nan", "vanishing_n_list_0",
         "stability_r_list_0", "vanishing_alpha_bool", "vanishing_n_list_bool",
         "stability_r_list_bool", "vanishing_n_list_empty",
         "stability_r_list_empty", "flags_text"] + list(NAMED_BAD_ENTRIES))
def test_bad_run_parameter_exit_2(tmp_path, capsys, args, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", *args, "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")


@pytest.mark.parametrize("name", sorted(NAMED_BAD_ENTRIES))
def test_bad_horizon_or_integer_entry_is_named_before_a_step(tmp_path, capsys,
                                                             name):
    args, cfg, entry = NAMED_BAD_ENTRIES[name]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", *args, "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {entry} must")
    assert not (tmp_path / "o" / "trajectory.csv").exists()


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


def test_unrepresentable_step_count_exit_3(tmp_path, capsys):
    # a positive but tiny CFL bound asks for about 3.4e306 steps, which no
    # time grid of doubles can hold: refused before anything is marched
    problem = json.dumps({"flux": {"x": [0, 1e-5, 1], "y": [0, 1e300, 0]},
                          "data": "bump"})
    out = tmp_path / "o"
    assert main(["run", "--mode", "solve", "--problem", problem, "--measure",
                 "single_atom", "--dx", "0.03125", "--Z", "0.5",
                 "--auto-cfl", "--out", str(out)]) == 3
    assert not (out / "trajectory.csv").exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("runtime error: ")
    assert "cannot represent" in err[0]


@pytest.mark.parametrize("end", [math.inf, math.nan, 1e308])
def test_a_domain_without_a_finite_cell_count_exit_3(tmp_path, capsys, end):
    # (b - a) / dx is not finite: a degenerate grid, refused in one line
    problem = json.dumps({"flux": "burgers", "diffusion": "identity",
                          "data": "bump", "domain": [0.0, end]})
    assert main(["run", "--mode", "solve", "--problem", problem, "--measure",
                 "none", "--dx", "0.03125", "--Z", "0.5",
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("runtime error: ")
    assert "finite number of cells" in err[0]


SOLVE_ATOM = ["run", "--mode", "solve", "--measure", "single_atom"]


@pytest.mark.parametrize("argv", [
    SOLVE_ATOM + ["--problem", json.dumps({
        "flux": "burgers", "diffusion": "identity", "data": "bump",
        "domain": [0.0, 1e300]}), "--dx", "0.03125", "--Z", "0.5"],
    SOLVE_ATOM + ["--dx", "0.03125", "--Z", "inf"],
    SOLVE_ATOM + ["--dx", "0.03125", "--Z", "1e300"],
    SOLVE_ATOM + ["--dx", "1e-300", "--Z", "0.5"],
    ["stencil", "--measure", "single_atom", "--dx", "0.03125", "--r",
     "0.0625", "--Z", "inf"]])
def test_a_cell_count_of_2_52_or_more_exit_3(tmp_path, capsys, argv):
    # half-integer offsets j + 1/2 are exact doubles only below 2**52: the
    # grid (n) and the stencil (K = round(Z / dx)) refuse more cells
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 3
    assert not out.is_file() and not (out / "trajectory.csv").exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("runtime error: ")
    assert "2**52" in err[0]


def test_runtime_error_exit_3(tmp_path):
    # explicit dt above the monotonicity bound with enforcement on
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mode": "solve", "problem": "burgers_riemann", "measure": "none",
        "dx": 1 / 32, "Z": 0.125, "dt": 0.5, "auto_cfl": False}))
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 3


# far above the CFL bound, not enforced: the march overflows at t = 7.1
NONFINITE = {"mode": "solve", "problem": "burgers_bump",
             "measure": "single_atom", "dx": 1.0 / 32, "Z": 0.5, "dt": 0.9,
             "enforce_cfl": False, "T": 40.0, "store_every": 7,
             "contraction": False}


def test_a_march_refused_as_nonfinite_prints_one_line(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(NONFINITE))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", "--config", str(path),
                     "--out", str(tmp_path / "o")])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "runtime error: nonfinite state at t=7.111111111111111"]
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


SMALL_SOLVE = ["run", "--mode", "solve", "--problem", "burgers_riemann",
               "--measure", "none", "--dx", "0.03125", "--Z", "0.125",
               "--auto-cfl", "--out"]
# (arguments, the path that cannot be written, made a file or a directory)
UNWRITABLE = {
    "run_out_is_a_file": (SMALL_SOLVE, "o", "o"),
    "trajectory_csv_is_a_directory": (SMALL_SOLVE, "o",
                                      "o/trajectory.csv/"),
    "suite_out_is_a_file": (["suite", "apriori", "--out"], "o", "o"),
    "scan_out_is_a_directory": (["scan", "--measure", "dyadic_a", "--num",
                                 "5", "--out"], "scan.csv", "scan.csv/"),
    "stencil_out_is_a_directory": (["stencil", "--measure", "single_atom",
                                    "--dx", "0.1", "--r", "0.1", "--Z", "1",
                                    "--out"], "st.csv", "st.csv/"),
}


@pytest.mark.parametrize("name", sorted(UNWRITABLE))
def test_an_artifact_that_cannot_be_written_exits_3(tmp_path, capsys, name):
    # a failed write is a runtime error, not a failed check: exit 3 and one
    # line naming the path, with no traceback
    args, out, blocked = UNWRITABLE[name]
    if blocked.endswith("/"):
        os.makedirs(tmp_path / blocked)
    else:
        (tmp_path / blocked).write_text("")
    assert main(args + [str(tmp_path / out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("runtime error: ")
    assert str(tmp_path / blocked.rstrip("/")) in err[0]


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


def test_scan_of_a_stable_symbol_near_alpha_2(tmp_path):
    # the oscillatory quadrature missed its error target here (exit 3 at
    # xi = 2.5); the closed form matches the series oracle
    from test_multiplier import stable_band_symbol
    out = tmp_path / "scan.csv"
    assert main(["scan", "--measure", '{"kind":"fractional","alpha":1.9}',
                 "--xi-max", "10", "--num", "5", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [float(r["xi"]) for r in rows] == [0.0, 2.5, 5.0, 7.5, 10.0]
    for r in rows:
        exact = stable_band_symbol(float(r["xi"]), 1.9, 0.0, float("inf"))
        assert float(r["m"]) == pytest.approx(exact, rel=1e-12, abs=0.0)


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


@pytest.mark.parametrize("flag", [["--num", "-1"], ["--xi-max", "inf"],
                                  ["--xi-max=-inf"], ["--xi-max", "nan"]],
                         ids=["num_-1", "xi_max_inf", "xi_max_-inf",
                              "xi_max_nan"])
def test_scan_flag_out_of_range_is_a_config_error(tmp_path, capsys, flag):
    # a negative count or a frequency bound that is not finite exits 2 with
    # one line, writes no CSV, and no `nan` row
    out = tmp_path / "scan.csv"
    assert main(["scan", "--measure", "dyadic_a", *flag,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
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
    c = SchemeConfig(dx=0.0625, r=0.0625, Z=0.25)
    traj = solve(make_problem("burgers", "zero", "riemann", T=0.35),
                 build_stencil(zero_measure(), c.dx, c.r, c.Z), c)
    n_times = 8                              # n_steps = 7, every = 3
    values = [1e-05, 1 / 3, 5e-324, 1e16, -0.0, 1.0, -2.5, 0.1]
    cells = np.zeros((n_times, traj.grid.n))
    for n in range(n_times):
        cells[n, :8] = np.roll(values, n)    # changes in every written row
    # written rows 0, 3 and 6 of each column below; the skipped rows are
    # equal to the row before a written one wherever they can be, so only
    # a change measured against the last written row shows
    cells[:, 8] = 1 / 3                                        # kept
    cells[:, 9] = [0.0, 0.0, -0.0, -0.0, -0.0, 0.0, 0.0, 0.0]  # sign flips
    cells[:, 10] = [0.1, 0.7, 0.7, 0.7, 0.1, 0.1, 0.1, 0.1]    # comes back
    cells[:, 11] = [1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0]    # changed
    cells[:, 12] = [5.0, 7.0, 7.0, 5.0, 7.0, 7.0, 5.0, 7.0]    # kept
    states = np.zeros((n_times, traj.grid.n_full))
    states[:, traj.grid.interior] = cells
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
    assert [ln.split(",")[2] for ln in want[10::traj.grid.n]] == [
        "0.0\n", "-0.0\n", "0.0\n"]


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


def test_energy_observes_a_thinned_base_run(tmp_path, monkeypatch):
    # without moduli the base run keeps its cadence: the energy balance
    # observes the march and equals the report over the run stored whole
    from levyfv import analysis, cli
    from levyfv.measures import measure_from_config
    from levyfv.problem import problem_from_config
    calls = []

    def spy(spec, stencil, config, **kwargs):
        calls.append((config.store_every, kwargs.get("observers", ())))
        return solve(spec, stencil, config, **kwargs)

    monkeypatch.setattr(cli, "solve", spy)
    cfg = {"mode": "solve", "problem": "burgers_bump", "dx": 1 / 64,
           "Z": 0.25, "store_every": 7, "energy": True,
           "measure": TRUNCATED_FRACTIONAL, "tail_mode": "drop"}
    code, out = run_config(tmp_path, "run", cfg)
    assert code == 0
    # the companion run passes no observers; the base run passes its checks
    assert [every for every, observers in calls if observers] == [7]
    assert isinstance(calls[-1][1][-1], analysis.EnergyBalance)
    c = SchemeConfig(dx=cfg["dx"], r=cfg["dx"], Z=cfg["Z"], tail_mode="drop")
    st = build_stencil(measure_from_config(cfg["measure"]), c.dx, c.r, c.Z)
    want = analysis.energy_report(solve(problem_from_config(cfg["problem"]),
                                        st, c))
    got = json.loads((out / "report.json").read_text())["checks"]["energy"]
    assert got.pop("pass") is True
    assert got == json.loads(json.dumps(want))


# a run whose energy report has nonzero transport and operator parts; 7 does
# not divide its 41 steps
ENERGY_RHS_RUN = {"mode": "solve", "problem": {
    "flux": "burgers", "diffusion": "identity", "data": "riemann", "T": 0.2},
    "measure": {"kind": "fractional", "alpha": 1.0, "lo": 0.03125},
    "dx": 1 / 64, "Z": 0.5, "energy": True}


@pytest.mark.parametrize("every", [1, 7])
def test_energy_rhs_parts_equal_the_report_on_the_run_stored_whole(tmp_path,
                                                                   every):
    from levyfv import analysis
    from levyfv.measures import measure_from_config
    from levyfv.problem import problem_from_config
    cfg = {**ENERGY_RHS_RUN, "store_every": every}
    code, out = run_config(tmp_path, "run", cfg)
    assert code == 0
    got = json.loads((out / "report.json").read_text())["checks"]["energy"]
    assert got.pop("pass") is True
    assert got["parts"]["operator"] != 0.0
    assert got["parts"]["transport"] != 0.0
    c = SchemeConfig(dx=cfg["dx"], r=cfg["dx"], Z=cfg["Z"])
    st = build_stencil(measure_from_config(cfg["measure"]), c.dx, c.r, c.Z)
    full = solve(problem_from_config(cfg["problem"]), st, c)
    assert full.stats["n_steps"] == 41
    assert got == json.loads(json.dumps(analysis.energy_report(full)))


def test_moduli_observe_a_thinned_base_run(tmp_path, monkeypatch):
    # with moduli the base run keeps its cadence: gamma is observed during
    # the march, and both CSVs equal those written from the run stored whole
    from levyfv import analysis, cli
    from levyfv.measures import single_atom
    from levyfv.problem import problem_from_config, sample_rows
    calls = []

    def spy(spec, stencil, config, **kwargs):
        calls.append((config.store_every, kwargs.get("observers", ())))
        return solve(spec, stencil, config, **kwargs)

    monkeypatch.setattr(cli, "solve", spy)
    cfg = {"mode": "solve", "problem": "burgers_bump",
           "measure": "single_atom", "dx": 1 / 64, "Z": 0.5,
           "store_every": 7, "moduli": True}
    code, out = run_config(tmp_path, "run", cfg)
    assert code == 0
    # the companion run passes no observers; the base run passes its checks
    assert [every for every, observers in calls if observers] == [7]
    c = SchemeConfig(dx=cfg["dx"], r=cfg["dx"], Z=cfg["Z"])
    full = solve(problem_from_config(cfg["problem"]),
                 build_stencil(single_atom(), c.dx, c.r, c.Z), c)
    assert full.stats["n_steps"] % 7
    b, ext = full.spec.diffusion.b, full.spec.exterior
    gamma = b(full.interior()) - b(sample_rows(ext.value, full.times[:1],
                                               full.grid.x_interior()))
    cli.write_moduli_csv(tmp_path / "moduli.csv", analysis.translation_moduli(
        gamma, full.dt, c.dx, [1, 2, 4, 8], [1, 2, 4, 8]))
    write_trajectory_csv(tmp_path / "trajectory.csv", full, every=7)
    for name in ("moduli.csv", "trajectory.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


@pytest.mark.parametrize("mode", ["vanishing", "stability"])
def test_chain_modes_refuse_a_measure(tmp_path, capsys, mode):
    # the chain is built from alpha, so a measure would be dropped unread
    code = main(["run", "--mode", mode, "--problem", "burgers_bump",
                 "--measure", "single_atom", "--dx", "0.03125", "--Z", "0.5",
                 "--T", "0.1", "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "takes no measure" in err[0]
    assert not (tmp_path / "o" / "report.json").exists()


def test_solve_mode_holds_one_full_trajectory(tmp_path):
    # the base run stores every 64th state and its checks observe the
    # march; only the companion is stored whole
    import tracemalloc
    from levyfv.problem import discretize, problem_from_config
    from levyfv.scheme import time_grid
    cfg = {"mode": "solve", "problem": "burgers_riemann", "measure": "none",
           "dx": 1 / 1024, "r": 1 / 1024, "Z": 1 / 64, "store_every": 64}
    c = SchemeConfig(dx=cfg["dx"], r=cfg["r"], Z=cfg["Z"])
    st = build_stencil(zero_measure(), c.dx, c.r, c.Z)
    disc = discretize(problem_from_config(cfg["problem"]), st)
    _, n_steps = time_grid(disc, [st], c)
    full_nbytes = 8 * (n_steps + 1) * disc.grid.n_full
    tracemalloc.start()
    try:
        code, _ = run_config(tmp_path, "run", cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1.3 * full_nbytes
