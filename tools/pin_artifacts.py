"""Write the CLI's artifacts for a fixed matrix of runs, so that two trees
can be compared byte for byte.

    python tools/pin_artifacts.py OUT_DIR [--root TREE]

Every run calls `python -m levyfv.cli` on TREE/src (default: the checkout
that holds this script) in its own directory under OUT_DIR, and records its
exit code and console output next to the files it wrote.  The two lines of
each report's `timestamp` (`written_at`, `wall_time_s`) are stripped.  In
the console output TREE is written `<root>`; the rest of it is kept as
printed.  The acceptance criteria's `CRITERION` lines are kept with their
runtimes masked.  Behaviour is pinned when

    diff -r OUT_PARENT OUT_CHANGE

prints nothing.  The matrix takes a few minutes on one core.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

PRESETS = ("burgers_riemann", "burgers_rarefaction", "burgers_bump",
           "linear_bump", "stefan_mixed")
TRUNCATED_FRACTIONAL = {"kind": "fractional", "alpha": 1.0, "lo": 0.0625}
SUM_OF_SCALED = {"kind": "sum", "hi": 0.75, "parts": [
    {"kind": "scaled", "factor": 0.5, "inner": TRUNCATED_FRACTIONAL},
    {"kind": "scaled", "factor": 2.0,
     "inner": {"kind": "atoms", "entries": [[0.25, 0.125], [0.5, 0.25]]}}]}
SOLVE_MEASURES = {
    "none": ("none", []),
    "atom": ("single_atom", ["--energy", "--moduli"]),
    "frac": (TRUNCATED_FRACTIONAL, ["--energy"]),
    "sum": (SUM_OF_SCALED, []),
}
SCAN_MEASURES = {
    "dyadic_a": "dyadic_a",
    "dyadic_b": "dyadic_b",
    "fractional": TRUNCATED_FRACTIONAL,
    "windowed_atoms": {"kind": "atoms", "lo": 0.2, "hi": 0.6,
                       "entries": [[0.1, 0.5], [0.25, 0.25], [0.6, 0.125]]},
    "scaled_dyadic": {"kind": "scaled", "factor": 0.25,
                      "inner": {"kind": "dyadic_b", "lo": 0.03125}},
    "sum": SUM_OF_SCALED,
}
# the stencil runs above reach continuous cells only through alpha = 1 leaves;
# they are scanned too, which pins the symbol at alpha != 1 and near 2
STENCIL_MEASURES = {
    "frac07_window": {"kind": "fractional", "alpha": 0.7, "lo": 0.0625,
                      "hi": 0.75},
    "frac15_hi": {"kind": "fractional", "alpha": 1.5, "hi": 1.25},
    "scaled_frac19": {"kind": "scaled", "factor": 0.5,
                      "inner": {"kind": "fractional", "alpha": 1.9}},
}
LOCAL_SHOCK = {"mode": "solve", "problem": "burgers_riemann",
               "measure": "none", "dx": 1.0 / 4096, "r": 1.0 / 4096,
               "Z": 1.0 / 256, "store_every": 64}
STORE_EVERY_7 = {"mode": "solve", "problem": "burgers_bump",
                 "measure": "single_atom", "dx": 1.0 / 64, "Z": 0.5,
                 "store_every": 7}
# Z below the measure's reach leaves a tail (tau > 0) for "drop" to omit
TAIL_DROP = {"mode": "solve", "problem": "burgers_bump",
             "measure": TRUNCATED_FRACTIONAL, "dx": 1.0 / 64, "Z": 0.25,
             "tail_mode": "drop"}
# the energy observer on a thinned base run: it reads the drop rule from the
# run's config while the march stores every 7th state
TAIL_DROP_ENERGY_STORE_EVERY_7 = {**TAIL_DROP, "energy": True,
                                  "store_every": 7}
# thinned storage: a tail under "exterior_mean", and the moduli branch,
# whose gamma observer reads every step of the march
TAIL_STORE_EVERY_7 = {"mode": "solve", "problem": "burgers_bump",
                      "measure": TRUNCATED_FRACTIONAL, "dx": 1.0 / 64,
                      "Z": 0.25, "store_every": 7}
ENERGY_STORE_EVERY_5 = {"mode": "solve", "problem": "burgers_bump",
                        "measure": "single_atom", "dx": 1.0 / 64, "Z": 0.5,
                        "store_every": 5, "energy": True, "moduli": True}
PICARD_STORE_EVERY_3 = {"mode": "picard", "problem": "burgers_bump",
                        "measure": "single_atom", "dx": 1.0 / 32, "Z": 0.5,
                        "store_every": 3}
STABILITY_STORE_EVERY_3 = {"mode": "stability", "problem": "burgers_bump",
                           "dx": 1.0 / 32, "Z": 1.0, "store_every": 3}
# marches of several `row_blocks` blocks, which carry the halo from one block
# to the next
MULTI_BLOCK_NONE = {"mode": "solve", "problem": "burgers_riemann",
                    "measure": "none", "dx": 1.0 / 1024, "Z": 1.0 / 64,
                    "store_every": 16}
MULTI_BLOCK_ATOM = {"mode": "solve", "problem": "burgers_bump",
                    "measure": "single_atom", "dx": 1.0 / 256, "Z": 0.5,
                    "store_every": 16}
# the moduli of a thinned base run whose march spans several row blocks, so
# the gamma observer writes its rows across block boundaries
MULTI_BLOCK_MODULI = {**MULTI_BLOCK_ATOM, "moduli": True}
# an energy report whose base run spans several row blocks, so the energy
# form's running sum crosses block boundaries
MULTI_BLOCK_ENERGY = {"mode": "solve", "problem": "burgers_bump",
                      "measure": TRUNCATED_FRACTIONAL, "dx": 1.0 / 256,
                      "Z": 0.5, "store_every": 16, "energy": True}
# an energy report with nonzero transport and operator parts, on a full and
# on a thinned base run (7 does not divide its 41 steps)
ENERGY_RHS = {"mode": "solve", "problem": {
    "flux": "burgers", "diffusion": "identity", "data": "riemann", "T": 0.2},
    "measure": {"kind": "fractional", "alpha": 1.0, "lo": 0.03125},
    "dx": 1.0 / 64, "Z": 0.5, "energy": True}
ENERGY_RHS_STORE_EVERY_7 = {**ENERGY_RHS, "store_every": 7}
# a stencil wide enough for the kernel's FFT path (512 valid values x 1025
# kernel values >= stencil.FFT_WORK), in the march and in the energy form
WIDE_FFT = {"mode": "solve", "problem": "burgers_bump",
            "measure": {"kind": "fractional", "alpha": 1.0, "lo": 0.03125},
            "dx": 1.0 / 512, "Z": 1.0, "energy": True}
# a step far above the CFL bound overflows mid-run: exit 3 names its time
NONFINITE = {"mode": "solve", "problem": "burgers_bump",
             "measure": "single_atom", "dx": 1.0 / 32, "Z": 0.5, "dt": 0.9,
             "enforce_cfl": False, "T": 40.0, "store_every": 7,
             "contraction": False}

# tabulated flux and diffusion given inline (`problem_from_config`'s mapping
# branch and `PiecewiseLinear`); the solve flux has f(0) != 0
TABLE_SOLVE = {"mode": "solve", "problem": {
    "flux": {"x": [-1, 0, 0.5, 2], "y": [0.3, 0.1, 0.6, 0.2]},
    "diffusion": {"x": [-1, 0.2, 0.6, 2], "y": [0.5, 0.5, 1.0, 1.3]},
    "data": "bump", "domain": [0.0, 2.0], "T": 0.2},
    "measure": "single_atom", "dx": 1.0 / 32, "Z": 0.5, "energy": True,
    "moduli": True}
TABLE_PICARD = {"mode": "picard", "problem": {
    "flux": {"x": [-1, 0, 2], "y": [0.2, 0.0, 1.0]},
    "diffusion": {"x": [0, 1], "y": [0, 1]}, "data": "riemann_up", "T": 0.2},
    "measure": {"kind": "atoms", "entries": [[0.25, 0.25]]},
    "dx": 1.0 / 32, "Z": 0.5}

# Picard with continuous cells below Z and a tail above it, under both tail
# rules; with lo = 1/4 (mass 7) the iterate leaves the range its CFL bound
# was taken on, which exits 3
PICARD_TAIL = {"mode": "picard", "problem": "burgers_bump", "measure": {
    "kind": "fractional", "alpha": 1.0, "coeff": 0.05, "lo": 0.0625,
    "hi": 2.0}, "dx": 1.0 / 32, "Z": 0.25}
PICARD_TAIL_DROP = {**PICARD_TAIL, "tail_mode": "drop"}
PICARD_CFL = {"mode": "picard", "problem": "burgers_bump", "measure": {
    "kind": "fractional", "alpha": 1.0, "lo": 0.25, "hi": 2.0},
    "dx": 1.0 / 32, "Z": 0.25}

# a bool or text is not a number and a run flag is a JSON boolean: each
# exits 2
BOOL_ALPHA = {"mode": "vanishing", "problem": "burgers_bump", "dx": 1.0 / 32,
              "Z": 0.5, "alpha": True}
BOOL_T_PROBLEM = {"flux": "burgers", "diffusion": "identity", "data": "bump",
                  "T": True}
TEXT_ENERGY = {"mode": "solve", "problem": "burgers_bump",
               "measure": "single_atom", "dx": 1.0 / 32, "Z": 0.5,
               "energy": "no"}
TEXT_DX = {"mode": "solve", "problem": "burgers_bump",
           "measure": "single_atom", "dx": "0.03125", "Z": 0.5}


def matrix():
    """(run name, CLI arguments, config written to cfg.json or None)."""
    runs = [(f"suite_{name}", ["suite", name], None)
            for name in ("appendix", "apriori", "chains")]
    runs.append(("gallery", ["run", "--mode", "gallery", "--dx", "0.01"],
                 None))
    for problem in PRESETS:
        for label, (measure, flags) in SOLVE_MEASURES.items():
            runs.append((f"solve_{problem}_{label}",
                         ["run", "--mode", "solve", "--problem", problem,
                          "--measure", json.dumps(measure)
                          if isinstance(measure, dict) else measure,
                          "--dx", "0.015625", "--Z", "0.5", "--auto-cfl"]
                         + flags, None))
    runs += [
        ("picard_bump", ["run", "--mode", "picard", "--problem",
                         "burgers_bump", "--measure", "single_atom", "--dx",
                         "0.03125", "--Z", "0.5", "--auto-cfl"], None),
        ("picard_stefan", ["run", "--mode", "picard", "--problem",
                           "stefan_mixed", "--measure",
                           json.dumps({"kind": "atoms",
                                       "entries": [[0.25, 0.25]]}),
                           "--dx", "0.03125", "--Z", "0.5"], None),
        ("vanishing_bump", ["run", "--mode", "vanishing", "--problem",
                            "burgers_bump", "--dx", "0.03125", "--Z", "0.5",
                            "--auto-cfl"], None),
        ("vanishing_rarefaction", ["run", "--mode", "vanishing", "--problem",
                                   "burgers_rarefaction", "--dx", "0.03125",
                                   "--Z", "0.5", "--auto-cfl"], None),
        ("stability_bump", ["run", "--mode", "stability", "--problem",
                            "burgers_bump", "--dx", "0.03125", "--Z", "1.0",
                            "--auto-cfl"], None),
        ("local_shock", ["run"], LOCAL_SHOCK),
        ("store_every_7", ["run"], STORE_EVERY_7),
        ("tail_drop", ["run"], TAIL_DROP),
        ("tail_store_every_7", ["run"], TAIL_STORE_EVERY_7),
        ("tail_drop_energy_store_every_7", ["run"],
         TAIL_DROP_ENERGY_STORE_EVERY_7),
        ("energy_store_every_5", ["run"], ENERGY_STORE_EVERY_5),
        ("picard_store_every_3", ["run"], PICARD_STORE_EVERY_3),
        ("stability_store_every_3", ["run"], STABILITY_STORE_EVERY_3),
        ("multi_block_none", ["run", "--auto-cfl"], MULTI_BLOCK_NONE),
        ("multi_block_atom", ["run", "--auto-cfl"], MULTI_BLOCK_ATOM),
        ("multi_block_moduli", ["run", "--auto-cfl"], MULTI_BLOCK_MODULI),
        ("multi_block_energy", ["run", "--auto-cfl"], MULTI_BLOCK_ENERGY),
        ("energy_rhs", ["run"], ENERGY_RHS),
        ("energy_rhs_store_every_7", ["run"], ENERGY_RHS_STORE_EVERY_7),
        ("wide_fft", ["run"], WIDE_FFT),
        ("nonfinite", ["run"], NONFINITE),
        ("table_solve", ["run"], TABLE_SOLVE),
        ("table_picard", ["run"], TABLE_PICARD),
        ("flux_lf", ["run", "--mode", "solve", "--problem", "stefan_mixed",
                     "--measure", "single_atom", "--dx", "0.03125", "--Z",
                     "0.5", "--auto-cfl", "--flux", "lf"], None),
        ("fixed_dt", ["run", "--mode", "solve", "--problem", "burgers_bump",
                      "--measure", "single_atom", "--dx", "0.03125", "--Z",
                      "0.5", "--dt", "0.001"], None),
        ("refuse_bool_alpha", ["run"], BOOL_ALPHA),
        ("refuse_bool_problem_T", ["run", "--mode", "solve", "--problem",
                                   json.dumps(BOOL_T_PROBLEM), "--measure",
                                   "none", "--dx", "0.03125", "--Z", "0.5"],
         None),
        ("refuse_text_energy", ["run"], TEXT_ENERGY),
        ("picard_tail", ["run"], PICARD_TAIL),
        ("picard_tail_drop", ["run"], PICARD_TAIL_DROP),
        ("picard_cfl", ["run"], PICARD_CFL),
        ("refuse_text_dx", ["run"], TEXT_DX),
    ]
    for label, measure in {**SCAN_MEASURES, **STENCIL_MEASURES}.items():
        ref = json.dumps(measure) if isinstance(measure, dict) else measure
        runs.append((f"scan_{label}", ["scan", "--measure", ref,
                                       "--xi-max", "60", "--num", "241",
                                       "--out", "scan.csv"], None))
        runs.append((f"stencil_{label}", ["stencil", "--measure", ref,
                                          "--dx", "0.03125", "--r", "0.0625",
                                          "--Z", "1", "--out", "st.csv"],
                     None))
    return runs


STAMP = re.compile(r'^\s*"(written_at|wall_time_s)": ')


def strip_timestamps(path):
    with open(path) as fh:
        lines = [ln for ln in fh if not STAMP.match(ln)]
    with open(path, "w") as fh:
        fh.writelines(lines)


def env_for(root):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_matrix(root, out):
    env = env_for(root)
    for name, args, cfg in matrix():
        where = os.path.join(out, name)
        os.makedirs(where, exist_ok=True)
        if cfg is not None:
            with open(os.path.join(where, "cfg.json"), "w") as fh:
                json.dump(cfg, fh)
            args = args + ["--config", "cfg.json"]
        if args[0] in ("run", "suite"):
            args = args + ["--out", "."]
        proc = subprocess.run([sys.executable, "-m", "levyfv.cli", *args],
                              cwd=where, env=env, capture_output=True,
                              text=True)
        console = f"exit {proc.returncode}\n{proc.stdout}{proc.stderr}"
        with open(os.path.join(where, "console.txt"), "w") as fh:
            fh.write(console.replace(root, "<root>"))
        for fname in os.listdir(where):
            if fname.endswith(".json") and fname != "cfg.json":
                strip_timestamps(os.path.join(where, fname))
        print(f"{name}: exit {proc.returncode}", flush=True)


def criterion_lines(root, out):
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-s", "-p",
                           "no:cacheprovider", "tests/test_acceptance.py"],
                          cwd=root, env=env_for(root), capture_output=True,
                          text=True)
    lines = [re.sub(r"\(\d+\.\d+s / budget", "(#s / budget", m.group(0))
             for m in re.finditer(r"CRITERION .*", proc.stdout)]
    with open(os.path.join(out, "criteria.txt"), "w") as fh:
        fh.write("".join(ln + "\n" for ln in lines))
    print(f"acceptance: {len(lines)} CRITERION lines, exit {proc.returncode}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out")
    p.add_argument("--root", default=os.path.dirname(HERE))
    args = p.parse_args(argv)
    root = os.path.abspath(args.root)
    out = os.path.abspath(args.out)
    os.makedirs(out, exist_ok=True)
    run_matrix(root, out)
    criterion_lines(root, out)


if __name__ == "__main__":
    main()
