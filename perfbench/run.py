"""levyfv benchmark: one workload per call, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each call starts fresh, single-threaded
worker processes on the checkout's `src` (nothing is installed):

* ``--trace 0``: four processes that only import the package and build the
  inputs, then one that also runs cases back to back for ``--seconds``.
  Prints the end-to-end metrics (``setup_s`` is the median over the five
  set-ups).
* ``--trace 1``: one process that runs untraced cases for half the time and
  traced cases for the other half.  Prints the per-layer metrics and
  ``trace.overhead_ratio``; the spans go to ``.perfbench/spans-NAME.csv``.

The last line of standard output is the JSON result; the line before it
holds the run's details (environment, case times, tail percentile, the
failures counted).  Exits nonzero, without a result, if the checkout has no
``src/levyfv`` or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("local_shock", "fractional_ensemble", "verify_suites")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


def worker_env():
    env = dict(os.environ)
    # the single-threaded baseline: no suite thread pool, no BLAS threads
    env.pop("LEVYFV_THREADS", None)
    # the same str hashes in every worker, so set and dict layouts repeat
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, extra, started):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    timeout = max(1.0, DEADLINE_S - (time.monotonic() - started))
    # subprocess.run kills and reaps the worker if it overruns
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), timeout=timeout,
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "levyfv", "__init__.py")):
        print(f"no src/levyfv under {ROOT}: run from a levyfv checkout",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    try:
        setups = []
        if args.trace == 0:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(args, ["--setup-only"], started))
        res = run_worker(args, [], started)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = res["metrics"]
    if args.trace == 0:
        setups.append(res)
        metrics = {"setup_s": {"value": statistics.median(
            s["setup_s"] for s in setups), "unit": "s"}, **metrics}
    detail = dict(res["detail"], commit=commit(),
                  setup_samples_s=[s["setup_s"] for s in setups],
                  setup_wall_samples_s=[s["setup_wall_s"] for s in setups],
                  mode="traced" if args.trace else "untraced")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": res["correct"],
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
