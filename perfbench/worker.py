"""One benchmark process: set-up timing, the timed closed loop, the checks.

`run.py` starts this script in a fresh interpreter with the checkout's `src`
on PYTHONPATH and a single-threaded environment; it prints one JSON object
as its last line of standard output.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")


def tail_percentile(times):
    """(value, percentile, samples beyond it) for the highest percentile
    that leaves at least ten samples beyond it: the 11th-largest time, at
    percentile 100 (n - 10) / n.  Below twenty cases that rank falls under
    the median, so the maximum is reported instead, with none beyond it."""
    s = sorted(times)
    n = len(s)
    if n >= 20:
        return s[n - 11], 100.0 * (n - 10) / n, 10
    return s[-1], 100.0, 0


def closed_loop(budget_s, one_case):
    """Run cases back to back; start another only while it is expected to
    end within the budget (at least one case always runs).  `one_case`
    returns (wall time, scaled time); so does this, as two lists."""
    start = time.perf_counter()
    cases = []
    while True:
        cases.append(one_case())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(cases) > budget_s:
            return [c[0] for c in cases], [c[1] for c in cases]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        t0 = time.perf_counter()
        import workloads as wl          # imports levyfv, numpy, scipy
        prepare, run, check = wl.WORKLOADS[args.workload]
        inputs = prepare(args.seed, workdir)
        setup_wall_s = time.perf_counter() - t0
        import hostspeed                # after the clock: it imports numpy
        setup = {"setup_wall_s": setup_wall_s,
                 "setup_s": setup_wall_s / hostspeed.slowdown()}
        import levyfv
        if not levyfv.__file__.startswith(os.path.join(ROOT, "src")):
            print(f"levyfv imported from {levyfv.__file__}, not this "
                  f"checkout's src/", file=sys.stderr)
            return 2
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        return measure(args, wl, inputs, run, check, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, inputs, run, check, setup) -> int:
    import hostspeed
    import numpy
    import scipy
    from tracer import Tracer

    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)[args.workload]
    tally = wl.Tally()
    infos = []

    def one_case(tracer=None):
        """(wall time, scaled time) of one case; see hostspeed.py."""
        raised = False
        with hostspeed.Sampler() as host:
            start = time.perf_counter()
            try:
                out = tracer.run_case(run, inputs) if tracer else run(inputs)
            except Exception as exc:  # a failed case is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                tally.op(False, f"case raised {type(exc).__name__}: {exc}")
                raised = True
            elapsed = time.perf_counter() - start
        scaled = (elapsed - host.spent) / host.slowdown()
        if raised:
            infos.append(None)
            return elapsed, scaled
        try:
            infos.append(check(inputs, out, tally, ref))
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            tally.op(False, f"check raised {type(exc).__name__}: {exc}")
            infos.append(None)
        return elapsed, scaled

    detail = {"workload": args.workload, "seed": args.seed,
              "python": platform.python_version(),
              "numpy": numpy.__version__, "scipy": scipy.__version__,
              "nproc": os.cpu_count(),
              "affinity": len(os.sched_getaffinity(0)),
              "LEVYFV_THREADS": os.environ.get("LEVYFV_THREADS")}
    metrics = {}
    if args.trace == 0:
        wall, times = closed_loop(args.seconds, one_case)
        peak = peak_rss_mb()
        done = [(i, t) for i, t in zip(infos, times) if i]
        updates = [i["cell_updates"] for i, _ in done]
        if done and updates[0] is None:
            # the suites do not report their step counts: count them once,
            # in an untimed extra case, through the tracer's solve counter
            tracer = Tracer()
            tracer.install()
            one_case(tracer)
            counted = tracer.per_case()[0].get(("scheme.solve",
                                                "cell_updates"), 0)
            updates = [counted] * len(done)
        rates = [u / t for u, (_, t) in zip(updates, done)]
        tail, pct, beyond = tail_percentile(times)
        case_s = statistics.median(times)
        metrics = {
            "case_s": {"value": case_s, "unit": "s"},
            "case_s_tail": {"value": tail, "unit": "s"},
            "cell_updates_per_s": {
                "value": statistics.median(rates) if rates else 0.0,
                "unit": "1/s"},
            "peak_mem_mb": {"value": peak, "unit": "MB"},
        }
        detail.update({"cases": len(times), "case_times_s": times,
                       "case_wall_times_s": wall,
                       "case_s_tail_percentile": pct,
                       "case_s_tail_samples_beyond": beyond,
                       "cell_updates_per_case": updates[0] if updates else 0})
    else:
        _, untraced = closed_loop(args.seconds / 2.0, one_case)
        tracer = Tracer()
        tracer.install()
        n_before = len(infos)
        _, traced = closed_loop(args.seconds / 2.0,
                                lambda: one_case(tracer))
        for case, info in zip(tracer.per_case(), infos[n_before:]):
            steps = case.get(("scheme.step", "calls"), 0)
            solved = case.get(("scheme.solve", "steps"), 0)
            reported = info.get("solve_steps", solved) if info else None
            tally.op(steps == solved == reported,
                     f"traced step calls {steps} vs n_steps {solved}/"
                     f"{reported}")
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(traced) / statistics.median(untraced),
            "unit": "ratio"}
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.csv")
        tracer.write_spans(spans_path)
        detail.update({"untraced_case_times_s": untraced,
                       "traced_case_times_s": traced,
                       "spans": os.path.relpath(spans_path, ROOT)})
    for key in ("l1_error", "t_last", "scan_not_converged"):
        vals = [i[key] for i in infos if i and key in i]
        if vals:
            detail[key] = vals[-1]
    detail["failures"] = tally.notes
    print(json.dumps({**setup, "correct": tally.wrong == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics, "detail": detail}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
