"""Span tracer that measures each layer of levyfv from outside the package.

`Tracer.install()` wraps every function named in `TARGETS` in each module of
the package that holds a reference to it.  `scheme`, `analysis` and `cli`
import `apply_stencil`, `solve` and friends by name, so wrapping only the
defining module would miss their calls; methods are wrapped on their class.

Each call records a span (name, start, end, parent); spans stay in memory
and are written out once, at the end of the run.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time

import numpy as np


def _apply_counts(result, values, s, n_halo, *args, **kwargs):
    # flops and bytes of the direct per-offset algorithm, computed from the
    # array shape and the nonzero offsets, not measured
    values = np.asarray(values)
    rows = values.size // values.shape[-1]
    n_int = values.shape[-1] - 2 * n_halo
    nnz = int(np.count_nonzero(s.weights))
    tail = s.tau != 0.0
    return {"rows": rows,
            # per nonzero offset: two differences, a sum, a scale, an add;
            # the tail term adds a difference, a scale and an add
            "flop_computed": rows * n_int * (5 * nnz + 3 * tail),
            # per nonzero offset two shifted reads; center read and result
            # write once
            "bytes_computed": 8 * rows * n_int * (2 * nnz + 2)}


def _solve_counts(result, *args, **kwargs):
    steps = int(result.stats["n_steps"])
    return {"steps": steps,
            "states_mb_computed": result.states.nbytes / 1e6,
            "cell_updates": steps * result.grid.n}


def _picard_counts(result, *args, **kwargs):
    return {"iterations": int(result.iterations)}


def _entropy_counts(result, *args, **kwargs):
    return {"rows": len(result.rows), "skipped": int(result.skipped)}


def _m_many_counts(result, ev, xis, *args, **kwargs):
    return {"xis": int(np.size(xis))}


def _csv_counts(result, path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


# (module, attribute or Class.method, counter, reported quantities); the
# span is named "<module>.<function>"
TARGETS = [
    ("measures", "weighted_tv_distance", None, ("s",)),
    ("multiplier", "MultiplierEval.m", None, ("calls", "s", "failed")),
    ("multiplier", "MultiplierEval.m_many", _m_many_counts,
     ("calls", "s", "xis")),
    ("stencil", "apply_stencil", _apply_counts,
     ("calls", "s", "rows", "flop_computed", "bytes_computed")),
    ("stencil", "build_stencil", None, ("calls", "s")),
    ("stencil", "bilinear_energy", None, ("s",)),
    ("problem", "DiscreteProblem.refresh_halo", None, ("calls", "s")),
    ("problem", "discretize", None, ("calls", "s")),
    ("scheme", "solve", _solve_counts,
     ("calls", "s", "self_s", "steps", "states_mb_computed")),
    ("scheme", "step", None, ("calls", "self_s")),
    ("scheme", "picard_solve", _picard_counts, ("s", "iterations")),
    ("scheme", "vanishing_viscosity_run", None, ("s",)),
    ("scheme", "stability_run", None, ("s",)),
    ("analysis", "mass_budget_check", None, ("s",)),
    ("analysis", "energy_report", None, ("s", "self_s")),
    ("analysis", "l1_contraction_check", None, ("s",)),
    ("analysis", "order_preservation_check", None, ("s",)),
    ("analysis", "max_principle_check", None, ("s",)),
    ("analysis", "entropy_residual", _entropy_counts,
     ("s", "self_s", "rows", "skipped", "useful_ratio")),
    ("analysis", "admissible_pair", None, ("calls", "s")),
    ("analysis", "mean_bound_suite", None, ("s",)),
    ("analysis", "mollification_bound_suite", None, ("s",)),
    ("analysis", "counterexample_gallery", None, ("s",)),
    ("cli", "cmd_run", None, ("s",)),
    ("cli", "write_trajectory_csv", _csv_counts, ("s", "bytes")),
    ("cli", "write_report", None, ("s",)),
    ("cli", "cmd_suite", None, ("s",)),
]

UNITS = {"calls": "count", "s": "s", "self_s": "s", "failed": "count",
         "xis": "count", "rows": "count", "flop_computed": "flop",
         "bytes_computed": "B", "steps": "count", "states_mb_computed": "MB",
         "iterations": "count", "skipped": "count", "useful_ratio": "ratio",
         "bytes": "B"}


def span_name(module, attr):
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self):
        self.names = []           # span name per name index
        self.spans = []           # [name index, start, end, parent, case]
        self.counts = []          # per case: {(span name, quantity): value}
        self.failed = []          # per case: {span name: calls that raised}
        self._stack = []
        self._case = -1

    # -- patching -----------------------------------------------------------
    def install(self, package="levyfv"):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package
                                         or name.startswith(package + "."))]
        for module, attr, counter, _ in TARGETS:
            name = span_name(module, attr)
            owner = sys.modules[f"{package}.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth),
                                              counter))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, counter)
            for m in modules:
                if m.__dict__.get(attr) is original:
                    setattr(m, attr, wrapped)

    def _wrap(self, name, fn, counter):
        idx = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [idx, clock(), 0.0, stack[-1] if stack else -1, self._case]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = clock()
                stack.pop()
                fails = self.failed[self._case]
                fails[name] = fails.get(name, 0) + 1
                raise
            span[2] = clock()
            stack.pop()
            if counter is not None:
                acc = self.counts[self._case]
                for key, val in counter(result, *args, **kwargs).items():
                    acc[(name, key)] = acc.get((name, key), 0) + val
            return result

        return traced

    # -- cases --------------------------------------------------------------
    def run_case(self, fn, *args):
        """Run one case under a root span; the case id tags every span."""
        self._case += 1
        self.counts.append({})
        self.failed.append({})
        if "case" not in self.names:
            self.names.append("case")
        sid = len(self.spans)
        span = [self.names.index("case"), time.perf_counter(), 0.0, -1,
                self._case]
        self.spans.append(span)
        self._stack.append(sid)
        try:
            return fn(*args)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    # -- results ------------------------------------------------------------
    def per_case(self):
        """One dict per case: {(span name, quantity): value}."""
        child = [0.0] * len(self.spans)
        for idx, start, end, parent, case in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = [dict(c) for c in self.counts]
        for sid, (idx, start, end, parent, case) in enumerate(self.spans):
            if case < 0:
                continue
            acc = out[case]
            name = self.names[idx]
            dur = end - start
            acc[(name, "calls")] = acc.get((name, "calls"), 0) + 1
            acc[(name, "s")] = acc.get((name, "s"), 0.0) + dur
            acc[(name, "self_s")] = (acc.get((name, "self_s"), 0.0)
                                     + dur - child[sid])
        for acc, fails in zip(out, self.failed):
            for name, n in fails.items():
                acc[(name, "failed")] = n
            rows = acc.get(("analysis.entropy_residual", "rows"), 0)
            skipped = acc.get(("analysis.entropy_residual", "skipped"), 0)
            acc[("analysis.entropy_residual", "useful_ratio")] = (
                rows / (rows + skipped) if rows + skipped else 0.0)
        return out

    def layer_metrics(self):
        """Median over cases of every reported per-layer quantity."""
        cases = self.per_case()
        metrics = {}
        for module, attr, _, quantities in TARGETS:
            name = span_name(module, attr)
            for q in quantities:
                vals = [c.get((name, q), 0) for c in cases]
                metrics[f"{name}.{q}"] = {"value": statistics.median(vals),
                                          "unit": UNITS[q]}
        return metrics

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,case\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for sid, (idx, start, end, parent, case) in enumerate(self.spans):
                fh.write(f"{sid},{self.names[idx]},{start - t0:.9f},"
                         f"{end - t0:.9f},{parent},{case}\n")
