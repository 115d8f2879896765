"""What the benchmark's tracer relies on in the package.

`perfbench/tracer.py` wraps each name in its `TARGETS` by module attribute,
and the traced run counts one `scheme.step` call per step that
`scheme.solve` reports: a renamed function, or a march that stops calling
`scheme.step` once per step, would break the traced benchmark.  These
tests state both without running it."""

import importlib
import importlib.util
import json
import os

import pytest

from levyfv import scheme
from levyfv.cli import main
from levyfv.measures import single_atom
from levyfv.problem import make_problem
from levyfv.scheme import SchemeConfig, solve
from levyfv.stencil import build_stencil

TRACER = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracer.py")


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(m, attr) for m, attr, _, _ in module.TARGETS]


@pytest.mark.parametrize("module,attr", tracer_targets())
def test_every_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"levyfv.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.fixture
def step_calls(monkeypatch):
    calls = []
    original = scheme.step

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(scheme, "step", counted)
    return calls


@pytest.mark.parametrize("every", [1, 5])
def test_a_solve_calls_step_once_per_step(step_calls, every):
    spec = make_problem("burgers", "identity", "bump", T=0.2)
    c = SchemeConfig(dx=1 / 32, r=1 / 32, Z=0.25, store_every=every)
    traj = solve(spec, build_stencil(single_atom(), c.dx, c.r, c.Z), c)
    assert len(step_calls) == traj.stats["n_steps"] > 1


def test_the_cli_solve_mode_calls_step_once_per_step_of_both_runs(
        step_calls, tmp_path):
    # the base run and its contraction companion share one time grid
    assert main(["run", "--mode", "solve", "--problem", "burgers_riemann",
                 "--measure", "none", "--dx", "0.03125", "--Z", "0.125",
                 "--auto-cfl", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert "l1_contraction" in report["checks"]
    assert len(step_calls) == 2 * report["stats"]["n_steps"] > 2
