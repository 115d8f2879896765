import math

import numpy as np
import pytest

from levyfv.errors import DegenerateGrid, UnknownPreset
from levyfv.problem import (PROBLEM_PRESETS, ExteriorData, PiecewiseLinear,
                            ProblemSpec, diffusion_from_table,
                            diffusion_identity, diffusion_power,
                            diffusion_stefan, diffusion_zero, discretize,
                            exterior_constant, exterior_smoothstep,
                            flux_burgers, flux_from_table, flux_linear,
                            make_problem, problem_from_config,
                            validate_problem)


def test_preset_normalization_exact():
    for flux in (flux_linear(2.0), flux_burgers()):
        assert float(np.asarray(flux.f(0.0))) == 0.0
    for diff in (diffusion_zero(), diffusion_identity(), diffusion_power(2.0),
                 diffusion_stefan(0.3)):
        assert float(np.asarray(diff.b(0.0))) == 0.0


def test_diffusion_monotone_on_sampled_pairs():
    rng = np.random.default_rng(1)
    for diff in (diffusion_identity(), diffusion_power(2.0),
                 diffusion_power(3.0), diffusion_stefan(0.4),
                 diffusion_zero()):
        s = rng.uniform(-2.0, 2.0, size=1000)
        t = rng.uniform(-2.0, 2.0, size=1000)
        lo, hi = np.minimum(s, t), np.maximum(s, t)
        assert np.all(diff.b(lo) <= diff.b(hi) + 1e-14)


def test_lipschitz_constants_bound_difference_quotients():
    rng = np.random.default_rng(2)
    cases = [(flux_burgers(), (-0.5, 1.5)), (flux_linear(3.0), (0.0, 1.0))]
    for flux, (lo, hi) in cases:
        L = flux.lipschitz_on(lo, hi)
        a = rng.uniform(lo, hi, size=500)
        b = rng.uniform(lo, hi, size=500)
        quot = np.abs(np.asarray(flux.f(a)) - np.asarray(flux.f(b)))
        assert np.all(quot <= L * np.abs(a - b) + 1e-12)


def test_piecewise_linear_table_roundtrip():
    p = PiecewiseLinear((-1.0, 0.0, 0.5, 2.0), (-2.0, 0.0, 0.25, 1.0))
    assert p(0.25) == pytest.approx(0.125)
    assert p.lipschitz_on(-1.0, 2.0) == pytest.approx(2.0)
    # antiderivative anchored at zero, exact for the table
    assert p.antiderivative(0.0) == 0.0
    from scipy import integrate
    v, _ = integrate.quad(p, 0.0, 1.7)
    assert p.antiderivative(1.7) == pytest.approx(v, rel=1e-9)


def test_piecewise_linear_derivative_is_lower_one_sided():
    # DiffusionFn's rule for bprime: at a breakpoint the slope on its left
    p = PiecewiseLinear((-1.0, 0.2, 0.6, 2.0), (-1.0, 0.0, 0.8, 1.5))
    slopes = [1.0 / 1.2, 2.0, 0.5]
    u = np.array([-3.0, -1.0, -0.4, 0.2, 0.4, 0.6, 1.0, 2.0, 2.5])
    expected = [0.0, 0.0, slopes[0], slopes[0], slopes[1], slopes[1],
                slopes[2], slopes[2], 0.0]
    assert p.deriv(u).tolist() == pytest.approx(expected, rel=1e-15)
    # the left difference quotient, exact for a piecewise-linear map
    h = 1e-7
    assert p.deriv(u) == pytest.approx((p(u) - p(u - h)) / h, abs=1e-7)
    assert p.deriv(0.2) == slopes[0] and p.deriv(-1.0) == 0.0


def test_tables_are_shifted_to_vanish_at_zero():
    f = flux_from_table((-1.0, 1.0), (1.0, 3.0))
    b = diffusion_from_table((-1.0, 1.0), (0.0, 2.0))
    u = np.array([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0])
    assert f.f(u).tolist() == [-1.0, -1.0, 0.0, 0.5, 1.0, 1.0]
    assert b.b(u).tolist() == [-1.0, -1.0, 0.0, 0.5, 1.0, 1.0]
    assert np.array_equal(f.f_plus(u) + f.f_minus(u), f.f(u))
    assert b.bprime(u).tolist() == [0.0, 0.0, 1.0, 1.0, 1.0, 0.0]


def test_table_flux_monotone_split():
    f = flux_from_table((-1.0, 0.0, 1.0), (1.0, 0.0, 1.0))  # |u|
    u = np.linspace(-1, 1, 41)
    assert np.allclose(f.f_plus(u) + f.f_minus(u), f.f(u), atol=1e-12)
    assert np.all(np.diff(f.f_plus(u)) >= -1e-12)
    assert np.all(np.diff(f.f_minus(u)) <= 1e-12)


def test_entropy_potential_nonnegative():
    rng = np.random.default_rng(3)
    for diff in (diffusion_identity(), diffusion_power(2.0),
                 diffusion_stefan(0.2),
                 diffusion_from_table((-1.0, 0.0, 1.0), (-0.5, 0.0, 2.0))):
        u = rng.uniform(-1.0, 1.0, size=200)
        k = rng.uniform(-1.0, 1.0, size=200)
        assert np.all(diff.entropy_h(u, k) >= -1e-12)


def test_stefan_above_range_is_identically_zero_on_range():
    diff = diffusion_stefan(1.5)
    u = np.linspace(0.0, 1.0, 100)
    assert np.all(diff.b(u) == 0.0)
    assert diff.lipschitz_on(0.0, 1.0) == 0.0


# -- discretize ---------------------------------------------------------------

def test_discretize_interval_constant_data():
    spec = ProblemSpec(domain=(0.0, 1.0), flux=flux_burgers(),
                       diffusion=diffusion_zero(),
                       u0=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                       exterior=exterior_constant(0.0), T=0.5)
    disc = discretize(spec, 1.0 / 16, 0.25)
    assert disc.u0.shape == (disc.grid.n,) and np.all(disc.u0 == 1.0)
    assert disc.data_range == (0.0, 1.0)


def test_discretize_riemann_range_is_step_levels():
    spec = PROBLEM_PRESETS["burgers_riemann"]()
    disc = discretize(spec, 1.0 / 64, 0.25)
    assert disc.data_range == (0.0, 1.0)


def test_discretize_empty_interior():
    # an interval narrower than half a cell has no interior cells
    spec = make_problem("burgers", "zero", "bump", domain=(0.0, 0.1))
    with pytest.raises(DegenerateGrid):
        discretize(spec, 0.25, 0.25)


# -- exterior extension --------------------------------------------------------

def test_eval_extension_constant():
    spec = make_problem("burgers", "zero", "bump")
    assert spec.exterior.value(0.3, np.array([5.0]))[0] == 0.0


def test_eval_extension_closed_form_agrees_inside():
    ext = exterior_smoothstep(0.4, 0.6, 1.0, 0.0)
    spec = ProblemSpec(domain=(0.0, 1.0), flux=flux_burgers(),
                       diffusion=diffusion_zero(),
                       u0=lambda x: np.asarray(ext.value(0.0, x)),
                       exterior=ext, T=1.0)
    x = np.array([0.5])
    assert spec.exterior.value(0.2, x)[0] == pytest.approx(0.5)


# a time-dependent datum with its own global closed form
SINE_DECAY = ExteriorData(
    value=lambda t, x: np.sin(np.asarray(x, dtype=float)) * math.exp(-t),
    dt=lambda t, x: -np.sin(np.asarray(x, dtype=float)) * math.exp(-t),
    grad=lambda t, x: np.cos(np.asarray(x, dtype=float)) * math.exp(-t))


def test_eval_extension_time_dependent_closed_form():
    # datum given with its own global closed form: same formula inside
    ext = SINE_DECAY
    spec = ProblemSpec(domain=(0.0, 1.0), flux=flux_burgers(),
                       diffusion=diffusion_zero(),
                       u0=lambda x: np.asarray(ext.value(0.0, x)),
                       exterior=ext, T=1.0)
    validate_problem(spec)
    x = np.array([0.5])
    assert spec.exterior.value(0.7, x)[0] == pytest.approx(
        math.sin(0.5) * math.exp(-0.7))


@pytest.mark.parametrize("ext", [
    exterior_constant(0.3),
    exterior_smoothstep(-0.2, 1.2, 1.0, -0.5),   # ramps across both halos
    SINE_DECAY,
], ids=["constant", "smoothstep", "sine_decay"])
@pytest.mark.parametrize("batch", [(), (3,)], ids=["1d", "batched"])
def test_refresh_halo_equals_exterior_values_at_halo_cells(ext, batch):
    spec = ProblemSpec(domain=(0.0, 1.0), flux=flux_burgers(),
                       diffusion=diffusion_zero(),
                       u0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                       exterior=ext, T=1.0)
    disc = discretize(spec, 1.0 / 32, 0.25)
    halo = disc.grid.halo_mask()
    rng = np.random.default_rng(5)
    for t in (0.0, 0.3, 0.77, 1.0):
        u = rng.standard_normal(batch + (disc.grid.n_full,))
        inside = u[..., ~halo].copy()
        disc.refresh_halo(u, t)
        want = np.broadcast_to(ext.value(t, disc.grid.x_full())[halo],
                               batch + (int(halo.sum()),))
        assert np.array_equal(u[..., halo], want)
        assert np.array_equal(u[..., ~halo], inside)


@pytest.mark.parametrize("steady", [True, False], ids=["steady", "moving"])
def test_refresh_halo_writes_each_row_at_its_time(steady):
    # one row per time; a steady datum is sampled once and broadcast, a
    # moving one once per row
    calls = []

    def value(t, x):
        calls.append(t)
        return SINE_DECAY.value(0.0 if steady else t, x)

    spec = ProblemSpec(domain=(0.0, 1.0), flux=flux_burgers(),
                       diffusion=diffusion_zero(),
                       u0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                       exterior=ExteriorData(value=value, steady=steady),
                       T=1.0)
    disc = discretize(spec, 1.0 / 32, 0.25)
    halo = disc.grid.halo_mask()
    times = np.linspace(0.0, 1.0, 5)
    u = np.zeros((len(times), disc.grid.n_full))
    calls.clear()
    disc.refresh_halo(u, times)
    assert len(calls) == (1 if steady else len(times))
    for n, t in enumerate(times):
        assert np.array_equal(u[n, halo], value(float(t), disc.halo_x))
        assert not u[n, ~halo].any()


def test_presets_validate():
    for make in PROBLEM_PRESETS.values():
        validate_problem(make())


def test_smoothstep_derivative_closed_form():
    ext = exterior_smoothstep(0.0, 1.0, 0.0, 2.0)
    x = np.linspace(-0.5, 1.5, 201)
    h = 1e-6
    num = (np.asarray(ext.value(0.0, x + h)) -
           np.asarray(ext.value(0.0, x - h))) / (2 * h)
    assert np.allclose(np.asarray(ext.grad(0.0, x)), num, atol=1e-5)
    assert np.asarray(ext.value(0.0, np.array([-1.0])))[0] == 0.0
    assert np.asarray(ext.value(0.0, np.array([2.0])))[0] == 2.0


def test_unknown_presets_raise():
    with pytest.raises(UnknownPreset):
        make_problem("cubic", "zero", "bump")
    with pytest.raises(UnknownPreset):
        problem_from_config("no_such_problem")


def test_problem_from_config_tables():
    cfg = {"flux": {"x": [-1.0, 0.0, 1.0], "y": [0.5, 0.0, 0.5]},
           "diffusion": {"x": [-1.0, 0.0, 1.0], "y": [-1.0, 0.0, 1.0]},
           "data": "bump", "T": 0.25}
    spec = problem_from_config(cfg)
    assert spec.T == 0.25
    assert float(np.asarray(spec.flux.f(0.0))) == 0.0
    assert spec.diffusion.lipschitz_on(-1.0, 1.0) == pytest.approx(1.0)
