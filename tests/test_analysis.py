import math
from dataclasses import replace

import numpy as np
import pytest

from levyfv import analysis
from levyfv.errors import ConfigMismatch, ConfigParse, \
    MissingExtensionDerivatives
from levyfv.measures import (AtomicSymmetric, FractionalRadial, single_atom,
                             truncate, zero_measure)
from levyfv.problem import (ExteriorData, ProblemSpec, diffusion_identity,
                            diffusion_power, diffusion_stefan,
                            exterior_constant, flux_burgers, flux_from_table,
                            make_problem)
from levyfv import stencil
from levyfv.scheme import (SchemeConfig, _numerical_flux, _tail_value,
                           jump_term, l1_series, solve)
from levyfv.stencil import build_stencil, row_blocks, zero_extended_energy


def run(spec, measure, dx, Z=0.25, r=None, dt=None, enforce=True):
    c = SchemeConfig(dx=dx, r=r if r is not None else dx, Z=Z, dt=dt,
                     enforce_cfl=enforce)
    st = build_stencil(measure, dx, c.r, c.Z)
    return solve(spec, st, c)


# -- maximum principle -----------------------------------------------------------

def test_max_principle_constant_data():
    spec = ProblemSpec(domain=(0.0, 1.0), flux=flux_burgers(),
                       diffusion=diffusion_identity(),
                       u0=lambda x: np.full_like(np.asarray(x, float), 0.5),
                       exterior=exterior_constant(0.5), T=0.1)
    res = analysis.max_principle_check(run(spec, single_atom(z=0.1, w=0.5),
                                           1 / 32))
    assert res.passed and res.worst_slack == 0.0


def test_max_principle_riemann_under_cfl():
    spec = make_problem("burgers", "stefan", "riemann", ell=0.4)
    res = analysis.max_principle_check(run(spec, single_atom(z=0.1, w=0.5),
                                           1 / 128))
    assert res.passed and res.worst_slack >= 0.0


def test_max_principle_flags_violated_cfl():
    # negative control: doubling the stable step must be caught by the check
    spec = make_problem("linear", "zero", "riemann", T=0.2)
    dx = 1 / 64
    res = analysis.max_principle_check(
        run(spec, zero_measure(), dx, Z=4 * dx, dt=2 * dx, enforce=False))
    assert not res.passed
    assert res.worst_slack < 0.0  # slack recorded, not clamped


# -- L1 contraction ---------------------------------------------------------------

def test_contraction_identical_data_zero_series():
    spec = make_problem("burgers", "identity", "riemann")
    a = run(spec, single_atom(z=0.1, w=0.5), 1 / 64)
    b = run(spec, single_atom(z=0.1, w=0.5), 1 / 64)
    series, verdict = analysis.l1_contraction_check(a, b)
    assert verdict.passed
    assert np.all(series == 0.0)


def test_contraction_perturbed_bump():
    spec = make_problem("burgers", "stefan", "riemann", ell=0.4)
    from dataclasses import replace
    pert = replace(spec, u0=lambda x: np.clip(
        spec.u0(x) + 0.1 * np.exp(-80 * (np.asarray(x) - 0.3) ** 2), 0.0, 1.0))
    a = run(spec, single_atom(z=0.1, w=0.5), 1 / 64)
    b = run(pert, single_atom(z=0.1, w=0.5), 1 / 64,
            dt=float(a.times[1] - a.times[0]))
    series, verdict = analysis.l1_contraction_check(a, b)
    assert verdict.passed
    assert series[-1] <= series[0]


def test_contraction_refuses_different_exterior():
    spec = make_problem("burgers", "zero", "riemann")
    other = make_problem("burgers", "zero", "riemann_up")
    a = run(spec, zero_measure(), 1 / 64)
    b = run(other, zero_measure(), 1 / 64, dt=float(a.times[1] - a.times[0]))
    with pytest.raises(ConfigMismatch):
        analysis.l1_contraction_check(a, b)


@pytest.mark.parametrize("side", ["left", "right"])
def test_different_exterior_found_in_the_last_row_block(monkeypatch, side):
    # the halos are compared over blocks of stored times; a difference in the
    # last block alone must still be found
    from dataclasses import replace
    a = run(make_problem("burgers", "identity", "bump", T=0.1),
            single_atom(), 1 / 32)
    monkeypatch.setattr(stencil, "BLOCK_VALUES", 2 * a.grid.n_full)
    assert len(row_blocks(*a.states.shape)) > 2
    states = a.states.copy()
    states[-1, 0 if side == "left" else -1] += 1e-3
    with pytest.raises(ConfigMismatch, match="different exterior data"):
        analysis.l1_contraction_check(a, replace(a, states=states))


def test_order_preservation():
    spec = make_problem("burgers", "identity", "riemann")
    from dataclasses import replace
    above = replace(spec, u0=lambda x: np.minimum(spec.u0(x) + 0.2, 1.0))
    a = run(spec, single_atom(z=0.1, w=0.5), 1 / 64)
    b = run(above, single_atom(z=0.1, w=0.5), 1 / 64,
            dt=float(a.times[1] - a.times[0]))
    assert analysis.order_preservation_check(a, b).passed


def test_order_preservation_with_ordered_exterior():
    # both the initial datum and the exterior datum shifted upward
    spec = make_problem("burgers", "identity", "riemann")
    from dataclasses import replace
    ext = spec.exterior
    lifted = replace(spec,
                     u0=lambda x: spec.u0(x) + 0.2,
                     exterior=ExteriorData(
                         value=lambda t, x: np.asarray(ext.value(t, x)) + 0.2,
                         dt=ext.dt, grad=ext.grad))
    # the lifted range [0.2, 1.2] has the tighter flux bound; share its dt
    b = run(lifted, single_atom(z=0.1, w=0.5), 1 / 64)
    a = run(spec, single_atom(z=0.1, w=0.5), 1 / 64,
            dt=float(b.times[1] - b.times[0]))
    assert analysis.order_preservation_check(a, b).passed


def test_order_preservation_refuses_runs_that_are_not_comparable():
    # the L1 series' rule, with ordered halos in place of equal ones: an
    # exterior of v below that of u, or other times on as many steps, is
    # refused instead of compared
    spec = make_problem("burgers", "identity", "bump", T=0.2)
    low = run(spec, single_atom(), 1 / 32, Z=0.5, dt=0.01)
    high = run(replace(spec, exterior=exterior_constant(0.5)), single_atom(),
               1 / 32, Z=0.5, dt=0.01)
    res = analysis.order_preservation_check(low, high)
    assert res.passed and res.worst_slack == 0.0
    with pytest.raises(ConfigMismatch, match="unordered exterior data"):
        analysis.order_preservation_check(high, low)
    later = run(replace(spec, T=0.25), single_atom(), 1 / 32, Z=0.5,
                dt=0.0125)
    assert later.states.shape == low.states.shape
    with pytest.raises(ConfigMismatch, match="different time steps"):
        analysis.order_preservation_check(low, later)


def test_mass_budget_identity():
    spec = make_problem("burgers", "identity", "riemann")
    res = analysis.mass_budget_check(run(spec, single_atom(z=0.1, w=0.5),
                                         1 / 64))
    assert res.passed


@pytest.mark.parametrize("peak", ["first", "middle", "last"])
def test_trajectory_checks_in_row_blocks_match_whole_arrays(monkeypatch,
                                                            peak):
    spec = make_problem("burgers", "identity", "riemann", T=0.5)
    a = run(spec, single_atom(z=0.1, w=0.5), 1 / 64)
    n_rows, n_full = a.states.shape
    monkeypatch.setattr(stencil, "BLOCK_VALUES", 7 * n_full)
    assert len(row_blocks(n_rows, n_full)) > 2 and n_rows % 7
    # random interiors sharing one halo; the largest |u| in a chosen row
    rng = np.random.default_rng(3)
    inside = a.grid.interior
    sa = a.states.copy()
    sa[:, inside] = rng.uniform(-1.0, 1.0, (n_rows, a.grid.n))
    sb = sa.copy()
    sb[:, inside] = rng.uniform(-1.0, 1.0, (n_rows, a.grid.n))
    row = {"first": 0, "middle": n_rows // 2, "last": n_rows - 1}[peak]
    sa[row, inside.start + 5] = -4.0
    from dataclasses import replace
    ta, tb = replace(a, states=sa), replace(a, states=sb)
    u, v = ta.interior(), tb.interior()

    assert np.array_equal(l1_series(ta, tb),
                          a.grid.dx * np.abs(u - v).sum(axis=1))
    lo, hi = a.disc.data_range
    assert analysis.max_principle_check(ta).worst_slack == float(
        min((u - lo).min(), (hi - u).min()))
    assert analysis.order_preservation_check(ta, tb).worst_slack == float(
        (v - u).min())
    worst = analysis.mass_budget_check(ta).params["worst_defect"]
    scale = max(1.0, float(np.abs(u).max()))
    assert scale == 4.0
    assert analysis.mass_budget_check(ta, worst / scale * (1 + 1e-9)).passed
    assert not analysis.mass_budget_check(ta,
                                          worst / scale * (1 - 1e-9)).passed


def per_offset_worst_defect(traj):
    """The mass budget defect as first written: the exchange offset by
    offset over every interior cell, the flux on all n + 1 faces, the whole
    trajectory at once.  The reference for `mass_budget_check`."""
    grid, spec, s = traj.grid, traj.spec, traj.stencil
    dt, h, n = traj.dt, grid.n_halo, grid.n
    lo, hi = traj.disc.data_range
    flux_pair = _numerical_flux(traj.config, spec,
                                spec.flux.lipschitz_on(lo, hi))
    u = traj.states[:-1]
    nxt = traj.states[1:, grid.interior]
    mass_change = grid.dx * (nxt - u[:, grid.interior]).sum(axis=1)
    fhat = flux_pair(u[:, h - 1:h + n], u[:, h:h + n + 1])
    boundary = -dt * (fhat[:, -1] - fhat[:, 0])
    bf = spec.diffusion.b(u)
    center = bf[:, grid.interior]
    exchange = np.zeros(u.shape[0])
    for j, w in zip(s.offsets, s.weights):
        if w == 0.0:
            continue
        exchange += w * (bf[:, h + j:h + j + n] + bf[:, h - j:h - j + n]
                         - 2.0 * center).sum(axis=1)
    if s.tau != 0.0 and traj.config.tail_mode != "drop":
        tail = _tail_value(traj.disc, bf)
        exchange += s.tau * (tail[:, None] - center).sum(axis=1)
    exchange *= dt * grid.dx
    return float(np.abs(mass_change - boundary - exchange).max())


def with_random_interiors(traj, seed):
    """`traj` with random stored interiors and its own (valid) halos, so
    every step's defect is O(1) and not rounding noise."""
    rng = np.random.default_rng(seed)
    lo, hi = traj.disc.data_range
    states = traj.states.copy()
    states[:, traj.grid.interior] = rng.uniform(
        lo, hi, (states.shape[0], traj.grid.n))
    return replace(traj, states=states)


def random_atoms(seed, reach, count=6):
    rng = np.random.default_rng(seed)
    return AtomicSymmetric(entries=tuple(
        (float(z), float(w)) for z, w in zip(rng.uniform(1 / 32, reach, count),
                                             rng.uniform(0.05, 0.5, count))))


TRUNCATED_FRACTIONAL = truncate(FractionalRadial(alpha=1.0), 1 / 16)[1]
# (measure, Z, tail_mode); dx = 1/32, so n = 32 and Z = 1.5 gives K = 48
BUDGET_STENCILS = {
    "atoms": (random_atoms(1, 0.25), 0.25, "exterior_mean"),
    "atoms_tail": (random_atoms(2, 0.6), 0.25, "exterior_mean"),
    "atoms_tail_drop": (random_atoms(2, 0.6), 0.25, "drop"),
    "atoms_wide": (random_atoms(3, 1.5), 1.5, "exterior_mean"),
    "fractional": (FractionalRadial(alpha=0.7, lo=1 / 16, hi=0.25), 0.25,
                   "exterior_mean"),
    "fractional_tail": (TRUNCATED_FRACTIONAL, 0.25, "exterior_mean"),
    "fractional_tail_drop": (TRUNCATED_FRACTIONAL, 0.25, "drop"),
    "fractional_wide": (FractionalRadial(alpha=1.5, hi=1.25), 1.5,
                        "exterior_mean"),
    "fractional_wide_tail": (TRUNCATED_FRACTIONAL, 1.5, "exterior_mean"),
    "null": (zero_measure(), 0.25, "exterior_mean"),
}


@pytest.mark.parametrize("name", sorted(BUDGET_STENCILS))
def test_telescoped_budget_matches_the_per_offset_formula(name):
    measure, Z, tail_mode = BUDGET_STENCILS[name]
    dx = 1 / 32
    spec = make_problem("burgers", "stefan", "riemann", ell=0.3, T=0.05)
    config = SchemeConfig(dx=dx, r=dx, Z=Z, tail_mode=tail_mode)
    st = build_stencil(measure, dx, dx, Z)
    assert (st.tau > 0.0) == ("tail" in name)
    assert (st.max_offset >= 32) == ("wide" in name)
    assert st.weights.any() != (name == "null")
    traj = with_random_interiors(solve(spec, st, config), seed=len(name))
    ref = per_offset_worst_defect(traj)
    assert ref > 1e-3
    assert analysis.mass_budget_check(traj).params["worst_defect"] == \
        pytest.approx(ref, rel=1e-12)


def test_mass_budget_reads_the_halo_within_reach_only():
    # reach K = 6 inside a halo of 10 cells, no tail: a halo cell at distance
    # d <= K from the boundary enters the exchange, one at d > K does not
    dx = 1 / 32
    measure = AtomicSymmetric(entries=((6 * dx, 0.5), (2 * dx, 0.25)))
    traj = run(make_problem("burgers", "identity", "bump", T=0.05), measure,
               dx, Z=10 * dx)
    st, h, n = traj.stencil, traj.grid.n_halo, traj.grid.n
    assert st.tau == 0.0 and h == 10
    assert int(st.offsets[np.flatnonzero(st.weights)[-1]]) == 6
    base = analysis.mass_budget_check(traj).params["worst_defect"]
    base_ref = per_offset_worst_defect(traj)
    m = len(traj.times) // 2
    for d in range(1, h + 1):
        for cell in (h - d, h + n - 1 + d):
            states = traj.states.copy()
            states[m, cell] += 8.0
            bumped = replace(traj, states=states)
            moved = analysis.mass_budget_check(bumped).params["worst_defect"]
            if d <= 6:
                expected = per_offset_worst_defect(bumped) - base_ref
                assert expected > 1e-4
                assert moved - base == pytest.approx(expected, rel=1e-12), d
            else:
                assert moved == base, d


@pytest.mark.parametrize("flux", ["engquist_osher", "lax_friedrichs",
                                  "table"])
def test_two_face_flux_is_bit_identical_to_all_faces(flux):
    table = flux_from_table([-1.0, 0.0, 0.5, 2.0], [1.0, 0.0, -0.25, 1.5])
    spec = make_problem(table if flux == "table" else "burgers", "zero",
                        "riemann")
    config = SchemeConfig(dx=1 / 32, r=1 / 32, Z=0.25,
                          numerical_flux="lax_friedrichs"
                          if flux == "lax_friedrichs" else "engquist_osher")
    flux_pair = _numerical_flux(config, spec, spec.flux.lipschitz_on(-1, 2))
    h, n = 8, 32
    u = np.random.default_rng(5).uniform(-1.0, 2.0, (17, n + 2 * h))
    faces = flux_pair(u[:, h - 1:h + n], u[:, h:h + n + 1])
    two = flux_pair(u[:, [h - 1, h + n - 1]], u[:, [h, h + n]])
    assert np.array_equal(two, faces[:, [0, -1]])


# -- energy -----------------------------------------------------------------------

def test_energy_trivial_constant_exterior_matching_datum():
    spec = ProblemSpec(domain=(0.0, 1.0), flux=flux_burgers(),
                       diffusion=diffusion_identity(),
                       u0=lambda x: np.full_like(np.asarray(x, float), 0.3),
                       exterior=exterior_constant(0.3), T=0.1)
    rep = analysis.energy_report(run(spec, single_atom(z=0.1, w=0.5), 1 / 32))
    assert rep["lhs"] == 0.0
    assert rep["rhs"] == pytest.approx(0.0, abs=1e-14)


def test_energy_zero_diffusion_all_terms_vanish():
    spec = make_problem("burgers", "zero", "bump")
    rep = analysis.energy_report(run(spec, single_atom(z=0.1, w=0.5), 1 / 32))
    assert rep["lhs"] == 0.0
    assert rep["rhs"] == 0.0


def test_energy_requires_extension_derivatives():
    spec = make_problem("burgers", "identity", "bump")
    from dataclasses import replace
    bare = replace(spec, exterior=ExteriorData(
        value=spec.exterior.value, dt=None, grad=None))
    traj = run(bare, single_atom(z=0.1, w=0.5), 1 / 32)
    with pytest.raises(MissingExtensionDerivatives):
        analysis.energy_report(traj)


def test_energy_inequality_with_nonzero_exterior():
    # riemann data: the transport and operator terms of the bound are active
    measure = truncate(FractionalRadial(alpha=1.0), 1 / 16)[1]
    for diff, kw in (("identity", {}), ("stefan", {"ell": 0.3})):
        spec = make_problem("burgers", diff, "riemann", T=0.25, **kw)
        slack = {}
        for dx in (1 / 32, 1 / 64):
            slack[dx] = analysis.energy_report(
                run(spec, measure, dx, Z=1.0, r=1 / 16))["slack"]
        eps = analysis.two_grid_tolerance(slack[1 / 32], slack[1 / 64])
        assert slack[1 / 64] >= -eps


def test_energy_slack_nonnegative_and_shrinking():
    measure = truncate(FractionalRadial(alpha=1.0), 1 / 16)[1]
    spec = make_problem("burgers", "identity", "bump", T=0.25)
    slack = {}
    for dx in (1 / 32, 1 / 64):
        slack[dx] = analysis.energy_report(
            run(spec, measure, dx, Z=1.0, r=1 / 16))["slack"]
    eps = analysis.two_grid_tolerance(slack[1 / 32], slack[1 / 64])
    assert slack[1 / 64] >= -eps


def per_time_energy_report(traj):
    """Reference energy report: the extension sampled per stored time on the
    interior for gamma, again on the interior and on the full grid for the
    transport and operator terms."""
    spec, grid = traj.spec, traj.grid
    ext = spec.exterior
    dt, dx = traj.dt, grid.dx
    x, xf = grid.x_interior(), grid.x_full()
    b, bprime, f = spec.diffusion.b, spec.diffusion.bprime, spec.flux.f
    ext_all = np.stack([np.asarray(ext.value(t, x), dtype=float)
                        for t in traj.times])
    gamma = b(traj.interior()) - b(ext_all)
    lhs = dt * zero_extended_energy(gamma[:-1], traj.stencil, dx)
    ext0 = np.asarray(ext.value(0.0, x), dtype=float)
    u0 = traj.states[0, grid.interior]
    rhs_initial = dx * float(np.sum(spec.diffusion.entropy_h(u0, ext0)))
    rhs_transport = 0.0
    rhs_operator = 0.0
    for rows in row_blocks(len(traj.times) - 1, grid.n_full):
        ext_full = np.empty((rows.stop - rows.start, grid.n_full))
        for i, n in enumerate(range(rows.start, rows.stop)):
            t = float(traj.times[n])
            u = traj.states[n, grid.interior]
            e = np.asarray(ext.value(t, x), dtype=float)
            et = np.asarray(ext.dt(t, x), dtype=float)
            egrad = np.asarray(ext.grad(t, x), dtype=float)
            sgn = np.sign(u - e)
            f_big = sgn * (f(u) - f(e))
            rhs_transport -= dt * dx * float(
                np.sum(((u - e) * et + f_big * egrad) * bprime(e)))
            ext_full[i] = ext.value(t, xf)
        op = jump_term(b(ext_full), traj.disc, traj.stencil,
                       traj.config.tail_mode)
        rhs_operator += dt * dx * float(np.sum(op * gamma[rows]))
    rhs = rhs_initial + rhs_transport + rhs_operator
    return {"lhs": lhs, "rhs": rhs, "slack": rhs - lhs,
            "parts": {"initial": rhs_initial, "transport": rhs_transport,
                      "operator": rhs_operator}}


def _moving_value(t, x):
    x = np.asarray(x, float)
    return 0.3 * np.sin(40.0 * t) + 0.5 * np.tanh(4.0 * (x - 0.5))


# moves in t and in x, with closed-form dt and grad
MOVING_ENERGY_EXTERIOR = ExteriorData(
    value=_moving_value,
    dt=lambda t, x: np.full_like(np.asarray(x, float),
                                 12.0 * np.cos(40.0 * t)),
    grad=lambda t, x: 2.0 / np.cosh(4.0 * (np.asarray(x, float) - 0.5)) ** 2)
# (diffusion, measure, Z, tail mode): an atom inside the halo, and a
# truncated fractional measure with a tail, sent to the halo mean or dropped
ENERGY_CASES = {
    "identity_atom": (diffusion_identity(), single_atom(z=0.125, w=0.5),
                      0.25, "exterior_mean"),
    "power_tail": (diffusion_power(2.0),
                   truncate(FractionalRadial(alpha=1.0), 1 / 16)[1], 0.25,
                   "exterior_mean"),
    "stefan_tail_drop": (diffusion_stefan(0.1),
                         truncate(FractionalRadial(alpha=1.0), 1 / 16)[1],
                         0.25, "drop"),
}


@pytest.mark.parametrize("name", sorted(ENERGY_CASES))
def test_energy_report_matches_the_per_time_reference(name):
    diffusion, measure, Z, tail_mode = ENERGY_CASES[name]
    spec = ProblemSpec(domain=(0.0, 1.0), flux=flux_burgers(),
                       diffusion=diffusion,
                       u0=lambda x: 0.4 * np.cos(3.0 * np.asarray(x, float)),
                       exterior=MOVING_ENERGY_EXTERIOR, T=0.3)
    c = SchemeConfig(dx=1 / 32, r=1 / 32, Z=Z, tail_mode=tail_mode)
    traj = solve(spec, build_stencil(measure, c.dx, c.r, c.Z), c)
    ref = per_time_energy_report(traj)
    assert ref["parts"]["transport"] != 0.0
    assert ref["parts"]["operator"] != 0.0
    assert analysis.energy_report(traj) == ref


def test_energy_report_takes_derivatives_constant_in_x():
    # dt and grad may return one number per time instead of one per point
    def value(t, x):
        return np.full_like(np.asarray(x, float), 0.3 * np.sin(40.0 * t))

    arrays = ExteriorData(
        value=value,
        dt=lambda t, x: np.full_like(np.asarray(x, float),
                                     12.0 * np.cos(40.0 * t)),
        grad=lambda t, x: np.zeros_like(np.asarray(x, float)))
    scalars = replace(arrays, dt=lambda t, x: 12.0 * np.cos(40.0 * t),
                      grad=lambda t, x: 0.0)
    reports = []
    for ext in (arrays, scalars):
        spec = ProblemSpec(domain=(0.0, 1.0), flux=flux_burgers(),
                           diffusion=diffusion_identity(),
                           u0=lambda x: 0.4 * np.cos(3.0 * np.asarray(x, float)),
                           exterior=ext, T=0.3)
        reports.append(analysis.energy_report(
            run(spec, single_atom(z=0.125, w=0.5), 1 / 32)))
    assert reports[0]["parts"]["transport"] != 0.0
    assert reports[0] == reports[1]


def test_energy_report_samples_the_extension_once_per_integrated_time():
    calls = []

    def counted(t, x):
        calls.append(t)
        return _moving_value(t, x)

    spec = ProblemSpec(domain=(0.0, 1.0), flux=flux_burgers(),
                       diffusion=diffusion_identity(),
                       u0=lambda x: 0.4 * np.cos(3.0 * np.asarray(x, float)),
                       exterior=replace(MOVING_ENERGY_EXTERIOR,
                                        value=counted), T=0.3)
    traj = run(spec, single_atom(z=0.125, w=0.5), 1 / 32)
    calls.clear()
    analysis.energy_report(traj)
    # once per stored time the report integrates (all but T), once at t = 0
    assert sorted(calls) == [0.0] + traj.times[:-1].tolist()


# -- entropy residuals ---------------------------------------------------------

def test_residual_constant_solution_is_zero():
    spec = ProblemSpec(domain=(0.0, 1.0), flux=flux_burgers(),
                       diffusion=diffusion_identity(),
                       u0=lambda x: np.full_like(np.asarray(x, float), 0.5),
                       exterior=exterior_constant(0.5), T=0.1)
    traj = run(spec, single_atom(z=0.1, w=0.5), 1 / 32)
    fam = analysis.default_test_family(0.0, 1.0, spec.T)
    rep = analysis.entropy_residual(traj, single_atom(z=0.1, w=0.5), fam,
                                    [0.5], 1 / 16)
    assert rep.worst <= 1e-12


def test_residual_burgers_shock_kruzkov():
    spec = make_problem("burgers", "zero", "riemann", T=0.25)
    worst = {}
    for dx in (1 / 64, 1 / 128):
        traj = run(spec, zero_measure(), dx, Z=0.25)
        fam = analysis.default_test_family(0.0, 1.0, spec.T)
        levels = analysis.quantile_levels(*traj.disc.data_range)
        rep = analysis.entropy_residual(traj, zero_measure(), fam, levels,
                                        4 * dx)
        worst[dx] = rep.worst
    eps = analysis.two_grid_tolerance(worst[1 / 64], worst[1 / 128])
    assert worst[1 / 128] <= eps


def test_residual_levels_outside_range_pass_structurally():
    spec = make_problem("burgers", "stefan", "bump", ell=0.3, T=0.2)
    traj = run(spec, single_atom(z=0.125, w=0.5), 1 / 64)
    fam = analysis.default_test_family(0.0, 1.0, spec.T)
    hi = analysis.entropy_residual(traj, single_atom(z=0.125, w=0.5), fam,
                                   [1.7], 1 / 16, signs=("plus",))
    lo = analysis.entropy_residual(traj, single_atom(z=0.125, w=0.5), fam,
                                   [-0.7], 1 / 16, signs=("minus",))
    assert hi.worst <= 1e-12
    assert lo.worst <= 1e-12


def test_residual_counts_inadmissible_pairs():
    spec = make_problem("burgers", "identity", "bump", T=0.2)
    traj = run(spec, single_atom(z=0.125, w=0.5), 1 / 64)
    fam = analysis.default_test_family(0.0, 1.0, spec.T)
    # negative-sign entropies with k > 0 conflict with the zero exterior for
    # bumps whose support touches the halo
    rep = analysis.entropy_residual(traj, single_atom(z=0.125, w=0.5), fam,
                                    [0.5], 1 / 16, signs=("minus",))
    assert rep.skipped > 0


def per_pair_admissible(traj, phi, k, sign):
    """Reference screening: one (phi, k, sign) at a time, the datum and
    b(datum) re-evaluated on the halo at every sampled time."""
    spec = traj.spec
    xh = traj.disc.halo_x
    worst = 0.0
    for t in traj.times[::max(1, len(traj.times) // 16)]:
        datum = np.asarray(spec.exterior.value(float(t), xh), dtype=float)
        diff = spec.diffusion.b(datum) - spec.diffusion.b(k)
        part = analysis._pos(diff) if sign == "plus" else analysis._pos(-diff)
        worst = max(worst, float(np.max(part * phi.value(float(t), xh))))
    return worst <= 1e-10


def per_pair_entropy_residual(traj, measure, family, levels, r, signs):
    """Reference residuals: every loop-invariant recomputed per (phi, k,
    sign), each pair screened by `per_pair_admissible`."""
    spec = traj.spec
    grid = traj.grid
    dt, dx = traj.dt, grid.dx
    xi, xf = grid.x_interior(), grid.x_full()
    times = traj.times[:-1]
    b, f = spec.diffusion.b, spec.flux.f
    lo, hi = traj.disc.data_range
    lf = spec.flux.lipschitz_on(min(lo, float(np.min(levels))),
                                max(hi, float(np.max(levels))))
    sigma2_r, outer = truncate(measure, r)
    stencil_r = build_stencil(outer, dx, r, max(traj.stencil.Z, r))
    u_all = traj.states[:-1]
    u_int = u_all[:, grid.interior]
    op_big = np.empty_like(u_int)
    for rows in row_blocks(u_all.shape[0], grid.n_full):
        op_big[rows] = jump_term(b(u_all[rows]), traj.disc, stencil_r,
                                 traj.config.tail_mode)
    bnd_x = np.array(spec.domain, dtype=float)
    u0 = traj.states[0, grid.interior]
    out, skipped = [], 0
    for idx, phi in enumerate(family):
        phi_t = phi.dt(times[:, None], xi[None, :])
        phi_x = phi.dx(times[:, None], xi[None, :])
        phi_v = phi.value(times[:, None], xi[None, :])
        phi_xx_full = phi.dxx(times[:, None], xf[None, :])
        phi0 = phi.value(0.0, xi)
        phi_bnd = phi.value(times[:, None], bnd_x[None, :])
        datum_bnd = np.stack([np.asarray(
            spec.exterior.value(float(t), bnd_x), dtype=float) for t in times])
        for k in np.atleast_1d(levels):
            fk = float(np.asarray(f(k)))
            for sign in signs:
                if not per_pair_admissible(traj, phi, float(k), sign):
                    skipped += 1
                    continue
                pos, step = analysis._pos, analysis._sgn_plus
                if sign == "plus":
                    ent, sgn, ent0 = pos(u_int - k), step(u_int - k), \
                        pos(u0 - k)
                    ent_bnd, bent = pos(datum_bnd - k), pos(b(u_all) - b(k))
                else:
                    ent, sgn, ent0 = pos(k - u_int), -step(k - u_int), \
                        pos(k - u0)
                    ent_bnd, bent = pos(k - datum_bnd), pos(b(k) - b(u_all))
                flux_ent = sgn * (f(u_int) - fk)
                t1 = -dt * dx * float(np.sum(ent * phi_t + flux_ent * phi_x))
                t2 = -dt * dx * float(np.sum(op_big * sgn * phi_v))
                small_op = 0.5 * sigma2_r * phi_xx_full
                t3 = -dt * dx * float(np.sum(bent * small_op))
                rhs = dx * float(np.sum(ent0 * phi0))
                rhs += lf * dt * float(np.sum(ent_bnd * phi_bnd))
                out.append(analysis.ResidualRow(
                    k=float(k), sign=sign, phi_index=idx,
                    residual=t1 + t2 + t3 - rhs))
    return out, skipped


# a moving exterior, so the screening sees a different datum at each time;
# with T = 1 the run stores 33 times, of which the screening samples every
# other one
MOVING_EXTERIOR = ExteriorData(
    value=lambda t, x: 0.3 * np.sin(40.0 * np.asarray(t, float))
    + 0.1 * np.asarray(x, float) ** 2)
MOVING_SPEC = ProblemSpec(domain=(0.0, 1.0), flux=flux_burgers(),
                          diffusion=diffusion_power(2.0),
                          u0=lambda x: 0.4 * np.cos(3.0 * np.asarray(x, float)),
                          exterior=MOVING_EXTERIOR, T=1.0)
# (spec, levels, signs); every case skips some pairs and keeps others
SCREENING_CASES = {
    "inadmissible": (make_problem("burgers", "identity", "bump", T=0.2),
                     [0.5, 0.25, -0.2], ("plus", "minus")),
    "outside_range": (make_problem("burgers", "stefan", "bump", ell=0.3,
                                   T=0.2), [1.7, -0.7, 0.6], ("plus", "minus")),
    "plus_only": (make_problem("burgers", "identity", "bump", T=0.2),
                  [-0.2, 0.3, 0.6], ("plus",)),
    "minus_only": (make_problem("burgers", "identity", "bump", T=0.2),
                   [-0.2, 0.3, 0.6], ("minus",)),
    "moving_exterior": (MOVING_SPEC, np.linspace(0.2, 0.34, 15),
                        ("plus", "minus")),
}
# one atom inside the splitting radius 1/16 and one outside, so both the
# small-jump (second moment) and the big-jump (stencil) terms are active
SPLIT_ATOMS = AtomicSymmetric(entries=((1 / 32, 0.5), (0.125, 0.5)))


@pytest.mark.parametrize("name", sorted(SCREENING_CASES))
def test_screening_matches_the_per_pair_reference(name):
    spec, levels, signs = SCREENING_CASES[name]
    traj = run(spec, SPLIT_ATOMS, 1 / 32)
    fam = analysis.default_test_family(0.0, 1.0, spec.T)
    rep = analysis.entropy_residual(traj, SPLIT_ATOMS, fam, levels, 1 / 16,
                                    signs=signs)
    ref_rows, ref_skipped = per_pair_entropy_residual(
        traj, SPLIT_ATOMS, fam, levels, 1 / 16, signs)
    assert rep.skipped == ref_skipped > 0
    assert rep.rows and rep.rows == ref_rows


def test_screening_reads_the_stored_halo():
    # the extension is sampled at the two end points alone, once per
    # integrated stored time; the halo datum comes from the stored states
    xs = []

    def counted(t, x):
        xs.append(np.asarray(x).tolist())
        return MOVING_EXTERIOR.value(t, x)

    spec = replace(MOVING_SPEC, exterior=ExteriorData(value=counted))
    traj = run(spec, SPLIT_ATOMS, 1 / 32)
    xs.clear()
    fam = analysis.default_test_family(0.0, 1.0, spec.T)
    rep = analysis.entropy_residual(traj, SPLIT_ATOMS, fam,
                                    np.linspace(0.2, 0.34, 15), 1 / 16)
    assert rep.skipped > 0 and rep.rows
    assert xs == [[0.0, 1.0]] * (len(traj.times) - 1)


def test_residual_rejects_an_unknown_sign():
    traj = run(make_problem("burgers", "identity", "bump", T=0.1),
               zero_measure(), 1 / 32)
    fam = analysis.default_test_family(0.0, 1.0, 0.1)
    with pytest.raises(ConfigParse, match="'Plus'"):
        analysis.entropy_residual(traj, zero_measure(), fam, [0.5], 1 / 16,
                                  signs=("Plus",))


# -- compactness quantities -------------------------------------------------------

def test_moduli_zero_field():
    tabs = analysis.translation_moduli(np.zeros((10, 20)), 0.1, 0.1,
                                       [1, 2], [1, 2])
    assert all(v == 0.0 for _, v in tabs["space"])
    assert all(v == 0.0 for _, v in tabs["time"])


def test_moduli_block_closed_form():
    # block of height 1 over m cells: shifting by h cells changes 2h cells
    # per time slice -> modulus sqrt(2 h dx * n_t dt)
    dt, dx = 0.25, 0.1
    g = np.zeros((4, 30))
    g[:, 10:20] = 1.0
    tabs = analysis.translation_moduli(g, dt, dx, [1, 3], [])
    for h_cells, (h, v) in zip([1, 3], tabs["space"]):
        assert h == pytest.approx(h_cells * dx)
        assert v == pytest.approx(math.sqrt(2 * h_cells * dx * 4 * dt))


def test_moduli_vanish_at_zero_and_satisfy_doubling():
    # subadditivity of translations gives the exact bound w(2h) <= 2 w(h)
    rng = np.random.default_rng(9)
    g = rng.normal(size=(12, 40))
    tabs = analysis.translation_moduli(g, 0.01, 0.05, [0, 1, 2, 4], [0, 1, 2])
    sv = [v for _, v in tabs["space"]]
    tv = [v for _, v in tabs["time"]]
    assert sv[0] == 0.0 and tv[0] == 0.0
    assert sv[2] <= 2 * sv[1] + 1e-12
    assert sv[3] <= 2 * sv[2] + 1e-12
    assert tv[2] <= 2 * tv[1] + 1e-12


def test_moduli_monotone_on_solution_flux():
    # below the feature width the moduli of a smooth diffusive flux increase
    # with the shift
    spec = make_problem("burgers", "identity", "bump", T=0.2)
    traj = run(spec, truncate(FractionalRadial(alpha=1.0), 1 / 16)[1],
               1 / 64, Z=1.0, r=1 / 16)
    dt = float(traj.times[1] - traj.times[0])
    tabs = analysis.translation_moduli(traj.gamma(), dt, 1 / 64,
                                       [1, 2, 4, 8], [1, 2, 4])
    sv = [v for _, v in tabs["space"]]
    tv = [v for _, v in tabs["time"]]
    assert all(np.diff(sv) > 0.0)
    assert all(np.diff(tv) > 0.0)


def test_uniform_energy_series_identical_runs():
    spec = make_problem("burgers", "identity", "bump", T=0.2)
    t1 = run(spec, single_atom(z=0.125, w=0.5), 1 / 64)
    series = analysis.uniform_energy_series(
        [(t1.stencil, t1), (t1.stencil, t1)])
    assert series[0] == series[1]


def test_uniform_energy_series_zero_diffusion():
    spec = make_problem("burgers", "stefan", "bump", ell=1.5, T=0.2)
    t1 = run(spec, single_atom(z=0.125, w=0.5), 1 / 64)
    series = analysis.uniform_energy_series([(t1.stencil, t1)])
    assert series[0] == 0.0


# -- pointwise mollification bound -------------------------------------------------

def test_mollification_constant_field():
    w = analysis.mollifier_weights(3)
    slack = analysis.mollification_bound_check(np.full((5, 32), 0.7),
                                               diffusion_identity(), w)
    assert slack >= 0.0


def test_mollification_identity_and_stefan_random_fields():
    rng = np.random.default_rng(17)
    w = analysis.mollifier_weights(4)
    for diff in (diffusion_identity(), diffusion_stefan(0.1),
                 diffusion_power(2.0)):
        u = rng.uniform(-1.0, 1.0, size=(2000, 32))
        assert analysis.mollification_bound_check(u, diff, w) >= 0.0


def test_mollifier_weights_are_a_probability():
    w = analysis.mollifier_weights(5)
    assert np.all(w >= 0.0)
    assert w.sum() == pytest.approx(1.0, abs=1e-15)


# -- mean bound ---------------------------------------------------------------------

def test_mean_bound_two_symmetric_atoms():
    grid = np.linspace(-1.0, 1.0, 41)
    h = np.abs(grid)
    slack = analysis.mean_bound_check(np.array([-1.0, 1.0]),
                                      np.array([0.5, 0.5]), grid, h,
                                      L=1.0, R=1.0)
    # mean sits at 0 where h vanishes; bound reads 0 <= L R mean(h) = 1
    assert slack == pytest.approx(1.0)


def test_mean_bound_single_atom():
    grid = np.linspace(-2.0, 2.0, 81)
    h = 0.5 * np.abs(grid)
    slack = analysis.mean_bound_check(np.array([1.3]), np.array([1.0]),
                                      grid, h, L=0.5, R=2.0)
    assert slack >= 0.0


def test_mean_bound_randomized_suite():
    rng = np.random.default_rng(23)
    rep = analysis.mean_bound_suite(rng, trials=2000)
    assert rep["violations"] == 0


# -- gallery ---------------------------------------------------------------------

def test_gallery_all_rows_pass():
    rows = analysis.counterexample_gallery()
    assert rows  # non-empty
    for r in rows:
        assert r.passed, (r.name, r.check, r.param, r.value, r.reference)


def test_gallery_frozen_values():
    rows = {(r.name, r.check, r.param): r for r in
            analysis.counterexample_gallery()}
    assert rows[("dyadic_a", "levy_moment", 0.0)].value == pytest.approx(
        1.0 / 3.0, abs=1e-12)
    assert rows[("dyadic_b", "levy_moment", 0.0)].value == pytest.approx(
        1.0, abs=1e-12)
    # first dyadic frequency: 2 + 1 + sum of the remaining cosine gaps
    row = rows[("dyadic_a", "partial_sum_identity", 1.0)]
    assert row.value == pytest.approx(row.reference, abs=1e-10)
