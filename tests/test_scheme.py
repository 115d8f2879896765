import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from levyfv.errors import CflViolation, ConfigMismatch, ConfigParse, \
    NoConvergence
from levyfv.measures import (AtomicSymmetric, DyadicB, FractionalRadial,
                             single_atom, truncate, zero_measure)
from levyfv.problem import (PROBLEM_PRESETS, DiscreteProblem, ExteriorData,
                            ProblemSpec, diffusion_identity, diffusion_power,
                            diffusion_zero, discretize, exterior_constant,
                            flux_burgers, flux_linear, flux_zero, make_problem,
                            sample_rows)
from levyfv import analysis, scheme
from levyfv.scheme import (SchemeConfig, cfl_max_dt, l1_q_distance,
                           picard_solve, solve, stability_run, step,
                           vanishing_viscosity_run)
from levyfv.stencil import apply_stencil, build_stencil


def conf(dx, r=None, Z=0.25, **kw):
    return SchemeConfig(dx=dx, r=r if r is not None else dx, Z=Z, **kw)


# -- CFL ----------------------------------------------------------------------

def test_cfl_unconstrained_flagged_infinite():
    spec = make_problem("zero", "zero", "bump")
    st = build_stencil(zero_measure(), 0.01, 0.01, 0.1)
    assert cfl_max_dt(spec, st, 0.01, (0.0, 1.0)) == math.inf


def test_cfl_linear_transport_instance():
    spec = make_problem("linear", "zero", "bump")
    st = build_stencil(zero_measure(), 0.01, 0.01, 0.1)
    assert cfl_max_dt(spec, st, 0.01, (0.0, 1.0)) == pytest.approx(0.005)


def test_cfl_burgers_single_atom_instance():
    spec = make_problem("burgers", "identity", "bump")
    st = build_stencil(single_atom(z=0.3, w=0.5), 0.1, 0.1, 0.5)
    assert st.weight_sum == 1.0 and st.tau == 0
    assert cfl_max_dt(spec, st, 0.1, (0.0, 1.0)) == pytest.approx(1.0 / 21.0)


def test_monotone_update_brute_force():
    # at dt = dt_max the update must stay order preserving in every argument
    spec = make_problem("burgers", "identity", "bump")
    dx = 0.1
    st = build_stencil(single_atom(z=0.3, w=0.5), dx, dx, 0.5)
    from levyfv.problem import discretize
    disc = discretize(spec, dx, st.Z)
    dt = cfl_max_dt(spec, st, dx, disc.data_range)
    rng = np.random.default_rng(4)
    c = conf(dx, Z=0.5)
    for _ in range(40):
        u = rng.uniform(0.0, 1.0, size=disc.grid.n_full)
        base = step(u, disc, st, c, dt)
        p = int(rng.integers(0, disc.grid.n_full))
        delta = float(rng.uniform(0.01, 0.2))
        u2 = u.copy()
        u2[p] += delta
        bumped = step(u2, disc, st, c, dt)
        assert np.all(bumped >= base - 1e-12)


# -- step oracles --------------------------------------------------------------

def test_constant_state_is_exact_fixed_point():
    spec = ProblemSpec(domain=(0.0, 1.0), flux=flux_burgers(),
                       diffusion=diffusion_identity(),
                       u0=lambda x: np.full_like(np.asarray(x, float), 0.7),
                       exterior=exterior_constant(0.7), T=0.1)
    st = build_stencil(single_atom(z=0.1, w=0.5), 1 / 32, 1 / 32, 0.25)
    traj = solve(spec, st, conf(1 / 32))
    assert np.all(traj.interior() == 0.7)


def test_upwind_transport_first_order_against_translate():
    errs = {}
    for dx in (1 / 64, 1 / 128):
        spec = ProblemSpec(domain=(0.0, 1.0),
                           flux=flux_linear(1.0), diffusion=diffusion_zero(),
                           u0=lambda x: np.exp(-100 * (np.asarray(x) - 0.3) ** 2),
                           exterior=exterior_constant(0.0), T=0.25)
        st = build_stencil(zero_measure(), dx, dx, 4 * dx)
        traj = solve(spec, st, conf(dx, Z=4 * dx))
        x = traj.grid.x_interior()
        exact = np.exp(-100 * (x - 0.3 - 0.25) ** 2)
        errs[dx] = dx * np.abs(traj.interior()[-1] - exact).sum()
    assert errs[1 / 128] <= 0.7 * errs[1 / 64]  # ~halves for O(dx)


def test_zero_flux_matches_matrix_exponential_oracle():
    spec = ProblemSpec(domain=(0.0, 1.0), flux=flux_zero(),
                       diffusion=diffusion_identity(),
                       u0=lambda x: np.exp(-50 * (np.asarray(x) - 0.5) ** 2),
                       exterior=exterior_constant(0.0), T=0.2)
    dx = 1 / 64
    st = build_stencil(single_atom(z=0.125, w=0.5), dx, dx, 0.25)
    c = conf(dx)
    traj = solve(spec, st, c)
    n, h = traj.grid.n, traj.grid.n_halo
    A = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(traj.grid.n_full)
        e[h + i] = 1.0
        A[:, i] = apply_stencil(e, st, h)
    u0 = traj.states[0, traj.grid.interior]

    # single explicit step equals the Euler step of the linear system
    one = step(traj.states[0].copy(), traj.disc, st, c, traj.stats["dt"])
    assert np.allclose(one, u0 + traj.stats["dt"] * (A @ u0), atol=1e-14)

    exact = expm(spec.T * A) @ u0
    err_coarse = dx * np.abs(traj.interior()[-1] - exact).sum()
    fine = solve(spec, st, c, dt_override=traj.stats["dt"] / 4)
    err_fine = dx * np.abs(fine.interior()[-1] - exact).sum()
    assert err_fine <= 0.35 * err_coarse  # O(dt) in time


def test_shock_speed_against_rankine_hugoniot():
    spec = PROBLEM_PRESETS["burgers_riemann"]()
    dx = 1 / 256
    st = build_stencil(zero_measure(), dx, dx, 4 * dx)
    traj = solve(spec, st, conf(dx, Z=4 * dx))
    x = traj.grid.x_interior()
    pos = x[np.argmin(np.abs(traj.interior()[-1] - 0.5))]
    assert abs(pos - 0.75) <= 3 * dx  # speed (1+0)/2 from the jump levels


def test_stefan_above_range_matches_zero_diffusion_bitwise():
    base = make_problem("burgers", "zero", "riemann")
    stefan = make_problem("burgers", "stefan", "riemann", ell=1.5)
    dx = 1 / 64
    st = build_stencil(single_atom(z=0.125, w=0.5), dx, dx, 0.25)
    a = solve(base, st, conf(dx))
    b = solve(stefan, st, conf(dx))
    assert np.array_equal(a.states, b.states)


def test_dyadic_b_constant_data_stays_constant():
    spec = ProblemSpec(domain=(0.0, 1.0), flux=flux_zero(),
                       diffusion=diffusion_identity(),
                       u0=lambda x: np.full_like(np.asarray(x, float), 0.4),
                       exterior=exterior_constant(0.4), T=0.1)
    dx = 1 / 32
    st = build_stencil(DyadicB(), dx, dx, 0.5)
    traj = solve(spec, st, conf(dx, Z=0.5))
    assert np.all(traj.interior() == 0.4)


def test_lax_friedrichs_cross_check():
    # the alternative monotone flux obeys the same bounds and lands near the
    # default flux solution
    spec = make_problem("burgers", "identity", "riemann", T=0.25)
    dx = 1 / 128
    st = build_stencil(single_atom(z=0.125, w=0.5), dx, dx, 0.25)
    eo = solve(spec, st, conf(dx))
    lf = solve(spec, st, conf(dx, numerical_flux="lax_friedrichs"),
               dt_override=float(eo.times[1] - eo.times[0]))
    from levyfv import analysis
    assert analysis.max_principle_check(lf).passed
    assert l1_q_distance(eo, lf) <= 20 * dx  # both first order, same limit


def test_cfl_violation_raised_when_enforced():
    spec = make_problem("linear", "zero", "riemann")
    dx = 1 / 32
    st = build_stencil(zero_measure(), dx, dx, 4 * dx)
    with pytest.raises(CflViolation):
        solve(spec, st, SchemeConfig(dx=dx, r=dx, Z=4 * dx, dt=2 * dx))


def test_nonfinite_values_detected():
    # quadratic flux with a wildly unstable step overflows within a few
    # iterations; the stepper must flag it rather than march on
    from levyfv.errors import NonfiniteValue
    spec = make_problem("burgers", "zero", "bump", T=20.0)
    dx = 1 / 32
    st = build_stencil(zero_measure(), dx, dx, 4 * dx)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonfiniteValue):
            solve(spec, st, SchemeConfig(dx=dx, r=dx, Z=4 * dx, dt=1.0,
                                         enforce_cfl=False))


@pytest.mark.parametrize("every", [1, 7])
def test_nonfinite_mid_block_names_the_step_and_no_observer_sees_it(
        monkeypatch, every):
    # far above the CFL bound the march overflows; `solve` checks a whole
    # block at once and must name the first step that left the finite range
    from levyfv import stencil
    from levyfv.errors import NonfiniteValue
    spec = make_problem("burgers", "identity", "bump", T=40.0)
    c = conf(1 / 32, Z=0.5, dt=0.9, enforce_cfl=False, store_every=every)
    st = build_stencil(single_atom(), c.dx, c.r, c.Z)
    disc = scheme.discretize(spec, c.dx, st.Z)
    dt, n_steps = scheme.time_grid(disc, [st], c)
    times = np.linspace(0.0, spec.T, n_steps + 1)
    u = np.empty(disc.grid.n_full)
    u[disc.grid.interior] = disc.u0
    disc.refresh_halo(u, times[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for bad in range(n_steps):
            new = step(u, disc, st, c, dt)
            if not np.isfinite(new).all():
                break
            u[disc.grid.interior] = new
            disc.refresh_halo(u, times[bad + 1])
    assert bad < n_steps - 1
    # blocks of m steps with the bad step strictly inside one
    m = next(m for m in range(3, n_steps) if 0 < bad % m < m - 1)
    monkeypatch.setattr(stencil, "BLOCK_VALUES", m * disc.grid.n_full)
    seen = []

    def observer(rows, times, block):
        assert np.isfinite(block[:, disc.grid.interior]).all()
        seen.append(rows)

    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonfiniteValue) as exc:
            solve(spec, st, c, observers=[observer])
    assert str(exc.value) == f"nonfinite state at t={float(times[bad])}"
    assert seen and seen[-1].stop <= bad < seen[-1].stop + m


def test_finite_states_whose_row_sums_overflow_are_not_refused():
    # `solve` reads each row's sum first; a sum that overflows on finite
    # values sends it to the values themselves, which pass
    spec = ProblemSpec(domain=(0.0, 1.0), flux=flux_linear(),
                       diffusion=diffusion_zero(),
                       u0=lambda x: np.full_like(x, 1.5e308),
                       exterior=exterior_constant(1.5e308), T=0.1)
    c = conf(1 / 32, Z=0.125)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = solve(spec, build_stencil(zero_measure(), c.dx, c.r, c.Z), c)
    with np.errstate(over="ignore"):
        assert np.isinf(traj.interior()[1:].sum(axis=1)).all()
    assert (traj.interior() == 1.5e308).all()


# -- fixed-point construction ---------------------------------------------------

def test_picard_zero_diffusion_converges_immediately():
    spec = make_problem("burgers", "zero", "bump", T=0.5)
    res = picard_solve(spec, single_atom(z=0.3, w=0.5),
                       conf(1 / 32, Z=0.5), k_max=5, tol=1e-12)
    assert res.gaps[0] == 0.0
    assert res.iterations == 2


def test_picard_gap_envelope_unit_mass():
    spec = make_problem("burgers", "identity", "bump", T=0.5)
    res = picard_solve(spec, single_atom(z=0.3, w=0.5),
                       conf(1 / 64, Z=0.5), k_max=9, tol=0.0)
    rate = 2.0 * 1.0 * 1.0 * spec.T  # 2 L_b ||mu|| T
    for k, gap in enumerate(res.gaps, start=1):
        bound = res.first_iterate_norm * rate ** k / math.factorial(k)
        assert gap <= 1.1 * bound + 1e-14


PICARD_MEASURES = {
    "one_atom": single_atom(z=0.3, w=0.5),
    # the atom at 0.75 lies beyond Z = 0.5: tau = 0.5 meets the tail rule
    "tail": AtomicSymmetric(entries=((0.3, 0.5), (0.75, 0.25))),
}


@pytest.mark.parametrize("tail_mode, measure", [
    ("exterior_mean", "one_atom"), ("exterior_mean", "tail"),
    ("drop", "tail")])
def test_picard_limit_matches_direct_solve(tail_mode, measure):
    measure = PICARD_MEASURES[measure]
    spec = make_problem("burgers", "identity", "bump", T=0.5)
    c = conf(1 / 64, Z=0.5, tail_mode=tail_mode)
    tol = 1e-6
    res = picard_solve(spec, measure, c, k_max=30, tol=tol)
    st = build_stencil(measure, c.dx, c.r, c.Z)
    direct = solve(spec, st, c,
                   dt_override=float(res.trajectory.times[1]
                                     - res.trajectory.times[0]))
    assert l1_q_distance(res.trajectory, direct) <= 10 * tol


def test_picard_requires_finite_mass():
    spec = make_problem("burgers", "identity", "bump")
    with pytest.raises(ValueError):
        picard_solve(spec, FractionalRadial(alpha=1.0), conf(1 / 32))


def test_picard_no_convergence_reported():
    spec = make_problem("burgers", "identity", "bump", T=0.5)
    with pytest.raises(NoConvergence):
        picard_solve(spec, single_atom(z=0.3, w=0.5), conf(1 / 32, Z=0.5),
                     k_max=2, tol=1e-14)


# -- chain drivers ---------------------------------------------------------------

def test_vanishing_viscosity_trend():
    rare = make_problem("burgers", "identity", "riemann_up", T=0.2)
    rep = vanishing_viscosity_run(rare, 1.0, [1, 4, 16],
                                  conf(1 / 64, Z=0.5))
    assert all(np.diff(rep.l1_distances) < 0.0)


def test_vanishing_viscosity_zero_diffusion_gives_zero_distances():
    # diffusion degenerate over the whole data range: every member equals the
    # conservation-law run
    spec = make_problem("burgers", "stefan", "riemann_up", ell=1.5, T=0.2)
    rep = vanishing_viscosity_run(spec, 1.0, [1, 4], conf(1 / 64, Z=0.5))
    assert all(d == 0.0 for d in rep.l1_distances)


def test_vanishing_viscosity_distance_stabilizes_under_refinement():
    spec = make_problem("burgers", "identity", "riemann_up", T=0.2)
    vals = []
    for dx in (1 / 64, 1 / 128):
        rep = vanishing_viscosity_run(spec, 1.0, [4], conf(dx, Z=0.5))
        vals.append(rep.l1_distances[0])
    assert abs(vals[1] - vals[0]) <= 0.05 * max(vals)


def test_stability_chain_trends():
    base = FractionalRadial(alpha=1.0)
    measures = [truncate(base, 1.0 / n)[1] for n in (4, 8, 16, 32)]
    spec = make_problem("burgers", "identity", "bump", T=0.2)
    rep = stability_run(spec, measures, conf(1 / 64, Z=1.0))
    assert all(np.diff(rep.measure_distances) < 0.0)
    assert all(np.diff(rep.l2_b_distances) < 0.0)
    assert all(np.diff(rep.l1_distances) < 0.0)


def test_stability_nondegenerate_perturbation_chain():
    # mu_eps = mu + eps * (fractional order 1), eps in {1, 1/4, 1/16}, against
    # the eps = 0 run: distances decrease with eps
    from levyfv.measures import ScaledMeasure, SumMeasure
    atom = single_atom(z=0.125, w=0.5)
    frac = FractionalRadial(alpha=1.0)
    chain = [SumMeasure(parts=(atom, ScaledMeasure(factor=e, inner=frac)))
             for e in (1.0, 0.25, 0.0625)] + [atom]
    spec = make_problem("burgers", "identity", "bump", T=0.2)
    rep = stability_run(spec, chain, conf(1 / 64, Z=0.5))
    assert all(np.diff(rep.l1_distances) < 0.0)
    assert all(np.diff(rep.l2_b_distances) < 0.0)
    assert all(np.diff(rep.measure_distances) < 0.0)


def test_drop_tail_mode_records_apriori_bound():
    spec = make_problem("burgers", "identity", "riemann")
    dx = 1 / 32
    st = build_stencil(single_atom(z=2.0, w=0.25), dx, dx, 0.25)
    assert st.tau == 0.5  # all mass beyond Z
    c = SchemeConfig(dx=dx, r=dx, Z=0.25, tail_mode="drop")
    traj = solve(spec, st, c)
    # b = identity on range [0, 1]: bound is 2 * sup|b| * tau = 1 * tau * 2
    assert traj.stats["drop_tail_bound"] == pytest.approx(2 * 1.0 * 0.5)
    from levyfv import analysis
    assert analysis.max_principle_check(traj).passed


def test_drop_jump_term_reuses_one_tail_free_stencil(monkeypatch):
    spec = make_problem("burgers", "identity", "bump")
    st = build_stencil(truncate(FractionalRadial(alpha=1.0), 1 / 16)[1],
                       1 / 32, 1 / 16, 0.25)
    assert st.tau > 0.0
    disc = discretize(spec, 1 / 32, st.Z)
    b = np.random.default_rng(9).uniform(0.0, 1.0, (5, disc.grid.n_full))
    want = apply_stencil(b, replace(st, tau=0.0), disc.grid.n_halo)
    seen = []
    monkeypatch.setattr(scheme, "apply_stencil",
                        lambda v, s, h, **kw: seen.append(s)
                        or apply_stencil(v, s, h, **kw))
    for _ in range(3):
        assert np.array_equal(scheme.jump_term(b, disc, st, "drop"), want)
    assert seen[0] is st.without_tail
    assert all(s is seen[0] for s in seen)


def test_chains_honour_config_dt():
    spec = make_problem("burgers", "identity", "riemann_up", T=0.25)
    c = SchemeConfig(dx=1 / 64, r=1 / 64, Z=0.5, dt=1e-3)
    van = vanishing_viscosity_run(spec, 1.0, [1, 4], c)
    stab = stability_run(spec, [single_atom(z=0.125, w=0.5), zero_measure()],
                         c)
    for rep in (van, stab):
        for tr in rep.trajectories + [rep.reference]:
            assert tr.stats["dt"] == 1e-3
            assert tr.dt == tr.times[1] - tr.times[0]


def _solved(measure, spec, c):
    return solve(spec, build_stencil(measure, c.dx, c.r, c.Z), c)


def _energy_run(dx):
    return _solved(truncate(FractionalRadial(alpha=1.0), 1 / 16)[1],
                   make_problem("burgers", "identity", "bump"),
                   SchemeConfig(dx=dx, r=1 / 16, Z=1.0))


def _entropy_run(dx):
    return _solved(zero_measure(),
                   make_problem("burgers", "zero", "riemann", T=0.25),
                   conf(dx))


# each driver at the configs of the apriori and chains suites
SUITE_RUNS = {
    "solve_max_principle": lambda: _solved(
        single_atom(), make_problem("burgers", "stefan", "riemann", ell=0.4),
        conf(1 / 128, Z=0.5)),
    "solve_energy_64": lambda: _energy_run(1 / 64),
    "solve_energy_128": lambda: _energy_run(1 / 128),
    "solve_entropy_64": lambda: _entropy_run(1 / 64),
    "solve_entropy_128": lambda: _entropy_run(1 / 128),
    "picard": lambda: picard_solve(
        make_problem("burgers", "identity", "bump", T=0.4),
        single_atom(z=0.3, w=0.5), conf(1 / 64, Z=0.5),
        k_max=2, tol=0.0).trajectory,
    "vanishing": lambda: vanishing_viscosity_run(
        make_problem("burgers", "identity", "riemann_up", T=0.25), 1.0,
        [1, 4, 16], conf(1 / 64, Z=0.5)).reference,
    "stability": lambda: stability_run(
        make_problem("burgers", "identity", "bump", T=0.25),
        [truncate(FractionalRadial(alpha=1.0), 1 / n)[1]
         for n in (4, 8, 16, 32)], conf(1 / 64, Z=1.0)).reference,
}


@pytest.mark.parametrize("driver, dt, n_steps", [
    ("solve_max_principle", 0.003676470588235294, 136),
    ("solve_energy_64", 0.0058823529411764705, 85),
    ("solve_energy_128", 0.003289473684210526, 152),
    ("solve_entropy_64", 0.007352941176470588, 34),
    ("solve_entropy_128", 0.003676470588235294, 68),
    ("picard", 0.007272727272727273, 55),
    ("vanishing", 0.0024509803921568627, 102),
    ("stability", 0.004901960784313725, 51),
])
def test_time_grids_pinned(driver, dt, n_steps):
    # exact values of the automatic CFL time grid; any drift in the dt rule
    # moves every stored trajectory.  `Trajectory.dt` is the chosen step and
    # equals the spacing of the stored times exactly.
    traj = SUITE_RUNS[driver]()
    assert (traj.stats["dt"], traj.stats["n_steps"]) == (dt, n_steps)
    assert traj.dt == traj.times[1] - traj.times[0]


@pytest.mark.parametrize("T", [math.nan, math.inf, 0.0, -1.0])
def test_time_grid_refuses_a_horizon_that_is_not_positive_and_finite(T):
    # every time grid is taken on a discretized problem, and `discretize`
    # refuses the horizon before it samples the exterior at it (which
    # warned at inf)
    c = conf(1 / 32, Z=0.5)
    st = build_stencil(single_atom(), c.dx, c.r, c.Z)
    spec = make_problem("burgers", "identity", "bump", T=T)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigParse, match="^T must be positive"):
            scheme.time_grid(discretize(spec, c.dx, st.Z), [st], c)


def test_stability_identical_measures_zero_distances():
    m = single_atom(z=0.125, w=0.5)
    spec = make_problem("burgers", "identity", "bump", T=0.2)
    rep = stability_run(spec, [m, m, m], conf(1 / 64))
    assert all(d == 0.0 for d in rep.l1_distances)
    assert all(d == 0.0 for d in rep.l2_b_distances)
    assert all(d == 0.0 for d in rep.measure_distances)


def l2_q_distance(fa, fb, dt, dx):
    """The chain's L2 distance of b(u) as first written, from whole-run
    arrays: the oracle of `stability_run`'s observed series."""
    return math.sqrt(dt * dx * float(np.sum((fa - fb)[:-1] ** 2)))


# the chains suite's stability chain and that of acceptance criterion 11
OBSERVED_CHAINS = {
    "chains_suite": (0.25, (4, 8, 16, 32), 1 / 64),
    "criterion_11": (0.3, (4, 8, 16, 32, 64), 1 / 128),
}


@pytest.mark.parametrize("name", sorted(OBSERVED_CHAINS))
def test_chain_observes_its_members_as_the_old_formulas(monkeypatch, name):
    T, ns, dx = OBSERVED_CHAINS[name]
    spec = make_problem("burgers", "identity", "bump", T=T)
    chain = [truncate(FractionalRadial(alpha=1.0), 1 / n)[1] for n in ns]
    solved, replays = [], []
    real_solve, real_replay = scheme.solve, scheme.replay

    def counted_solve(spec, stencil, config, **kwargs):
        solved.append(stencil)
        return real_solve(spec, stencil, config, **kwargs)

    monkeypatch.setattr(scheme, "solve", counted_solve)
    monkeypatch.setattr(scheme, "replay", lambda *a: replays.append(a)
                        or real_replay(*a))
    rep = stability_run(spec, chain, conf(dx, Z=1.0))
    monkeypatch.undo()
    # the reference first, then each member once; nothing is replayed
    runs = [rep.reference] + rep.trajectories
    assert len(solved) == len(runs)
    assert all(st is tr.stencil for st, tr in zip(solved, runs))
    assert replays == []
    b = spec.diffusion.b
    b_ref = b(rep.reference.interior())
    for tr, l1, l2 in zip(rep.trajectories, rep.l1_distances,
                          rep.l2_b_distances):
        assert l1 == l1_q_distance(tr, rep.reference)
        want = l2_q_distance(b(tr.interior()), b_ref, rep.reference.dt, dx)
        assert abs(l2 - want) <= 1e-15 * want


def test_a_pair_series_frees_its_stored_run_without_the_cycle_collector():
    # a reference cycle through the observer would keep the stored run (and
    # its states) alive until a gc pass: across the checks of an ensemble
    # that grew the process by hundreds of MB
    import gc
    import weakref
    from levyfv.analysis import order_preservation_check
    spec = make_problem("burgers", "identity", "bump", T=0.1)
    c = conf(1 / 32, Z=0.5)
    st = build_stencil(single_atom(), c.dx, c.r, c.Z)
    gc.disable()
    try:
        for check in (scheme.pair_series, order_preservation_check):
            run, other = solve(spec, st, c), solve(spec, st, c)
            ref = weakref.ref(other)
            check(run, other)
            del other
            assert ref() is None
    finally:
        gc.enable()


def test_one_discretization_per_time_grid(monkeypatch):
    # solve discretizes once and hands that to time_grid; a chain of m
    # measures discretizes once for its shared time grid, then once per
    # solve; a Picard solve discretizes once
    calls = []
    real = scheme.discretize

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(scheme, "discretize", counted)
    spec = make_problem("burgers", "identity", "bump", T=0.1)
    c = conf(1 / 64, Z=0.5)
    solve(spec, build_stencil(single_atom(), c.dx, c.r, c.Z), c)
    assert len(calls) == 1
    calls.clear()
    vanishing_viscosity_run(spec, 1.0, [1, 4], c)
    assert len(calls) == 3 + 1
    calls.clear()
    stability_run(spec, [single_atom(z=0.125, w=0.5), zero_measure()], c)
    assert len(calls) == 2 + 1
    calls.clear()
    # every iterate marches on the discretization of iterate 0
    picard_solve(spec, single_atom(), c, k_max=3, tol=0.0)
    assert len(calls) == 1


def test_solve_rejects_a_stencil_built_for_another_dx():
    # the halo at dx = 1/64 (32 cells) covers the dx = 1/32 stencil's reach
    # (16 offsets), so only the dx check catches the mismatch
    spec = make_problem("burgers", "identity", "bump", T=0.1)
    st = build_stencil(single_atom(0.25, 0.5), 1 / 32, 1 / 32, 0.5)
    with pytest.raises(ConfigMismatch):
        solve(spec, st, conf(1 / 64, Z=0.5))


# an exterior datum moving in t, so a halo written at another time than its
# stored time shows
MOVING_EXTERIOR = ExteriorData(value=lambda t, x: np.full_like(
    np.asarray(x, float), 0.3 * np.sin(40.0 * t)))
MOVING_SPEC = ProblemSpec(domain=(0.0, 1.0), flux=flux_burgers(),
                          diffusion=diffusion_identity(),
                          u0=lambda x: 0.2 * np.cos(3.0 * np.asarray(x, float)),
                          exterior=MOVING_EXTERIOR, T=0.37)


def assert_halos_are_the_exterior_at_their_times(traj):
    halo = traj.grid.halo_mask()
    for t, state in zip(traj.times, traj.states):
        want = np.asarray(traj.spec.exterior.value(t, traj.disc.halo_x),
                          dtype=float)
        assert state[halo].tobytes() == want.tobytes()


def test_stored_halo_is_the_exterior_datum_at_its_stored_time():
    c = conf(1 / 32)
    traj = solve(MOVING_SPEC, build_stencil(single_atom(), c.dx, c.r, c.Z), c)
    assert traj.times[-1] == MOVING_SPEC.T
    assert_halos_are_the_exterior_at_their_times(traj)


@pytest.mark.parametrize("every", [1, 3])
def test_halos_written_a_block_at_a_time_are_the_exterior_at_their_times(
        monkeypatch, every):
    # blocks of 2 steps: each block's halos are written in one call
    from levyfv import stencil
    c = conf(1 / 32, store_every=every)
    st = build_stencil(single_atom(), c.dx, c.r, c.Z)
    n_full = scheme.discretize(MOVING_SPEC, c.dx, st.Z).grid.n_full
    monkeypatch.setattr(stencil, "BLOCK_VALUES", 2 * n_full)
    traj = solve(MOVING_SPEC, st, c)
    assert len(scheme.row_blocks(traj.stats["n_steps"], n_full)) > 2
    assert_halos_are_the_exterior_at_their_times(traj)


@pytest.mark.parametrize("measure", [
    single_atom(),                                  # tail only at Z = 0.25
    FractionalRadial(alpha=1.0, lo=1 / 16),         # cells and a tail
])
def test_solve_stores_what_step_returns_from_the_stored_row(measure):
    c = conf(1 / 32)
    traj = solve(MOVING_SPEC, build_stencil(measure, c.dx, c.r, c.Z), c)
    interior = traj.grid.interior
    assert traj.states[0, interior].tobytes() == traj.disc.u0.tobytes()
    for n in range(traj.stats["n_steps"]):
        new = step(traj.states[n], traj.disc, traj.stencil, c, traj.dt)
        assert new.shape == (traj.grid.n,)
        assert new.tobytes() == traj.states[n + 1, interior].tobytes()


def counted_steps(monkeypatch):
    """Count the calls `solve` makes to `step`, as the benchmark's trace
    gate does: one call per step of every march."""
    calls = []
    real = scheme.step

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scheme, "step", counting)
    return calls


STEP_COUNT_CASES = {
    "null_steady": (make_problem("burgers", "zero", "riemann", T=0.2),
                    zero_measure()),
    "atomic_steady": (make_problem("burgers", "identity", "bump", T=0.2),
                      single_atom()),
    "fractional_moving": (MOVING_SPEC, FractionalRadial(alpha=1.0,
                                                        lo=1 / 16)),
    "atomic_moving": (MOVING_SPEC, single_atom()),
}


@pytest.mark.parametrize("every", [1, 7])
@pytest.mark.parametrize("case", sorted(STEP_COUNT_CASES))
def test_solve_calls_step_once_per_step(monkeypatch, case, every):
    spec, measure = STEP_COUNT_CASES[case]
    c = conf(1 / 32, store_every=every)
    st = build_stencil(measure, c.dx, c.r, c.Z)
    disc = discretize(spec, c.dx, st.Z)
    dt, n_steps = scheme.time_grid(disc, [st], c)
    observers = [analysis.MaxPrinciple(disc),
                 analysis.MassBudget(disc, st, c, dt),
                 scheme.Gamma(disc, n_steps)]
    calls = counted_steps(monkeypatch)
    traj = solve(spec, st, c, observers=observers)
    assert len(calls) == traj.stats["n_steps"] == n_steps
    assert all(check.result().passed for check in observers[:2])


def test_picard_calls_step_once_per_step_of_every_iterate(monkeypatch):
    calls = counted_steps(monkeypatch)
    res = picard_solve(MOVING_SPEC, single_atom(z=0.3, w=0.5),
                       conf(1 / 32, Z=0.5), k_max=3, tol=0.0)
    assert res.iterations == 3
    assert len(calls) == 3 * res.trajectory.stats["n_steps"]


@pytest.mark.parametrize("flux", ["engquist_osher", "lax_friedrichs"])
@pytest.mark.parametrize("case", sorted(STEP_COUNT_CASES))
def test_step_into_out_returns_it_with_the_bytes_of_a_fresh_step(case, flux):
    spec, measure = STEP_COUNT_CASES[case]
    c = conf(1 / 32, numerical_flux=flux)
    traj = solve(spec, build_stencil(measure, c.dx, c.r, c.Z), c)
    n = traj.grid.n
    # Picard's frozen source replaces the jump term
    source = np.linspace(-1.0, 1.0, n)
    for u in traj.states[::5]:
        for src in (None, source):
            fresh = step(u, traj.disc, traj.stencil, c, traj.dt, source=src)
            row = np.full(n, np.nan)
            got = step(u, traj.disc, traj.stencil, c, traj.dt, source=src,
                       out=row)
            assert got is row
            assert row.tobytes() == fresh.tobytes()


EXACT_BURGERS = {
    # the shock from 1 to 0 moves at speed 1/2
    "burgers_riemann": lambda x, t: np.where(x < 0.5 + 0.5 * t, 1.0, 0.0),
    # the fan from 0 to 1
    "burgers_rarefaction": lambda x, t: np.clip((x - 0.5) / t, 0.0, 1.0),
}


@pytest.mark.parametrize("name", sorted(EXACT_BURGERS))
def test_zero_measure_burgers_error_at_T_falls_as_dx_halves(name):
    # a trend, not a rate: dx * sum |u - exact| at T falls at each halving
    spec = PROBLEM_PRESETS[name]()
    errors = []
    for dx in (1 / 64, 1 / 128, 1 / 256):
        c = conf(dx)
        st = build_stencil(zero_measure(), c.dx, c.r, c.Z)
        assert st.kernel is None and st.tau == 0.0
        traj = solve(spec, st, c)
        assert traj.times[-1] == spec.T
        exact = EXACT_BURGERS[name](traj.grid.x_interior(), spec.T)
        errors.append(dx * float(np.abs(traj.interior()[-1] - exact).sum()))
    assert errors[0] > errors[1] > errors[2] > 0.0


def test_picard_iterate_zero_writes_its_halos_on_the_stored_times(
        monkeypatch):
    # iterate 0, the run the first iterate marches against, is zero on the
    # interior with the exterior datum at each stored time in its halo
    frozen = []
    real = scheme.solve

    def recording(*args, **kwargs):
        frozen.append(kwargs["frozen"])
        return real(*args, **kwargs)

    monkeypatch.setattr(scheme, "solve", recording)
    res = picard_solve(MOVING_SPEC, single_atom(z=0.3, w=0.5),
                       conf(1 / 32, Z=0.5), k_max=2, tol=0.0)
    zero = frozen[0]
    assert zero.times.tobytes() == res.trajectory.times.tobytes()
    assert not zero.states[:, zero.grid.interior].any()
    assert_halos_are_the_exterior_at_their_times(zero)
    assert_halos_are_the_exterior_at_their_times(res.trajectory)


def _same_run(a, b):
    assert a.times.tobytes() == b.times.tobytes()
    assert a.states.tobytes() == b.states.tobytes()
    assert ({k: v for k, v in a.stats.items() if k != "wall_time_s"}
            == {k: v for k, v in b.stats.items() if k != "wall_time_s"})


@pytest.mark.parametrize("every", [1, 7])
@pytest.mark.parametrize("measure", [
    zero_measure(), single_atom(), FractionalRadial(alpha=1.0, lo=1 / 16)],
    ids=["none", "single_atom", "fractional"])
@pytest.mark.parametrize("preset", sorted(PROBLEM_PRESETS))
def test_steady_halo_written_once_equals_the_per_row_halo(preset, measure,
                                                          every):
    # the halo written once before the march is carried by `step` and the
    # block buffer: every stored state equals the moving path's, bit for bit
    spec = PROBLEM_PRESETS[preset]()
    assert spec.exterior.steady
    moving = replace(spec, exterior=replace(spec.exterior, steady=False))
    c = conf(1 / 64, Z=0.5, store_every=every)
    st = build_stencil(measure, c.dx, c.r, c.Z)
    _same_run(solve(spec, st, c), solve(moving, st, c))


def test_steady_halo_is_carried_across_blocks(monkeypatch):
    from levyfv import stencil
    spec = PROBLEM_PRESETS["burgers_riemann"]()
    moving = replace(spec, exterior=replace(spec.exterior, steady=False))
    c = conf(1 / 64, Z=0.5, store_every=7)
    st = build_stencil(single_atom(), c.dx, c.r, c.Z)
    n_full = scheme.discretize(spec, c.dx, st.Z).grid.n_full
    monkeypatch.setattr(stencil, "BLOCK_VALUES", 5 * n_full)
    steady = solve(spec, st, c)
    assert steady.stats["n_steps"] > 3 * 5
    _same_run(steady, solve(moving, st, c))


@pytest.mark.parametrize("moving", [False, True], ids=["steady", "moving"])
def test_gamma_observed_over_blocks_is_gamma_of_the_run_stored_whole(
        monkeypatch, moving):
    # b(u) - b(ext), written one row per step while a march of several
    # blocks stores every 7th state, equals gamma of the run stored whole
    # and b(u) - b(ext) with the extension sampled at every stored time
    from levyfv import stencil
    spec = replace(MOVING_SPEC, diffusion=diffusion_power(2.0))
    if not moving:
        spec = replace(spec, exterior=exterior_constant(0.1))
    c = conf(1 / 64, Z=0.5)
    st = build_stencil(single_atom(), c.dx, c.r, c.Z)
    disc = scheme.discretize(spec, c.dx, st.Z)
    monkeypatch.setattr(stencil, "BLOCK_VALUES", 3 * disc.grid.n_full)
    full = solve(spec, st, c)
    n_steps = full.stats["n_steps"]
    assert n_steps > 3 * 3
    gamma = scheme.Gamma(disc, n_steps)
    thin = solve(spec, st, replace(c, store_every=7), observers=[gamma])
    assert len(thin.times) < n_steps
    assert np.array_equal(gamma.rows, full.gamma())
    b = spec.diffusion.b
    ext = sample_rows(spec.exterior.value, full.times, full.grid.x_interior())
    assert np.array_equal(gamma.rows, b(full.interior()) - b(ext))


@pytest.mark.parametrize("preset", sorted(PROBLEM_PRESETS))
def test_preset_exteriors_are_steady(preset):
    spec = PROBLEM_PRESETS[preset]()
    halo_x = scheme.discretize(spec, 1 / 64, 0.5).halo_x
    first = spec.exterior.value(0.0, halo_x)
    assert spec.exterior.steady
    for t in (0.3, spec.T):
        assert (np.asarray(spec.exterior.value(t, halo_x)).tobytes()
                == np.asarray(first).tobytes())


def _pulse_spec(peak):
    # a smooth, bounded exterior pulse between the data range's samples at
    # t = 0 and t = 1/64, so the sampled range (0, 1) misses it
    base = make_problem("burgers", "identity", "riemann", T=0.5)
    pulse = ExteriorData(value=lambda t, x: np.full_like(
        np.asarray(x, float),
        peak * math.exp(-((t - 1 / 128) / (1 / 512)) ** 2)))
    return replace(base, exterior=pulse)


@pytest.mark.parametrize("peak", [1.5, 2.0, 4.0])
def test_moving_halo_outside_the_cfl_range_is_refused_before_stepping(peak):
    c = conf(1 / 128, Z=0.25)
    st = build_stencil(single_atom(), c.dx, c.r, c.Z)
    spec = _pulse_spec(peak)
    disc = scheme.discretize(spec, c.dx, st.Z)
    assert disc.data_range == (0.0, 1.0)
    dt, _ = scheme.time_grid(disc, [st], c)
    with pytest.raises(CflViolation) as exc:
        solve(spec, st, c)
    assert f"exterior datum at t={2 * dt} " in str(exc.value)
    assert 2 * dt == 0.007352941176470588


def test_moving_halo_within_the_cfl_bound_runs():
    # the halo leaves the sampled range, yet dt stays within the bound on
    # the halos actually written
    c = conf(1 / 128, Z=0.25)
    traj = solve(_pulse_spec(1.1), build_stencil(single_atom(), c.dx, c.r,
                                                 c.Z), c)
    assert traj.stats["data_range"] == (0.0, 1.0)
    assert traj.states[:, traj.grid.halo_mask()].max() > 1.0


def test_trajectories_on_different_grids_not_comparable():
    spec = make_problem("burgers", "zero", "riemann")
    a = solve(spec, build_stencil(zero_measure(), 1 / 32, 1 / 32, 0.125),
              conf(1 / 32, Z=0.125))
    b = solve(spec, build_stencil(zero_measure(), 1 / 64, 1 / 64, 0.125),
              conf(1 / 64, Z=0.125))
    with pytest.raises(ConfigMismatch):
        l1_q_distance(a, b)


def test_null_stencil_solve_skips_the_jump_term(monkeypatch):
    # the datum holds -0.0 cells, which the zero jump term's `+ dt * 0.0`
    # turned into +0.0
    base = make_problem("burgers", "identity", "riemann", T=0.1)
    spec = replace(base, u0=lambda x: np.where(np.asarray(x) < 0.5, 1.0, -0.0))
    c = conf(1 / 64, Z=0.125)
    st = build_stencil(zero_measure(), c.dx, c.r, c.Z)
    counts = {"step": 0, "jump_term": 0, "refresh_halo": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in ("step", "jump_term"):
        monkeypatch.setattr(scheme, name, counted(name, getattr(scheme, name)))
    monkeypatch.setattr(DiscreteProblem, "refresh_halo", counted(
        "refresh_halo", DiscreteProblem.refresh_halo))
    traj = solve(spec, st, c)
    n_steps = traj.stats["n_steps"]
    # the smoothstep exterior is steady: solve writes every stored halo,
    # the initial one included, in one call before the march
    assert counts == {"step": n_steps, "jump_term": 0, "refresh_halo": 1}
    frozen = solve(spec, st, c, dt_override=traj.stats["dt"], frozen=traj)
    assert counts["refresh_halo"] == 2
    assert frozen.states.tobytes() == traj.states.tobytes()
    assert np.signbit(traj.states[0]).any()
    assert not np.signbit(traj.states[1:]).any()


def _same_stencil(a, b):
    return (a.dx, a.r, a.Z, a.sigma2, a.tau) == (b.dx, b.r, b.Z, b.sigma2,
                                                 b.tau) \
        and np.array_equal(a.offsets, b.offsets) \
        and np.array_equal(a.weights, b.weights)


def test_chain_stencils_are_the_built_ones_and_comparable():
    # every stencil of a chain comes from one (dx, Z), so each is exactly
    # build_stencil's and all trajectories share one shape
    from levyfv.measures import ScaledMeasure
    c = conf(1 / 64, Z=0.5)
    spec = make_problem("burgers", "identity", "bump", T=0.1)
    van = vanishing_viscosity_run(spec, 1.0, [1, 4], c)
    van_measures = [ScaledMeasure(factor=1.0 / n,
                                  inner=FractionalRadial(alpha=1.0))
                    for n in (1, 4)] + [zero_measure()]
    chain = [truncate(FractionalRadial(alpha=1.0), 1 / n)[1] for n in (4, 8)]
    chain += [single_atom(z=0.125, w=0.5)]
    stab = stability_run(spec, chain, c)
    for rep, measures in ((van, van_measures), (stab, chain)):
        built = [build_stencil(m, c.dx, c.r, c.Z) for m in measures]
        for tr, ref in zip(rep.trajectories + [rep.reference], built):
            assert _same_stencil(tr.stencil, ref)
        assert all(tr.states.shape == rep.reference.states.shape
                   for tr in rep.trajectories)


def test_picard_norms_in_row_blocks_match_whole_arrays(monkeypatch):
    from levyfv import stencil
    from levyfv.stencil import row_blocks
    spec = make_problem("burgers", "identity", "bump", T=0.4)
    c = conf(1 / 64, Z=0.5)
    iterates = []
    real_solve = scheme.solve

    def recording_solve(*args, **kwargs):
        iterates.append(real_solve(*args, **kwargs))
        return iterates[-1]

    monkeypatch.setattr(scheme, "solve", recording_solve)
    n_full = scheme.discretize(spec, c.dx, c.Z).grid.n_full
    monkeypatch.setattr(stencil, "BLOCK_VALUES", 5 * n_full)
    res = picard_solve(spec, single_atom(z=0.3, w=0.5), c, k_max=4, tol=0.0)
    n_rows = iterates[0].states.shape[0]
    assert iterates[0].states.shape[1] == n_full
    assert len(row_blocks(n_rows, n_full)) > 2 and n_rows % 5

    def l1(u):
        return c.dx * np.abs(u).sum(axis=1)

    u = [tr.interior() for tr in iterates]
    assert res.first_iterate_norm == float(np.max(l1(u[0])))
    assert res.gaps == [float(np.max(l1(b - a))) for a, b in zip(u, u[1:])]


# -- thinned storage and observers ----------------------------------------------

# a null stencil; jumps with a tail (Z below the measure's reach) under each
# tail rule
THINNED_STENCILS = {
    "null": (zero_measure(), "exterior_mean"),
    "tail_exterior_mean": (FractionalRadial(alpha=1.0, lo=1 / 16),
                           "exterior_mean"),
    "tail_drop": (FractionalRadial(alpha=1.0, lo=1 / 16), "drop"),
}


def _thinned_case(name, every):
    measure, tail_mode = THINNED_STENCILS[name]
    c = conf(1 / 64, Z=0.25, tail_mode=tail_mode, store_every=every)
    spec = make_problem("burgers", "identity", "bump", T=0.3)
    return spec, build_stencil(measure, c.dx, c.r, c.Z), c


@pytest.mark.parametrize("every", [1, 7])
@pytest.mark.parametrize("name", sorted(THINNED_STENCILS))
def test_thinned_solve_stores_every_kth_state_of_the_full_one(name, every):
    spec, st, c = _thinned_case(name, every)
    full = solve(spec, st, replace(c, store_every=1))
    seen = []

    def observer(rows, times, block):
        # steps rows.start .. rows.stop, inclusive
        assert block.shape == (rows.stop - rows.start + 1, full.grid.n_full)
        assert times.tobytes() == full.times[rows.start:rows.stop
                                             + 1].tobytes()
        assert block.tobytes() == full.states[rows.start:rows.stop
                                              + 1].tobytes()
        seen.append(rows)

    thin = solve(spec, st, c, observers=[observer])
    n_steps = full.stats["n_steps"]
    assert n_steps % 7 and thin.stats["n_steps"] == n_steps
    assert thin.stats["dt"] == full.stats["dt"]
    assert seen == scheme.row_blocks(n_steps, full.grid.n_full)
    assert thin.states.tobytes() == full.states[::every].tobytes()
    assert thin.times.tobytes() == full.times[::every].tobytes()


THINNED_PASSES = {
    "pair_series": lambda tr: scheme.pair_series(tr, tr),
    "gamma": lambda tr: tr.gamma(),
    "order_preservation": lambda tr: analysis.order_preservation_check(tr,
                                                                       tr),
    "mass_budget": analysis.mass_budget_check,
    "energy_report": analysis.energy_report,
    "entropy_residual": lambda tr: analysis.entropy_residual(
        tr, FractionalRadial(alpha=1.0, lo=1 / 16),
        analysis.default_test_family(0.0, 1.0, tr.spec.T)[:1], [0.5],
        1 / 16),
}


@pytest.mark.parametrize("name", sorted(THINNED_PASSES))
def test_passes_over_consecutive_steps_refuse_a_thinned_trajectory(name):
    spec, st, c = _thinned_case("tail_exterior_mean", 7)
    thin = solve(spec, st, c)
    with pytest.raises(ConfigMismatch, match="every step"):
        THINNED_PASSES[name](thin)


def test_picard_frozen_source_refuses_a_thinned_iterate(monkeypatch):
    real_solve = scheme.solve

    def thinning_solve(spec, stencil, config, **kwargs):
        return real_solve(spec, stencil, replace(config, store_every=3),
                          **kwargs)

    monkeypatch.setattr(scheme, "solve", thinning_solve)
    with pytest.raises(ConfigMismatch, match="every step"):
        picard_solve(make_problem("burgers", "identity", "bump", T=0.2),
                     single_atom(z=0.3, w=0.5), conf(1 / 32, Z=0.5),
                     k_max=3, tol=0.0)


def test_drivers_store_every_step_whatever_the_cadence():
    spec = make_problem("burgers", "identity", "bump", T=0.2)
    measure = single_atom(z=0.3, w=0.5)
    chain = [truncate(FractionalRadial(alpha=1.0), 1 / n)[1] for n in (4, 8)]
    runs = {}
    for every in (1, 7):
        c = conf(1 / 32, Z=0.5, store_every=every)
        runs[every] = (picard_solve(spec, measure, c, k_max=3, tol=0.0),
                       vanishing_viscosity_run(spec, 1.0, [1, 4], c),
                       stability_run(spec, chain, c))
    (pa, va, sa), (pb, vb, sb) = runs[1], runs[7]
    assert pa.gaps == pb.gaps
    assert pa.first_iterate_norm == pb.first_iterate_norm
    assert pa.trajectory.states.tobytes() == pb.trajectory.states.tobytes()
    assert va.l1_distances == vb.l1_distances
    assert (sa.l1_distances, sa.l2_b_distances) == (sb.l1_distances,
                                                    sb.l2_b_distances)


def _picard_oracle(spec, measure, c, k_max):
    """Picard's recipe with a whole-run source per iterate: iterate 0 is
    zeros with the exterior datum in its halos, each iterate's source is
    `jump_term` of every state of the last (in `row_blocks`), and the march
    calls `step(..., source=src[n])` once per step.  Returns the last
    iterate's states, the gaps and the first iterate's norm."""
    st = build_stencil(measure, c.dx, c.r, c.Z)
    disc = discretize(spec, c.dx, st.Z)
    dt, n_steps = scheme.time_grid(disc, [st], c)
    times = np.linspace(0.0, spec.T, n_steps + 1)
    inside = disc.grid.interior
    prev = np.zeros((n_steps + 1, disc.grid.n_full))
    for t, state in zip(times, prev):
        disc.refresh_halo(state, t)
    norms = []
    for _ in range(k_max):
        src = np.empty((n_steps, disc.grid.n))
        for rows in scheme.row_blocks(n_steps, disc.grid.n_full):
            src[rows] = scheme.jump_term(spec.diffusion.b(prev[rows]), disc,
                                         st, c.tail_mode)
        cur = np.empty_like(prev)
        cur[0, inside] = disc.u0
        for n, t in enumerate(times):
            disc.refresh_halo(cur[n], t)
            if n < n_steps:
                cur[n + 1, inside] = step(cur[n], disc, st, c, dt,
                                          source=src[n])
        diff = np.abs(cur[:, inside] - prev[:, inside])
        norms.append(float(np.max(c.dx * diff.sum(axis=1))))
        prev = cur
    return prev, norms[1:], norms[0]


PICARD_ORACLE_CASES = {
    "burgers_bump_atom": (PROBLEM_PRESETS["burgers_bump"](),
                          single_atom(z=0.3, w=0.5), conf(1 / 32, Z=0.5)),
    "stefan_mixed": (PROBLEM_PRESETS["stefan_mixed"](),
                     AtomicSymmetric(entries=((0.25, 0.25),)),
                     conf(1 / 32, Z=0.5)),
    "moving_exterior": (MOVING_SPEC, single_atom(z=0.3, w=0.5),
                        conf(1 / 32, Z=0.5)),
    # cells below Z = 0.25 and a tail above it, under both tail rules
    "fractional_tail_mean": (PROBLEM_PRESETS["burgers_bump"](),
                             FractionalRadial(alpha=1.0, coeff=0.05,
                                              lo=1 / 16, hi=2.0),
                             conf(1 / 32)),
    "fractional_tail_drop": (PROBLEM_PRESETS["burgers_bump"](),
                             FractionalRadial(alpha=1.0, coeff=0.05,
                                              lo=1 / 16, hi=2.0),
                             conf(1 / 32, tail_mode="drop")),
    "riemann_lf": (PROBLEM_PRESETS["burgers_riemann"](),
                   single_atom(z=0.3, w=0.5),
                   conf(1 / 32, Z=0.5, numerical_flux="lax_friedrichs")),
}


@pytest.mark.parametrize("case", sorted(PICARD_ORACLE_CASES))
def test_picard_marching_against_its_last_iterate_is_the_whole_run_recipe(
        case):
    spec, measure, c = PICARD_ORACLE_CASES[case]
    res = picard_solve(spec, measure, c, k_max=4, tol=0.0)
    states, gaps, first = _picard_oracle(spec, measure, c, 4)
    assert res.trajectory.states.tobytes() == states.tobytes()
    assert np.array(res.gaps).tobytes() == np.array(gaps).tobytes()
    assert res.first_iterate_norm == first and first > 0.0


def test_solve_refuses_a_frozen_run_of_another_problem_stencil_or_grid():
    spec = make_problem("burgers", "identity", "bump", T=0.2)
    c = conf(1 / 32, Z=0.5)
    st = build_stencil(single_atom(), c.dx, c.r, c.Z)
    run = solve(spec, st, c)
    assert solve(spec, st, c, frozen=run).states.shape == run.states.shape
    others = {
        "problem": (replace(spec, T=0.1), st, c, None),
        "stencil": (spec, build_stencil(single_atom(), c.dx, c.r, c.Z), c,
                    None),
        "time count": (spec, st, c, run.dt / 2),
        "thinned": (spec, st, c, None),
    }
    thin = solve(spec, st, replace(c, store_every=3))
    for name, (spec2, st2, c2, dt) in others.items():
        with pytest.raises(ConfigMismatch, match="frozen run"):
            solve(spec2, st2, c2, dt_override=dt,
                  frozen=thin if name == "thinned" else run)


@pytest.mark.parametrize("lo", [1 / 4, 1 / 16])
def test_picard_iterate_leaving_the_cfl_range_is_refused(lo):
    # the frozen source drives the iterate out of the data range, on which
    # the conservation law's CFL bound was taken: at the first time a state
    # stepped from puts dt above the bound on the widened range, the march
    # is refused, before its states overflow (lo = 1/16) or the loop fails
    # to converge (lo = 1/4)
    measure = FractionalRadial(alpha=1.0, lo=lo, hi=2.0)
    with np.errstate(all="ignore"):
        with pytest.raises(CflViolation, match="frozen march state at t="):
            picard_solve(PROBLEM_PRESETS["burgers_bump"](), measure,
                         conf(1 / 32), k_max=12)


def test_chain_members_keep_the_cadence_the_reference_stores_every_step():
    spec = make_problem("burgers", "identity", "bump", T=0.2)
    chain = [truncate(FractionalRadial(alpha=1.0), 1 / n)[1]
             for n in (4, 8, 16)]
    whole = stability_run(spec, chain, conf(1 / 32, Z=1.0))
    thin = stability_run(spec, chain, conf(1 / 32, Z=1.0, store_every=3))
    n_steps = thin.reference.stats["n_steps"]
    assert len(thin.reference.times) == n_steps + 1
    assert thin.reference.states.tobytes() == whole.reference.states.tobytes()
    for tr, full in zip(thin.trajectories, whole.trajectories):
        assert len(tr.times) == n_steps // 3 + 1 < n_steps + 1
        assert tr.states.tobytes() == full.states[::3].tobytes()
    assert thin.l1_distances == whole.l1_distances
    assert thin.l2_b_distances == whole.l2_b_distances
