"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest -s tests/test_acceptance.py  to see the criterion table.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from levyfv import analysis
from levyfv.measures import (AtomicSymmetric, DyadicA, DyadicB,
                             FractionalRadial, single_atom, truncate,
                             validate_measure, zero_measure)
from levyfv.multiplier import MultiplierEval
from levyfv.problem import make_problem
from levyfv.scheme import (SchemeConfig, l1_q_distance, picard_solve, solve,
                           stability_run, vanishing_viscosity_run)
from levyfv.stencil import build_stencil, fourier_energy_check


def report(num, ok, elapsed, budget, detail=""):
    line = (f"CRITERION {num:02d} {'PASS' if ok else 'FAIL'} "
            f"({elapsed:.2f}s / budget {budget}s) {detail}")
    print(line)
    assert ok, line
    assert elapsed < budget, f"criterion {num} over runtime budget: {line}"


def test_criterion_01_dyadic_a_goldens():
    t0 = time.perf_counter()
    rep = validate_measure(DyadicA())
    ok = abs(rep.levy_moment - 1.0 / 3.0) <= 1e-12
    ev = MultiplierEval(DyadicA())
    plateau = (2.0 / 3.0) * math.pi ** 2
    ok &= all(ev.m(math.pi * 2.0 ** n) <= plateau + 1e-10
              for n in range(1, 21))
    # unboundedness evidence: the off-lattice samples escape the plateau and
    # keep climbing (growth is log2 |xi|; the absolute 1e3 threshold of the
    # remaining clause is exercised separately below)
    gen = [ev.m(1.1 * 2.0 ** n) for n in range(1, 41)]
    ok &= gen[-1] > 4.0 * plateau and gen[-1] > gen[19] > gen[9]
    report(1, ok, time.perf_counter() - t0, 1,
           f"moment={rep.levy_moment:.15f} max_offgrid_m={gen[-1]:.1f}")


@pytest.mark.xfail(
    strict=True,
    reason="the symbol of this measure grows like log2|xi| along xi=1.1*2^n "
           "(provable bound 2n + 0.41, measured ~48 at n=40), so no sample "
           "with n <= 40 can exceed 1e3; n alone does not help (measured "
           "54.1 at n=520): it takes hundreds of explicit atoms and n near "
           "1023")
def test_criterion_01_unboundedness_threshold_as_stated():
    ev = MultiplierEval(DyadicA())
    assert max(ev.m(1.1 * 2.0 ** n) for n in range(1, 41)) > 1e3


def test_criterion_02_dyadic_b_goldens():
    t0 = time.perf_counter()
    rep = validate_measure(DyadicB())
    ok = abs(rep.levy_moment - 1.0) <= 1e-12
    ev = MultiplierEval(DyadicB())
    for i, s in enumerate(np.linspace(1.0, 2.0, 20)):
        n = i % 12 + 2
        ok &= ev.m(float(s) * 2.0 ** n) >= 2.0 ** n * (1 - math.cos(1.0))
    worst_zero = 0.0
    for n in range(1, 13):
        _, outer = truncate(DyadicB(), 2.0 ** -n)
        worst_zero = max(worst_zero,
                         abs(outer.multiplier_value(math.pi * 2.0 ** (n + 1))))
    ok &= worst_zero <= 1e-10
    report(2, ok, time.perf_counter() - t0, 1,
           f"moment={rep.levy_moment:.15f} worst_truncation_zero={worst_zero:.1e}")


def test_criterion_03_fourier_identity():
    t0 = time.perf_counter()
    n, box = 1024, 20.0
    dx = 2 * box / n
    x = -box + (np.arange(n) + 0.5) * dx
    phi = np.exp(-x ** 2)
    atom = single_atom(z=32 * dx, w=0.5)  # grid-aligned single atom
    chk1 = fourier_energy_check(phi, dx, MultiplierEval(atom),
                                build_stencil(atom, dx, dx, 2.0))
    n2 = 4096
    dx2 = 2 * box / n2
    x2 = -box + (np.arange(n2) + 0.5) * dx2
    band = FractionalRadial(alpha=1.0, lo=0.08, hi=4.0)
    chk2 = fourier_energy_check(np.exp(-x2 ** 2), dx2, MultiplierEval(band),
                                build_stencil(band, dx2, 0.08, 4.0))
    ok = chk1["rel_err"] <= 1e-3 and chk2["rel_err"] <= 1e-2
    report(3, ok, time.perf_counter() - t0, 5,
           f"atom_rel_err={chk1['rel_err']:.2e} "
           f"fractional_rel_err={chk2['rel_err']:.2e}")


def test_criterion_04_finite_measure_sandwich():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    grid = np.linspace(0.0, 400.0, 40001)
    ok = True
    for _ in range(20):
        entries = tuple((float(rng.uniform(0.2, 3.0)),
                         float(rng.uniform(0.1, 1.0)))
                        for _ in range(int(rng.integers(1, 8))))
        m = AtomicSymmetric(entries=entries)
        mass = m.total_mass()
        sup = float(np.max(MultiplierEval(m).m_many(grid)))
        ok &= sup <= 2.0 * mass * (1.0 + 1e-12)  # exact upper half
        ok &= sup >= mass - 0.05 * mass          # declared 5% grid slack
    report(4, ok, time.perf_counter() - t0, 5)


def _preset_matrix():
    atomic = single_atom(z=0.125, w=0.5)
    frac = truncate(FractionalRadial(alpha=1.0), 1.0 / 64)[1]
    for flux in ("burgers", "linear"):
        for diff, kw in (("identity", {}), ("power", {"m": 2.0}),
                         ("stefan", {"ell": 0.5})):
            for mu in (atomic, frac):
                yield flux, diff, kw, mu


def test_criterion_05_discrete_maximum_principle():
    t0 = time.perf_counter()
    ok = True
    worst = math.inf
    for flux, diff, kw, mu in _preset_matrix():
        spec = make_problem(flux, diff, "riemann", T=0.5, **kw)
        dx = 1.0 / 256
        st = build_stencil(mu, dx, dx, 0.5)
        traj = solve(spec, st, SchemeConfig(dx=dx, r=dx, Z=0.5))
        res = analysis.max_principle_check(traj)
        ok &= res.passed
        worst = min(worst, res.worst_slack)
    report(5, ok, time.perf_counter() - t0, 60, f"worst_slack={worst:.1e}")


def test_criterion_06_discrete_l1_contraction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    ok = True
    for flux, diff, kw, mu in _preset_matrix():
        spec = make_problem(flux, diff, "riemann", T=0.5, **kw)
        dx = 1.0 / 128
        st = build_stencil(mu, dx, dx, 0.5)
        base = solve(spec, st, SchemeConfig(dx=dx, r=dx, Z=0.5))
        dt = float(base.times[1] - base.times[0])
        for _ in range(5):
            c = float(rng.uniform(0.2, 0.8))
            w = float(rng.uniform(0.02, 0.1))
            amp = float(rng.uniform(-0.3, 0.3))
            pert = replace(spec, u0=lambda x, c=c, w=w, amp=amp: np.clip(
                spec.u0(x) + amp * np.exp(-((np.asarray(x) - c) / w) ** 2),
                0.0, 1.0))
            other = solve(pert, st, SchemeConfig(dx=dx, r=dx, Z=0.5, dt=dt))
            _, verdict = analysis.l1_contraction_check(base, other)
            ok &= verdict.passed
    report(6, ok, time.perf_counter() - t0, 60)


def test_criterion_07_picard_contraction():
    t0 = time.perf_counter()
    spec = make_problem("burgers", "identity", "bump", T=0.5)
    conf = SchemeConfig(dx=1.0 / 64, r=1.0 / 64, Z=0.5)
    mu = single_atom(z=0.3, w=0.5)       # ||mu|| = 1, L_b = 1
    res = picard_solve(spec, mu, conf, k_max=9, tol=0.0)
    rate = 2.0 * 1.0 * 1.0 * spec.T      # 2 L_b ||mu|| T = 1
    ok = len(res.gaps) >= 8
    for k, gap in enumerate(res.gaps[:8], start=1):
        bound = res.first_iterate_norm * rate ** k / math.factorial(k)
        ok &= gap <= bound * 1.1 + 1e-14
    tol = 1e-6
    res2 = picard_solve(spec, mu, conf, k_max=30, tol=tol)
    st = build_stencil(mu, conf.dx, conf.r, conf.Z)
    direct = solve(spec, st, conf,
                   dt_override=float(res2.trajectory.times[1]
                                     - res2.trajectory.times[0]))
    dist = l1_q_distance(res2.trajectory, direct)
    ok &= dist <= 10 * tol
    report(7, ok, time.perf_counter() - t0, 120,
           f"limit_vs_direct={dist:.2e}")


def test_criterion_08_energy_inequality():
    t0 = time.perf_counter()
    measure = truncate(FractionalRadial(alpha=1.0), 1.0 / 32)[1]
    spec = make_problem("burgers", "identity", "bump", T=0.3)
    slack = {}
    for dx in (1.0 / 64, 1.0 / 128, 1.0 / 256):
        st = build_stencil(measure, dx, 1.0 / 32, 1.0)
        traj = solve(spec, st, SchemeConfig(dx=dx, r=1.0 / 32, Z=1.0))
        slack[dx] = analysis.energy_report(traj)["slack"]
    eps128 = analysis.two_grid_tolerance(slack[1 / 64], slack[1 / 128])
    eps256 = analysis.two_grid_tolerance(slack[1 / 128], slack[1 / 256])
    ok = (slack[1 / 128] >= -eps128 and slack[1 / 256] >= -eps256
          and eps256 < eps128)
    report(8, ok, time.perf_counter() - t0, 120,
           f"slack256={slack[1/256]:.4f} eps: {eps128:.2e}->{eps256:.2e}")


def _worst_residual(spec, mu, dx, radii):
    st = build_stencil(mu, dx, dx, 0.25)
    traj = solve(spec, st, SchemeConfig(dx=dx, r=dx, Z=0.25))
    a, b = traj.spec.domain
    fam = analysis.default_test_family(a, b, spec.T)
    levels = analysis.quantile_levels(*traj.disc.data_range)
    worst = -math.inf
    for r_mult in radii:
        rep = analysis.entropy_residual(traj, mu, fam, levels, r_mult * dx)
        worst = max(worst, rep.worst)
    return worst


def test_criterion_09_entropy_residuals():
    t0 = time.perf_counter()
    shock = make_problem("burgers", "zero", "riemann", T=0.25)
    mixed = make_problem("burgers", "stefan", "bump", ell=0.3, T=0.25)
    ok = True
    details = []
    for spec, mu in ((shock, zero_measure()),
                     (mixed, single_atom(z=0.125, w=0.5))):
        worst = {dx: _worst_residual(spec, mu, dx, (1, 4, 16))
                 for dx in (1.0 / 64, 1.0 / 128)}
        eps = analysis.two_grid_tolerance(worst[1 / 64], worst[1 / 128])
        ok &= worst[1 / 128] <= eps
        details.append(f"{worst[1/128]:.2e}<= {eps:.2e}")
    report(9, ok, time.perf_counter() - t0, 120, " ".join(details))


def test_criterion_10_vanishing_viscosity():
    t0 = time.perf_counter()
    rare = make_problem("burgers", "identity", "riemann_up", T=0.3)
    rep = vanishing_viscosity_run(rare, 1.0, [1, 4, 16, 64],
                                  SchemeConfig(dx=1.0 / 128, r=1.0 / 128,
                                               Z=0.5))
    d = rep.l1_distances
    ok = all(np.diff(d) < 0.0) and d[-1] <= 0.2 * d[0]
    report(10, ok, time.perf_counter() - t0, 180,
           f"distances={['%.4f' % v for v in d]}")


def test_criterion_11_stability_chain():
    t0 = time.perf_counter()
    base = FractionalRadial(alpha=1.0)
    measures = [truncate(base, 1.0 / n)[1] for n in (4, 8, 16, 32, 64)]
    spec = make_problem("burgers", "identity", "bump", T=0.3)
    conf = SchemeConfig(dx=1.0 / 128, r=1.0 / 128, Z=1.0)
    rep = stability_run(spec, measures, conf)
    ok = all(np.diff(rep.measure_distances) < 0.0)
    ok &= all(np.diff(rep.l2_b_distances) < 0.0)
    energies = np.asarray([analysis.energy_report(traj)["lhs"]
                           for traj in rep.trajectories])
    ok &= float(energies.max()) <= 1.1 * float(np.median(energies))
    # compactness pipeline: sup_n of the space modulus shrinks as h halves
    dt = float(rep.reference.times[1] - rep.reference.times[0])
    shifts = [8, 4, 2, 1]
    sups = []
    for h in shifts:
        sup = 0.0
        for traj in rep.trajectories:
            tab = analysis.translation_moduli(traj.gamma(), dt, conf.dx,
                                              [h], [])
            sup = max(sup, tab["space"][0][1])
        sups.append(sup)
    ok &= all(np.diff(sups) < 0.0)
    report(11, ok, time.perf_counter() - t0, 300,
           f"energies_max/med={float(energies.max() / np.median(energies)):.3f}")


def test_criterion_12_randomized_property_suites():
    t0 = time.perf_counter()
    mean = analysis.mean_bound_suite(np.random.default_rng(12345),
                                     trials=10000)
    from levyfv.problem import (diffusion_identity, diffusion_power,
                                diffusion_stefan)
    moll = analysis.mollification_bound_suite(
        [diffusion_identity(), diffusion_power(2.0), diffusion_stefan(0.25)],
        np.random.default_rng(54321), trials=10000)
    ok = mean["violations"] == 0 and moll["violations"] == 0
    report(12, ok, time.perf_counter() - t0, 10,
           f"mean_trials={mean['trials']} moll_trials={moll['trials']}")
