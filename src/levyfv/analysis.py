"""Diagnostics: every a-priori inequality, compactness quantity, and
counterexample table the solver's output can be checked against.

Inequality checks report their slack (bound minus attained value) and never
clamp it; a negative slack is a recorded failure, not an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigMismatch, ConfigParse, MissingExtensionDerivatives
from .measures import DyadicA, DyadicB, FractionalRadial, LevyMeasure, \
    truncate
from .multiplier import MultiplierEval
from .problem import DiffusionFn, DiscreteProblem, sample_rows
from .scheme import L1Series, SchemeConfig, Trajectory, _numerical_flux, \
    _tail_value, jump_term, l1_series, paired_rows, replay
from .stencil import StencilWeights, build_stencil, row_blocks, \
    zero_extended_energy


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst_slack: float
    params: dict = field(default_factory=dict)

    def as_dict(self):
        return {"pass": bool(self.passed),
                "worst_slack": float(self.worst_slack),
                "params": self.params}


def two_grid_tolerance(coarse: float, fine: float) -> float:
    """Refinement-sweep tolerance: for a first-order discretization the error
    at the fine grid is approximately the difference between the two levels
    (Richardson with p = 1), times a fixed safety factor 1.5, plus a floor
    of 1e-10."""
    return 1.5 * abs(coarse - fine) + 1e-10


# ---------------------------------------------------------------------------
# a priori bounds
# ---------------------------------------------------------------------------

class MaxPrinciple:
    """Observer of a march (`scheme.solve`, `scheme.replay`): every interior
    value must stay inside the recorded data range of `disc`."""

    def __init__(self, disc: DiscreteProblem, tol: float = 1e-12):
        self.disc = disc
        self.tol = tol
        self.umin, self.umax = math.inf, -math.inf

    def __call__(self, rows, times, block):
        u = block[:, self.disc.grid.interior]
        self.umin = min(self.umin, u.min())
        self.umax = max(self.umax, u.max())

    def result(self) -> CheckResult:
        lo, hi = self.disc.data_range
        # rounding is monotone, so min(u - lo) = min(u) - lo exactly
        slack = float(min(self.umin - lo, hi - self.umax))
        return CheckResult("max_principle", slack >= -self.tol, slack,
                           {"range": [lo, hi], "tol": self.tol})


def max_principle_check(traj: Trajectory, tol: float = 1e-12) -> CheckResult:
    """`MaxPrinciple` over the stored states of `traj`."""
    check = MaxPrinciple(traj.disc, tol)
    replay(traj, [check])
    return check.result()


def contraction_verdict(series: np.ndarray,
                        per_step_tol: float = 1e-12) -> CheckResult:
    """The interior L1 distance of two runs with shared exterior data, one
    value per step (`scheme.L1Series`), must be nonincreasing in time."""
    increments = np.diff(series)
    slack = float(-increments.max()) if increments.size else 0.0
    scale = max(float(series[0]), 1.0)
    ok = bool(np.all(increments <= per_step_tol * scale))
    return CheckResult("l1_contraction", ok, slack,
                       {"initial": float(series[0]),
                        "final": float(series[-1]), "tol": per_step_tol})


class L1Contraction(L1Series):
    """Observer of a march: its `L1Series` to the stored trajectory `other`,
    whose result is the series' `contraction_verdict`."""

    def __init__(self, other: Trajectory, per_step_tol: float = 1e-12):
        super().__init__(other)
        self.per_step_tol = per_step_tol

    def result(self) -> CheckResult:
        return contraction_verdict(super().result(), self.per_step_tol)


def l1_contraction_check(traj_u: Trajectory, traj_v: Trajectory,
                         per_step_tol: float = 1e-12):
    """`contraction_verdict` of the L1 series of two stored trajectories.
    Returns (series, verdict)."""
    series = l1_series(traj_u, traj_v)
    return series, contraction_verdict(series, per_step_tol)


def order_preservation_check(traj_u: Trajectory, traj_v: Trajectory,
                             tol: float = 1e-12) -> CheckResult:
    """u0 <= v0 and exterior data u <= v imply u <= v at every step.  The
    runs must be comparable, with ordered halos (`paired_rows`)."""
    for tr in (traj_u, traj_v):
        tr.require_every_step()
    if traj_u.states.shape != traj_v.states.shape:
        raise ConfigMismatch("trajectories have different shapes")
    inside = traj_u.grid.interior
    slack = math.inf

    def observe(rows, times, block):
        nonlocal slack
        _, u, v = paired_rows(traj_v, rows, times, block, ordered=True)
        slack = min(slack, float((v[:, inside] - u[:, inside]).min()))

    replay(traj_u, [observe])
    return CheckResult("order_preservation", slack >= -tol, slack, {})


class MassBudget:
    """Observer of a march (`scheme.solve`, `scheme.replay`) of `disc` with
    `stencil` and `config` at step `dt`: the bookkeeping identity, per
    step, that the interior mass change equals the boundary flux difference
    plus the nonlocal exchange.

    Summed over the interior, the exchanges between two interior cells
    cancel: offset j leaves the interior sums of b(u) shifted by +j and by
    -j minus twice the unshifted one, each a difference of two prefix sums
    of b(u) over the cells the live offsets reach.  One product with the
    live weights gives a block's exchange and the flux is evaluated at the
    two boundary faces alone, so a block of steps costs O(rows (n + J)), J
    the last nonzero offset; a null stencil does no exchange work.  The
    check states the conservation identity independently: nothing goes
    through `apply_stencil`.  It needs consecutive steps."""

    def __init__(self, disc: DiscreteProblem, stencil: StencilWeights,
                 config: SchemeConfig, dt: float, tol: float = 1e-12):
        spec = disc.spec
        lo, hi = disc.data_range
        self.disc = disc
        self.dt = dt
        self.tol = tol
        self.flux_pair = _numerical_flux(config, spec,
                                         spec.flux.lipschitz_on(lo, hi))
        live = stencil.weights != 0.0
        self.w, self.j = stencil.weights[live], stencil.offsets[live]
        self.J = int(self.j[-1]) if self.j.size else 0
        self.tau = 0.0 if config.tail_mode == "drop" else stencil.tau
        self.worst = 0.0
        self.peak = 0.0

    def __call__(self, rows, times, block):
        grid = self.disc.grid
        dt, w, j, J, tau = self.dt, self.w, self.j, self.J, self.tau
        h = grid.n_halo
        n = grid.n
        if rows.start == 0:
            self.peak = float(np.abs(block[0, grid.interior]).max())
        u = block[:-1]
        nxt = block[1:, grid.interior]
        self.peak = max(self.peak, float(np.abs(nxt).max()))
        mass_change = grid.dx * (nxt - u[:, grid.interior]).sum(axis=1)
        fhat = self.flux_pair(u[:, [h - 1, h + n - 1]], u[:, [h, h + n]])
        defect = mass_change + dt * (fhat[:, 1] - fhat[:, 0])
        if J or tau != 0.0:
            bf = self.disc.spec.diffusion.b(u)
            # P[:, k] sums b over full cells h - J .. h - J + k - 1
            P = np.zeros((u.shape[0], n + 2 * J + 1))
            np.cumsum(bf[:, h - J:h + n + J], axis=1, out=P[:, 1:])
            center = P[:, J + n] - P[:, J]
            shifted = (P[:, J + j + n] - P[:, J + j]
                       + P[:, J - j + n] - P[:, J - j] - 2.0 * center[:, None])
            exchange = shifted @ w
            if tau != 0.0:
                exchange += tau * (n * _tail_value(self.disc, bf) - center)
            defect -= dt * grid.dx * exchange
        self.worst = max(self.worst, float(np.abs(defect).max()))

    def result(self) -> CheckResult:
        scale = max(1.0, self.peak)
        return CheckResult("mass_budget", self.worst <= self.tol * scale,
                           -self.worst,
                           {"worst_defect": self.worst, "tol": self.tol})


def mass_budget_check(traj: Trajectory, tol: float = 1e-12) -> CheckResult:
    """`MassBudget` over the stored states of `traj`, which must store every
    step."""
    traj.require_every_step()
    check = MassBudget(traj.disc, traj.stencil, traj.config, traj.dt, tol)
    replay(traj, [check])
    return check.result()


# ---------------------------------------------------------------------------
# energy inequality
# ---------------------------------------------------------------------------

def energy_report(traj: Trajectory) -> dict:
    """Both sides of the global energy inequality for gamma = b(u) - b(ext).

    lhs: time-integrated energy form of gamma extended by zero
    (`zero_extended_energy`: the interior pairs, plus the pairs straddling
    the boundary by prefix sums, with no padded copy).
    rhs: entropy potential of the initial data, the transport terms weighted
    by b'(ext), and the jump operator applied to b(ext) paired with gamma.
    slack = rhs - lhs; the continuum bound guarantees slack >= 0 up to
    discretization error.  The extension is sampled on the interior, once
    per integrated stored time and at t = 0; its halo is the stored one.
    The trajectory must store every step.
    """
    traj.require_every_step()
    spec = traj.spec
    ext = spec.exterior
    if ext.dt is None or ext.grad is None:
        raise MissingExtensionDerivatives(
            "energy report needs closed-form extension derivatives")
    grid = traj.grid
    dt = traj.dt
    dx = grid.dx
    x = grid.x_interior()
    b = spec.diffusion.b
    bprime = spec.diffusion.bprime
    f = spec.flux.f

    def transport(u, e, t):
        """The transport integrand summed over the interior, per time."""
        f_big = np.sign(u - e) * (f(u) - f(e))
        return (((u - e) * sample_rows(ext.dt, t, x)
                 + f_big * sample_rows(ext.grad, t, x)) * bprime(e)).sum(axis=1)

    ext0 = np.asarray(ext.value(0.0, x), dtype=float)
    u0 = traj.states[0, grid.interior]
    rhs_initial = dx * float(np.sum(spec.diffusion.entropy_h(u0, ext0)))

    times = traj.times[:-1]
    gamma = np.empty((len(times), grid.n))
    rhs_transport = 0.0
    rhs_operator = 0.0
    for rows in row_blocks(len(times), grid.n_full):
        u = traj.states[rows, grid.interior]
        # ext on the full grid: the stored halo, and the interior sampled
        ext_full = traj.states[rows].copy()
        e = ext_full[:, grid.interior]
        e[...] = sample_rows(ext.value, times[rows], x)
        gamma[rows] = b(u) - b(e)
        # one sum per stored time, accumulated in time order
        for s in transport(u, e, times[rows]):
            rhs_transport -= dt * dx * float(s)
        rhs_operator += dt * dx * float(np.sum(jump_term(
            b(ext_full), traj.disc, traj.stencil, traj.config.tail_mode)
            * gamma[rows]))
    lhs = dt * zero_extended_energy(gamma, traj.stencil, dx)

    rhs = rhs_initial + rhs_transport + rhs_operator
    return {"lhs": lhs, "rhs": rhs, "slack": rhs - lhs,
            "parts": {"initial": rhs_initial, "transport": rhs_transport,
                      "operator": rhs_operator}}


# ---------------------------------------------------------------------------
# entropy residuals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceTimeBump:
    """Nonnegative tensor bump: raised-cosine in space times raised-cosine in
    time, with closed-form first and second derivatives.  Supports vanish
    before the horizon, so the terminal condition holds by construction."""

    xc: float
    rx: float
    tc: float
    rt: float

    def _space(self, x):
        s = (np.asarray(x, dtype=float) - self.xc) / self.rx
        inside = np.abs(s) < 1.0
        return inside, s

    def value(self, t, x):
        inside, s = self._space(x)
        ft = self._time(t)
        return np.where(inside, np.cos(np.pi * s / 2.0) ** 2, 0.0) * ft

    def dx(self, t, x):
        inside, s = self._space(x)
        ft = self._time(t)
        d = -np.pi / (2.0 * self.rx) * np.sin(np.pi * s)
        return np.where(inside, d, 0.0) * ft

    def dxx(self, t, x):
        inside, s = self._space(x)
        ft = self._time(t)
        d = -(np.pi ** 2) / (2.0 * self.rx ** 2) * np.cos(np.pi * s)
        return np.where(inside, d, 0.0) * ft

    def _time(self, t):
        s = (np.asarray(t, dtype=float) - self.tc) / self.rt
        return np.where(np.abs(s) < 1.0, np.cos(np.pi * s / 2.0) ** 2, 0.0)

    def dt(self, t, x):
        inside, sx = self._space(x)
        s = (np.asarray(t, dtype=float) - self.tc) / self.rt
        dft = np.where(np.abs(s) < 1.0,
                       -np.pi / (2.0 * self.rt) * np.sin(np.pi * s), 0.0)
        return np.where(inside, np.cos(np.pi * sx / 2.0) ** 2, 0.0) * dft


def default_test_family(a: float, b: float, T: float):
    """3 space scales x 3 centers x 3 time profiles of admissible bumps."""
    width = b - a
    out = []
    for rx in (0.12 * width, 0.25 * width, 0.45 * width):
        for xc in (a + 0.3 * width, a + 0.5 * width, a + 0.7 * width):
            for tc, rt in ((0.0, 0.6 * T), (0.35 * T, 0.35 * T),
                           (0.55 * T, 0.4 * T)):
                out.append(SpaceTimeBump(xc=xc, rx=rx, tc=tc, rt=rt))
    return out


def quantile_levels(lo: float, hi: float) -> np.ndarray:
    """Seven equispaced Kruzkov levels across [lo, hi]."""
    return np.linspace(lo, hi, 7)


def _pos(v):
    return np.maximum(v, 0.0)


def _sgn_plus(v):
    return (v > 0.0).astype(float)


def admissible_pair(b_datum: np.ndarray, b_levels: np.ndarray,
                    phi_halo: np.ndarray):
    """Compatibility of (k, phi, ±) with the exterior datum, for every level
    k at once: the positive (negative) part of b(datum) - b(k) must vanish,
    up to 1e-10, wherever phi is positive on the halo.

    `b_datum` and `phi_halo` are (screening times, halo cells) and
    `b_levels` holds b(k) per level; returns the (plus, minus) verdicts per
    level."""
    diff = b_datum - b_levels[:, None, None]
    plus = np.max(_pos(diff) * phi_halo, axis=(1, 2)) <= 1e-10
    minus = np.max(_pos(-diff) * phi_halo, axis=(1, 2)) <= 1e-10
    return plus, minus


@dataclass
class ResidualRow:
    k: float
    sign: str
    phi_index: int
    residual: float


@dataclass
class ResidualReport:
    rows: list
    skipped: int

    @property
    def worst(self) -> float:
        return max((r.residual for r in self.rows), default=-math.inf)


def entropy_residual(traj: Trajectory, measure: LevyMeasure, family, levels,
                     r: float, signs=("plus", "minus")) -> ResidualReport:
    """Discrete residual of the full entropy inequality at splitting radius r.

    `measure` must be the jump measure the trajectory was solved with; the
    splitting reuses it to build the zero-order part (no small-jump surrogate)
    and the small-jump second moment.  Nonpositive residuals (up to grid
    tolerance) mean the inequality holds.  Inadmissible (k, phi, ±)
    combinations are skipped and counted; admissibility is screened once per
    phi, for every level and both signs (`admissible_pair`).  A sign other
    than "plus" or "minus" is refused (`ConfigParse`), and so is a
    trajectory that does not store every step (`ConfigMismatch`).
    """
    traj.require_every_step()
    signs_of = {"plus": 1.0, "minus": -1.0}
    for sign in signs:
        if sign not in signs_of:
            raise ConfigParse(f"unknown entropy sign {sign!r}")
    spec = traj.spec
    grid = traj.grid
    dt = traj.dt
    dx = grid.dx
    xi = grid.x_interior()
    xf = grid.x_full()
    times = traj.times[:-1]
    b = spec.diffusion.b
    f = spec.flux.f
    levels = np.atleast_1d(np.asarray(levels, dtype=float))
    lo, hi = traj.disc.data_range
    lf = spec.flux.lipschitz_on(min(lo, float(np.min(levels))),
                                max(hi, float(np.max(levels))))

    # operator pieces at this splitting radius
    sigma2_r, outer = truncate(measure, r)
    stencil_r = build_stencil(outer, dx, r, max(traj.stencil.Z, r))

    u_all = traj.states[:-1]
    u_int = u_all[:, grid.interior]
    bu_all = b(u_all)
    fu_int = f(u_int)
    op_big = np.empty_like(u_int)
    for rows in row_blocks(u_all.shape[0], grid.n_full):
        op_big[rows] = jump_term(bu_all[rows], traj.disc, stencil_r,
                                 traj.config.tail_mode)

    bnd_x = np.array(spec.domain, dtype=float)
    u0 = traj.states[0, grid.interior]
    datum_bnd = sample_rows(spec.exterior.value, times, bnd_x)

    # the admissibility screening reads the stored halo at these times
    xh = traj.disc.halo_x
    stride = max(1, len(traj.times) // 16)
    screen_t = traj.times[::stride]
    b_datum = b(traj.states[::stride][:, grid.halo_mask()])
    b_levels = b(levels)

    # built once per admissible (level, sign), as no phi enters them, with
    # s = +1 ("plus") or -1 ("minus"): (s(u - k))^+, its flux, the signed
    # jump term, (s(b(u) - b(k)))^+, and the entropies of u0 and of the
    # boundary datum; negation is exact, so both signs share one expression
    integrands = {}
    rows, skipped = [], 0
    for idx, phi in enumerate(family):
        phi_t = phi.dt(times[:, None], xi[None, :])
        phi_x = phi.dx(times[:, None], xi[None, :])
        phi_v = phi.value(times[:, None], xi[None, :])
        small_op = 0.5 * sigma2_r * phi.dxx(times[:, None], xf[None, :])
        phi0 = phi.value(0.0, xi)
        phi_bnd = phi.value(times[:, None], bnd_x[None, :])
        admissible = dict(zip(signs_of, admissible_pair(
            b_datum, b_levels, phi.value(screen_t[:, None], xh[None, :]))))
        for i, k in enumerate(levels):
            for sign in signs:
                if not admissible[sign][i]:
                    skipped += 1
                    continue
                if (i, sign) not in integrands:
                    s = signs_of[sign]
                    sgn = s * _sgn_plus(s * (u_int - k))
                    fk = float(np.asarray(f(k)))
                    integrands[i, sign] = (
                        _pos(s * (u_int - k)), sgn * (fu_int - fk),
                        op_big * sgn, _pos(s * (bu_all - b_levels[i])),
                        _pos(s * (u0 - k)), _pos(s * (datum_bnd - k)))
                ent, flux_ent, op_sgn, bent, ent0, ent_bnd = \
                    integrands[i, sign]
                t1 = -dt * dx * float(np.sum(ent * phi_t + flux_ent * phi_x))
                t2 = -dt * dx * float(np.sum(op_sgn * phi_v))
                t3 = -dt * dx * float(np.sum(bent * small_op))
                rhs = dx * float(np.sum(ent0 * phi0))
                rhs += lf * dt * float(np.sum(ent_bnd * phi_bnd))
                rows.append(ResidualRow(k=float(k), sign=sign, phi_index=idx,
                                        residual=t1 + t2 + t3 - rhs))
    return ResidualReport(rows=rows, skipped=skipped)


# ---------------------------------------------------------------------------
# compactness quantities
# ---------------------------------------------------------------------------

def translation_moduli(gamma: np.ndarray, dt: float, dx: float,
                       space_shifts, time_shifts) -> dict:
    """L2 translation moduli of a space-time field extended by zero.

    `gamma` is (n_times, n_cells); shifts are in grid units.  Returns tables
    {"space": [(h, value)], "time": [(tau, value)]} with physical offsets.
    """
    g = np.asarray(gamma, dtype=float)
    scale = math.sqrt(dt * dx)

    def shifted_diff(axis, steps):
        if steps == 0:
            return 0.0
        pad = [(0, 0), (0, 0)]
        pad[axis] = (steps, steps)
        gp = np.pad(g, pad)
        moved = np.roll(gp, steps, axis=axis)
        return scale * math.sqrt(float(np.sum((moved - gp) ** 2)))

    return {
        "space": [(s * dx, shifted_diff(1, int(s))) for s in space_shifts],
        "time": [(s * dt, shifted_diff(0, int(s))) for s in time_shifts],
    }


def uniform_energy_series(runs) -> np.ndarray:
    """E_n = dt * sum_t energy_form(gamma_n) for a list of (stencil, traj)."""
    out = []
    for stencil, traj in runs:
        out.append(traj.dt * zero_extended_energy(traj.gamma()[:-1], stencil,
                                                  traj.grid.dx))
    return np.asarray(out)


# ---------------------------------------------------------------------------
# mollification and mean bounds
# ---------------------------------------------------------------------------

def mollifier_weights(half_width: int) -> np.ndarray:
    """Discrete nonnegative mollifier with unit mass (raised cosine)."""
    j = np.arange(-half_width, half_width + 1)
    w = 1.0 + np.cos(np.pi * j / (half_width + 1))
    return w / w.sum()


def mollification_bound_check(u: np.ndarray, diffusion: DiffusionFn,
                              weights: np.ndarray) -> float:
    """Worst slack of |b(u*rho)(x) - b(u(x))|^2 <= C (|b(u(.)) - b(u(x))|*rho)(x)
    over interior points, with C = 2 L_b max|u|.  Nonnegative slack means the
    pointwise bound holds."""
    u = np.asarray(u, dtype=float)
    m = (len(weights) - 1) // 2
    lipschitz = diffusion.lipschitz_on(float(u.min()), float(u.max()))
    C = 2.0 * lipschitz * float(np.abs(u).max())
    bu = diffusion.b(u)
    n_valid = u.shape[-1] - 2 * m
    center = u[..., m:m + n_valid]
    b_center = bu[..., m:m + n_valid]
    smooth = np.zeros_like(center)
    spread = np.zeros_like(center)
    for i, w in enumerate(weights):
        seg = u[..., i:i + n_valid]
        smooth += w * seg
        spread += w * np.abs(bu[..., i:i + n_valid] - b_center)
    lhs = (diffusion.b(smooth) - b_center) ** 2
    rhs = C * spread
    return float((rhs - lhs).min())


def mollification_bound_suite(diffusions, rng, trials: int = 10000) -> dict:
    """Randomized verification of the mollification bound on fields of 32
    cells with a mollifier of half width 4; returns the number of
    violations (expected: zero) and the worst slack seen."""
    weights = mollifier_weights(4)
    violations = 0
    worst = math.inf
    per = max(1, -(-trials // len(diffusions)))  # ceil: run at least `trials`
    for diffusion in diffusions:
        u = rng.uniform(-1.0, 1.0, size=(per, 32))
        slack = mollification_bound_check(u, diffusion, weights)
        worst = min(worst, slack)
        if slack < -1e-12:
            violations += 1
    return {"violations": violations, "worst_slack": worst,
            "trials": per * len(diffusions)}


def mean_bound_check(positions: np.ndarray, masses: np.ndarray,
                     grid: np.ndarray, hvals: np.ndarray,
                     L: float, R: float) -> float:
    """Slack of h(mean)^2 <= L R mean(h) for one discrete probability measure
    and one V-shaped Lipschitz h given on `grid`."""
    s_bar = float(np.dot(masses, positions))
    h_bar = float(np.dot(masses, np.interp(positions, grid, hvals)))
    h_at = float(np.interp(s_bar, grid, hvals))
    return L * R * h_bar - h_at ** 2


def mean_bound_suite(rng, trials: int = 10000) -> dict:
    """Randomized trials of the mean bound.

    h is built on 65 grid points by integrating nonnegative random slopes
    <= L away from 0 in both directions (V-shaped, h(0) = 0, Lipschitz
    constant <= L); the probability measure kappa is a random atomic
    measure of at most 32 atoms on [-R, R].
    """
    max_atoms, n_grid = 32, 65
    violations = 0
    worst = math.inf
    half = n_grid // 2
    for _ in range(trials):
        R = float(rng.uniform(0.1, 10.0))
        L = float(rng.uniform(0.1, 10.0))
        grid = np.linspace(-R, R, n_grid)
        dxg = grid[1] - grid[0]
        slopes_right = rng.uniform(0.0, L, size=half)
        slopes_left = rng.uniform(0.0, L, size=half)
        h = np.empty(n_grid)
        h[half] = 0.0
        h[half + 1:] = np.cumsum(slopes_right) * dxg
        h[:half] = np.cumsum(slopes_left[::-1])[::-1] * dxg
        n_atoms = int(rng.integers(1, max_atoms + 1))
        positions = rng.uniform(-R, R, size=n_atoms)
        masses = rng.uniform(0.0, 1.0, size=n_atoms)
        masses = masses / masses.sum() if masses.sum() > 0 else \
            np.full(n_atoms, 1.0 / n_atoms)
        slack = mean_bound_check(positions, masses, grid, h, L, R)
        worst = min(worst, slack)
        if slack < -1e-10 * (1.0 + L * R) ** 2:
            violations += 1
    return {"violations": violations, "worst_slack": worst, "trials": trials}


# ---------------------------------------------------------------------------
# counterexample gallery
# ---------------------------------------------------------------------------

@dataclass
class GalleryRow:
    name: str
    check: str
    param: float
    value: float
    reference: float
    passed: bool


def counterexample_gallery() -> list:
    """Quantitative table for the two dyadic atomic measures.

    Measure A (pair weight 1): moment 1/3; symbol pinned below (2/3) pi^2 on
    the dyadic frequencies pi 2^n while growing like log2|xi| along a generic
    ray (evidence that the symbol is bounded on one unbounded sequence yet
    unbounded overall).  Measure B (pair weight 2^k): moment 1; symbol
    bounded below by 2^n (1 - cos 1) when |xi|/2^n lies in [1, 2]; its
    truncations at radius 2^-n annihilate xi = pi 2^(n+1).
    """
    rows = []
    plateau = (2.0 / 3.0) * math.pi ** 2
    a = DyadicA()
    ev_a = MultiplierEval(a)
    moment_a = a.levy_moment()
    rows.append(GalleryRow("dyadic_a", "levy_moment", 0.0, moment_a,
                           1.0 / 3.0, abs(moment_a - 1.0 / 3.0) <= 1e-12))
    for n in range(1, 21):
        val = ev_a.m(math.pi * 2.0 ** n)
        rows.append(GalleryRow("dyadic_a", "dyadic_plateau", float(n), val,
                               plateau, val <= plateau + 1e-10))
    # growth along a generic ray: values climb like log2(xi), escaping the
    # plateau by a wide margin even though they stay finite for finite n
    gen = [ev_a.m(1.1 * 2.0 ** n) for n in range(1, 41)]
    rows.append(GalleryRow("dyadic_a", "offgrid_growth", 40.0, gen[-1],
                           plateau, gen[-1] > 4.0 * plateau
                           and gen[-1] > gen[9]))
    # partial-sum identity at the first dyadic frequency
    ref = 3.0 + sum(1.0 - math.cos(math.pi * 2.0 ** -l) for l in range(2, 45))
    val = ev_a.m(2.0 * math.pi)
    rows.append(GalleryRow("dyadic_a", "partial_sum_identity", 1.0, val, ref,
                           abs(val - ref) <= 1e-10))

    bmeas = DyadicB()
    ev_b = MultiplierEval(bmeas)
    moment_b = bmeas.levy_moment()
    rows.append(GalleryRow("dyadic_b", "levy_moment", 0.0, moment_b, 1.0,
                           abs(moment_b - 1.0) <= 1e-12))
    for i, s in enumerate(np.linspace(1.0, 2.0, 20)):
        n = i % 12 + 2
        xi = float(s) * 2.0 ** n
        bound = 2.0 ** n * (1.0 - math.cos(1.0))
        val = ev_b.m(xi)
        rows.append(GalleryRow("dyadic_b", "coercive_lower_bound", xi, val,
                               bound, val >= bound - 1e-10))
    for n in range(1, 13):
        _, outer = truncate(bmeas, 2.0 ** -n)
        val = outer.multiplier_value(math.pi * 2.0 ** (n + 1))
        rows.append(GalleryRow("dyadic_b", "truncation_zero", float(n), val,
                               0.0, abs(val) <= 1e-10))

    # finite-measure sandwich on a truncation of measure B
    _, trunc6 = truncate(bmeas, 2.0 ** -6)
    mass = trunc6.total_mass()
    ev_t = MultiplierEval(trunc6)
    grid = np.linspace(0.1, 600.0, 6000)
    sup = float(np.max(ev_t.m_many(grid)))
    rows.append(GalleryRow("dyadic_b_trunc", "sandwich_upper", 6.0, sup,
                           2.0 * mass, sup <= 2.0 * mass * (1 + 1e-12)))
    rows.append(GalleryRow("dyadic_b_trunc", "sandwich_lower", 6.0, sup,
                           mass, sup >= 0.95 * mass))

    # truncation symbols increase pointwise toward the full symbol
    frac = FractionalRadial(alpha=1.0)
    xis = np.array([0.5, 1.0, 3.0, 7.0, 15.0])
    prev = np.zeros_like(xis)
    monotone = True
    for n in (2, 4, 8, 16, 32):
        _, outer = truncate(frac, 1.0 / n)
        vals = MultiplierEval(outer).m_many(xis)
        if np.any(vals < prev - 1e-12):
            monotone = False
        prev = vals
    full = MultiplierEval(frac).m_many(xis)
    rows.append(GalleryRow("fractional", "truncation_monotone", 0.0,
                           float(np.max(full - prev)), 0.0,
                           monotone and bool(np.all(prev <= full + 1e-12))))
    return rows
