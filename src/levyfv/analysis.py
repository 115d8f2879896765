"""Diagnostics: every a-priori inequality, compactness quantity, and
counterexample table the solver's output can be checked against.

Inequality checks report their slack (bound minus attained value) and never
clamp it; a negative slack is a recorded failure, not an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MissingExtensionDerivatives
from .measures import DyadicA, DyadicB, FractionalRadial, LevyMeasure, \
    truncate
from .multiplier import MultiplierEval
from .problem import DiffusionFn, DiscreteProblem, sample_rows
from .scheme import SchemeConfig, Trajectory, _numerical_flux, _tail_value, \
    jump_term, pair_series, replay
from .stencil import StencilWeights, build_stencil, row_blocks, \
    zero_extended_sum


CHECK_TOL = 1e-12       # rounding allowance of the discrete guarantees' checks


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
    value must stay inside the recorded data range of `disc`, widened by
    every halo value the observer sees; a NaN fails.  A moving exterior's
    data range is only a sample, and a thinned run shows only its stored
    halos, so halos widen the range and never replace it.  A block is
    reduced row by row, then across its rows.  A zero slack is +0.0: which
    of the zeros 0.0 and -0.0 a minimum returns depends on the order of the
    reduction (a whole-array and a row-by-row minimum differ), and the sign
    of a zero says nothing about the bound."""

    def __init__(self, disc: DiscreteProblem):
        self.disc = disc
        self.lo, self.hi = disc.data_range
        self.umin, self.umax = math.inf, -math.inf

    def __call__(self, rows, times, block):
        h = self.disc.grid.n_halo
        u = block[:, self.disc.grid.interior]
        self.umin = np.minimum(self.umin, u.min(axis=1).min())
        self.umax = np.maximum(self.umax, u.max(axis=1).max())
        # min and max keep their first argument on a tie, so the bits of
        # the range move only where a halo value lies outside it
        for halo in (block[:, :h], block[:, -h:]):
            self.lo = min(self.lo, float(halo.min()))
            self.hi = max(self.hi, float(halo.max()))

    def result(self) -> CheckResult:
        lo, hi = self.lo, self.hi
        # rounding is monotone, so min(u - lo) = min(u) - lo exactly; adding
        # +0.0 changes -0.0 alone
        slack = float(np.minimum(self.umin - lo, hi - self.umax)) + 0.0
        return CheckResult("max_principle", slack >= -CHECK_TOL, slack,
                           {"range": [lo, hi], "tol": CHECK_TOL})


def max_principle_check(traj: Trajectory) -> CheckResult:
    """`MaxPrinciple` over the stored states of `traj`."""
    return replay(traj, MaxPrinciple(traj.disc))


def contraction_verdict(series: np.ndarray) -> CheckResult:
    """The interior L1 distance of two runs with shared exterior data, one
    value per step (`scheme.pair_series`), must be nonincreasing in time."""
    increments = np.diff(series)
    slack = float(-increments.max()) if increments.size else 0.0
    scale = max(float(series[0]), 1.0)
    ok = bool(np.all(increments <= CHECK_TOL * scale))
    return CheckResult("l1_contraction", ok, slack,
                       {"initial": float(series[0]),
                        "final": float(series[-1]), "tol": CHECK_TOL})


def l1_contraction_check(traj_u: Trajectory, traj_v: Trajectory):
    """`contraction_verdict` of the L1 series of two stored trajectories.
    Returns (series, verdict)."""
    series = pair_series(traj_u, traj_v)
    return series, contraction_verdict(series)


def order_preservation_check(traj_u: Trajectory,
                             traj_v: Trajectory) -> CheckResult:
    """u0 <= v0 and exterior data u <= v imply u <= v at every step: the
    least v - u, `traj_u` paired with `traj_v` (`scheme.pair_series`)
    with ordered halos."""
    slack = float(pair_series(traj_u, traj_v, lambda u, v, buf: np.subtract(
        v, u, out=buf).min(axis=1), ordered=True).min())
    return CheckResult("order_preservation", slack >= -CHECK_TOL, slack, {})


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
    through `apply_stencil`.  It needs consecutive steps.  Its tolerance
    scales with max(1, max|u|), read from the range of its own
    `MaxPrinciple`, `max_principle`, whose result a caller may record too
    (a NaN leaves the scale 1 and fails on the defect)."""

    def __init__(self, disc: DiscreteProblem, stencil: StencilWeights,
                 config: SchemeConfig, dt: float):
        spec = disc.spec
        lo, hi = disc.data_range
        self.disc = disc
        self.dt = dt
        self.flux_pair = _numerical_flux(config, spec,
                                         spec.flux.lipschitz_on(lo, hi))
        live = stencil.weights != 0.0
        self.w, self.j = stencil.weights[live], stencil.offsets[live]
        self.J = int(self.j[-1]) if self.j.size else 0
        self.tau = 0.0 if config.tail_mode == "drop" else stencil.tau
        self.worst = 0.0
        self.max_principle = MaxPrinciple(disc)
        self.buf = np.empty((0, disc.grid.n))
        # the faces -1/2 and n - 1/2: left states at full cells h - 1 and
        # h + n - 1, right states at h and h + n, as basic strided slices
        h, n = disc.grid.n_halo, disc.grid.n
        self.faces = slice(h - 1, h + n, n), slice(h, h + n + 1, n)

    def __call__(self, rows, times, block):
        grid = self.disc.grid
        dt, w, j, J, tau = self.dt, self.w, self.j, self.J, self.tau
        h = grid.n_halo
        n = grid.n
        self.max_principle(rows, times, block)
        u = block[:-1]
        nxt = block[1:, grid.interior]
        if len(u) > len(self.buf):
            self.buf = np.empty((len(u), n))
        change = np.subtract(nxt, u[:, grid.interior], out=self.buf[:len(u)])
        mass_change = grid.dx * change.sum(axis=1)
        left, right = self.faces
        fhat = self.flux_pair(u[:, left], u[:, right])
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
        self.worst = float(np.maximum(self.worst, np.abs(defect).max()))

    def result(self) -> CheckResult:
        seen = self.max_principle
        scale = max(1.0, float(np.maximum(-seen.umin, seen.umax)))
        return CheckResult("mass_budget", self.worst <= CHECK_TOL * scale,
                           -self.worst,
                           {"worst_defect": self.worst, "tol": CHECK_TOL})


def mass_budget_check(traj: Trajectory) -> CheckResult:
    """`MassBudget` over the stored states of `traj`, which must store every
    step."""
    traj.require_every_step()
    return replay(traj, MassBudget(traj.disc, traj.stencil, traj.config,
                                   traj.dt))


# ---------------------------------------------------------------------------
# energy inequality
# ---------------------------------------------------------------------------

class EnergyBalance:
    """Observer of a march (`scheme.solve`, `scheme.replay`) of `disc` with
    `stencil` and `config` at step `dt`: both sides of the global energy
    inequality for gamma = b(u) - b(ext).  lhs: the energy form under
    `stencil` of gamma extended by zero, dt dx times one running sum over the
    steps but T in time order (`zero_extended_sum`).  rhs: entropy potential
    of the initial data, the transport terms weighted by b'(ext), and the
    jump operator applied to b(ext) paired with gamma, these two one sum per
    step added in time order.  slack = rhs - lhs; the continuum bound
    guarantees slack >= 0 up to discretization error.  `sample` takes the
    extension with its dt and grad at each block's steps, a steady one
    (`ExteriorData.steady`) once, on row 0, and broadcasts it; at t = 0 its
    value.  An extension without dt or grad is refused when the observer is
    built (`MissingExtensionDerivatives`)."""

    def __init__(self, disc: DiscreteProblem, stencil: StencilWeights,
                 config: SchemeConfig, dt: float):
        ext = disc.spec.exterior
        if ext.dt is None or ext.grad is None:
            raise MissingExtensionDerivatives(
                "energy report needs closed-form extension derivatives")
        self.disc, self.stencil, self.dt = disc, stencil, dt
        self.tail_mode = config.tail_mode
        self.x = disc.grid.x_interior()
        self.fixed = None
        self.form = self.initial = self.transport = self.operator = 0.0

    def sample(self, times, states):
        """The extension at `times` on the interior, its dt and grad there,
        and the jump operator applied to b of the extension on the full
        grid: the interior sampled, the halo that of `states`."""
        ext = self.disc.spec.exterior
        ext_full = states.copy()
        e = ext_full[:, self.disc.grid.interior]
        e[...] = sample_rows(ext.value, times, self.x)
        op = jump_term(self.disc.spec.diffusion.b(ext_full), self.disc,
                       self.stencil, self.tail_mode)
        return (e, sample_rows(ext.dt, times, self.x),
                sample_rows(ext.grad, times, self.x), op)

    def __call__(self, rows, times, block):
        spec, dt, dx = self.disc.spec, self.dt, self.disc.grid.dx
        b = spec.diffusion.b
        u = block[:-1, self.disc.grid.interior]
        if rows.start == 0:
            ext0 = np.asarray(spec.exterior.value(0.0, self.x), dtype=float)
            self.initial = dx * float(np.sum(spec.diffusion.entropy_h(
                block[0, self.disc.grid.interior], ext0)))
        cut = 1 if spec.exterior.steady else -1
        e, e_t, e_x, op = self.fixed or self.sample(times[:cut], block[:cut])
        if cut == 1:
            self.fixed = e, e_t, e_x, op
        gamma = b(u) - b(e)
        self.form = zero_extended_sum(gamma, self.stencil, self.form)
        f_big = np.sign(u - e) * (spec.flux.f(u) - spec.flux.f(e))
        for s in (((u - e) * e_t + f_big * e_x)
                  * spec.diffusion.bprime(e)).sum(axis=1):
            self.transport -= dt * dx * float(s)
        for s in (op * gamma).sum(axis=1):
            self.operator += dt * dx * float(s)

    def result(self) -> dict:
        lhs = self.dt * (self.disc.grid.dx * self.form)
        rhs = self.initial + self.transport + self.operator
        return {"lhs": lhs, "rhs": rhs, "slack": rhs - lhs,
                "parts": {"initial": self.initial,
                          "transport": self.transport,
                          "operator": self.operator}}


def energy_report(traj: Trajectory) -> dict:
    """`EnergyBalance` over the stored states of `traj`, which must store
    every step."""
    traj.require_every_step()
    return replay(traj, EnergyBalance(traj.disc, traj.stencil, traj.config,
                                      traj.dt))


# ---------------------------------------------------------------------------
# entropy residuals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceTimeBump:
    """Nonnegative tensor bump phi(t, x) = S(x) T(t), raised cosines whose
    closed-form factors `space` (S, S', S'') and `time` (T, T') give every
    derivative.  Supports vanish before the horizon, so the terminal
    condition holds by construction."""

    xc: float
    rx: float
    tc: float
    rt: float

    def space(self, x):
        """(S, S', S'') at the points x."""
        s = (np.asarray(x, dtype=float) - self.xc) / self.rx
        inside = np.abs(s) < 1.0
        return (np.where(inside, np.cos(np.pi * s / 2.0) ** 2, 0.0),
                np.where(inside, -np.pi / (2.0 * self.rx)
                         * np.sin(np.pi * s), 0.0),
                np.where(inside, -(np.pi ** 2) / (2.0 * self.rx ** 2)
                         * np.cos(np.pi * s), 0.0))

    def time(self, t):
        """(T, T') at the times t."""
        s = (np.asarray(t, dtype=float) - self.tc) / self.rt
        inside = np.abs(s) < 1.0
        return (np.where(inside, np.cos(np.pi * s / 2.0) ** 2, 0.0),
                np.where(inside, -np.pi / (2.0 * self.rt)
                         * np.sin(np.pi * s), 0.0))

    def value(self, t, x):
        return self.space(x)[0] * self.time(t)[0]


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
                     r: float) -> ResidualReport:
    """Discrete residual of the full entropy inequality at splitting radius r.

    `measure` must be the jump measure the trajectory was solved with; the
    splitting reuses it to build the zero-order part (no small-jump surrogate)
    and the small-jump second moment.  Nonpositive residuals (up to grid
    tolerance) mean the inequality holds.  Both signs are checked.
    Inadmissible (k, phi, ±) combinations are skipped and counted;
    admissibility is screened once per phi, for every level and both signs
    (`admissible_pair`).  Each term is built once per admitted (k, ±) and
    contracted against the family's space and time factors, for every phi at
    once.  A trajectory that does not store every step is refused
    (`ConfigMismatch`).
    """
    traj.require_every_step()
    signs_of = {"plus": 1.0, "minus": -1.0}
    if not family:
        return ResidualReport(rows=[], skipped=0)
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
    admissible = [dict(zip(signs_of, admissible_pair(
        b_datum, b_levels, phi.value(screen_t[:, None], xh[None, :]))))
        for phi in family]

    # phi = S(x) T(t), so a term's integrand E (times, points) meets the
    # whole family in one contraction: space first, E @ S.T, then time
    s_int, sx_int, _ = np.stack([phi.space(xi) for phi in family], axis=1)
    sxx_full = np.stack([phi.space(xf)[2] for phi in family])
    s_bnd = np.stack([phi.space(bnd_x)[0] for phi in family])
    t_val, t_dt = np.stack([phi.time(times) for phi in family], axis=1)
    t_zero = np.stack([phi.time(0.0)[0] for phi in family])

    def contract(e, space, time):
        return np.einsum("np,pn->p", e @ space.T, time)

    # one residual per phi for each (level, sign) that some phi admits, with
    # s = +1 ("plus") or -1 ("minus"): (s(u - k))^+, its flux, the signed
    # jump term, (s(b(u) - b(k)))^+, and the entropies of u0 and of the
    # boundary datum; negation is exact, so both signs share one expression
    residual = {}
    for i, k in enumerate(levels):
        for sign, s in signs_of.items():
            if not any(adm[sign][i] for adm in admissible):
                continue
            sgn = s * _sgn_plus(s * (u_int - k))
            fk = float(np.asarray(f(k)))
            t1 = contract(_pos(s * (u_int - k)), s_int, t_dt)
            t1 += contract(sgn * (fu_int - fk), sx_int, t_val)
            t2 = contract(op_big * sgn, s_int, t_val)
            t3 = 0.5 * sigma2_r * contract(_pos(s * (bu_all - b_levels[i])),
                                           sxx_full, t_val)
            rhs = dx * (_pos(s * (u0 - k)) @ s_int.T) * t_zero
            rhs += lf * dt * contract(_pos(s * (datum_bnd - k)), s_bnd, t_val)
            residual[i, sign] = -dt * dx * (t1 + t2 + t3) - rhs

    rows = [ResidualRow(k=float(k), sign=sign, phi_index=idx,
                        residual=float(residual[i, sign][idx]))
            for idx, adm in enumerate(admissible)
            for i, k in enumerate(levels) for sign in signs_of if adm[sign][i]]
    skipped = len(family) * len(levels) * len(signs_of) - len(rows)
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


# ---------------------------------------------------------------------------
# mollification and mean bounds
# ---------------------------------------------------------------------------

def mollifier_weights(half_width: int) -> np.ndarray:
    """Discrete nonnegative mollifier with unit mass (raised cosine)."""
    j = np.arange(-half_width, half_width + 1)
    w = 1.0 + np.cos(np.pi * j / (half_width + 1))
    return w / w.sum()


def mollification_slacks(u: np.ndarray, diffusion: DiffusionFn,
                         weights: np.ndarray) -> np.ndarray:
    """Worst slack, per field (row) of `u`, of
    |b(u*rho)(x) - b(u(x))|^2 <= C (|b(u(.)) - b(u(x))|*rho)(x) over its
    interior points, with the field's own C = 2 L_b max|u|: L_b over the
    field's range.  Nonnegative slack means the pointwise bound holds."""
    u = np.asarray(u, dtype=float)
    m = (len(weights) - 1) // 2
    lo, hi = u.min(axis=-1), u.max(axis=-1)
    lipschitz = np.reshape([diffusion.lipschitz_on(a, b) for a, b in zip(
        lo.ravel().tolist(), hi.ravel().tolist())], lo.shape)
    C = 2.0 * lipschitz * np.abs(u).max(axis=-1)
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
    rhs = C[..., None] * spread
    return (rhs - lhs).min(axis=-1)


def mollification_bound_check(u: np.ndarray, diffusion: DiffusionFn,
                              weights: np.ndarray) -> float:
    """The worst of `mollification_slacks` over every field of `u`."""
    return float(mollification_slacks(u, diffusion, weights).min())


def mollification_bound_suite(diffusions, rng, trials: int = 10000) -> dict:
    """Randomized verification of the mollification bound on fields of 32
    cells with a mollifier of half width 4; returns the number of fields
    that violate it (expected: zero) and the worst slack seen."""
    weights = mollifier_weights(4)
    violations = 0
    worst = math.inf
    per = max(1, -(-trials // len(diffusions)))  # ceil: run at least `trials`
    for diffusion in diffusions:
        u = rng.uniform(-1.0, 1.0, size=(per, 32))
        slacks = mollification_slacks(u, diffusion, weights)
        worst = min(worst, float(slacks.min()))
        violations += int(np.count_nonzero(slacks < -1e-12))
    return {"violations": violations, "worst_slack": worst,
            "trials": per * len(diffusions)}


def _interp_rows(x: np.ndarray, grid: np.ndarray,
                 vals: np.ndarray) -> np.ndarray:
    """np.interp of each row of x on the same row of (grid, vals), whose rows
    are uniform grids: the cell index comes from the row's spacing, is
    corrected by exact comparisons with the grid, and the value is
    np.interp's own formula, with its ends (either end clamps; x at the right
    end takes the right value)."""
    last = grid.shape[1] - 1
    base = np.arange(0, grid.size, grid.shape[1])[:, None]  # row starts
    g, v = grid.ravel(), vals.ravel()
    g0 = grid[:, :1]
    c = np.floor((x - g0) / (grid[:, 1:2] - g0)).clip(0, last - 1)
    c = base + c.astype(np.intp)
    c = np.maximum(c - (g[c] > x), base)
    c = np.minimum(c + (g[c + 1] <= x), base + last - 1)
    x0, y0 = g[c], v[c]
    out = (v[c + 1] - y0) / (g[c + 1] - x0) * (x - x0) + y0
    out = np.where(x >= grid[:, last:], vals[:, last:], out)
    return np.where(x < g0, vals[:, :1], out)


def mean_bound_check(positions: np.ndarray, masses: np.ndarray,
                     grid: np.ndarray, hvals: np.ndarray, L, R):
    """Slack of h(mean)^2 <= L R mean(h) for a discrete probability measure
    and a V-shaped Lipschitz h given on a uniform `grid`.  A leading axis
    holds trials, one per row (L and R then one per row, rows of fewer atoms
    padded with zero masses) and gives one slack per trial; 1-D arrays give
    a float."""
    one = np.ndim(positions) == 1
    p, m, g, h = (np.atleast_2d(a) for a in (positions, masses, grid, hvals))
    s_bar = (m * p).sum(axis=1)
    h_bar = (m * _interp_rows(p, g, h)).sum(axis=1)
    h_at = _interp_rows(s_bar[:, None], g, h)[:, 0]
    slack = L * R * h_bar - h_at ** 2
    return float(slack[0]) if one else slack


def mean_bound_suite(rng, trials: int = 10000) -> dict:
    """Randomized trials of the mean bound.

    h is built on 65 grid points by integrating nonnegative random slopes
    <= L away from 0 in both directions (V-shaped, h(0) = 0, Lipschitz
    constant <= L); the probability measure kappa is a random atomic
    measure of at most 32 atoms on [-R, R].

    Trial i reads its own 131 doubles u of `rng.random`: R and L from u[0],
    u[1] (uniform on [0.1, 10]); the slopes right, then left of 0 from
    u[2:34], u[34:66] (uniform on [0, L]); n = 1 + floor(32 u[66]) atoms
    (uniform on 1..32), positions and masses from the first n of u[67:99]
    (uniform on [-R, R]) and of u[99:131].  Each value is uniform's own
    `low + (high - low) u`.  One `rng.random` call draws each row block of
    `row_blocks(trials, 65)`, so no array holds every trial, the trials do
    not depend on the cuts, and `rng` ends 131 * trials doubles further on.
    """
    max_atoms, n_grid = 32, 65
    half = n_grid // 2
    pos = 3 + 2 * half                     # first column of the positions
    violations = 0
    worst = math.inf
    atoms = np.arange(max_atoms)
    for block in row_blocks(trials, n_grid):
        u = rng.random((block.stop - block.start, pos + 2 * max_atoms))
        R = 0.1 + (10.0 - 0.1) * u[:, 0]
        L = 0.1 + (10.0 - 0.1) * u[:, 1]
        grid = np.linspace(-R, R, n_grid, axis=1)
        dxg = (grid[:, 1] - grid[:, 0])[:, None]
        right = L[:, None] * u[:, 2:2 + half]
        left = L[:, None] * u[:, 2 + half:2 + 2 * half]
        h = np.zeros((len(u), n_grid))
        h[:, half + 1:] = np.cumsum(right, axis=1) * dxg
        h[:, :half] = np.cumsum(left[:, ::-1], axis=1)[:, ::-1] * dxg
        n = 1 + (max_atoms * u[:, pos - 1]).astype(np.intp)
        # padded atoms keep a position in [-R, R] and get zero mass
        real = atoms < n[:, None]
        positions = -R[:, None] + (R + R)[:, None] * u[:, pos:pos + max_atoms]
        masses = np.where(real, u[:, pos + max_atoms:], 0.0)
        total = masses.sum(axis=1, keepdims=True)
        masses = np.divide(masses, total, out=real / n[:, None],
                           where=total > 0)
        slack = mean_bound_check(positions, masses, grid, h, L, R)
        worst = min(worst, float(slack.min()))
        violations += int(np.count_nonzero(
            slack < -1e-10 * (1.0 + L * R) ** 2))
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
