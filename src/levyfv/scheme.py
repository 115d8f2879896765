"""Explicit monotone finite-volume time stepping, plus the fixed-point and
approximation-chain drivers built on top of it.

The update on interior cells is

    u_i' = u_i - (dt/dx) (Fhat_{i+1/2} - Fhat_{i-1/2}) + dt * (L_h b(u))_i,

with a monotone numerical flux (Engquist-Osher by default) and the discrete
jump operator from `stencil`.  Under the CFL bound the update is order
preserving in every stencil argument, which yields the discrete maximum
principle and L1 contraction checked by `analysis`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import CflViolation, ConfigMismatch, ConfigParse, \
    DegenerateGrid, NoConvergence, NonfiniteValue
from .measures import FractionalRadial, LevyMeasure, ScaledMeasure, \
    weighted_tv_distance, zero_measure
from .problem import DiscreteProblem, ProblemSpec, diffusion_zero, \
    discretize, sample_rows
from .stencil import StencilWeights, apply_stencil, build_stencil, \
    row_blocks

CFL_SAFETY = 0.95                    # automatic dt as a share of the CFL bound


@dataclass(frozen=True)
class SchemeConfig:
    dx: float
    r: float
    Z: float
    dt: float | None = None          # None -> auto CFL
    numerical_flux: str = "engquist_osher"   # or "lax_friedrichs"
    tail_mode: str = "exterior_mean"         # or "drop"
    enforce_cfl: bool = True
    store_every: int = 1             # cadence of stored states

    def __post_init__(self):
        if self.numerical_flux not in ("engquist_osher", "lax_friedrichs"):
            raise ConfigParse(
                f"unknown numerical flux {self.numerical_flux!r}")
        if self.tail_mode not in ("exterior_mean", "drop"):
            raise ConfigParse(f"unknown tail mode {self.tail_mode!r}")
        if self.store_every < 1:
            raise ConfigParse(
                f"store_every must be >= 1, got {self.store_every}")


@dataclass
class Trajectory:
    """Stored states on the full (interior + halo) grid: every
    `config.store_every`-th step of the march, so `times` is the time grid
    `[::store_every]` and `stats["n_steps"]` counts every step taken.
    `times` is the one clock: the halo of `states[n]` is the exterior datum
    at `times[n]`, written by `solve`."""

    times: np.ndarray
    states: np.ndarray               # (n_times, n_full)
    disc: DiscreteProblem
    stencil: StencilWeights
    config: SchemeConfig
    stats: dict

    @property
    def grid(self):
        return self.disc.grid

    @property
    def spec(self):
        return self.disc.spec

    @property
    def dt(self) -> float:
        """The step `time_grid` chose for this trajectory."""
        return self.stats["dt"]

    def interior(self) -> np.ndarray:
        return self.states[:, self.grid.interior]

    def require_every_step(self) -> None:
        """Refuse a thinned trajectory (`ConfigMismatch`): a pass that needs
        consecutive steps would otherwise read rows `store_every` steps
        apart as if they were one step apart."""
        if len(self.times) != self.stats["n_steps"] + 1:
            raise ConfigMismatch(
                f"trajectory stores {len(self.times)} of "
                f"{self.stats['n_steps'] + 1} states; this pass needs "
                f"every step (store_every=1)")

    def gamma(self) -> np.ndarray:
        """b(u) - b(extension) on the interior; identically zero outside."""
        self.require_every_step()
        b = self.spec.diffusion.b
        ext = sample_rows(self.spec.exterior.value, self.times,
                          self.grid.x_interior())
        return b(self.interior()) - b(ext)


def _numerical_flux(config, spec, lam):
    if config.numerical_flux == "engquist_osher":
        fp, fm = spec.flux.f_plus, spec.flux.f_minus
        return lambda a, b: fp(a) + fm(b)
    f = spec.flux.f                  # lax_friedrichs
    return lambda a, b: 0.5 * (f(a) + f(b)) - 0.5 * lam * (b - a)


def cfl_max_dt(spec: ProblemSpec, stencil: StencilWeights, dx: float,
               data_range: tuple) -> float:
    """Largest dt keeping the explicit update order preserving:
    1 / (2 d L_f / dx + L_b (W + tau)), inf when unconstrained."""
    if dx <= 0:
        raise DegenerateGrid(f"dx={dx}")
    lo, hi = data_range
    lf = spec.flux.lipschitz_on(lo, hi)
    lb = spec.diffusion.lipschitz_on(lo, hi)
    denom = 2.0 * lf / dx + lb * (stencil.weight_sum + stencil.tau)
    return math.inf if denom == 0.0 else 1.0 / denom


def _tail_value(disc, bfield):
    """Mean of b over the two halos; one value per row of `bfield`."""
    h = disc.grid.n_halo
    return 0.5 * (bfield[..., :h].mean(axis=-1)
                  + bfield[..., -h:].mean(axis=-1))


def jump_term(bfield: np.ndarray, disc: DiscreteProblem,
              stencil: StencilWeights, tail_mode: str) -> np.ndarray:
    """The discrete jump operator applied to `bfield` = b(u) on the full
    grid, interior-sized; leading axes are a batch of rows.

    This is the one tail rule every driver and diagnostic uses:
    "exterior_mean" sends the tail mass tau to the mean of b over the two
    halos, "drop" omits the tail (tau treated as 0).  `mass_budget_check`
    states the conservation identity independently."""
    if tail_mode == "drop":
        return apply_stencil(bfield, replace(stencil, tau=0.0),
                             disc.grid.n_halo)
    return apply_stencil(bfield, stencil, disc.grid.n_halo,
                         tail_value=_tail_value(disc, bfield))


def time_grid(disc: DiscreteProblem, stencils, config: SchemeConfig,
              dt: float | None = None) -> tuple:
    """The one time grid: returns (dt, n_steps) with n_steps * dt == T.

    dt is `dt`, else `config.dt`, else CFL_SAFETY times the CFL bound of
    each stencil on `disc`'s data range (T/64 for a stencil without one),
    the smallest over `stencils`, so trajectories of a chain share one grid.
    Every stencil must share `disc`'s halo.  dt is then rounded down so that
    a whole number of steps hits the horizon.  A given dt that is not
    positive and finite is refused (`ConfigParse`), and so is a CFL bound of
    0 (`CflViolation`), which leaves no dt to pick."""
    spec = disc.spec
    if dt is None:
        dt = config.dt
    if dt is not None and not 0.0 < dt < math.inf:
        raise ConfigParse(f"dt must be positive and finite, got {dt}")
    if dt is None:
        dts = []
        for st in stencils:
            dtmax = cfl_max_dt(spec, st, config.dx, disc.data_range)
            if dtmax == 0.0:
                raise CflViolation("monotonicity bound is 0: no dt keeps "
                                   "the update order preserving")
            dts.append(CFL_SAFETY * dtmax if math.isfinite(dtmax)
                       else spec.T / 64.0)
        dt = min(dts)
    n_steps = max(1, int(math.ceil(spec.T / dt - 1e-12)))
    return spec.T / n_steps, n_steps


def step(u_full: np.ndarray, disc: DiscreteProblem, stencil: StencilWeights,
         config: SchemeConfig, dt: float, source: np.ndarray | None = None,
         flux_pair=None) -> np.ndarray:
    """One forward-Euler update from the full-grid state (its halo holds the
    exterior datum): returns the n new interior values, which `solve` stores
    and checks to be finite; `step` does not check.  `source` (n values)
    replaces the jump term when given (Picard's frozen right-hand side).
    A stencil with no nonzero weight and no tail adds no jump term."""
    spec = disc.spec
    grid = disc.grid
    if flux_pair is None:
        lo, hi = disc.data_range
        flux_pair = _numerical_flux(config, spec, spec.flux.lipschitz_on(lo, hi))
    if source is None and (stencil.tau != 0.0 or stencil.weights.any()):
        source = jump_term(spec.diffusion.b(u_full), disc, stencil,
                           config.tail_mode)
    h = grid.n_halo
    left = u_full[h - 1:h + grid.n]      # u_{i-1} on interfaces
    right = u_full[h:h + grid.n + 1]     # u_{i+1} side
    fhat = flux_pair(left, right)        # interface i-1/2 for i = 0..n
    interior = u_full[grid.interior]
    new_interior = interior - (dt / grid.dx) * (fhat[1:] - fhat[:-1])
    if source is None:
        # the zero jump term's `+ dt * 0.0` turned -0.0 into +0.0
        new_interior += 0.0
    else:
        new_interior += dt * source
    return new_interior


def solve(spec: ProblemSpec, stencil: StencilWeights, config: SchemeConfig,
          dt_override: float | None = None,
          source_states: np.ndarray | None = None,
          observers=()) -> Trajectory:
    """March to T on `time_grid`.  With `source_states` (one frozen jump
    term per step) the jump operator is not applied, so the CFL bound is
    that of the conservation law alone.  `solve` is the one writer of
    stored states and writes each value once: the interior of step 0 is
    `disc.u0`, that of step n + 1 is what `step` returns from step n, and
    the halo of step n is `exterior.value(times[n], halo_x)`.

    The march goes in the blocks `row_blocks(n_steps, n_full)`, each in one
    reused buffer.  After each block's steps its new interior values are
    checked to be finite (`NonfiniteValue`, naming the start time of the
    first step that was not); then every observer is called as
    `observer(rows, times, block)` with the full-grid states of steps
    `rows.start .. rows.stop` inclusive and their times, so observers see
    every step, and the steps n with `n % config.store_every == 0` are
    copied out of the buffer into the stored states."""
    if stencil.dx != config.dx:
        raise ConfigMismatch(f"stencil built for dx={stencil.dx}, "
                             f"config has dx={config.dx}")
    disc = discretize(spec, config.dx, stencil.Z)
    drange = disc.data_range
    dt, n_steps = time_grid(disc, [stencil], config, dt_override)
    cfl_spec = (spec if source_states is None
                else replace(spec, diffusion=diffusion_zero()))
    dtmax = cfl_max_dt(cfl_spec, stencil, config.dx, drange)
    if config.enforce_cfl and dt > dtmax * (1.0 + 1e-9):
        raise CflViolation(f"dt={dt} above monotonicity bound {dtmax}")
    lo, hi = drange
    flux_pair = _numerical_flux(config, spec, spec.flux.lipschitz_on(lo, hi))

    every = config.store_every
    times = np.linspace(0.0, spec.T, n_steps + 1)
    interior = disc.grid.interior
    blocks = row_blocks(n_steps, disc.grid.n_full)
    states = np.empty((n_steps // every + 1, disc.grid.n_full))
    work = np.empty((blocks[0].stop + 1, disc.grid.n_full))
    work[0, interior] = disc.u0
    disc.refresh_halo(work[0], times[0])
    states[0] = work[0]
    wall = time.perf_counter()
    for rows in blocks:
        block = work[:rows.stop - rows.start + 1]
        for i, n in enumerate(range(rows.start, rows.stop)):
            src = source_states[n] if source_states is not None else None
            block[i + 1, interior] = step(block[i], disc, stencil, config,
                                          dt, source=src, flux_pair=flux_pair)
            disc.refresh_halo(block[i + 1], times[n + 1])
        finite = np.isfinite(block[1:, interior]).all(axis=1)
        if not finite.all():
            n = rows.start + int(np.argmin(finite))
            raise NonfiniteValue(f"nonfinite state at t={float(times[n])}")
        for observe in observers:
            observe(rows, times[rows.start:rows.stop + 1], block)
        first = (rows.start // every + 1) * every
        states[first // every:rows.stop // every + 1] = \
            block[first - rows.start::every]
        work[0] = block[-1]
    stats = {
        "dt": dt,
        "n_steps": n_steps,
        "cfl_ratio": 0.0 if not math.isfinite(dtmax) else dt / dtmax,
        "cfl_max_dt": dtmax,
        "data_range": drange,
        "wall_time_s": time.perf_counter() - wall,
    }
    if config.tail_mode == "drop" and stencil.tau > 0.0:
        # a-priori bound on the dropped operator tail, per unit time
        b_sup = float(np.max(np.abs(spec.diffusion.b(np.asarray(drange)))))
        stats["drop_tail_bound"] = 2.0 * b_sup * stencil.tau
    return Trajectory(times=times[::every], states=states, disc=disc,
                      stencil=stencil, config=config, stats=stats)


def replay(traj: Trajectory, observers) -> None:
    """Hand the stored states of `traj` to `observers` in the blocks and the
    form `solve` uses, so a check over a stored trajectory and the same check
    observing the march see the same rows in the same block shapes."""
    n_rows, n_full = traj.states.shape
    # a trajectory of one stored state still shows it to the observers
    for rows in row_blocks(max(n_rows - 1, 1), n_full):
        for observe in observers:
            observe(rows, traj.times[rows.start:rows.stop + 1],
                    traj.states[rows.start:rows.stop + 1])


# ---------------------------------------------------------------------------
# trajectory comparison helpers
# ---------------------------------------------------------------------------

def paired_rows(other: Trajectory, rows, times, block, ordered=False):
    """The rule that makes a march comparable with the stored trajectory
    `other`, checked on one observed block (see `solve`): the same time
    count, grid width and times, and equal halos (with `ordered`, the
    march's halos below `other`'s), else `ConfigMismatch`.  Returns
    (new, u, v): the rows `u` of `block` not seen in an earlier block (row 0
    of a later block is the last row of the one before), their step indices
    `new`, and `other`'s states `v` at those steps."""
    if rows.stop >= len(other.times):
        raise ConfigMismatch("trajectories use different time steps")
    if block.shape[1] != other.states.shape[1]:
        raise ConfigMismatch("trajectories live on different grids")
    first = 1 if rows.start else 0
    new = slice(rows.start + first, rows.stop + 1)
    u = block[first:]
    v = other.states[new]
    if not np.allclose(times[first:], other.times[new], rtol=0.0, atol=1e-12):
        raise ConfigMismatch("trajectories use different time steps")
    h = other.grid.n_halo
    for side in (slice(None, h), slice(-h, None)):
        uh, vh = u[:, side], v[:, side]
        if ordered and not np.all(uh <= vh):
            raise ConfigMismatch("trajectories carry unordered exterior data")
        if not ordered and not np.array_equal(uh, vh):
            raise ConfigMismatch("trajectories carry different exterior data")
    return new, u, v


class L1Series:
    """Observer of a march (`solve`, `replay`): dx * sum |u - v| on the
    interior at every step it sees, u the march and v the stored trajectory
    `other`, which must store every step and be comparable (`paired_rows`)."""

    def __init__(self, other: Trajectory):
        other.require_every_step()
        self.other = other
        self.out = np.empty(len(other.times))
        self.seen = 0

    def __call__(self, rows, times, block):
        new, u, v = paired_rows(self.other, rows, times, block)
        inside = self.other.grid.interior
        self.out[new] = np.abs(u[:, inside] - v[:, inside]).sum(axis=1)
        self.seen = rows.stop + 1

    def result(self) -> np.ndarray:
        """The series, one value per step of `other`."""
        if self.seen != len(self.out):
            raise ConfigMismatch("trajectories use different time steps")
        return self.other.grid.dx * self.out


def l1_series(a: Trajectory, b: Trajectory) -> np.ndarray:
    """dx * sum |u - v| on the interior, one value per step."""
    a.require_every_step()
    if a.states.shape != b.states.shape or a.grid != b.grid:
        raise ConfigMismatch("trajectories live on different grids")
    series = L1Series(b)
    replay(a, [series])
    return series.result()


def l1_q_distance(a: Trajectory, b: Trajectory) -> float:
    return a.dt * float(l1_series(a, b)[:-1].sum())


def l2_q_distance(fa: np.ndarray, fb: np.ndarray, dt: float,
                  dx: float) -> float:
    if fa.shape != fb.shape:
        raise ConfigMismatch("field shapes differ")
    return math.sqrt(dt * dx * float(np.sum((fa - fb)[:-1] ** 2)))


# ---------------------------------------------------------------------------
# fixed-point construction for bounded measures
# ---------------------------------------------------------------------------

@dataclass
class PicardResult:
    trajectory: Trajectory
    gaps: list                      # gaps[k-1] = sup_t ||u_{k+1} - u_k||_L1
    first_iterate_norm: float       # max_t ||u_1||_L1
    iterations: int
    converged: bool


def picard_solve(spec: ProblemSpec, measure: LevyMeasure,
                 config: SchemeConfig, k_max: int = 20,
                 tol: float = 1e-6) -> PicardResult:
    """Fixed-point loop: each iterate solves the conservation law with the
    jump term frozen from the previous iterate (extended by the exterior
    datum).  Requires a finite-mass measure; contraction at rate
    (2 L_b ||mu|| T)^k / k! then makes the iterates Cauchy.

    tol = 0 runs exactly k_max iterations (envelope-measurement mode);
    otherwise failing to reach tol raises NoConvergence.
    """
    if k_max < 1:
        raise ConfigParse(f"k_max must be >= 1, got {k_max}")
    if not math.isfinite(measure.total_mass()):
        raise ValueError("fixed-point construction needs a finite measure")
    # each iterate's source is the jump term of every step of the last one
    config = replace(config, store_every=1)
    stencil = build_stencil(measure, config.dx, config.r, config.Z)
    disc = discretize(spec, config.dx, stencil.Z)
    grid = disc.grid
    dt, n_steps = time_grid(disc, [stencil], config)
    bfun = spec.diffusion.b

    def frozen_source(traj):
        """Jump term of each stored state, interior-sized, one row per step."""
        traj.require_every_step()
        out = np.empty((n_steps, grid.n))
        for rows in row_blocks(n_steps, grid.n_full):
            out[rows] = jump_term(bfun(traj.states[rows]), disc, stencil,
                                  config.tail_mode)
        return out

    # iterate 0: zeros, with the halo each iterate's `solve` writes
    prev = Trajectory(times=np.linspace(0.0, spec.T, n_steps + 1),
                      states=np.zeros((n_steps + 1, grid.n_full)), disc=disc,
                      stencil=stencil, config=config,
                      stats={"dt": dt, "n_steps": n_steps})
    for t, state in zip(prev.times, prev.states):
        disc.refresh_halo(state, t)

    gaps: list[float] = []
    first_norm = None
    traj = None
    converged = False
    for k in range(1, k_max + 1):
        src = frozen_source(prev)
        traj = solve(spec, stencil, config, dt_override=dt,
                     source_states=src)
        gap = float(np.max(l1_series(traj, prev)))
        if k == 1:
            # iterate 0 is zero on the interior, so the gap is ||u_1||
            first_norm = gap
        else:
            gaps.append(gap)
        prev = traj
        if tol > 0.0 and gap <= tol and k > 1:
            converged = True
            break
    if tol > 0.0 and not converged:
        raise NoConvergence(f"gap {gaps[-1] if gaps else first_norm:.3e} "
                            f"above tol {tol} after {k_max} iterations",
                            gaps=gaps)
    return PicardResult(trajectory=traj, gaps=gaps,
                        first_iterate_norm=first_norm,
                        iterations=k, converged=converged or tol == 0.0)


# ---------------------------------------------------------------------------
# approximation-chain drivers
# ---------------------------------------------------------------------------

@dataclass
class ChainReport:
    labels: list
    trajectories: list
    stencils: list
    l1_distances: list
    l2_b_distances: list
    measure_distances: list
    reference: Trajectory


def _chain(spec: ProblemSpec, measures, config: SchemeConfig) -> tuple:
    """Stencils and trajectories of a measure chain, the reference last.

    Every stencil is built from the same (dx, Z), so all carry the same
    offsets and halo and the trajectories are shape-comparable; all are
    solved on the one time grid of the whole chain, storing every step, as
    the distances between them integrate over every step."""
    config = replace(config, store_every=1)
    stencils = [build_stencil(m, config.dx, config.r, config.Z)
                for m in measures]
    dt, _ = time_grid(discretize(spec, config.dx, stencils[0].Z), stencils,
                      config)
    return stencils, [solve(spec, st, config, dt_override=dt)
                      for st in stencils]


def vanishing_viscosity_run(spec: ProblemSpec, alpha: float, n_list,
                            config: SchemeConfig) -> ChainReport:
    """Solve with the diffusion scaled by 1/n and compare against the pure
    conservation-law run (zero measure)."""
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    measures = [ScaledMeasure(factor=1.0 / n,
                              inner=FractionalRadial(alpha=alpha))
                for n in n_list]
    stencils, trajs = _chain(spec, measures + [zero_measure()], config)
    reference = trajs[-1]
    return ChainReport(labels=list(n_list), trajectories=trajs[:-1],
                       stencils=stencils[:-1],
                       l1_distances=[l1_q_distance(tr, reference)
                                     for tr in trajs[:-1]],
                       l2_b_distances=[], measure_distances=[],
                       reference=reference)


def stability_run(spec: ProblemSpec, measures, config: SchemeConfig,
                  labels=None) -> ChainReport:
    """Solve along a measure chain; the last entry is the reference.  Reports
    solution distances, diffusive-flux L2 distances, and the weighted total
    variation distances of the measures themselves."""
    measures = list(measures)
    stencils, trajs = _chain(spec, measures, config)
    reference = trajs[-1]
    bfun = spec.diffusion.b
    b_ref = bfun(reference.interior())
    l1d, l2d, md = [], [], []
    for m, tr in zip(measures[:-1], trajs[:-1]):
        l1d.append(l1_q_distance(tr, reference))
        l2d.append(l2_q_distance(bfun(tr.interior()), b_ref, reference.dt,
                                 config.dx))
        md.append(weighted_tv_distance(m, measures[-1]))
    return ChainReport(labels=list(labels) if labels is not None
                       else list(range(len(measures) - 1)),
                       trajectories=trajs[:-1], stencils=stencils[:-1],
                       l1_distances=l1d, l2_b_distances=l2d,
                       measure_distances=md, reference=reference)
