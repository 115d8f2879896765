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
from functools import partial

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
        """`Gamma` over the stored states, which must store every step."""
        self.require_every_step()
        return replay(self, Gamma(self.disc, self.stats["n_steps"]))


def _numerical_flux(config, spec, lam):
    """The monotone numerical flux of `config` as a pair `pair(a, b)` of
    the states left (`a`) and right (`b`) of some faces, two arrays of one
    shape: Engquist-Osher f_plus(a) + f_minus(b), or Lax-Friedrichs
    0.5 (f(a) + f(b)) - 0.5 lam (b - a).  The pair owns two buffers of that
    shape and computes in them with the `out=` of the flux callables
    (`FluxFn`), in this operation order, so the bits are those of the
    expressions.  The array returned is one of the buffers: the next call
    overwrites it.  A call of another shape replaces the buffers."""
    p = m = np.empty(0)

    def buffers(shape):
        nonlocal p, m
        if p.shape != shape:
            p, m = np.empty(shape), np.empty(shape)
        return p, m

    if config.numerical_flux == "engquist_osher":
        fp, fm = spec.flux.f_plus, spec.flux.f_minus

        def pair(a, b):
            p, m = buffers(a.shape)
            return np.add(fp(a, out=p), fm(b, out=m), out=p)
        return pair
    f, half_lam = spec.flux.f, 0.5 * lam   # lax_friedrichs

    def pair(a, b):
        p, m = buffers(a.shape)
        np.multiply(0.5, np.add(f(a, out=p), f(b, out=m), out=p), out=p)
        return np.subtract(p, np.multiply(half_lam, np.subtract(b, a, out=m),
                                          out=m), out=p)
    return pair


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
    # add.reduce / h is what `mean` computes, without its dispatch
    return 0.5 * (np.add.reduce(bfield[..., :h], axis=-1) / h
                  + np.add.reduce(bfield[..., -h:], axis=-1) / h)


def jump_term(bfield: np.ndarray, disc: DiscreteProblem,
              stencil: StencilWeights, tail_mode: str) -> np.ndarray:
    """The discrete jump operator applied to `bfield` = b(u) on the full
    grid, interior-sized; leading axes are a batch of rows.

    This is the one tail rule every driver and diagnostic uses:
    "exterior_mean" sends the tail mass tau to the mean of b over the two
    halos, "drop" omits the tail (tau treated as 0).  `mass_budget_check`
    states the conservation identity independently."""
    if tail_mode == "drop":
        return apply_stencil(bfield, stencil.without_tail, disc.grid.n_halo)
    return apply_stencil(bfield, stencil, disc.grid.n_halo,
                         tail_value=_tail_value(disc, bfield))


def time_grid(disc: DiscreteProblem, stencils, config: SchemeConfig,
              dt: float | None = None) -> tuple:
    """The one time grid: returns (dt, n_steps) with n_steps * dt == T.

    dt is `dt`, else `config.dt`, else CFL_SAFETY times the CFL bound of
    each stencil on `disc`'s data range (T/64 for a stencil without one),
    the smallest over `stencils`, so trajectories of a chain share one grid.
    Every stencil must share `disc`'s halo.  dt is then rounded down so that
    a whole number of steps hits the horizon, which `discretize` has
    checked to be positive and finite.  A given dt that is not positive and
    finite is refused (`ConfigParse`), and so is a CFL bound of 0
    (`CflViolation`), which leaves no dt to pick, and a dt so small that
    n_steps reaches 2**52 (`CflViolation`): the grid's consecutive times
    would no longer be distinct doubles."""
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
    if n_steps >= 2 ** 52:
        raise CflViolation(f"dt={dt} needs {n_steps} steps to reach "
                           f"T={spec.T}: the time grid cannot represent them")
    return spec.T / n_steps, n_steps


def _certify_range(values: np.ndarray, times: np.ndarray, what: str,
                   running: tuple, dt: float, bound) -> tuple:
    """Widen the running range `running` by `values`, one row per time in
    `times`, passing over NaNs, and return it.  Refuse them (`CflViolation`,
    naming `what` at the time of the first row that broke it) when the
    widened range puts `bound(range)`, the CFL bound, below dt."""
    lo = np.minimum.accumulate(np.fmin.reduce(values, 1, initial=running[0]))
    hi = np.maximum.accumulate(np.fmax.reduce(values, 1, initial=running[1]))
    # the bound shrinks as the range widens: the last row is the tightest
    if dt > bound((float(lo[-1]), float(hi[-1]))) * (1.0 + 1e-9):
        for k in range(len(values)):
            dtmax = bound((float(lo[k]), float(hi[k])))
            if dt > dtmax * (1.0 + 1e-9):
                raise CflViolation(
                    f"{what} at t={float(times[k])} leaves the "
                    f"range the CFL bound was taken on: dt={dt} above "
                    f"monotonicity bound {dtmax} on "
                    f"({float(lo[k])}, {float(hi[k])})")
    return float(lo[-1]), float(hi[-1])


def step(u_full: np.ndarray, disc: DiscreteProblem, stencil: StencilWeights,
         config: SchemeConfig, dt: float, source: np.ndarray | None = None,
         flux_pair=None, out: np.ndarray | None = None) -> np.ndarray:
    """One forward-Euler update from the full-grid state (its halo holds the
    exterior datum): returns the n new interior values, which `solve` stores
    and checks to be finite; `step` does not check.  With `out` (n values,
    which must not overlap `u_full`) the update is computed in `out` and
    `out` is returned, bit for bit the values of a fresh return; `solve`
    passes the interior of the next row of its block.  `flux_pair` is the
    march's `_numerical_flux` (built here when not given): its buffers hold
    the n + 1 face fluxes, so with `out` and no jump term a step allocates
    no interior-sized array.  The face and interior slices and dx are the
    grid's, computed once (`Grid1d`).  `source` (n values) replaces the
    jump term when given (Picard's frozen right-hand side).  A stencil
    with no nonzero weight and no tail adds no jump term."""
    grid = disc.grid
    if flux_pair is None:
        spec, (lo, hi) = disc.spec, disc.data_range
        flux_pair = _numerical_flux(config, spec, spec.flux.lipschitz_on(lo, hi))
    if source is None and (stencil.tau != 0.0 or stencil.kernel is not None):
        source = jump_term(disc.spec.diffusion.b(u_full), disc, stencil,
                           config.tail_mode)
    left, right = grid.faces
    fhat = flux_pair(u_full[left], u_full[right])   # faces i-1/2, i = 0..n
    out = np.subtract(fhat[1:], fhat[:-1], out=out)
    out *= dt / grid.dx
    np.subtract(u_full[grid.interior], out, out=out)
    if source is None:
        # the zero jump term's `+ dt * 0.0` turned -0.0 into +0.0
        out += 0.0
    else:
        out += dt * source
    return out


def solve(spec: ProblemSpec, stencil: StencilWeights, config: SchemeConfig,
          dt_override: float | None = None, frozen: Trajectory | None = None,
          observers=()) -> Trajectory:
    """March to T on `time_grid`.  `solve` is the one writer of stored
    states and writes each value once: the interior of step 0 is
    `disc.u0`, that of step n + 1 is what `step` from step n writes into
    that row of the block buffer, and the halo of step n is
    `exterior.value(times[n], halo_x)`.  With `frozen`, a stored run of
    this problem and stencil on this time grid (else `ConfigMismatch`), the
    march is Picard's: it takes `frozen.disc`, each step adds the jump term
    of `frozen`'s state in place of its own (one `jump_term` call per
    block), and the CFL bound is that of the conservation law alone.

    The march goes in the blocks `row_blocks(n_steps, n_full)`, each in one
    reused buffer.  The halo is written by `refresh_halo`:
    - a steady exterior (`ExteriorData.steady`) into every row of the
      buffer, once before the march; `step` writes interiors only and the
      last row carries the halo into the next block, so it is never
      written again;
    - a moving exterior into a block's rows first, each at its time.
    With `config.enforce_cfl`, dt must stay within the CFL bound on the
    data range widened by every halo written (before a block is stepped)
    and, with `frozen`, by every interior a block stepped from (after it is
    stepped), else `CflViolation` names the time of the first row that
    broke it.  After each block's steps its new interior values are checked
    to be finite (`NonfiniteValue`, naming the start time of the first step
    that was not; each row's sum is read first, and the values only when a
    sum is not finite), and that refusal is the one report of such a run:
    the steps print no numpy warning; then every observer is called as
    `observer(rows, times, block)` with the full-grid states of steps
    `rows.start .. rows.stop` inclusive and their times, so observers see
    every step, and the steps n with `n % config.store_every == 0` are
    copied out of the buffer into the stored states."""
    if stencil.dx != config.dx:
        raise ConfigMismatch(f"stencil built for dx={stencil.dx}, "
                             f"config has dx={config.dx}")
    cfl_spec = spec
    if frozen is None:
        disc = discretize(spec, config.dx, stencil.Z)
    elif frozen.spec != spec or frozen.stencil is not stencil:
        raise ConfigMismatch("frozen run is of another problem or stencil")
    else:
        disc, cfl_spec = frozen.disc, replace(spec, diffusion=diffusion_zero())
    drange = disc.data_range
    dt, n_steps = time_grid(disc, [stencil], config, dt_override)
    dtmax = cfl_max_dt(cfl_spec, stencil, config.dx, drange)
    if config.enforce_cfl and dt > dtmax * (1.0 + 1e-9):
        raise CflViolation(f"dt={dt} above monotonicity bound {dtmax}")
    lo, hi = drange
    flux_pair = _numerical_flux(config, spec, spec.flux.lipschitz_on(lo, hi))
    bound = partial(cfl_max_dt, cfl_spec, stencil, config.dx)

    every = config.store_every
    steady = spec.exterior.steady
    times = np.linspace(0.0, spec.T, n_steps + 1)
    if frozen is not None and not np.array_equal(frozen.times, times):
        raise ConfigMismatch("frozen run is on another time grid")
    interior = disc.grid.interior
    blocks = row_blocks(n_steps, disc.grid.n_full)
    states = np.empty((n_steps // every + 1, disc.grid.n_full))
    work = np.empty((blocks[0].stop + 1, disc.grid.n_full))
    work[0, interior] = disc.u0
    disc.refresh_halo(work if steady else work[0], times[0])
    states[0] = work[0]
    cfl_range = drange
    wall = time.perf_counter()
    for rows in blocks:
        block = work[:rows.stop - rows.start + 1]
        if not steady:
            later = times[rows.start + 1:rows.stop + 1]
            disc.refresh_halo(block[1:], later)
            if config.enforce_cfl:
                cfl_range = _certify_range(block[1:, disc.grid.halo_mask()],
                                           later, "exterior datum", cfl_range,
                                           dt, bound)
        source = (None if frozen is None else
                  jump_term(spec.diffusion.b(frozen.states[rows]), disc,
                            stencil, config.tail_mode))
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(rows.stop - rows.start):
                step(block[i], disc, stencil, config, dt,
                     source=None if source is None else source[i],
                     flux_pair=flux_pair, out=block[i + 1, interior])
            # a NaN or an inf makes its row's sum nonfinite; a sum of
            # finite values can overflow too, so only then is each tested
            sums = np.add.reduce(block[1:, interior], 1)
        if frozen is not None and config.enforce_cfl:
            cfl_range = _certify_range(block[:-1, interior], times[rows],
                                       "frozen march state", cfl_range, dt,
                                       bound)
        if not np.isfinite(sums).all():
            finite = np.isfinite(block[1:, interior]).all(axis=1)
            if not finite.all():
                n = rows.start + int(np.argmin(finite))
                raise NonfiniteValue(
                    f"nonfinite state at t={float(times[n])}")
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


def replay(traj: Trajectory, observer):
    """Hand the stored states of `traj` to `observer` in the blocks and the
    form `solve` uses, and return `observer.result()`: a check over a stored
    trajectory sees the rows and block shapes that observing its march does."""
    n_rows, n_full = traj.states.shape
    # a trajectory of one stored state still shows it to the observer
    for rows in row_blocks(max(n_rows - 1, 1), n_full):
        observer(rows, traj.times[rows.start:rows.stop + 1],
                 traj.states[rows.start:rows.stop + 1])
    return observer.result()


class Gamma:
    """Observer of a march (`solve`, `replay`) of `disc` in `n_steps` steps:
    its `rows` hold gamma = b(u) - b(extension) on the interior, identically
    zero outside, one row per step.  A steady extension
    (`ExteriorData.steady`) is sampled once, as one row that broadcasts."""

    def __init__(self, disc: DiscreteProblem, n_steps: int):
        self.disc = disc
        self.b_ext = None
        self.rows = np.empty((n_steps + 1, disc.grid.n))

    def __call__(self, rows, times, block):
        spec, grid = self.disc.spec, self.disc.grid
        steady = spec.exterior.steady
        if self.b_ext is None or not steady:
            self.b_ext = spec.diffusion.b(sample_rows(
                spec.exterior.value, times[:1] if steady else times,
                grid.x_interior()))
        np.subtract(spec.diffusion.b(block[:, grid.interior]), self.b_ext,
                    out=self.rows[rows.start:rows.start + len(block)])

    def result(self) -> np.ndarray:
        return self.rows


# ---------------------------------------------------------------------------
# trajectory comparison helpers
# ---------------------------------------------------------------------------

def paired_rows(other: Trajectory, rows, times, block, ordered=False):
    """The rule that makes a march comparable with the stored trajectory
    `other`, checked on one observed block (see `solve`): the same time
    count, grid width and times (within 1e-12), and equal halos (with
    `ordered`, the march's halos below `other`'s), else `ConfigMismatch`.
    Returns (new, u, v): the rows `u` of `block` not seen in an earlier
    block (row 0 of a later block is the last row of the one before), their
    step indices `new`, and `other`'s states `v` at those steps."""
    if rows.stop >= len(other.times):
        raise ConfigMismatch("trajectories use different time steps")
    if block.shape[1] != other.states.shape[1]:
        raise ConfigMismatch("trajectories live on different grids")
    first = 1 if rows.start else 0
    new = slice(rows.start + first, rows.stop + 1)
    u = block[first:]
    v = other.states[new]
    if not (np.abs(times[first:] - other.times[new]) <= 1e-12).all():
        raise ConfigMismatch("trajectories use different time steps")
    h = other.grid.n_halo
    for side in (slice(None, h), slice(-h, None)):
        uh, vh = u[:, side], v[:, side]
        if ordered and not np.all(uh <= vh):
            raise ConfigMismatch("trajectories carry unordered exterior data")
        if not ordered and not np.array_equal(uh, vh):
            raise ConfigMismatch("trajectories carry different exterior data")
    return new, u, v


class PairSeries:
    """Observer of a march (`solve`, `replay`) paired with the stored run
    `other`, which must store every step and be comparable (`paired_rows`,
    `ordered` halos or equal ones): `rule(u, v, buf)` of the interior rows
    u of the march and v of `other`, one value per step, by default `l1`,
    in one reused buffer `buf` (a fresh temporary faults in new pages)."""

    def __init__(self, other: Trajectory, rule=None, ordered=False):
        other.require_every_step()
        self.other = other
        self.rule = rule  # None: `l1`, bound per call, so self holds no cycle
        self.ordered = ordered
        self.out = np.empty(len(other.times))
        self.seen = 0
        self.buf = np.empty((0, other.grid.n))

    def __call__(self, rows, times, block):
        new, u, v = paired_rows(self.other, rows, times, block, self.ordered)
        inside = self.other.grid.interior
        if len(u) > len(self.buf):
            self.buf = np.empty((len(u), self.other.grid.n))
        self.out[new] = (self.rule or self.l1)(u[:, inside], v[:, inside],
                                               self.buf[:len(u)])
        self.seen = rows.stop + 1

    def l1(self, u, v, buf):
        """The L1 distance: dx * sum |u - v| over each row."""
        diff = np.subtract(u, v, out=buf)
        return self.other.grid.dx * np.abs(diff, out=diff).sum(axis=1)

    def result(self) -> np.ndarray:
        """The series, one value per step of `other`."""
        if self.seen != len(self.out):
            raise ConfigMismatch("trajectories use different time steps")
        return self.out


def pair_series(a: Trajectory, b: Trajectory, rule=None,
                ordered=False) -> np.ndarray:
    """The one entry that compares two stored runs: `a`, which must store
    every step, replayed against `b` on the same grid (else
    `ConfigMismatch`) by `PairSeries(b, rule, ordered)`, one value per
    step (by default the L1 distance dx * sum |u - v| on the interior)."""
    a.require_every_step()
    if a.grid != b.grid:
        raise ConfigMismatch("trajectories live on different grids")
    return replay(a, PairSeries(b, rule, ordered))


def l1_q_distance(a: Trajectory, b: Trajectory) -> float:
    return a.dt * float(pair_series(a, b)[:-1].sum())


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
    # the next iterate marches against every step of this one
    config = replace(config, store_every=1)
    stencil = build_stencil(measure, config.dx, config.r, config.Z)
    disc = discretize(spec, config.dx, stencil.Z)
    dt, n_steps = time_grid(disc, [stencil], config)

    # iterate 0: zeros, with the halo each iterate's `solve` writes
    prev = Trajectory(times=np.linspace(0.0, spec.T, n_steps + 1),
                      states=np.zeros((n_steps + 1, disc.grid.n_full)),
                      disc=disc, stencil=stencil, config=config,
                      stats={"dt": dt, "n_steps": n_steps})
    disc.refresh_halo(prev.states, prev.times)

    norms = []      # ||u_1|| (iterate 0 is zero on the interior), then gaps
    for k in range(1, k_max + 1):
        series = PairSeries(prev)        # refuses a thinned iterate
        prev = solve(spec, stencil, config, dt_override=dt, frozen=prev,
                     observers=[series])
        norms.append(float(np.max(series.result())))
        if tol > 0.0 and k > 1 and norms[-1] <= tol:
            break
    else:
        if tol > 0.0:
            raise NoConvergence(f"gap {norms[-1]:.3e} above tol {tol} after "
                                f"{k_max} iterations", gaps=norms[1:])
    # under tol > 0 a returned run converged; tol = 0 asks for k_max iterates
    return PicardResult(trajectory=prev, gaps=norms[1:],
                        first_iterate_norm=norms[0], iterations=k,
                        converged=tol >= 0.0)


# ---------------------------------------------------------------------------
# approximation-chain drivers
# ---------------------------------------------------------------------------

@dataclass
class ChainReport:
    trajectories: list
    l1_distances: list
    l2_b_distances: list
    measure_distances: list
    reference: Trajectory


def vanishing_viscosity_run(spec: ProblemSpec, alpha: float, n_list,
                            config: SchemeConfig) -> ChainReport:
    """Solve with the diffusion scaled by 1/n and compare against the pure
    conservation-law run (zero measure): the `stability_run` of that chain."""
    measures = [ScaledMeasure(factor=1.0 / n,
                              inner=FractionalRadial(alpha=alpha))
                for n in n_list]
    return stability_run(spec, measures + [zero_measure()], config)


def stability_run(spec: ProblemSpec, measures,
                  config: SchemeConfig) -> ChainReport:
    """Solve along a measure chain; the last entry is the reference.  Reports
    solution distances, diffusive-flux L2 distances, and the weighted total
    variation distances of the measures themselves.  Every stencil is built
    from the same (dx, Z), so the trajectories are shape-comparable, and all
    are solved on the chain's one time grid, as the distances integrate over
    every step: the reference first, stored every step, then each member,
    stored at `config.store_every`, whose march two `PairSeries` observe
    against the reference (L1, and L2 of b(u))."""
    measures = list(measures)
    stencils = [build_stencil(m, config.dx, config.r, config.Z)
                for m in measures]
    dt, _ = time_grid(discretize(spec, config.dx, stencils[0].Z), stencils,
                      config)
    reference = solve(spec, stencils[-1], replace(config, store_every=1),
                      dt_override=dt)

    def l2_b_rows(u, v, buf):
        diff = np.subtract(spec.diffusion.b(u), spec.diffusion.b(v), out=buf)
        return np.multiply(diff, diff, out=diff).sum(axis=1)

    trajs, l1d, l2d, md = [], [], [], []
    for m, st in zip(measures[:-1], stencils[:-1]):
        l1, l2 = PairSeries(reference), PairSeries(reference, l2_b_rows)
        trajs.append(solve(spec, st, config, dt_override=dt,
                           observers=[l1, l2]))
        l1d.append(trajs[-1].dt * float(l1.result()[:-1].sum()))
        l2d.append(math.sqrt(reference.dt * config.dx
                             * float(l2.result()[:-1].sum())))
        md.append(weighted_tv_distance(m, measures[-1]))
    return ChainReport(trajectories=trajs, l1_distances=l1d,
                       l2_b_distances=l2d, measure_distances=md,
                       reference=reference)
