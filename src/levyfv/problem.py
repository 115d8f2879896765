"""Problem data: domain, flux, nonlinearity, initial and exterior values.

Fluxes and diffusion nonlinearities are carried with the closed forms the
scheme and the diagnostics need (monotone splitting, derivative, exact
antiderivative, Lipschitz constants on a range).  Exterior data is analytic
and elementwise in x: `sample_rows` samples it one row per time, and the
diagnostics read its halo values from the stored states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigParse, HaloTooSmall, UnknownPreset, config_number
from .grids import Grid1d, make_grid


# ---------------------------------------------------------------------------
# scalar nonlinearities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewiseLinear:
    """Piecewise-linear scalar map from breakpoint tables.

    Constant extension beyond the table keeps the function globally Lipschitz
    and makes the reported constants exact.
    """

    xs: tuple
    ys: tuple

    def __call__(self, u, out=None):
        """The map at `u`; with `out` (an array of u's shape) the values
        are copied into it and `out` is returned.  `np.interp` has no
        `out`, so a table still builds its values in a temporary."""
        val = np.interp(u, self.xs, self.ys)
        if out is None:
            return val
        out[...] = val
        return out

    def deriv(self, u):
        """The lower one-sided derivative, as `DiffusionFn.bprime` takes it:
        at a breakpoint the slope on its left, 0 at and below xs[0], the
        last slope at xs[-1] and 0 above it."""
        xs = np.asarray(self.xs)
        slopes = np.concatenate([[0.0], np.diff(self.ys) / np.diff(xs),
                                 [0.0]])
        return slopes[np.searchsorted(xs, u, side="left")]

    def antiderivative(self, u):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        cum = np.concatenate([[0.0], np.cumsum(np.diff(xs) * (ys[:-1] + ys[1:]) / 2.0)])
        anchor = np.interp(0.0, xs, cum)  # exact for the pw-linear integrand
        u = np.asarray(u, dtype=float)
        below = ys[0] * np.minimum(u - xs[0], 0.0)
        above = ys[-1] * np.maximum(u - xs[-1], 0.0)
        uc = np.clip(u, xs[0], xs[-1])
        idx = np.clip(np.searchsorted(xs, uc, side="right") - 1, 0,
                      len(xs) - 2)
        x0, x1 = xs[idx], xs[idx + 1]
        y0, y1 = ys[idx], ys[idx + 1]
        t = uc - x0
        seg = y0 * t + (y1 - y0) / (x1 - x0) * t * t / 2.0
        val = cum[idx] + seg + below + above
        return val - anchor

    def lipschitz_on(self, lo, hi):
        xs = np.asarray(self.xs)
        slopes = np.abs(np.diff(self.ys) / np.diff(xs))
        keep = (xs[1:] > lo) & (xs[:-1] < hi)
        return float(slopes[keep].max()) if keep.any() else 0.0

    def split_monotone(self):
        """Exact splitting into nondecreasing and nonincreasing parts with
        value 0 at u = 0 (for monotone numerical fluxes)."""
        xs = np.asarray(self.xs, dtype=float)
        slopes = np.diff(self.ys) / np.diff(xs)
        def build(sl):
            ys = np.concatenate([[0.0], np.cumsum(sl * np.diff(xs))])
            p = PiecewiseLinear(tuple(xs), tuple(ys))
            shift = float(p(0.0))
            return PiecewiseLinear(tuple(xs), tuple(np.asarray(ys) - shift))
        return build(np.maximum(slopes, 0.0)), build(np.minimum(slopes, 0.0))


@dataclass(frozen=True)
class FluxFn:
    """Convective flux with its monotone (upwind) splitting f = f+ + f-.

    Each of `f`, `f_plus` and `f_minus` is called as `g(u)` or
    `g(u, out=buf)`.  With `out`, a float array of u's shape that does not
    overlap `u`, the values are written into `buf`, which is returned; the
    operations and their order are those of the call without it, so the
    bits are the same.  The zero, linear and Burgers fluxes then allocate
    nothing."""

    name: str
    f: Callable
    f_plus: Callable   # nondecreasing part, f_plus(0) = 0
    f_minus: Callable  # nonincreasing part, f_minus(0) = 0
    _lipschitz: Callable

    def lipschitz_on(self, lo: float, hi: float) -> float:
        return self._lipschitz(lo, hi)


def flux_zero() -> FluxFn:
    def z(u, out=None):
        if out is None:
            return np.zeros_like(np.asarray(u, dtype=float))
        out.fill(0.0)
        return out
    return FluxFn("zero", z, z, z, lambda lo, hi: 0.0)


def flux_linear(c: float = 1.0) -> FluxFn:
    def times(k):
        return lambda u, out=None: np.multiply(k, np.asarray(u, dtype=float),
                                               out=out)
    return FluxFn(f"linear({c})", times(c), times(max(c, 0.0)),
                  times(min(c, 0.0)), lambda lo, hi: abs(c))


def flux_burgers() -> FluxFn:
    def half_square(clip):
        # 0.5 * (clip(u, 0))^2, each operation in place in `out` if given
        return lambda u, out=None: np.multiply(
            0.5, np.square(clip(u, 0.0, out=out), out=out), out=out)
    return FluxFn(
        "burgers",
        lambda u, out=None: np.multiply(
            0.5, np.square(np.asarray(u, dtype=float), out=out), out=out),
        half_square(np.maximum),
        half_square(np.minimum),
        lambda lo, hi: max(abs(lo), abs(hi)),
    )


def flux_from_table(xs, ys) -> FluxFn:
    p = PiecewiseLinear(tuple(xs), tuple(ys))
    if abs(float(p(0.0))) > 0.0:
        p = PiecewiseLinear(p.xs, tuple(np.asarray(p.ys) - float(p(0.0))))
    plus, minus = p.split_monotone()
    return FluxFn("table", p, plus, minus, p.lipschitz_on)


@dataclass(frozen=True)
class DiffusionFn:
    """Nondecreasing nonlinearity b with b(0) = 0.

    `bprime` uses the lower one-sided derivative at kinks (irrelevant for the
    checks, which only meet kinks on measure-zero sets).  `antiderivative` is
    B with B(0) = 0, so the entropy potential is
    H(u, k) = B(u) - B(k) - b(k)(u - k) >= 0.
    """

    name: str
    b: Callable
    bprime: Callable
    antiderivative: Callable
    _lipschitz: Callable

    def lipschitz_on(self, lo: float, hi: float) -> float:
        return self._lipschitz(lo, hi)

    def entropy_h(self, u, k):
        return (self.antiderivative(u) - self.antiderivative(k)
                - self.b(k) * (np.asarray(u, dtype=float) - k))


def diffusion_zero() -> DiffusionFn:
    z = lambda u: np.zeros_like(np.asarray(u, dtype=float))
    return DiffusionFn("zero", z, z, z, lambda lo, hi: 0.0)


def diffusion_identity() -> DiffusionFn:
    return DiffusionFn("identity",
                       lambda u: np.asarray(u, dtype=float),
                       lambda u: np.ones_like(np.asarray(u, dtype=float)),
                       lambda u: 0.5 * np.square(np.asarray(u, dtype=float)),
                       lambda lo, hi: 1.0)


def diffusion_power(m: float = 2.0) -> DiffusionFn:
    if m <= 1.0:
        raise ValueError("power exponent must exceed 1")
    return DiffusionFn(
        f"power({m})",
        lambda u: np.sign(u) * np.abs(u) ** m,
        lambda u: m * np.abs(u) ** (m - 1.0),
        lambda u: np.abs(u) ** (m + 1.0) / (m + 1.0),
        lambda lo, hi: m * max(abs(lo), abs(hi)) ** (m - 1.0),
    )


def diffusion_stefan(ell: float = 0.5) -> DiffusionFn:
    if ell < 0.0:
        raise ValueError("stefan threshold must be >= 0 to keep b(0) = 0")
    return DiffusionFn(
        f"stefan({ell})",
        lambda u: np.maximum(np.asarray(u, dtype=float) - ell, 0.0),
        lambda u: np.where(np.asarray(u, dtype=float) > ell, 1.0, 0.0),
        lambda u: 0.5 * np.square(np.maximum(np.asarray(u, dtype=float) - ell,
                                             0.0)),
        lambda lo, hi: 1.0 if hi > ell else 0.0,
    )


def diffusion_from_table(xs, ys) -> DiffusionFn:
    p = PiecewiseLinear(tuple(xs), tuple(ys))
    if np.any(np.diff(p.ys) < 0):
        raise ValueError("diffusion table must be nondecreasing")
    if abs(float(p(0.0))) > 0.0:
        p = PiecewiseLinear(p.xs, tuple(np.asarray(p.ys) - float(p(0.0))))
    return DiffusionFn("table", p, p.deriv, p.antiderivative, p.lipschitz_on)


# ---------------------------------------------------------------------------
# exterior data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExteriorData:
    """Analytic exterior extension: value and optional closed-form
    derivatives, all vectorized over x.

    `steady` states that `value` does not depend on t.  It is a fact about
    the datum, not an option: `scheme.solve` then writes the halo once per
    march, and `discretize`'s sampled data range is exact.  A moving datum
    (`steady=False`) has its halo written at every step, and `solve`
    certifies the CFL bound against the halos it wrote."""

    value: Callable            # (t, x) -> array
    dt: Callable | None = None
    grad: Callable | None = None
    steady: bool = False


def exterior_constant(c: float) -> ExteriorData:
    return ExteriorData(
        value=lambda t, x: np.full_like(np.asarray(x, dtype=float), c),
        dt=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        grad=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        steady=True)


def exterior_smoothstep(x0: float, x1: float, left: float,
                        right: float) -> ExteriorData:
    """Time-independent C^2 ramp: quintic smoothstep from `left` to `right`
    across [x0, x1], exactly constant outside."""
    span = x1 - x0

    def theta(x):
        return np.clip((np.asarray(x, dtype=float) - x0) / span, 0.0, 1.0)

    def value(t, x):
        th = theta(x)
        s = th ** 3 * (10.0 + th * (-15.0 + 6.0 * th))
        return left + (right - left) * s

    def grad(t, x):
        th = theta(x)
        ds = 30.0 * th ** 2 * (1.0 - th) ** 2 / span
        return (right - left) * ds

    return ExteriorData(value=value,
                        dt=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
                        grad=grad, steady=True)


# ---------------------------------------------------------------------------
# problem specification
# ---------------------------------------------------------------------------

def sample_rows(fn, times, x) -> np.ndarray:
    """fn(t, x) at each t in `times`, one row per time (a value constant in
    x is broadcast along it)."""
    return np.stack([np.broadcast_to(np.asarray(fn(float(t), x), dtype=float),
                                     np.shape(x)) for t in times])


@dataclass(frozen=True)
class ProblemSpec:
    """An instance on the interval `domain` = (a, b).  The exterior datum is
    `exterior.value` restricted to the complement of the interval: the data
    range samples it on the halo, and `scheme.solve` writes it into the halo
    of every stored state, where the diagnostics read it."""

    domain: tuple                      # (a, b)
    flux: FluxFn
    diffusion: DiffusionFn
    u0: Callable                       # x -> value, on the interior
    exterior: ExteriorData             # global extension
    T: float


def validate_problem(spec: ProblemSpec) -> None:
    """Structural checks: normalized flux and diffusion, and b monotone on
    1000 random pairs."""
    rng = np.random.default_rng(0)
    if abs(float(np.asarray(spec.flux.f(0.0)))) > 1e-14:
        raise ValueError("flux not normalized: f(0) != 0")
    if abs(float(np.asarray(spec.diffusion.b(0.0)))) > 1e-14:
        raise ValueError("diffusion not normalized: b(0) != 0")
    lo, hi = -2.0, 2.0
    s = rng.uniform(lo, hi, size=1000)
    t = rng.uniform(lo, hi, size=1000)
    s, t = np.minimum(s, t), np.maximum(s, t)
    bs, bt = spec.diffusion.b(s), spec.diffusion.b(t)
    if np.any(bs > bt + 1e-12):
        raise ValueError("diffusion nonlinearity is not nondecreasing")


@dataclass
class DiscreteProblem:
    """Grid-sampled instance: the initial datum at the interior cell centers
    plus an exterior sampler bound to the analytic extension.  The halo of
    every state, the initial one included, is written by `refresh_halo`."""

    grid: Grid1d
    spec: ProblemSpec
    u0: np.ndarray                     # (n,), interior cells only
    data_range: tuple
    halo_x: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.halo_x = self.grid.x_halo()

    def refresh_halo(self, u_full: np.ndarray, times) -> None:
        """Write the extension into the halo of each row of `u_full` at that
        row's time in `times` (`sample_rows`); a single time is broadcast to
        every row, and a steady datum (`ExteriorData.steady`) is sampled at
        the first time alone and broadcast.  The extension is elementwise
        in x, so it is evaluated at the halo centers alone."""
        times = np.atleast_1d(times)
        if self.spec.exterior.steady:
            times = times[:1]
        vals = sample_rows(self.spec.exterior.value, times, self.halo_x)
        h = self.grid.n_halo
        u_full[..., :h] = vals[:, :h]
        u_full[..., -h:] = vals[:, h:]


def discretize(spec: ProblemSpec, dx: float,
               halo_width: float) -> DiscreteProblem:
    """Cell-centered sampling of the initial datum on the interior, on a grid
    with an exterior halo.

    The recorded data range is taken over the sampled initial datum and the
    exterior values on the halo at 33 times across [0, T].  For a steady
    exterior it is exact, since every sample is the same halo; every preset
    is steady.  For a moving one it is a sample: `scheme.solve` widens it by
    the halos it writes and certifies the CFL bound on that before it steps
    on them.  A horizon T that is not positive and finite is refused
    (`ConfigParse`) before anything is sampled at it: every time grid is
    taken on a discretized problem, so this is the one horizon rule.
    """
    if not 0.0 < spec.T < math.inf:
        raise ConfigParse(f"T must be positive and finite, got {spec.T}")
    a, b = spec.domain
    n_halo = int(math.ceil(halo_width / dx - 1e-12))
    if n_halo < 1:
        raise HaloTooSmall("halo must cover at least one cell")
    grid = make_grid(a, b, dx, n_halo)
    u0 = np.empty(grid.n)
    u0[:] = spec.u0(grid.x_interior())
    vals = sample_rows(spec.exterior.value, np.linspace(0.0, spec.T, 33),
                       grid.x_halo())
    lo = min(float(u0.min()), float(vals.min()))
    hi = max(float(u0.max()), float(vals.max()))
    return DiscreteProblem(grid=grid, spec=spec, u0=u0, data_range=(lo, hi))


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _bump_datum(center=0.5, radius=0.25, height=1.0):
    def u0(x):
        x = np.asarray(x, dtype=float)
        s = np.clip(np.abs(x - center) / radius, 0.0, 1.0)
        return height * np.cos(np.pi * s / 2.0) ** 2
    return u0


def make_problem(flux="burgers", diffusion="zero", data="riemann",
                 domain=(0.0, 1.0), T=0.5, **kw) -> ProblemSpec:
    """Assemble an instance from named pieces (the test-matrix entry point)."""
    fluxes = {"burgers": flux_burgers, "linear": flux_linear,
              "zero": flux_zero}
    diffs = {"zero": diffusion_zero, "identity": diffusion_identity,
             "power": diffusion_power, "stefan": diffusion_stefan}
    if isinstance(flux, FluxFn):
        fx = flux
    else:
        if flux not in fluxes:
            raise UnknownPreset(f"unknown flux {flux!r}")
        fx = fluxes[flux]()
    if isinstance(diffusion, DiffusionFn):
        df = diffusion
    else:
        if diffusion not in diffs:
            raise UnknownPreset(f"unknown diffusion {diffusion!r}")
        args = {k: kw[k] for k in ("m", "ell") if k in kw}
        df = diffs[diffusion](**args) if args else diffs[diffusion]()
    a, b = domain
    mid = 0.5 * (a + b)
    wid = 0.1 * (b - a)
    if data == "riemann":
        u0 = lambda x: np.where(np.asarray(x, dtype=float) < mid, 1.0, 0.0)
        ext = exterior_smoothstep(mid - wid, mid + wid, 1.0, 0.0)
    elif data == "riemann_up":
        u0 = lambda x: np.where(np.asarray(x, dtype=float) < mid, 0.0, 1.0)
        ext = exterior_smoothstep(mid - wid, mid + wid, 0.0, 1.0)
    elif data == "bump":
        u0 = _bump_datum(mid, 0.25 * (b - a))
        ext = exterior_constant(0.0)
    else:
        raise UnknownPreset(f"unknown datum {data!r}")
    return ProblemSpec(domain=(a, b), flux=fx, diffusion=df,
                       u0=u0, exterior=ext, T=T)


PROBLEM_PRESETS = {
    "burgers_riemann": lambda: make_problem("burgers", "zero", "riemann"),
    "burgers_rarefaction": lambda: make_problem("burgers", "zero",
                                                "riemann_up", T=0.3),
    "burgers_bump": lambda: make_problem("burgers", "identity", "bump"),
    "linear_bump": lambda: make_problem("linear", "zero", "bump"),
    "stefan_mixed": lambda: make_problem("burgers", "stefan", "bump",
                                         ell=0.3),
}


def problem_from_config(cfg) -> ProblemSpec:
    if isinstance(cfg, str):
        if cfg not in PROBLEM_PRESETS:
            raise UnknownPreset(f"unknown problem preset {cfg!r}")
        return PROBLEM_PRESETS[cfg]()

    def numbers(key, vals):
        return [config_number(v, key) for v in vals]

    kw = {k: config_number(cfg[k], k) for k in ("m", "ell") if k in cfg}
    flux = cfg.get("flux", "burgers")
    if isinstance(flux, dict):  # piecewise-linear coefficient table
        flux = flux_from_table(*(numbers("flux", flux[k]) for k in "xy"))
    diffusion = cfg.get("diffusion", "zero")
    if isinstance(diffusion, dict):
        diffusion = diffusion_from_table(*(numbers("diffusion", diffusion[k])
                                           for k in "xy"))
    return make_problem(flux=flux, diffusion=diffusion,
                        data=cfg.get("data", "riemann"),
                        domain=tuple(numbers("domain",
                                             cfg.get("domain", (0.0, 1.0)))),
                        T=config_number(cfg.get("T", 0.5), "T"), **kw)
