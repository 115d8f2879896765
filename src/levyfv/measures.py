"""Symmetric jump (Lévy) measures: moments, truncations, and distances.

Every measure is symmetric about the origin, carries no mass at zero, and has
a finite (|z|^2 ^ 1)-moment.  A measure also carries an optional support
window {lo <= |z| <= hi}, so truncations are first-class values: the part of
mu on {|z| >= r} is the same measure with `lo` raised to r.

Kinds
-----
FractionalRadial   power-law density c |z|^(-1-alpha), the stable family
AtomicSymmetric    finite list of mirrored atom pairs (one representative each)
DyadicA            atoms at 2^-k with pair weight 1 (infinite mass, moment 1/3)
DyadicB            atoms at 2^-k with pair weight 2^k (infinite mass, moment 1)
SumMeasure         finite sum of measures
ScaledMeasure      positive multiple of a measure

Atoms exactly on a truncation radius belong to the outer part {|z| >= r};
tail masses use the strict inequality {|z| > Z}.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np
from scipy import integrate
from scipy.special import sici

from .errors import (
    ConfigParse,
    DivergentLevyMoment,
    MassAtOrigin,
    NonSymmetric,
    QuadratureNotConverged,
    UnknownPreset,
    UnsupportedPair,
)

_INF = math.inf
SYMBOL_REL_TOL = 1e-8     # relative error the symbol quadrature certifies


@dataclass(frozen=True)
class MomentReport:
    levy_moment: float
    total_mass: float  # math.inf allowed


# ---------------------------------------------------------------------------
# base class
# ---------------------------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class LevyMeasure:
    """Base type.  Band arguments are radii 0 <= a <= b <= inf; the inclusive
    flags only matter for atomic kinds.

    Every band quantity is read through `leaves()`: it sums, over the leaves
    whose folded window the band meets, the leaf's coefficient times the
    leaf's hook on the band clipped to that window.  Sums and scalings have
    no hooks of their own."""

    lo: float = 0.0
    hi: float = _INF

    # -- leaf hooks (band already clipped to the window) -----------------------
    # Mass, second moment and symbol default to sums over `_atoms`, so
    # atomic leaves define only their atom list; continuous leaves override.
    def _mass(self, a, b, ia, ib) -> float:
        return sum(2.0 * w for _, w in self._atoms(a, b, ia, ib))

    def _second(self, a, b, ia, ib) -> float:
        return sum(2.0 * w * rad ** 2 for rad, w in self._atoms(a, b, ia, ib))

    def _multiplier(self, xi, a, b, ia, ib) -> float:
        x = abs(float(xi))
        total = 0.0
        for rad, w in self._atoms(a, b, ia, ib):
            total += 2.0 * w * (1.0 - math.cos(x * rad))
        return total

    def _atoms(self, a, b, ia, ib):
        """Pairs (radius, per-side weight) inside the band, or None."""
        return None

    def validate(self) -> None:
        """Structural checks; kinds with atom lists override."""

    # -- window plumbing -------------------------------------------------------
    def _clip(self, a, b, ia, ib):
        """The band clipped to the window, or None when that is empty."""
        a2 = max(a, self.lo)
        b2 = min(b, self.hi)
        ia2 = ia if a2 == a else True
        ib2 = ib if b2 == b else True
        if a2 > b2 or (a2 == b2 and not (ia2 and ib2)):
            return None
        return a2, b2, ia2, ib2

    def _met_leaves(self, a, b, ia, ib):
        """(coefficient, leaf, clipped band) for each leaf the band meets."""
        for coef, leaf in self.leaves():
            band = leaf._clip(a, b, ia, ib)
            if band is not None:
                yield coef, leaf, band

    def _leaf_fsum(self, hook, a, b, ia, ib) -> float:
        """Exactly rounded sum of coefficient times `hook` over the leaves
        the band meets; inf when any term is not finite."""
        vals = [coef * getattr(leaf, hook)(*band)
                for coef, leaf, band in self._met_leaves(a, b, ia, ib)]
        return math.fsum(vals) if all(math.isfinite(v) for v in vals) else _INF

    # -- public band quantities ------------------------------------------------
    def mass_between(self, a=0.0, b=_INF, include_a=True,
                     include_b=True) -> float:
        return self._leaf_fsum("_mass", a, b, include_a, include_b)

    def second_moment_between(self, a=0.0, b=_INF, include_a=True,
                              include_b=True) -> float:
        return self._leaf_fsum("_second", a, b, include_a, include_b)

    def levy_moment_between(self, a=0.0, b=_INF, include_a=True,
                            include_b=True) -> float:
        """Integral of (|z|^2 ^ 1) over the band (split at |z| = 1, where the
        weight is continuous, so the split point is counted exactly once)."""
        inner = self.second_moment_between(a, min(b, 1.0), include_a,
                                           include_b and b < 1.0)
        outer = self.mass_between(max(a, 1.0), b,
                                  include_a if a >= 1.0 else True, include_b)
        return inner + outer

    def levy_moment(self) -> float:
        return self.levy_moment_between()

    def total_mass(self) -> float:
        return self.mass_between()

    def mass_above(self, Z: float) -> float:
        """mu({|z| > Z}), strict."""
        return self.mass_between(Z, _INF, include_a=False)

    def second_moment_below(self, r: float) -> float:
        """Integral of |z|^2 over {|z| < r}, strict."""
        return self.second_moment_between(0.0, r, include_b=False)

    def multiplier_value(self, xi) -> float:
        """Symbol m(xi) = integral of (1 - cos(xi . z)) d mu."""
        total = 0.0
        for coef, leaf, band in self._met_leaves(0.0, _INF, True, True):
            total += coef * leaf._multiplier(xi, *band)
        return total

    def multiplier_values(self, xis) -> np.ndarray:
        """Vectorized symbol over frequencies (atomic kinds evaluate the whole
        grid at once; quadrature kinds fall back to a loop)."""
        xis = np.atleast_1d(np.asarray(xis, dtype=float))
        atoms = self.atoms_between()
        if atoms is not None:
            rad = np.array([a[0] for a in atoms])
            w = np.array([a[1] for a in atoms])
            return 2.0 * np.sum(
                w * (1.0 - np.cos(np.multiply.outer(xis, rad))), axis=-1)
        return np.array([self.multiplier_value(x) for x in xis])

    def atoms_between(self, a=0.0, b=_INF, include_a=True, include_b=True):
        """Pairs (radius, per-side weight) in the band, or None when the band
        meets a continuous leaf."""
        out = []
        for coef, leaf, band in self._met_leaves(a, b, include_a, include_b):
            atoms = leaf._atoms(*band)
            if atoms is None:
                return None
            out.extend((rad, coef * w) for rad, w in atoms)
        return out

    def leaves(self) -> Iterator[tuple[float, "LevyMeasure"]]:
        """Flatten sums/scalings into (coefficient, leaf) with windows folded."""
        yield 1.0, self


# ---------------------------------------------------------------------------
# power-law radial family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FractionalRadial(LevyMeasure):
    """Density coeff * |z|^(-1-alpha) on the line, alpha in (0, 2).

    The normalization constant is a free parameter (default 1); nothing in the
    package bakes in a particular convention.
    """

    alpha: float = 1.0
    coeff: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (0, 2), got {self.alpha}")
        if self.coeff <= 0:
            raise ValueError("coeff must be positive")

    def _coef(self) -> float:
        """coeff times the two sides of the line."""
        return 2.0 * self.coeff

    def _mass(self, a, b, ia, ib):
        if a <= 0.0:
            return _INF
        al = self.alpha
        upper = 0.0 if b == _INF else b ** -al
        return self._coef() * (a ** -al - upper) / al

    def _second(self, a, b, ia, ib):
        if b == _INF:
            return _INF
        p = 2.0 - self.alpha
        return self._coef() * (b ** p - a ** p) / p

    def _multiplier(self, xi, a, b, ia, ib):
        return _power_law_multiplier(abs(float(xi)), a, b, self.alpha,
                                     self.coeff)


def _power_law_multiplier(xi, a, b, alpha, coeff):
    """2*coeff * int_a^b (1 - cos(xi z)) z^(-1-alpha) dz."""
    if xi == 0.0:
        return 0.0
    if alpha == 1.0:
        # exact antiderivative: -(1 - cos(xi z))/z + xi * Si(xi z)
        def anti(z):
            if z == 0.0:
                return 0.0
            if z == _INF:
                return xi * (math.pi / 2.0)
            si = float(sici(xi * z)[0])
            return -(1.0 - math.cos(xi * z)) / z + xi * si
        return 2.0 * coeff * (anti(b) - anti(a))
    return 2.0 * coeff * _oscillatory_band_integral(xi, a, b, alpha)


def _oscillatory_band_integral(xi, a, b, alpha):
    """int_a^b (1 - cos(xi z)) z^(-1-alpha) dz, for xi > 0 and alpha != 1.

    Near the origin 1 - cos tames the singularity; past 1/xi the mass part
    is taken in closed form and the cosine part with scipy's oscillatory
    rules.  Convergence is enforced through the returned error estimates, so
    scipy's advisory warnings are silenced here.
    """
    g = lambda z: z ** (-1.0 - alpha)
    split = min(max(a, 1.0 / xi), b)
    total, err = 0.0, 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        if split > a:
            v, e = integrate.quad(lambda z: (1.0 - math.cos(xi * z)) * g(z),
                                  a, split, limit=200, epsabs=1e-13,
                                  epsrel=1e-11)
            total += v
            err += e
        if b > split:
            total += (split ** -alpha
                      - (0.0 if b == _INF else b ** -alpha)) / alpha
            # QAWO on a finite interval; on [split, inf) it takes the first
            # 4 periods 2 pi / xi, where g is still steep, and QAWF the
            # flatter rest
            end = split + 4 * 2.0 * math.pi / xi if b == _INF else b
            v, e = integrate.quad(g, split, end, weight="cos", wvar=xi,
                                  limit=400, epsabs=1e-12, epsrel=1e-11)
            if b == _INF:
                v_far, e_far = integrate.quad(g, end, _INF, weight="cos",
                                              wvar=xi, limit=400,
                                              epsabs=1e-12)
                v, e = v + v_far, e + e_far
            total -= v
            err += e
    if err > max(SYMBOL_REL_TOL * abs(total), 1e-9):
        raise QuadratureNotConverged(
            f"symbol quadrature error {err:.2e} at xi={xi}")
    return total


# ---------------------------------------------------------------------------
# atomic kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtomicSymmetric(LevyMeasure):
    """Finite list of mirrored atom pairs.

    Each entry is (z, w) with z != 0 and w > 0: mass w sits at both z and -z,
    so one entry carries total mass 2w.  An entry may carry an explicit third
    element `mirrored`; passing False is rejected (only symmetric measures are
    representable).  Listing both z and -z is a mirror conflict.
    """

    entries: tuple = ()

    def validate(self) -> None:
        seen = {}
        for entry in self.entries:
            z, w = float(entry[0]), entry[1]
            if len(entry) > 2 and not entry[2]:
                raise NonSymmetric(f"atom at z={z} declared unmirrored")
            if z == 0.0:
                raise MassAtOrigin("atom at z=0")
            if w <= 0:
                raise NonSymmetric(f"atom at z={z} has nonpositive weight {w}")
            if -z in seen and seen[-z] != w:
                raise NonSymmetric(f"conflicting mirror atoms at ±{abs(z)}")
            seen[z] = w

    def _pairs(self):
        """Merged (radius, side weight) list, ascending in radius."""
        merged = {}
        for entry in self.entries:
            rad = abs(float(entry[0]))
            merged[rad] = merged.get(rad, 0.0) + float(entry[1])
        return sorted(merged.items())

    def _in_band(self, rad, a, b, ia, ib):
        return ((rad > a or (rad == a and ia)) and
                (rad < b or (rad == b and ib)))

    def _atoms(self, a, b, ia, ib):
        return [(rad, w) for rad, w in self._pairs()
                if self._in_band(rad, a, b, ia, ib)]


@dataclass(frozen=True)
class _DyadicFamily(LevyMeasure):
    """Atoms at radii 2^-k, k >= 1, with kind-specific pair weights.  The
    first EXPLICIT_ATOMS atoms are summed one by one; the second moment of
    the rest is a closed-form tail."""

    EXPLICIT_ATOMS = 60

    def _pair_weight(self, k: int) -> float:
        raise NotImplementedError

    def _tail_second(self, k: int) -> float:
        """Sum over j > k of pair_weight(j) * 4^-j, in closed form."""
        raise NotImplementedError

    def _k_range(self, a, b, ia, ib):
        """Explicit atom indices in the band."""
        ks = []
        for k in range(1, self.EXPLICIT_ATOMS + 1):
            rad = 2.0 ** -k
            if rad > b or (rad == b and not ib):
                continue
            if rad < a or (rad == a and not ia):
                break
            ks.append(k)
        return ks

    # a band from below 2^-EXPLICIT_ATOMS holds atoms past the explicit ones
    def _mass(self, a, b, ia, ib):
        if a < 2.0 ** -self.EXPLICIT_ATOMS:
            return _INF
        return super()._mass(a, b, ia, ib)

    def _second(self, a, b, ia, ib):
        out = super()._second(a, b, ia, ib)
        if a < 2.0 ** -self.EXPLICIT_ATOMS:
            out += self._tail_second(self.EXPLICIT_ATOMS)
        return out

    # the symbol sums the explicit atoms only; the remainder is below
    # xi^2 * tail_second / 2
    def _atoms(self, a, b, ia, ib):
        return [(2.0 ** -k, 0.5 * self._pair_weight(k))
                for k in self._k_range(a, b, ia, ib)]


@dataclass(frozen=True)
class DyadicA(_DyadicFamily):
    """Pair weight 1 at every dyadic radius: infinite mass, moment 1/3, and a
    symbol that stays below (2/3)*pi^2 along xi = pi*2^n while growing like
    log2|xi| along generic rays."""

    def _pair_weight(self, k):
        return 1.0

    def _tail_second(self, k):
        return (4.0 ** -k) / 3.0


@dataclass(frozen=True)
class DyadicB(_DyadicFamily):
    """Pair weight 2^k: infinite mass, moment 1, coercive symbol, but with
    truncations whose symbols vanish at xi = pi*2^(n+1)."""

    def _pair_weight(self, k):
        return float(2 ** k)

    def _tail_second(self, k):
        return 2.0 ** -k


# ---------------------------------------------------------------------------
# composites (read through `leaves()` only)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SumMeasure(LevyMeasure):
    parts: tuple = ()

    def validate(self) -> None:
        for p in self.parts:
            p.validate()

    def leaves(self):
        for p in self.parts:
            for coef, leaf in p.leaves():
                yield coef, replace(leaf, lo=max(leaf.lo, self.lo),
                                    hi=min(leaf.hi, self.hi))


@dataclass(frozen=True)
class ScaledMeasure(LevyMeasure):
    factor: float = 1.0
    inner: LevyMeasure = None

    def __post_init__(self):
        if self.factor <= 0:
            raise ValueError("scale factor must be positive")

    def validate(self) -> None:
        self.inner.validate()

    def leaves(self):
        for coef, leaf in self.inner.leaves():
            yield self.factor * coef, replace(leaf, lo=max(leaf.lo, self.lo),
                                              hi=min(leaf.hi, self.hi))


# ---------------------------------------------------------------------------
# validation and distance
# ---------------------------------------------------------------------------

def validate_measure(measure: LevyMeasure) -> MomentReport:
    """Check structure and return the (|z|^2 ^ 1)-moment and total mass.

    Total mass may be inf (structural divergence).  A levy moment that is
    not finite (it diverges, or it overflows) raises DivergentLevyMoment.
    """
    measure.validate()
    moment = measure.levy_moment()
    if not math.isfinite(moment):
        raise DivergentLevyMoment("levy moment diverges")
    return MomentReport(levy_moment=moment, total_mass=measure.total_mass())


def truncate(measure: LevyMeasure, r: float):
    """Split at radius r: (inner second moment sigma^2,  outer part mu|{|z|>=r})."""
    if r <= 0:
        raise ValueError("truncation radius must be positive")
    return (measure.second_moment_below(r),
            replace(measure, lo=max(measure.lo, r)))


def _atom_dict(leaves):
    """Radius -> total per-side weight for the purely atomic leaves."""
    out = {}
    for coef, leaf in leaves:
        for rad, w in leaf.atoms_between():
            out[rad] = out.get(rad, 0.0) + coef * w
    return out


def _canonical_radii(radii):
    """Map each radius to the first smaller-or-equal radius within
    1e-12 (1 + r) of it, in ascending order: one key for near-identical radii
    produced by different expressions."""
    canon, seen = {}, []
    for rad in sorted(radii):
        for rep in seen:
            if abs(rep - rad) <= 1e-12 * (1.0 + abs(rep)):
                canon[rad] = rep
                break
        else:
            seen.append(rad)
            canon[rad] = rad
    return canon


def _merge(d, canon):
    merged = {}
    for rad in sorted(d):
        merged[canon[rad]] = merged.get(canon[rad], 0.0) + d[rad]
    return merged


def _split_leaves(measure):
    atomic, continuous = [], []
    for coef, leaf in measure.leaves():
        if leaf.atoms_between() is not None:
            atomic.append((coef, leaf))
        else:
            continuous.append((coef, leaf))
    return atomic, continuous


def weighted_tv_distance(mu1: LevyMeasure, mu2: LevyMeasure) -> float:
    """Integral of (|z|^2 ^ 1) against the total variation |mu1 - mu2|.

    Atomic and absolutely continuous parts are mutually singular, so the
    distance splits cleanly.  Atoms of either measure at near-identical radii
    are one atom.  Continuous parts are compared in closed form when they
    share a power law, by quadrature otherwise.
    """
    a1, c1 = _split_leaves(mu1)
    a2, c2 = _split_leaves(mu2)
    total = 0.0

    d1, d2 = _atom_dict(a1), _atom_dict(a2)
    canon = _canonical_radii(set(d1) | set(d2))
    d1, d2 = _merge(d1, canon), _merge(d2, canon)
    for rad in set(d1) | set(d2):
        total += (min(rad * rad, 1.0) * 2.0
                  * abs(d1.get(rad, 0.0) - d2.get(rad, 0.0)))

    if not c1 and not c2:
        return total
    total += _continuous_tv(c1, c2)
    return total


def _continuous_tv(c1, c2):
    if all(isinstance(leaf, FractionalRadial) for _, leaf in c1 + c2):
        params1 = {leaf.alpha for _, leaf in c1}
        params2 = {leaf.alpha for _, leaf in c2}
        if len(params1 | params2) == 1 and len(c1) <= 1 and len(c2) <= 1:
            # same power law: |c1 1_W1 - c2 1_W2| is piecewise a power law
            (k1, l1) = (c1[0][0] * c1[0][1].coeff, c1[0][1]) if c1 else (0.0, None)
            (k2, l2) = (c2[0][0] * c2[0][1].coeff, c2[0][1]) if c2 else (0.0, None)
            base = l1 or l2
            unit = replace(base, coeff=1.0, lo=0.0, hi=_INF)
            edges = sorted({0.0, 1.0,
                            *( [l1.lo, l1.hi] if l1 else [] ),
                            *( [l2.lo, l2.hi] if l2 else [] ), _INF})
            total = 0.0
            for a, b in zip(edges[:-1], edges[1:]):
                if b <= a:
                    continue
                w1 = k1 if (l1 and l1.lo <= a and b <= l1.hi) else 0.0
                w2 = k2 if (l2 and l2.lo <= a and b <= l2.hi) else 0.0
                diff = abs(w1 - w2)
                if diff > 0.0:
                    total += diff * unit.levy_moment_between(a, b)
            return total
    # generic path: quadrature of the absolute density difference

    def density(parts):
        def g(z):
            val = 0.0
            for coef, leaf in parts:
                if leaf.lo <= z <= leaf.hi:
                    if isinstance(leaf, FractionalRadial):
                        val += coef * leaf.coeff * z ** (-1.0 - leaf.alpha)
                    else:
                        raise UnsupportedPair(
                            f"cannot evaluate density of {type(leaf).__name__}")
            return val
        return g

    g1, g2 = density(c1), density(c2)
    edges = sorted({1.0, *[leaf.lo for _, leaf in c1 + c2],
                    *[leaf.hi for _, leaf in c1 + c2 if leaf.hi < _INF]})
    edges = [e for e in edges if e > 0.0]
    total = 0.0
    prev = 0.0
    for e in edges + [_INF]:
        if e <= prev:
            continue
        f = lambda z: min(z * z, 1.0) * abs(g1(z) - g2(z))
        v, err = integrate.quad(f, prev, e, limit=400, epsabs=1e-12,
                                epsrel=1e-9)
        total += 2.0 * v
        prev = e
    return total


# ---------------------------------------------------------------------------
# presets and config ingestion
# ---------------------------------------------------------------------------

def zero_measure() -> AtomicSymmetric:
    return AtomicSymmetric(entries=())


def single_atom(z: float = 0.5, w: float = 0.5) -> AtomicSymmetric:
    return AtomicSymmetric(entries=((z, w),))


MEASURE_PRESETS = {
    "none": zero_measure,
    "single_atom": single_atom,
    "dyadic_a": DyadicA,
    "dyadic_b": DyadicB,
    "fractional": FractionalRadial,
}


def measure_from_config(cfg) -> LevyMeasure:
    """Build a measure from a config mapping {kind: ..., <params>}."""
    if isinstance(cfg, str):
        if cfg not in MEASURE_PRESETS:
            raise UnknownPreset(f"unknown measure preset {cfg!r}")
        return MEASURE_PRESETS[cfg]()
    kind = cfg.get("kind")
    window = {k: float(cfg[k]) for k in ("lo", "hi") if k in cfg}
    if kind == "none":
        return zero_measure()
    if kind == "single_atom":
        return single_atom(float(cfg.get("z", 0.5)), float(cfg.get("w", 0.5)))
    if kind == "atoms":
        entries = tuple((float(z), float(w)) for z, w in cfg["entries"])
        return AtomicSymmetric(entries=entries, **window)
    if kind == "dyadic_a":
        return DyadicA(**window)
    if kind == "dyadic_b":
        return DyadicB(**window)
    if kind == "fractional":
        if cfg.get("dim", 1) != 1:
            raise ConfigParse("measures live on the line: dim must be 1")
        return FractionalRadial(alpha=float(cfg.get("alpha", 1.0)),
                                coeff=float(cfg.get("coeff", 1.0)), **window)
    if kind == "scaled":
        return ScaledMeasure(factor=float(cfg["factor"]),
                             inner=measure_from_config(cfg["inner"]), **window)
    if kind == "sum":
        return SumMeasure(parts=tuple(measure_from_config(p)
                                      for p in cfg["parts"]), **window)
    raise UnknownPreset(f"unknown measure kind {kind!r}")
