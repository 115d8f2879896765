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

import cmath
import functools
import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .errors import (
    ConfigMismatch,
    ConfigParse,
    DivergentLevyMoment,
    MassAtOrigin,
    NonSymmetric,
    QuadratureNotConverged,
    UnknownPreset,
    config_number,
)

_INF = math.inf


def atomic_symbol(xis, radii, weights):
    """2 sum_k w_k (1 - cos(xi r_k)) at each xi for mirrored atom pairs at
    radii r_k, weights w_k per side: the cosine table times the weights."""
    return 2.0 * ((1.0 - np.cos(np.multiply.outer(xis, radii))) @ weights)


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
        """Vectorized symbol over frequencies (atomic kinds: one matrix
        product, `atomic_symbol`; power laws loop, one closed form each)."""
        xis = np.atleast_1d(np.asarray(xis, dtype=float))
        atoms = self.atoms_between()
        if atoms is not None:
            rad, w = np.array(atoms).reshape(-1, 2).T
            return atomic_symbol(xis, rad, w)
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
        """2 coeff |xi|^alpha times the integral of (1 - cos t) t^(-1-alpha)
        over [|xi| a, |xi| b]: a power series below y = SERIES_MAX_Y, and
        above it the mass of t^(-1-alpha) minus a difference of cosine tails.
        Against 40+ digit mpmath (alpha 1e-3 to 1.9999, xi up to 1e8) it is
        within 7e-15 relative, 4.2e-14 on a band (0.3, 0.35) around t = 2 pi
        (1e-12 with the split at 6: the series sums terms of size cosh t - 1);
        at 5 the continued fraction takes at most 58 steps."""
        x, al = abs(float(xi)), self.alpha
        if x == 0.0:
            return 0.0
        ya, yb = x * a, x * b
        band = _stable_series(min(ya, SERIES_MAX_Y), min(yb, SERIES_MAX_Y), al)
        if yb > SERIES_MAX_Y:
            y0 = max(ya, SERIES_MAX_Y)
            tail0 = (_cosine_tail(y0, al) if ya > SERIES_MAX_Y
                     else _switch_tail(al))
            band += _power_band(y0, yb, -al) - (tail0 - _cosine_tail(yb, al))
        return self._coef() * x ** al * band


SERIES_MAX_Y = 5.0
TAIL_MAX_ITER = 100
CLOSED_FORM_TOL = 1e-16


def _power_band(ya, yb, p):
    """int_ya^yb t^(p-1) dt = (yb^p - ya^p) / p, through expm1, so that the
    two ends do not cancel as p nears 0 (0 <= ya <= yb <= inf, p > 0 when
    ya = 0, p < 0 when yb = inf)."""
    if ya == 0.0:
        return yb ** p / p
    return ya ** p * math.expm1(p * math.log(yb / ya)) / p


def _stable_series(ya, yb, alpha):
    """int_ya^yb (1 - cos t) t^(-1-alpha) dt, 0 <= ya <= yb < inf, as
    sum_k (-1)^(k+1) (yb^(2k-alpha) - ya^(2k-alpha)) / ((2k)! (2k-alpha)).
    The terms alternate and decrease once (2k+1)(2k+2) >= yb^2; the sum
    stops at such a term below CLOSED_FORM_TOL times the partial sum, which
    bounds the remainder."""
    pa, pb = 0.5 * ya ** (2.0 - alpha), 0.5 * yb ** (2.0 - alpha)
    total, k, term = 0.0, 1, 0.5 * _power_band(ya, yb, 2.0 - alpha)
    while (abs(term) > CLOSED_FORM_TOL * abs(total)
           or (2 * k + 1) * (2 * k + 2) < yb * yb):
        total += term
        pa *= -ya * ya / ((2 * k + 1) * (2 * k + 2))
        pb *= -yb * yb / ((2 * k + 1) * (2 * k + 2))
        k += 1
        term = (pb - pa) / (2 * k - alpha)
    return total


@functools.lru_cache
def _switch_tail(alpha):
    """_cosine_tail at SERIES_MAX_Y, where every band that crosses the
    switch starts its tails; it depends on alpha only."""
    return _cosine_tail(SERIES_MAX_Y, alpha)


def _cosine_tail(y, alpha):
    """int_y^inf cos(t) t^(-1-alpha) dt = Re(y^(-alpha) e^(iy) h), y > 0, with
    h the continued fraction of e^z z^(-a) Gamma(a, z) at a = -alpha, z = -iy
    (DLMF 8.9.2) by modified Lentz (Numerical Recipes 3rd ed., 5.2, 6.2),
    stopped at |Delta - 1| < CLOSED_FORM_TOL; TAIL_MAX_ITER steps raise
    QuadratureNotConverged."""
    if y == _INF:
        return 0.0
    b = complex(1.0 + alpha, -y)
    c, d = 1e300, 1.0 / b      # a zero denominator becomes 1e-300 (Lentz)
    h = d
    for i in range(1, TAIL_MAX_ITER + 1):
        an = -i * (i + alpha)
        b += 2.0
        d = 1.0 / (an * d + b or 1e-300)
        c = b + an / c or 1e-300
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < CLOSED_FORM_TOL:
            return y ** -alpha * (cmath.exp(1j * y) * h).real
    raise QuadratureNotConverged(
        f"cosine tail continued fraction not converged in {TAIL_MAX_ITER} "
        f"iterations at y={y}")


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
    are one atom.  Continuous parts, sums of power laws, are compared in
    closed form (`_continuous_tv`).
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
    return total + _continuous_tv(c1, c2)


def _continuous_tv(c1, c2):
    """Weighted TV between the power-law leaves `c1` and `c2`, cut at every
    window end and at 1.  On a piece, each side's coefficients summed per
    exponent and subtracted give the density difference sum C_a |z|^(-1-a)
    (swapping the sides negates each C exactly); where it keeps one sign
    the piece adds |sum C_a m_a|, m_a the unit power law's
    `levy_moment_between` on it.  Two exponents of opposite sign cross at
    z* = (-C_2/C_1)^(1/(a_2 - a_1)), which cuts the piece; more exponents of
    mixed sign are refused (`ConfigMismatch`).  A piece where the sides
    agree adds nothing and is skipped; each exponent's unit law is built
    once per call."""
    edges = sorted({0.0, 1.0, _INF, *(e for _, leaf in c1 + c2
                                      for e in (leaf.lo, leaf.hi))})
    units = {leaf.alpha: FractionalRadial(alpha=leaf.alpha)
             for _, leaf in c1 + c2}
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        sums = ({}, {})
        for side, parts in zip(sums, (c1, c2)):
            for coef, leaf in parts:
                if leaf.lo <= a and b <= leaf.hi:
                    side[leaf.alpha] = (side.get(leaf.alpha, 0.0)
                                        + coef * leaf.coeff)
        diff = {al: c for al in sorted(sums[0].keys() | sums[1].keys())
                if (c := sums[0].get(al, 0.0) - sums[1].get(al, 0.0)) != 0.0}
        if not diff:
            continue
        cuts = [a, b]
        if len({c > 0.0 for c in diff.values()}) == 2:
            if len(diff) > 2:
                raise ConfigMismatch(
                    f"weighted TV: {len(diff)} power laws of mixed sign on "
                    f"({a}, {b}) have no closed form")
            (al1, k1), (al2, k2) = diff.items()
            try:
                z = (-k2 / k1) ** (1.0 / (al2 - al1))
            except OverflowError:    # the crossing lies past every double
                z = _INF
            if a < z < b:
                cuts.insert(1, z)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            total += abs(sum(c * units[al].levy_moment_between(lo, hi)
                             for al, c in diff.items()))
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
    num = config_number
    window = {k: num(cfg[k], k) for k in ("lo", "hi") if k in cfg}
    if kind == "none":
        return zero_measure()
    if kind == "single_atom":
        return single_atom(num(cfg.get("z", 0.5), "z"),
                           num(cfg.get("w", 0.5), "w"))
    if kind == "atoms":
        entries = tuple((num(z, "entries"), num(w, "entries"))
                        for z, w in cfg["entries"])
        return AtomicSymmetric(entries=entries, **window)
    if kind == "dyadic_a":
        return DyadicA(**window)
    if kind == "dyadic_b":
        return DyadicB(**window)
    if kind == "fractional":
        if num(cfg.get("dim", 1), "dim") != 1:
            raise ConfigParse("measures live on the line: dim must be 1")
        return FractionalRadial(alpha=num(cfg.get("alpha", 1.0), "alpha"),
                                coeff=num(cfg.get("coeff", 1.0), "coeff"),
                                **window)
    if kind == "scaled":
        return ScaledMeasure(factor=num(cfg["factor"], "factor"),
                             inner=measure_from_config(cfg["inner"]), **window)
    if kind == "sum":
        return SumMeasure(parts=tuple(measure_from_config(p)
                                      for p in cfg["parts"]), **window)
    raise UnknownPreset(f"unknown measure kind {kind!r}")
