import math

import numpy as np
import pytest
from scipy import integrate

from levyfv.errors import ConfigMismatch, DivergentLevyMoment, MassAtOrigin, \
    NonSymmetric
from levyfv.measures import (AtomicSymmetric, DyadicA, DyadicB,
                             FractionalRadial, ScaledMeasure,
                             SumMeasure, single_atom, truncate,
                             validate_measure, weighted_tv_distance,
                             zero_measure)


def test_dyadic_a_moment_exact():
    rep = validate_measure(DyadicA())
    assert abs(rep.levy_moment - 1.0 / 3.0) < 1e-12
    assert rep.total_mass == math.inf


def test_dyadic_b_moment_exact():
    rep = validate_measure(DyadicB())
    assert abs(rep.levy_moment - 1.0) < 1e-12
    assert rep.total_mass == math.inf


def test_single_mirrored_atom_moment_and_mass():
    rep = validate_measure(single_atom(z=1.0, w=0.5))
    assert rep.levy_moment == pytest.approx(1.0, abs=1e-15)
    assert rep.total_mass == pytest.approx(1.0, abs=1e-15)


def test_unmirrored_atom_rejected():
    with pytest.raises(NonSymmetric):
        validate_measure(AtomicSymmetric(entries=((1.0, 0.5, False),)))


def test_mirror_conflict_rejected():
    bad = AtomicSymmetric(entries=((1.0, 0.5), (-1.0, 0.25)))
    with pytest.raises(NonSymmetric):
        validate_measure(bad)


def test_mass_at_origin_rejected():
    with pytest.raises(MassAtOrigin):
        validate_measure(AtomicSymmetric(entries=((0.0, 1.0),)))


def test_divergent_levy_moment_detected():
    # 2 * coeff overflows, so the closed-form moment is inf
    bad = FractionalRadial(alpha=1.0, coeff=1e308)
    with pytest.raises(DivergentLevyMoment):
        validate_measure(bad)


def test_fractional_moment_against_closed_form():
    for alpha in (0.5, 1.0, 1.5):
        m = FractionalRadial(alpha=alpha, coeff=0.7)
        expected = 2 * 0.7 * (1.0 / (2.0 - alpha) + 1.0 / alpha)
        assert m.levy_moment() == pytest.approx(expected, rel=1e-12)


# -- truncation ---------------------------------------------------------------

def test_fractional_truncation_outer_mass():
    # analytic antiderivative oracle: integral of 2c z^(-1-a) over [r, inf)
    c, alpha, r = 1.3, 0.7, 0.25
    sigma2, outer = truncate(FractionalRadial(alpha=alpha, coeff=c), r)
    oracle, _ = integrate.quad(lambda z: 2 * c * z ** (-1 - alpha), r, np.inf)
    assert outer.total_mass() == pytest.approx(oracle, rel=1e-9)
    oracle2, _ = integrate.quad(lambda z: 2 * c * z ** (1 - alpha), 0, r)
    assert sigma2 == pytest.approx(oracle2, rel=1e-9)


def test_truncation_below_smallest_atom_is_identity():
    m = AtomicSymmetric(entries=((0.5, 1.0), (2.0, 0.3)))
    sigma2, outer = truncate(m, 0.1)
    assert sigma2 == 0.0
    assert outer.atoms_between() == m.atoms_between()
    assert weighted_tv_distance(m, outer) == 0.0


def test_truncation_boundary_atom_belongs_to_outer():
    m = AtomicSymmetric(entries=((0.5, 1.0),))
    sigma2, outer = truncate(m, 0.5)
    assert sigma2 == 0.0
    assert outer.total_mass() == 2.0


def test_dyadic_b_truncation_symbol_zeros():
    for n in range(1, 13):
        _, outer = truncate(DyadicB(), 2.0 ** -n)
        val = outer.multiplier_value(math.pi * 2.0 ** (n + 1))
        assert abs(val) <= 1e-10


# -- weighted total variation distance ---------------------------------------

def test_tv_self_distance_zero():
    for m in (DyadicA(), single_atom(), FractionalRadial(alpha=1.0)):
        assert weighted_tv_distance(m, m) == 0.0


def test_tv_to_truncation_is_inner_moment():
    m = DyadicA()
    r = 0.1
    sigma2, outer = truncate(m, r)
    # every removed atom sits below |z| = 0.1 < 1, so the distance is sigma^2
    assert weighted_tv_distance(m, outer) == pytest.approx(sigma2, rel=1e-12)


def test_tv_fractional_truncation_closed_form():
    c = 0.9
    m = FractionalRadial(alpha=1.0, coeff=c)
    _, outer = truncate(m, 0.1)
    assert weighted_tv_distance(m, outer) == pytest.approx(2 * c * 0.1,
                                                           rel=1e-12)


def test_tv_metric_properties_on_atoms():
    rng = np.random.default_rng(5)
    for _ in range(25):
        def rnd():
            n = int(rng.integers(1, 5))
            return AtomicSymmetric(entries=tuple(
                (float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 1.0)))
                for _ in range(n)))
        a, b, c = rnd(), rnd(), rnd()
        dab = weighted_tv_distance(a, b)
        dba = weighted_tv_distance(b, a)
        assert dab == pytest.approx(dba, rel=1e-12)
        assert dab >= 0.0
        dac = weighted_tv_distance(a, c)
        dcb = weighted_tv_distance(c, b)
        assert dab <= dac + dcb + 1e-12


def test_tv_identity_of_indiscernibles_atomic():
    a = AtomicSymmetric(entries=((0.4, 0.2), (1.5, 0.7)))
    b = AtomicSymmetric(entries=((1.5, 0.7), (0.4, 0.2)))
    assert weighted_tv_distance(a, b) == 0.0
    c = AtomicSymmetric(entries=((0.4, 0.2), (1.5, 0.71)))
    assert weighted_tv_distance(a, c) > 0.0


def test_tv_mixed_kinds_split_singular_parts():
    frac = FractionalRadial(alpha=1.0)
    mix = SumMeasure(parts=(frac, single_atom(z=2.0, w=0.3)))
    # the atomic and continuous parts are mutually singular
    assert weighted_tv_distance(mix, frac) == pytest.approx(2 * 0.3, rel=1e-12)


def test_tv_generic_continuous_path():
    # two leaves on one side, or two power laws, in the same closed form:
    # coefficients summed per exponent, pieces cut where the sign changes
    whole = truncate(FractionalRadial(alpha=1.0), 0.1)[1]
    halves = SumMeasure(parts=(ScaledMeasure(factor=0.5, inner=whole),
                               ScaledMeasure(factor=0.5, inner=whole)))
    assert weighted_tv_distance(halves, whole) == 0.0
    assert weighted_tv_distance(whole, halves) == 0.0
    m = {al: truncate(FractionalRadial(alpha=al), 0.1)[1]
         for al in (0.9, 1.0, 1.1)}
    # 2 (int_0.1^1 (1 - z^0.1) dz + int_1^inf (z^-1.9 - z^-2) dz)
    exact = 2.0 * (0.9 - (1.0 - 0.1 ** 1.1) / 1.1 + 1.0 / 0.9 - 1.0)
    assert weighted_tv_distance(m[0.9], m[1.0]) == pytest.approx(exact,
                                                                 rel=1e-9)
    for a, b, c in ((0.9, 1.0, 1.1), (1.0, 1.1, 0.9), (1.1, 0.9, 1.0)):
        dab = weighted_tv_distance(m[a], m[b])
        assert dab > 0.0
        assert dab == weighted_tv_distance(m[b], m[a])
        assert dab <= (weighted_tv_distance(m[a], m[c])
                       + weighted_tv_distance(m[c], m[b]))


# pairs of power laws of two exponents: unwindowed, windowed, and sums
MIXED_PAIRS = {
    "plain": (FractionalRadial(alpha=0.7, coeff=2.0),
              FractionalRadial(alpha=1.3)),
    "windowed": (FractionalRadial(alpha=0.7, coeff=2.0, lo=0.1, hi=1.5),
                 FractionalRadial(alpha=1.3, lo=0.05)),
    "sum": (SumMeasure(parts=(FractionalRadial(alpha=0.4, coeff=0.5),
                              FractionalRadial(alpha=0.4, coeff=0.25,
                                               hi=0.5))),
            ScaledMeasure(factor=3.0, inner=FractionalRadial(alpha=1.8,
                                                             lo=0.2))),
    # z* = 3^1000 lies past every double: the difference keeps one sign
    "far_crossing": (FractionalRadial(alpha=1.0),
                     FractionalRadial(alpha=1.001, coeff=3.0)),
}


def _tv_mpmath(mu1, mu2):
    """2 int_0^inf (z^2 ^ 1) |density of mu1 - density of mu2| dz at 40
    digits, split at every window end, at 1, and where the difference
    changes sign: found between 400 log-spaced samples of each piece
    within (1e-8, 1e8), then bisected 200 times."""
    import mpmath
    mpmath.mp.dps = 40

    def diff(z):
        return sum(sign * mpmath.mpf(coef) * leaf.coeff
                   * z ** (-1 - mpmath.mpf(leaf.alpha))
                   for sign, mu in ((1, mu1), (-1, mu2))
                   for coef, leaf in mu.leaves() if leaf.lo <= z <= leaf.hi)

    cuts = sorted({0.0, 1.0, *(e for mu in (mu1, mu2)
                               for _, leaf in mu.leaves()
                               for e in (leaf.lo, leaf.hi)
                               if 0.0 < e < math.inf)})
    points = []
    for a, b in zip(cuts, cuts[1:] + [math.inf]):
        points.append(mpmath.mpf(a))
        zs = [mpmath.mpf(z) for z in np.geomspace(
            max(a, 1e-8) * (1 + 1e-9), min(b, 1e8) * (1 - 1e-9), 400)]
        for lo, hi in zip(zs[:-1], zs[1:]):
            if diff(lo) * diff(hi) < 0:
                for _ in range(200):
                    mid = (lo + hi) / 2
                    lo, hi = (mid, hi) if diff(lo) * diff(mid) > 0 \
                        else (lo, mid)
                points.append(lo)
    points.append(mpmath.inf)
    return float(2 * sum(
        mpmath.quad(lambda z: min(z * z, 1) * abs(diff(z)), [lo, hi])
        for lo, hi in zip(points[:-1], points[1:])))


@pytest.mark.parametrize("name", sorted(MIXED_PAIRS))
def test_tv_two_exponents_match_mpmath(name):
    mu1, mu2 = MIXED_PAIRS[name]
    assert weighted_tv_distance(mu1, mu2) == pytest.approx(
        _tv_mpmath(mu1, mu2), rel=1e-14)


@pytest.mark.parametrize("name", sorted(MIXED_PAIRS))
def test_tv_swapping_the_sides_gives_the_same_bits(name):
    mu1, mu2 = MIXED_PAIRS[name]
    assert weighted_tv_distance(mu1, mu2) > 0.0
    assert weighted_tv_distance(mu1, mu2) == weighted_tv_distance(mu2, mu1)


def test_tv_refuses_three_exponents_of_mixed_sign():
    outer = SumMeasure(parts=(FractionalRadial(alpha=0.5),
                              FractionalRadial(alpha=1.5)))
    with pytest.raises(ConfigMismatch, match="mixed sign"):
        weighted_tv_distance(outer, FractionalRadial(alpha=1.0))
    # three exponents of one sign have a closed form
    assert weighted_tv_distance(
        SumMeasure(parts=(outer, FractionalRadial(alpha=1.0))),
        zero_measure()) == pytest.approx(sum(
            FractionalRadial(alpha=al).levy_moment()
            for al in (0.5, 1.0, 1.5)), rel=1e-15)


def test_scaled_and_sum_compose():
    m = ScaledMeasure(factor=0.25, inner=DyadicB())
    assert m.levy_moment() == pytest.approx(0.25, rel=1e-12)
    s = SumMeasure(parts=(DyadicA(), DyadicA()))
    assert s.levy_moment() == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_zero_measure_is_empty():
    rep = validate_measure(zero_measure())
    assert rep.levy_moment == 0.0
    assert rep.total_mass == 0.0


def test_measure_config_composites():
    from levyfv.measures import measure_from_config
    m = measure_from_config({
        "kind": "sum",
        "parts": [{"kind": "single_atom", "z": 2.0, "w": 0.3},
                  {"kind": "scaled", "factor": 0.5,
                   "inner": {"kind": "fractional", "alpha": 1.0}}]})
    atom_part = 2 * 0.3 * 1.0           # (|z|^2 ^ 1) = 1 at |z| = 2
    frac_part = 0.5 * FractionalRadial(alpha=1.0).levy_moment()
    assert m.levy_moment() == pytest.approx(atom_part + frac_part, rel=1e-10)


def test_tv_merges_near_identical_radii_across_measures():
    # 0.1 + 0.2 != 0.3 in floating point, but the two radii are one atom
    exact = weighted_tv_distance(single_atom(0.3, 0.5), single_atom(0.3, 0.25))
    assert exact == pytest.approx(2 * 0.09 * 0.25, rel=1e-15)
    near = single_atom(0.1 + 0.2, 0.25)
    assert 0.1 + 0.2 != 0.3
    assert weighted_tv_distance(single_atom(0.3, 0.5), near) == exact
    assert weighted_tv_distance(near, single_atom(0.3, 0.5)) == exact


# -- composites are read through their leaves ---------------------------------

_FRAC = FractionalRadial(alpha=0.7, lo=0.05)
_ATOMS = AtomicSymmetric(entries=((0.1, 0.5), (0.25, 0.25), (0.6, 0.125)),
                         lo=0.2, hi=0.6)
COMPOSITES = {
    "windowed_sum": SumMeasure(parts=(_FRAC, _ATOMS), hi=0.75),
    "sum_of_scaled": SumMeasure(parts=(
        ScaledMeasure(factor=0.5, inner=_FRAC),
        ScaledMeasure(factor=2.0, inner=_ATOMS, lo=0.25))),
    "scaled_dyadic": ScaledMeasure(factor=0.25, inner=DyadicB(lo=1 / 32),
                                   hi=0.4),
    "atomic_sum": SumMeasure(parts=(DyadicA(hi=0.3),
                                    ScaledMeasure(factor=3.0, inner=_ATOMS))),
}
BANDS = [
    (0.0, math.inf, True, True),
    (0.25, 0.6, True, True),       # closed, on atoms
    (0.25, 0.6, False, False),     # open, on atoms
    (0.25, 0.25, True, True),      # degenerate, on an atom
    (0.25, 0.25, False, True),     # degenerate and half open: empty
    (0.0, 0.125, True, False),
    (0.03125, 0.5, False, True),
    (0.8, 2.0, True, True),        # past every window
]


def _leaf_fsum(measure, method, band):
    vals = [coef * getattr(leaf, method)(*band)
            for coef, leaf in measure.leaves()]
    return math.fsum(vals) if all(map(math.isfinite, vals)) else math.inf


@pytest.mark.parametrize("name", sorted(COMPOSITES))
@pytest.mark.parametrize("band", BANDS)
def test_composite_band_quantities_are_leaf_sums(name, band):
    m = COMPOSITES[name]
    assert m.mass_between(*band) == _leaf_fsum(m, "mass_between", band)
    assert m.second_moment_between(*band) == _leaf_fsum(
        m, "second_moment_between", band)
    per_leaf = [(coef, leaf.atoms_between(*band))
                for coef, leaf in m.leaves()]
    expected = (None if any(a is None for _, a in per_leaf) else
                [(rad, coef * w) for coef, atoms in per_leaf
                 for rad, w in atoms])
    assert m.atoms_between(*band) == expected


@pytest.mark.parametrize("name", sorted(COMPOSITES))
def test_composite_symbol_is_leaf_sum(name):
    m = COMPOSITES[name]
    for xi in (0.0, 0.5, 3.0, 17.0, 100.0):
        total = 0.0
        for coef, leaf in m.leaves():
            total += coef * leaf.multiplier_value(xi)
        assert m.multiplier_value(xi) == total
