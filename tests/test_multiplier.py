import math

import numpy as np
import pytest

from levyfv import measures
from levyfv.errors import EmptyGrid, QuadratureNotConverged
from levyfv.measures import (DyadicA, DyadicB, FractionalRadial,
                             single_atom, truncate)
from levyfv.multiplier import MultiplierEval, multiplier_inf_estimate


def stable_symbol_constant(alpha: float) -> float:
    """Independent oracle for int_0^inf (1 - cos s) s^(-1-a) ds."""
    if alpha == 1.0:
        return math.pi / 2.0
    return math.cos(math.pi * alpha / 2.0) * math.gamma(2.0 - alpha) / (
        alpha * (1.0 - alpha))


def test_single_atom_at_pi():
    ev = MultiplierEval(single_atom(z=1.0, w=0.5))
    assert ev.m(math.pi) == pytest.approx(2.0, abs=1e-15)


def test_dyadic_a_plateau():
    ev = MultiplierEval(DyadicA())
    bound = (2.0 / 3.0) * math.pi ** 2
    for n in range(1, 21):
        assert ev.m(math.pi * 2.0 ** n) <= bound + 1e-10


def test_fractional_symbol_matches_power_law():
    # the oracle computes its own constant; the scaling law is the check
    for alpha in (0.5, 1.0, 1.5):
        ev = MultiplierEval(FractionalRadial(alpha=alpha))
        C = 2.0 * stable_symbol_constant(alpha)
        for xi in np.linspace(0.3, 12.0, 10):
            assert ev.m(xi) == pytest.approx(C * xi ** alpha, rel=1e-7)


def test_symbol_invariants_across_kinds():
    rng = np.random.default_rng(3)
    kinds = [single_atom(z=0.7, w=0.4), DyadicA(), DyadicB(),
             FractionalRadial(alpha=0.8),
             truncate(FractionalRadial(alpha=1.2), 0.05)[1]]
    for m in kinds:
        ev = MultiplierEval(m)
        assert ev.m(0.0) == 0.0
        for xi in rng.uniform(0.1, 30.0, size=8):
            v = ev.m(xi)
            assert v >= 0.0
            assert ev.m(-xi) == pytest.approx(v, rel=1e-12, abs=1e-14)
    # atomic kinds: the vectorized symbol, one matrix product of the cosine
    # table with the weights, against the per-atom math.cos sum of `m`
    entries = tuple(zip(rng.uniform(0.2, 3.0, 7), rng.uniform(0.1, 1.0, 7)))
    xis = np.concatenate([[0.0], rng.uniform(-30.0, 30.0, size=64)])
    for m in (single_atom(z=0.7, w=0.4), DyadicA(), DyadicB(),
              measures.AtomicSymmetric(entries=entries)):
        ev = MultiplierEval(m)
        many = ev.m_many(xis)
        assert many[0] == 0.0 and np.all(many >= 0.0)
        for xi, v in zip(xis, many):
            assert v == pytest.approx(ev.m(xi), rel=1e-14, abs=1e-14)


def test_truncation_symbols_increase_to_limit():
    # absolutely continuous case: truncation symbols are pointwise
    # nondecreasing in the truncation level and converge to the full symbol
    frac = FractionalRadial(alpha=1.0)
    xis = np.array([0.5, 2.0, 5.0, 11.0])
    full = MultiplierEval(frac).m_many(xis)
    prev = np.zeros_like(xis)
    gaps = []
    for n in (2, 8, 32, 128, 512):
        vals = MultiplierEval(truncate(frac, 1.0 / n)[1]).m_many(xis)
        assert np.all(vals >= prev - 1e-12)
        assert np.all(vals <= full + 1e-10)
        gaps.append(np.max(full - vals))
        prev = vals
    assert np.all(np.diff(gaps) < 0.0)
    assert np.allclose(prev, full, rtol=1e-2)


def test_finite_measure_sandwich_random_atoms():
    rng = np.random.default_rng(41)
    for _ in range(10):
        entries = tuple((float(rng.uniform(0.2, 3.0)),
                         float(rng.uniform(0.1, 1.0)))
                        for _ in range(int(rng.integers(1, 6))))
        m = __import__("levyfv").AtomicSymmetric(entries=entries)
        mass = m.total_mass()
        ev = MultiplierEval(m)
        grid = np.linspace(0.0, 400.0, 20001)
        sup = float(np.max(ev.m_many(grid)))
        assert sup <= 2.0 * mass * (1.0 + 1e-12)   # exact upper half
        assert sup >= 0.95 * mass                  # sampled lower half


def test_inf_estimate_fractional_monotone():
    ev = MultiplierEval(FractionalRadial(alpha=1.0))
    grid = np.linspace(10.0, 100.0, 500)
    est = multiplier_inf_estimate(ev, 10.0, grid)
    # the symbol is increasing in |xi|, so the sampled min sits at R
    assert est == pytest.approx(ev.m(10.0), rel=1e-12)
    assert est == pytest.approx(math.pi * 10.0, rel=1e-7)


def test_inf_estimate_dyadic_a_stays_low_on_dyadic_grid():
    ev = MultiplierEval(DyadicA())
    bound = (2.0 / 3.0) * math.pi ** 2
    for n in (3, 6, 9):
        grid = math.pi * 2.0 ** np.arange(n, n + 8)
        est = multiplier_inf_estimate(ev, math.pi * 2.0 ** n, grid)
        assert est <= bound + 1e-10


def test_inf_estimate_vanishes_at_origin():
    ev = MultiplierEval(single_atom(z=1.0, w=0.5))
    est = multiplier_inf_estimate(ev, 0.005, np.array([0.005, 0.0075, 0.01]))
    assert est <= 0.5 * 0.01 ** 2  # m(xi) ~ xi^2/2 near zero


def test_inf_estimate_empty_grid():
    ev = MultiplierEval(single_atom())
    with pytest.raises(EmptyGrid):
        multiplier_inf_estimate(ev, 10.0, np.array([1.0, 2.0]))


def test_eval_cache_is_deterministic():
    ev = MultiplierEval(FractionalRadial(alpha=0.6))
    a = ev.m(3.7)
    b = ev.m(3.7)
    assert a == b


def truncated_stable_symbol(xi: float, alpha: float, lo: float) -> float:
    """2 int_lo^inf (1 - cos(xi z)) z^(-1-alpha) dz in closed form, with
    mpmath at 30 digits: 2 xi^alpha (C - S(xi lo)), C the full integral
    int_0^inf (1 - cos s) s^(-1-alpha) ds and S(x) its part over [0, x],
    summed as its power series
    S(x) = x^(-alpha) sum_k (-1)^(k+1) x^(2k) / ((2k)! (2k - alpha)),
    and S(0) = 0, so lo = 0 gives 2 C |xi|^alpha."""
    import mpmath as mp
    if xi == 0.0:
        return 0.0
    with mp.workdps(30):
        xi, al = abs(mp.mpf(xi)), mp.mpf(alpha)
        c = mp.pi / (2 * mp.gamma(1 + al) * mp.sin(mp.pi * al / 2))
        x = xi * mp.mpf(lo)
        term, s, k = x * x / 2, mp.mpf(0), 1   # (-1)^(k+1) x^(2k) / (2k)!
        while abs(term) > mp.mpf(10) ** -40:
            s += term / (2 * k - al)
            term *= -x * x / ((2 * k + 1) * (2 * k + 2))
            k += 1
        return float(2 * xi ** al * (c - (x ** -al * s if x else 0)))


@pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0, 1.5, 1.95])
def test_untruncated_fractional_symbol_matches_the_stable_constant(alpha):
    # no truncation: m(xi) = 2 C_alpha |xi|^alpha, below, across and above
    # the switch to the tails
    ev = MultiplierEval(FractionalRadial(alpha=alpha))
    for xi in (-7.9, 0.3, 2.5, 5.0, 7.9, 100.0, 1e4):
        exact = truncated_stable_symbol(xi, alpha, 0.0)
        assert exact == pytest.approx(
            2.0 * stable_symbol_constant(alpha) * abs(xi) ** alpha, rel=1e-12)
        assert ev.m(xi) == pytest.approx(exact, rel=1e-13, abs=0.0), xi


def test_truncated_fractional_symbol_converges_on_the_whole_scan():
    # the steep z^(-1.7) past the split made the oscillatory tail rule miss
    # its error target at 16 of these 2000 frequencies
    measure = FractionalRadial(alpha=0.7, lo=1 / 32)
    ev = MultiplierEval(measure)
    xis = np.linspace(0.0, 200.0, 2000)
    got = np.array([ev.m(xi) for xi in xis])
    exact = np.array([truncated_stable_symbol(xi, 0.7, 1 / 32) for xi in xis])
    assert np.all(np.abs(got - exact) <= np.maximum(1e-8 * np.abs(exact),
                                                    1e-9))


def stable_band_symbol(xi: float, alpha: float, lo: float, hi: float) -> float:
    """2 int_lo^hi (1 - cos(xi z)) z^(-1-alpha) dz = 2 |xi|^alpha (F(|xi| hi)
    - F(|xi| lo)) with mpmath, F(y) = int_0^y (1 - cos s) s^(-1-alpha) ds.
    Up to y = 250, F is the power series of `truncated_stable_symbol`,
    summed at y/2.3 + 40 digits: its terms grow to about e^y before they
    cancel.  Beyond, F(y) = C - T(y) with the tail
    T(y) = y^(-alpha)/alpha - Re(e^(-i pi alpha/2) Gamma(-alpha, -iy)) and
    mpmath's incomplete gamma function at 40 digits."""
    import mpmath as mp

    def F(y):
        if y == 0:
            return mp.mpf(0)
        if y == mp.inf or y > 250:
            c = mp.pi / (2 * mp.gamma(1 + al) * mp.sin(mp.pi * al / 2))
            if y == mp.inf:
                return c
            return c - (y ** -al / al - mp.re(mp.exp(-1j * mp.pi * al / 2)
                                              * mp.gammainc(-al, -1j * y)))
        with mp.workdps(int(y / 2.3) + 40):
            term, s, k = y * y / 2, mp.mpf(0), 1
            while abs(term) > mp.mpf(10) ** -(mp.mp.dps + 5):
                s += term / (2 * k - al)
                term *= -y * y / ((2 * k + 1) * (2 * k + 2))
                k += 1
            return y ** -al * s

    if xi == 0.0:
        return 0.0
    with mp.workdps(40):
        x, al = abs(mp.mpf(xi)), mp.mpf(alpha)
        band = F(x * mp.mpf(hi)) - F(x * mp.mpf(lo))
        return float(2 * x ** al * band)


# frequencies from 0 to 1e8 and negative ones; bands whose ends both lie
# below, on both sides of, and both above the switch to the tails; alpha
# near 0 and 2, where a band's two ends would cancel in F(yb) - F(ya)
BAND_XIS = (-1e8, -37.5, 0.0, 0.3, 2.5, 7.9, 16.0, 100.0, 250.0, 1e3, 1e5,
            1e8)


@pytest.mark.parametrize("alpha, lo, hi", [
    (0.7, 1 / 16, 0.75), (1.5, 0.0, 1.25), (0.05, 0.0, math.inf),
    (1.0, 0.0, math.inf), (1.9, 0.0, math.inf), (1.95, 0.0, math.inf),
    (0.05, 1 / 16, 0.75), (1.0, 1 / 16, 0.75), (1.95, 1 / 16, 0.75),
    (1.0, 1 / 16, math.inf), (1.95, 0.0, 1.25), (1.9999, 1 / 16, math.inf),
    (1e-3, 1 / 16, 0.75), (1.95, 0.3, 0.35)])
def test_power_law_band_symbol_matches_high_precision_reference(alpha, lo,
                                                                hi):
    ev = MultiplierEval(FractionalRadial(alpha=alpha, lo=lo, hi=hi))
    for xi in BAND_XIS:
        exact = stable_band_symbol(xi, alpha, lo, hi)
        assert ev.m(xi) == pytest.approx(exact, rel=1e-13, abs=0.0), xi


def test_cosine_tail_refuses_to_return_an_unconverged_value(monkeypatch):
    # a continued fraction cut at its iteration cap is never returned: every
    # band that reaches past the switch to the tails needs more than 3 steps
    # there, also one that lies above it whole (lo = 1/16, xi = 1e3)
    monkeypatch.setattr(measures, "TAIL_MAX_ITER", 3)
    measures._switch_tail.cache_clear()  # the tail at the switch is cached
    for measure in (FractionalRadial(alpha=1.0),
                    FractionalRadial(alpha=1.0, lo=1 / 16),
                    FractionalRadial(alpha=1.5, hi=1.25)):
        for xi in (10.0, 1e3):
            with pytest.raises(QuadratureNotConverged, match="y="):
                MultiplierEval(measure).m(xi)
    # a band below the switch is the series alone
    assert MultiplierEval(FractionalRadial(alpha=1.5, hi=1.25)).m(3.0) == (
        pytest.approx(stable_band_symbol(3.0, 1.5, 0.0, 1.25), rel=1e-14))
