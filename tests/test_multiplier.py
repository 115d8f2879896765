import math

import numpy as np
import pytest

from levyfv.errors import EmptyGrid
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
