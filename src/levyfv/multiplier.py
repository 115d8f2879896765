"""Symbol evaluation m(xi) = int (1 - cos(xi z)) d mu."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyGrid
from .measures import LevyMeasure


@dataclass
class MultiplierEval:
    """Evaluator for the (nonnegative, even) symbol of a measure.

    Evaluation is deterministic: atoms are summed (the dyadic families'
    explicit atoms are a constant of `measures`), one by one in `m` and in
    `m_many` as one matrix product of the cosine table with the weights
    (`measures.atomic_symbol`), and a power-law band is a closed form, a
    power series below `measures.SERIES_MAX_Y` and cosine tails by
    continued fraction above, both stopped at `CLOSED_FORM_TOL`.
    Negative round-off above -1e-10 is snapped to zero so the m >= 0
    invariant survives floating point.
    """

    measure: LevyMeasure

    def m(self, xi) -> float:
        val = self.measure.multiplier_value(xi)
        return 0.0 if -1e-10 < val < 0.0 else val

    def m_many(self, xis) -> np.ndarray:
        vals = self.measure.multiplier_values(xis)
        return np.where((vals > -1e-10) & (vals < 0.0), 0.0, vals)


def multiplier_inf_estimate(ev: MultiplierEval, R: float, grid) -> float:
    """Sampled min of m over grid points with |xi| >= R.

    This is an upper bound on inf_{|xi|>=R} m(xi); callers must treat it as an
    estimate, never as the exact infimum.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    sel = grid[np.abs(grid) >= R]
    if sel.size == 0:
        raise EmptyGrid(f"no sample points with |xi| >= {R}")
    return float(np.min(ev.m_many(sel)))

