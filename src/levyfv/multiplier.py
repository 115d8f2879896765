"""Symbol evaluation m(xi) = int (1 - cos(xi z)) d mu, with caching."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyGrid
from .measures import LevyMeasure


@dataclass
class MultiplierEval:
    """Evaluator for the (nonnegative, even) symbol of a measure.

    The cache is confined to the instance; evaluation is deterministic for a
    fixed budget.  Negative round-off within the quadrature error floor is
    snapped to zero so the m >= 0 invariant survives floating point.
    """

    measure: LevyMeasure
    budget: int = 60
    rel_tol: float = 1e-8
    _cache: dict = field(default_factory=dict, repr=False)

    def m(self, xi) -> float:
        key = self._key(xi)
        if key in self._cache:
            return self._cache[key]
        val = self.measure.multiplier_value(xi, budget=self.budget,
                                            tol=self.rel_tol)
        if -1e-10 < val < 0.0:
            val = 0.0
        self._cache[key] = val
        return val

    def m_many(self, xis) -> np.ndarray:
        vals = self.measure.multiplier_values(xis, budget=self.budget,
                                              tol=self.rel_tol)
        return np.where((vals > -1e-10) & (vals < 0.0), 0.0, vals)

    @staticmethod
    def _key(xi):
        return abs(float(xi))


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


def write_multiplier_scan(ev: MultiplierEval, xis, path) -> None:
    """CSV scan with header `xi,m`."""
    with open(path, "w") as fh:
        fh.write("xi,m\n")
        for x in np.atleast_1d(np.asarray(xis, dtype=float)):
            fh.write(f"{float(x)!r},{float(ev.m(x))!r}\n")
