"""Cell-centered 1-d grids with an exterior halo."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateGrid


@dataclass(frozen=True)
class Grid1d:
    """Uniform cell-centered grid on (a, b) padded by `n_halo` exterior cells.

    Full arrays have length n + 2*n_halo; index n_halo..n_halo+n-1 is the
    interior.  Cell j (full index) is centered at a + (j - n_halo + 1/2)*dx.
    `dx`, `interior` and `faces` are computed once per grid and cached.
    """

    a: float
    b: float
    n: int
    n_halo: int

    @cached_property
    def dx(self) -> float:
        return (self.b - self.a) / self.n

    @property
    def n_full(self) -> int:
        return self.n + 2 * self.n_halo

    @cached_property
    def interior(self) -> slice:
        return slice(self.n_halo, self.n_halo + self.n)

    @cached_property
    def faces(self) -> tuple:
        """(left, right): the full-grid slices of the states on the left and
        on the right of the interfaces i - 1/2, i = 0..n."""
        h, n = self.n_halo, self.n
        return slice(h - 1, h + n), slice(h, h + n + 1)

    def x_full(self) -> np.ndarray:
        j = np.arange(self.n_full)
        return self.a + (j - self.n_halo + 0.5) * self.dx

    def x_interior(self) -> np.ndarray:
        return self.x_full()[self.interior]

    def x_halo(self) -> np.ndarray:
        """Centers of the halo cells: the left halo, then the right."""
        return self.x_full()[self.halo_mask()]

    def halo_mask(self) -> np.ndarray:
        mask = np.ones(self.n_full, dtype=bool)
        mask[self.interior] = False
        return mask


def make_grid(a: float, b: float, dx: float, n_halo: int) -> Grid1d:
    """Build a grid, requiring dx to divide the interval evenly."""
    if dx <= 0 or b <= a:
        raise DegenerateGrid(f"bad interval ({a}, {b}) or dx={dx}")
    n_exact = (b - a) / dx
    n = int(round(n_exact))
    if n < 1:
        raise DegenerateGrid("no interior cells")
    if abs(n_exact - n) > 1e-9 * max(1.0, n):
        raise DegenerateGrid(f"dx={dx} does not divide ({a}, {b}) evenly")
    return Grid1d(a=a, b=b, n=n, n_halo=int(n_halo))
