"""Discrete jump operators: nonnegative shift weights plus a tail mass.

A stencil realizes the splitting of a jump operator into
  * cell weights for jumps with r <= |z| <= Z (midpoint-labeled, half-open
    cells, each intersected with the band so the band is partitioned exactly),
  * a nearest-neighbor diffusion surrogate for the small jumps |z| < r,
    carrying their second moment sigma^2,
  * a lumped tail mass tau = mu({|z| > Z}).
All weights are nonnegative and mirror-symmetric, so the resulting operator
is monotone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import BadRadii, HaloTooSmall, ShapeMismatch
from .measures import LevyMeasure, atomic_symbol, validate_measure
from .multiplier import MultiplierEval

BLOCK_VALUES = 1 << 16       # values per block of rows in batched passes
FFT_WORK = 3e5               # valid values x kernel size from which to FFT


@dataclass(frozen=True)
class StencilWeights:
    """Shift weights of `build_stencil`: `weights[j - 1]` belongs to the
    offsets +j and -j, for j = 1..K."""

    dx: float
    r: float
    Z: float
    weights: np.ndarray      # per offset 1..K; the mirrored weight is implied
    sigma2: float            # second moment carried by the surrogate
    tau: float               # mass beyond Z

    @property
    def offsets(self) -> np.ndarray:
        """Positive cell offsets 1..K, ascending."""
        return np.arange(1, self.weights.size + 1)

    @property
    def max_offset(self) -> int:
        return self.weights.size

    @cached_property
    def kernel(self) -> np.ndarray | None:
        """The symmetric convolution kernel of `apply_stencil`,
        [w_J .. w_1, -2 sum w, w_1 .. w_J] with J the last nonzero offset,
        or None when every weight is zero.  Built on first use and kept:
        `build_stencil` hands over its weights read-only."""
        nonzero = np.flatnonzero(self.weights)
        if not nonzero.size:
            return None
        w = self.weights[:int(nonzero[-1]) + 1]
        return np.concatenate([w[::-1], [-2.0 * w.sum()], w])

    @cached_property
    def spectra(self) -> dict:
        """The kernel's real FFT per row length m, as (L, rfft(kernel, L))
        at the smallest 5-smooth L >= m: filled by `_convolve_rows` on the
        first use of each m and kept."""
        return {}

    @cached_property
    def without_tail(self) -> StencilWeights:
        """This stencil with tau = 0, the "drop" tail rule's operator: built
        on first use and kept, with the kernel it builds."""
        return replace(self, tau=0.0)

    @property
    def weight_sum(self) -> float:
        """Sum over all offsets j != 0 (both signs)."""
        return 2.0 * float(self.weights.sum())

    def symbol(self, xi) -> np.ndarray:
        """Symbol of the shift part: sum_j w_j (1 - cos(xi j dx))."""
        return atomic_symbol(xi, self.offsets * self.dx, self.weights)


def build_stencil(measure: LevyMeasure, dx: float, r: float,
                  Z: float) -> StencilWeights:
    """Discretize a measure into shift weights on a grid of spacing dx.

    Requires 0 < dx <= r <= Z, and Z snaps to K = round(Z / dx) cells,
    fewer than 2**52 (else `BadRadii`).
    Atoms are assigned to the half-open cell containing them (mirrored pairs
    are binned by their positive representative, preserving symmetry exactly);
    a continuous leaf gives each cell half its `mass_between` on the cell
    intersected with [r, Z], the band mass the truncations, tails and moments
    use.  Offsets are always 1..K.  `validate_measure` runs first, so a
    nonpositive or unmirrored atom raises NonSymmetric instead of yielding a
    non-monotone stencil, and a levy moment that is not finite raises
    DivergentLevyMoment instead of yielding inf weights.
    """
    if not (0.0 < dx <= r <= Z):
        raise BadRadii(f"need 0 < dx <= r <= Z, got dx={dx}, r={r}, Z={Z}")
    if not Z / dx < 2 ** 52 - 0.5:      # K = round(Z / dx) below 2**52
        raise BadRadii(f"Z={Z} spans {Z / dx} cells of dx={dx}: the count "
                       f"must be finite and below 2**52")
    validate_measure(measure)
    K = max(1, int(round(Z / dx)))
    Z_eff = K * dx
    weights = np.zeros(K)

    for coef, leaf in measure.leaves():
        atoms = leaf.atoms_between(r, Z_eff, include_a=True, include_b=True)
        if atoms is not None:
            for rad, w in atoms:
                j = int(round(rad / dx))
                j = min(max(j, 1), K)
                weights[j - 1] += coef * w
        else:
            for j in range(1, K + 1):
                a = max((j - 0.5) * dx, r)
                b = min((j + 0.5) * dx, Z_eff)
                if b > a:
                    weights[j - 1] += coef * 0.5 * leaf.mass_between(a, b)

    sigma2 = measure.second_moment_below(r)
    weights[0] += sigma2 / (2.0 * dx * dx)
    tau = measure.mass_above(Z_eff)
    weights.flags.writeable = False
    return StencilWeights(dx=dx, r=r, Z=Z_eff, weights=weights,
                          sigma2=sigma2, tau=tau)


def apply_stencil(values: np.ndarray, s: StencilWeights, n_halo: int,
                  tail_value=0.0) -> np.ndarray:
    """Apply the discrete operator on interior cells.

    `values` covers interior plus `n_halo >= max_offset` halo cells per side;
    shifts act on the last axis and leading axes (e.g. time) are a batch.
    `tail_value` is a scalar or one value per row (shape `values.shape[:-1]`).
    Returns sum_j w_j (v(x + j dx) - v(x)) + tau (tail_value - v(x)).

    The shifts are one convolution with the symmetric kernel `s.kernel`,
    taken row by row (`_convolve_rows`).  Each row's first interior value is
    subtracted before convolving; the kernel sums to zero, so a constant
    field convolves (or transforms) zeros and maps to exactly zero.  A
    stencil without nonzero weights does no convolution.
    """
    values = np.asarray(values, dtype=float)
    if n_halo < s.max_offset:
        raise HaloTooSmall(f"halo {n_halo} < stencil reach {s.max_offset}")
    n_int = values.shape[-1] - 2 * n_halo
    if n_int <= 0:
        raise ShapeMismatch("no interior cells")
    c0 = n_halo
    center = values[..., c0:c0 + n_int]
    kernel = s.kernel
    if kernel is not None:
        J = kernel.size // 2
        seg = values[..., c0 - J:c0 + n_int + J] - values[..., c0:c0 + 1]
        rows = seg.reshape(-1, seg.shape[-1])
        out = _convolve_rows(rows, s, np.empty((rows.shape[0], n_int)))
        out = out.reshape(center.shape)
    else:
        out = np.zeros_like(center)
    if s.tau != 0.0:
        out += s.tau * (np.asarray(tail_value)[..., None] - center)
    return out


def _convolve_rows(rows: np.ndarray, s: StencilWeights,
                   out: np.ndarray) -> np.ndarray:
    """The one place the jump kernel is applied: `out[i]` is the "valid"
    part of the convolution of row i of the 2-D `rows` with `s.kernel`.

    Rows of length m go by a real FFT when (m - k + 1) * k >= FFT_WORK, k
    the kernel size, and by `np.convolve` below that.  The FFT runs at the
    smallest 5-smooth length L >= m, unpadded: the valid part of a circular
    convolution of length L >= m wraps nothing.  The rule reads m and k,
    never the row count, and each row is transformed on its own, so a row's
    bits do not depend on where a block of rows is cut.  The two paths
    differ by at most 64 eps sum|kernel| max|row|."""
    kernel = s.kernel
    m, k = rows.shape[-1], kernel.size
    if (m - k + 1) * k < FFT_WORK:
        for i, row in enumerate(rows):
            out[i] = np.convolve(row, kernel, "valid")
        return out
    if m not in s.spectra:
        L = next(L for L in itertools.count(m) if _smooth(L))
        s.spectra[m] = (L, np.fft.rfft(kernel, L))
    L, spectrum = s.spectra[m]
    transformed = np.fft.rfft(rows, L)
    transformed *= spectrum
    out[:] = np.fft.irfft(transformed, L)[:, k - 1:m]
    return out


def _smooth(n: int) -> bool:
    """Whether n has no prime factor above 5."""
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def row_blocks(n_rows: int, row_len: int) -> list:
    """Slices cutting `n_rows` rows of `row_len` values into blocks of about
    BLOCK_VALUES values, so a batched pass over stored steps never builds a
    temporary as large as the whole trajectory."""
    step = max(1, BLOCK_VALUES // max(row_len, 1))
    return [slice(i, min(i + step, n_rows)) for i in range(0, n_rows, step)]


def bilinear_energy(phi: np.ndarray, psi: np.ndarray,
                    s: StencilWeights, dx: float | None = None) -> float:
    """Discrete energy form: dx * sum_x sum_j (w_j/2) dphi_j(x) dpsi_j(x).

    Increments are taken over index pairs that both lie inside the arrays;
    pairs reaching past either end are not counted (`zero_extended_energy`
    adds them for a field that vanishes outside).  So a constant array has
    energy exactly zero and the form vanishes precisely on fields constant
    per stencil-connected component.  Leading axes (e.g. time) are summed as
    a batch, in blocks of `row_blocks` rows; each block forms every offset's
    differences once, elementwise, and reduces them with one dot product.
    Symmetric in (phi, psi) and nonnegative on the diagonal, both exactly.
    """
    same = phi is psi
    phi = np.asarray(phi, dtype=float)
    psi = phi if same else np.asarray(psi, dtype=float)
    if phi.shape != psi.shape:
        raise ShapeMismatch(f"{phi.shape} vs {psi.shape}")
    if dx is None:
        dx = s.dx
    n = phi.shape[-1]
    live = [(int(j), float(w)) for j, w in zip(s.offsets, s.weights)
            if w != 0.0 and j < n]
    total = 0.0
    p2 = phi.reshape(-1, n)
    q2 = psi.reshape(-1, n)
    for rows in row_blocks(p2.shape[0], n):
        p, q = p2[rows], q2[rows]
        for j, w in live:
            dp = (p[:, j:] - p[:, :n - j]).ravel()
            dq = dp if same else (q[:, j:] - q[:, :n - j]).ravel()
            # both signs of the shift contribute the same sum: 2 * (w/2) = w
            total += w * float(np.dot(dp, dq))
    return dx * total


def zero_extended_sum(g: np.ndarray, s: StencilWeights,
                      total: float = 0.0) -> float:
    """`total` plus the energy form, over dx, of the zero extension of each
    row of the 2-D `g` (interior cells), added row by row in order.

    Summed by parts, the form of a field g~ that vanishes outside equals
    -<g, k * g~>, k the jump kernel `s.kernel`: the rows are copied into
    one block with a zero pad of J = `kernel.size // 2` cells per side,
    convolved once (`_convolve_rows`) and each paired with itself.  A row's
    term does not depend on the other rows, so a running sum fed block by
    block does not depend on where the blocks are cut; a zero row adds
    exactly zero."""
    kernel = s.kernel
    if kernel is None:
        return total
    J = kernel.size // 2
    n = g.shape[-1]
    pad = np.zeros((len(g), n + 2 * J))
    pad[:, J:J + n] = g
    kg = _convolve_rows(pad, s, np.empty((len(g), n)))
    for row, k_row in zip(g, kg):
        total -= float(np.dot(row, k_row))
    return total


def zero_extended_energy(g: np.ndarray, s: StencilWeights,
                         dx: float | None = None) -> float:
    """Energy form of the zero extension of `g` (interior cells on the last
    axis, leading axes summed as a batch), without building the extension:
    dx times `zero_extended_sum` over the `row_blocks` of its rows."""
    g = np.asarray(g, dtype=float)
    if dx is None:
        dx = s.dx
    n = g.shape[-1]
    g2 = g.reshape(-1, n)
    total = 0.0
    for rows in row_blocks(len(g2), n):
        total = zero_extended_sum(g2[rows], s, total)
    return dx * total


def fourier_energy_check(phi: np.ndarray, dx: float, ev: MultiplierEval,
                         s: StencilWeights) -> dict:
    """Cross-check the energy form against its Fourier-side expression.

    lhs: direct double sum through the stencil.  rhs: (2 pi)^-1 times the
    symbol-weighted power spectrum, with the transform normalized as
    phi_hat(xi) = int phi e^(-i xi x) dx and xi on the DFT frequencies.
    """
    phi = np.asarray(phi, dtype=float)
    n = phi.shape[-1]
    lhs = bilinear_energy(phi, phi, s, dx)
    xi = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    power = np.abs(np.fft.fft(phi)) ** 2
    mvals = ev.m_many(xi)
    rhs = (dx / n) * float(np.sum(mvals * power))
    denom = max(abs(lhs), abs(rhs), 1e-300)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "rel_err": abs(lhs - rhs) / denom,
    }
