"""The jump kernel by FFT where the stencil is wide, against the direct sum.

`stencil._convolve_rows` takes a real FFT when (m - k + 1) * k reaches
`FFT_WORK` (m the row length, k the kernel size) and `np.convolve` below
that.  The direct sum is the oracle: the two agree within the absolute
bound 64 eps sum|kernel| max|row| per row.  The rule reads no row count,
so a row's bits do not depend on the rows that come with it or on where a
pass cuts its blocks."""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from levyfv import stencil
from levyfv.measures import FractionalRadial, truncate
from levyfv.stencil import (FFT_WORK, StencilWeights, _convolve_rows,
                            apply_stencil, build_stencil,
                            zero_extended_energy)

EPS = np.finfo(float).eps
SETTINGS = settings(derandomize=True, database=None, max_examples=40,
                    deadline=None)


def direct_rows(rows, kernel):
    return np.array([np.convolve(row, kernel, "valid") for row in rows])


def fft_bound(rows, kernel):
    """64 eps sum|kernel| max|row|, one bound per row."""
    return 64 * EPS * np.abs(kernel).sum() * np.abs(rows).max(axis=1)


def wide_stencil():
    """The benchmark's wide stencil: alpha 1 beyond r = 1/32 on dx 1/512
    with Z 1, a kernel of 1025 values and a tail."""
    measure = truncate(FractionalRadial(alpha=1.0), 1 / 32)[1]
    sw = build_stencil(measure, 1 / 512, 1 / 32, 1.0)
    assert sw.kernel.size == 1025 and sw.tau > 0.0
    assert 512 * sw.kernel.size >= FFT_WORK
    return sw


@st.composite
def kernel_and_rows(draw):
    """(fft, K, n, seed): the last offset K of a random stencil, n valid
    values per row, on the FFT side of the rule when `fft` and below it
    otherwise."""
    fft = draw(st.booleans())
    K = draw(st.integers(150 if fft else 1, 700))
    cut = math.ceil(FFT_WORK / (2 * K + 1))   # fewest valid values for FFT
    n = draw(st.integers(cut, cut + 300) if fft
             else st.integers(1, min(cut - 1, 1200)))
    return fft, K, n, draw(st.integers(0, 2 ** 32 - 1))


@SETTINGS
@given(kernel_and_rows())
@example((True, 512, 525, 7))    # m = 1549, a prime
@example((True, 300, 1031, 8))   # m = 1631 = 7 * 233
@example((True, 512, 293, 9))    # the smallest n on the FFT side for K 512
@example((False, 512, 292, 10))  # the largest below it
def test_fft_path_agrees_with_the_direct_sum(case):
    fft, K, n, seed = case
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.0, 5.0, size=K) * (rng.random(K) < 0.8)
    weights[-1] = 1.0 + rng.random()
    sw = StencilWeights(dx=1 / 64, r=1 / 64, Z=K / 64, weights=weights,
                        sigma2=0.0, tau=0.0)
    k = sw.kernel.size
    assert k == 2 * K + 1 and ((n * k >= FFT_WORK) == fft)
    m = n + k - 1
    n_rows = int(rng.integers(1, 4))
    rows = (10.0 ** rng.uniform(-3, 3)) * (rng.normal(size=(n_rows, m))
                                            + rng.uniform(-5, 5))
    got = _convolve_rows(rows, sw, np.empty((n_rows, n)))
    want = direct_rows(rows, sw.kernel)
    assert (m in sw.spectra) == fft
    err = np.abs(got - want).max(axis=1)
    assert np.all(err <= fft_bound(rows, sw.kernel))
    if not fft:
        assert np.array_equal(got, want)


def test_fft_length_is_the_smallest_5_smooth_one():
    sw = wide_stencil()
    for m, L in ((1536, 1536), (1549, 1600), (1631, 1728), (2049, 2160)):
        _convolve_rows(np.ones((1, m)), sw, np.empty((1, m - 1024)))
        assert sw.spectra[m][0] == L
        assert np.array_equal(sw.spectra[m][1],
                              np.fft.rfft(sw.kernel, L))


def test_constant_field_is_exactly_zero_on_the_fft_path():
    sw = wide_stencil()
    rows = np.repeat(np.array([[2.25], [-0.7], [1e6], [0.0]]), 1536, axis=1)
    out = apply_stencil(rows, sw, n_halo=512, tail_value=rows[:, 0])
    assert 1536 in sw.spectra
    assert np.all(out == 0.0)
    assert np.all(apply_stencil(rows[1], sw, n_halo=512,
                                tail_value=-0.7) == 0.0)


def test_a_row_has_the_same_bits_in_any_batch():
    sw = wide_stencil()
    rng = np.random.default_rng(31)
    values = 0.5 + rng.normal(size=(64, 1536))
    tails = rng.normal(size=64)
    whole = apply_stencil(values, sw, n_halo=512, tail_value=tails)
    assert 1536 in sw.spectra
    for size in (1, 3):
        for i in range(0, 64, size):
            part = apply_stencil(values[i:i + size], sw, n_halo=512,
                                 tail_value=tails[i:i + size])
            assert np.array_equal(part, whole[i:i + size])
    for i in (0, 17, 63):
        one = apply_stencil(values[i], sw, n_halo=512, tail_value=tails[i])
        assert np.array_equal(one, whole[i])


def test_energy_on_the_fft_path_does_not_depend_on_the_row_blocks(
        monkeypatch):
    sw = wide_stencil()
    g = np.random.default_rng(5).normal(size=(300, 512))
    assert len(stencil.row_blocks(300, 512)) == 3
    want = zero_extended_energy(g, sw)
    assert 1536 in sw.spectra
    monkeypatch.setattr(stencil, "row_blocks", lambda n_rows, _: [
        slice(i, min(i + 7, n_rows)) for i in range(0, n_rows, 7)])
    assert zero_extended_energy(g, sw) == want
    # and it is the direct sum's energy within the stated bound, summed
    pad = np.pad(g, [(0, 0), (512, 512)])
    kg = direct_rows(pad, sw.kernel)
    direct = -sw.dx * float(np.sum(g * kg))
    bound = sw.dx * float(np.dot(np.abs(g).sum(axis=1),
                                 fft_bound(pad, sw.kernel)))
    assert abs(want - direct) <= bound
