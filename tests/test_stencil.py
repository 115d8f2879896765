import numpy as np
import pytest
from scipy import integrate

from levyfv.errors import BadRadii, HaloTooSmall, NonSymmetric, ShapeMismatch
from levyfv.measures import (AtomicSymmetric, FractionalRadial, ScaledMeasure,
                             SumMeasure, single_atom, truncate, zero_measure)
from levyfv.multiplier import MultiplierEval
from levyfv import stencil
from levyfv.stencil import (apply_stencil, bilinear_energy, build_stencil,
                            fourier_energy_check, zero_extended_energy,
                            zero_extended_sum)


def test_atom_lands_in_exact_cell():
    dx = 0.01
    st = build_stencil(single_atom(z=5 * dx, w=1.0), dx, dx, 10 * dx)
    nz = {int(j): w for j, w in zip(st.offsets, st.weights) if w != 0}
    assert nz == {5: 1.0}
    assert st.sigma2 == 0.0
    assert st.tau == 0.0


def test_all_mass_beyond_Z_goes_to_tail():
    st = build_stencil(single_atom(z=5.0, w=1.0), 0.01, 0.01, 0.1)
    assert st.weight_sum == 0.0
    assert st.tau == 2.0


def test_bad_radii_rejected():
    with pytest.raises(BadRadii):
        build_stencil(single_atom(), 0.1, 0.05, 1.0)
    with pytest.raises(BadRadii):
        build_stencil(single_atom(), 0.1, 0.2, 0.15)


@pytest.mark.parametrize("dx, Z", [(0.03125, np.inf), (0.03125, 1e300),
                                   (1e-300, 0.5), (1.0, 2.0 ** 52 - 0.5),
                                   (1.0, 2.0 ** 52)])
def test_stencils_of_2_52_cells_or_more_rejected(dx, Z):
    # K = round(Z / dx) offsets; only the refusals are run, as an accepted
    # K near 2**52 would allocate its weights
    with pytest.raises(BadRadii, match=r"2\*\*52"):
        build_stencil(single_atom(), dx, dx, Z)


@pytest.mark.parametrize("entries", [((0.5, -1.0),),
                                     ((0.2, 0.5), (0.4, 0.0)),
                                     ((0.3, 0.5, False),)])
def test_nonpositive_or_unmirrored_atoms_rejected(entries):
    # such weights would make the scheme non-monotone
    with pytest.raises(NonSymmetric):
        build_stencil(AtomicSymmetric(entries=entries), 0.1, 0.1, 1.0)


def test_fractional_cell_masses_against_quadrature_oracle():
    dx, r, Z, alpha = 1.0 / 32, 1.0 / 32, 2.0, 0.5
    m = FractionalRadial(alpha=alpha)
    st = build_stencil(m, dx, r, Z)
    shifts = st.offsets * dx
    discrete = float(np.sum(2.0 * st.weights * np.minimum(shifts ** 2, 1.0)))
    # the surrogate weight on the first cell carries sigma^2 exactly
    discrete_total = (discrete
                      - 2.0 * (st.sigma2 / (2 * dx * dx)) * dx * dx
                      + st.sigma2)
    oracle, _ = integrate.quad(lambda z: 2 * min(z * z, 1.0) * z ** (-1 - alpha),
                               0.0, Z, points=[r, 1.0], limit=200)
    assert discrete_total == pytest.approx(oracle, rel=0.05)


def _one_sided_cell_mass(leaf, a, b):
    """One side's mass of the cell [a, b] clipped to the leaf's window, in
    closed form: coeff (a^-alpha - b^-alpha) / alpha."""
    a, b = max(a, leaf.lo), min(b, leaf.hi)
    if a >= b:
        return 0.0
    al = leaf.alpha
    return leaf.coeff * (a ** -al - b ** -al) / al


CELL_MEASURES = [
    *(FractionalRadial(alpha=al) for al in (0.3, 0.7, 1.0, 1.5, 1.9)),
    FractionalRadial(alpha=0.7, lo=0.0625, hi=0.75),
    FractionalRadial(alpha=1.5, coeff=0.3, hi=0.4),
    FractionalRadial(alpha=1.0, lo=0.11),
    SumMeasure(hi=0.9, parts=(
        ScaledMeasure(factor=0.5, inner=FractionalRadial(alpha=1.9)),
        ScaledMeasure(factor=3.0,
                      inner=FractionalRadial(alpha=0.3, lo=0.2)))),
]
CELL_GRIDS = [(1 / 32, 1 / 32, 1.0), (1 / 32, 1 / 16, 1.0),
              (1 / 64, 1 / 64, 0.5), (0.1, 0.1, 1.0), (0.02, 0.05, 0.77),
              (1 / 16, 1 / 8, 2.0), (0.03, 0.03, 0.3)]


@pytest.mark.parametrize("dx, r, Z", CELL_GRIDS)
def test_cell_weights_are_the_one_sided_cell_masses(dx, r, Z):
    # half of the leaf's band mass is its one-sided mass to the last bit
    for m in CELL_MEASURES:
        st = build_stencil(m, dx, r, Z)
        K = st.weights.size
        ref = np.zeros(K)
        for coef, leaf in m.leaves():
            for j in range(1, K + 1):
                a, b = max((j - 0.5) * dx, r), min((j + 0.5) * dx, st.Z)
                if b > a:
                    ref[j - 1] += coef * _one_sided_cell_mass(leaf, a, b)
        ref[0] += m.second_moment_below(r) / (2.0 * dx * dx)
        assert st.weights.tolist() == ref.tolist()
        assert np.array_equal(st.offsets, np.arange(1, K + 1))


def test_symmetry_and_nonnegativity():
    st = build_stencil(truncate(FractionalRadial(alpha=1.3), 0.05)[1],
                       0.01, 0.05, 1.0)
    assert np.all(st.weights >= 0.0)  # mirrored side is implied, so built-in
    assert st.weight_sum == pytest.approx(2.0 * st.weights.sum())


# -- application --------------------------------------------------------------

def test_apply_constant_is_exactly_zero():
    st = build_stencil(single_atom(z=0.05, w=1.0), 0.01, 0.01, 0.1)
    v = np.full(64, 2.25)
    out = apply_stencil(v, st, n_halo=10, tail_value=2.25)
    assert np.all(out == 0.0)
    # a batch of constant rows, with a tail and one tail value per row
    st = build_stencil(truncate(FractionalRadial(alpha=1.0), 0.02)[1],
                       0.01, 0.02, 0.1)
    assert st.tau > 0.0
    rows = np.repeat(np.array([[2.25], [-0.7], [1e6]]), 64, axis=1)
    out = apply_stencil(rows, st, n_halo=10, tail_value=rows[:, 0])
    assert np.all(out == 0.0)


def test_apply_linear_in_field():
    st = build_stencil(single_atom(z=0.03, w=0.7), 0.01, 0.01, 0.06)
    rng = np.random.default_rng(2)
    u = rng.normal(size=40)
    v = rng.normal(size=40)
    a, b = 1.7, -0.4
    lhs = apply_stencil(a * u + b * v, st, n_halo=6)
    rhs = a * apply_stencil(u, st, n_halo=6) + b * apply_stencil(v, st,
                                                                 n_halo=6)
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_apply_cosine_eigenrelation():
    dx, h, xi = 0.01, 0.05, 7.3
    x = (np.arange(240) - 120 + 0.5) * dx
    v = np.cos(xi * x)
    st = build_stencil(single_atom(z=h, w=0.5), dx, dx, 0.06)
    out = apply_stencil(v, st, n_halo=20)
    m = MultiplierEval(single_atom(z=h, w=0.5)).m(xi)
    expected = -m * np.cos(xi * x[20:-20])
    assert np.allclose(out, expected, atol=1e-13)


def test_apply_truncated_fractional_vs_quadrature_oracle():
    # dense-quadrature oracle of the band operator on a smooth bump,
    # checked at five interior points across a grid refinement
    r, Z, alpha = 0.1, 3.0, 1.0
    phi = lambda y: np.exp(-8.0 * y ** 2)
    measure = truncate(FractionalRadial(alpha=alpha), r)[1]
    pts = np.array([-0.4, -0.1, 0.0, 0.2, 0.5])

    def oracle(xq):
        def integrand(z):
            return (phi(xq + z) + phi(xq - z) - 2 * phi(xq)) * z ** (-1 - alpha)
        v, _ = integrate.quad(integrand, r, Z, limit=400)
        tail = measure.mass_above(Z)
        return v + tail * (0.0 - phi(xq))

    errs = {}
    for n in (128, 256, 1024):
        dx = 8.0 / n
        x = -4.0 + (np.arange(n) + 0.5) * dx
        st = build_stencil(measure, dx, r, Z)
        vals = apply_stencil(phi(x), st, n_halo=st.max_offset,
                             tail_value=0.0)
        xin = x[st.max_offset:-st.max_offset]
        idx = [np.argmin(np.abs(xin - p)) for p in pts]
        errs[n] = max(abs(vals[i] - oracle(xin[i])) for i in idx)
    # quadratic envelope anchored at the coarsest grid; the factor-4 margin
    # absorbs the alignment of the clipped boundary cell with r
    assert errs[256] <= 4.0 * errs[128] / 4.0
    assert errs[1024] <= 4.0 * errs[128] / 64.0


def _apply_per_offset(values, st, n_halo, tail_value):
    """Reference operator, accumulated offset by offset."""
    n_int = values.shape[-1] - 2 * n_halo
    center = values[..., n_halo:n_halo + n_int]
    out = np.zeros_like(center)
    for j, w in zip(st.offsets, st.weights):
        out += w * ((values[..., n_halo + j:n_halo + j + n_int] - center)
                    + (values[..., n_halo - j:n_halo - j + n_int] - center))
    return out + st.tau * (np.asarray(tail_value)[..., None] - center)


@pytest.mark.parametrize("kind", ["atoms", "atoms_with_tail", "fractional"])
@pytest.mark.parametrize("n_int,K", [(40, 8), (12, 30)])
@pytest.mark.parametrize("rows", [None, 4])
def test_apply_matches_per_offset_loop(kind, n_int, K, rows):
    rng = np.random.default_rng(1000 * K + 10 * n_int + (rows or 0))
    dx = 1.0 / 64
    Z = K * dx
    if kind == "fractional":
        r = 2 * dx
        measure = truncate(FractionalRadial(alpha=1.3), r)[1]
    else:
        r = dx
        radii = rng.uniform(dx, Z, size=6)
        if kind == "atoms_with_tail":
            radii[-1] = Z + 3 * dx           # beyond Z: lumped into tau
        measure = AtomicSymmetric(entries=tuple(
            (float(z), float(w))
            for z, w in zip(radii, rng.uniform(0.1, 2.0, size=6))))
    st = build_stencil(measure, dx, r, Z)
    assert (st.tau != 0.0) == (kind != "atoms")
    shape = (n_int + 2 * K,) if rows is None else (rows, n_int + 2 * K)
    values = 1.5 + 3.0 * rng.normal(size=shape)
    tail = (float(rng.normal()) if rows is None
            else rng.normal(size=rows))
    got = apply_stencil(values, st, n_halo=K, tail_value=tail)
    want = _apply_per_offset(values, st, K, tail)
    assert got.shape == want.shape
    bound = 1e-12 * (st.weight_sum + st.tau) * np.abs(values).max()
    assert np.abs(got - want).max() <= bound


def test_apply_zero_measure_wide_reach_is_exactly_zero():
    dx = 1.0 / 4096
    st = build_stencil(zero_measure(), dx, dx, 1024 * dx)
    assert st.max_offset == 1024
    v = np.random.default_rng(5).normal(size=(2, 64 + 2 * 1024))
    assert np.all(apply_stencil(v, st, n_halo=1024) == 0.0)
    assert np.all(apply_stencil(v[0], st, n_halo=1024) == 0.0)


def test_apply_halo_too_small():
    st = build_stencil(single_atom(z=0.05, w=1.0), 0.01, 0.01, 0.1)
    with pytest.raises(HaloTooSmall):
        apply_stencil(np.ones(30), st, n_halo=2)


# -- energy form --------------------------------------------------------------

def test_energy_constant_field_zero():
    st = build_stencil(single_atom(z=0.02, w=0.5), 0.01, 0.01, 0.05)
    assert bilinear_energy(np.full(16, 3.0), np.full(16, 3.0), st) == 0.0


def test_energy_hand_computed_block():
    # nearest-neighbor stencil w_{+-1} = 1, field 0,1,1,0: two unit jumps per
    # direction -> dx * (1 + 1) = 2 dx
    dx = 0.01
    st = build_stencil(single_atom(z=dx, w=1.0), dx, dx, dx)
    phi = np.array([0.0, 1.0, 1.0, 0.0])
    assert bilinear_energy(phi, phi, st, dx) == pytest.approx(2 * dx,
                                                              abs=1e-15)


def test_energy_cauchy_schwarz():
    st = build_stencil(AtomicSymmetric(entries=((0.02, 0.5), (0.07, 0.2))),
                       0.01, 0.01, 0.1)
    rng = np.random.default_rng(8)
    for _ in range(20):
        phi = rng.normal(size=50)
        psi = rng.normal(size=50)
        b_pp = bilinear_energy(phi, phi, st)
        b_qq = bilinear_energy(psi, psi, st)
        b_pq = bilinear_energy(phi, psi, st)
        assert b_pq ** 2 <= b_pp * b_qq * (1 + 1e-12) + 1e-15
        assert b_pp >= 0.0
        assert b_pq == pytest.approx(bilinear_energy(psi, phi, st), rel=1e-12)


def test_energy_zero_iff_constant_on_components():
    # stencil couples only cells two apart: the two parity classes are
    # independent components
    dx = 0.1
    st = build_stencil(single_atom(z=2 * dx, w=1.0), dx, dx, 2 * dx)
    phi = np.array([1.0, -2.0] * 6)  # constant per parity class
    assert bilinear_energy(phi, phi, st) == 0.0
    phi[4] += 0.5
    assert bilinear_energy(phi, phi, st) > 0.0


def test_energy_shape_mismatch():
    st = build_stencil(single_atom(z=0.02, w=0.5), 0.01, 0.01, 0.05)
    with pytest.raises(ShapeMismatch):
        bilinear_energy(np.ones(8), np.ones(9), st)


def _random_stencil(kind, K, rng):
    dx = 1.0 / 64
    if kind == "fractional":
        r = 2 * dx
        return build_stencil(truncate(FractionalRadial(alpha=1.3), r)[1],
                             dx, r, K * dx)
    radii = rng.uniform(dx, K * dx, size=6)
    return build_stencil(AtomicSymmetric(entries=tuple(
        (float(z), float(w))
        for z, w in zip(radii, rng.uniform(0.1, 2.0, size=6)))),
        dx, dx, K * dx)


@pytest.mark.parametrize("kind", ["atoms", "fractional"])
@pytest.mark.parametrize("n,K", [(40, 8), (12, 30)])
@pytest.mark.parametrize("rows", [None, 5])
def test_zero_extended_energy_matches_padded_form(kind, n, K, rows):
    rng = np.random.default_rng(100 * K + n + (rows or 0))
    st = _random_stencil(kind, K, rng)
    g = 1.5 + 3.0 * rng.normal(size=(n,) if rows is None else (rows, n))
    J = st.max_offset
    gpad = np.pad(g, [(0, 0)] * (g.ndim - 1) + [(J, J)])
    want = bilinear_energy(gpad, gpad, st)
    got = zero_extended_energy(g, st)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def pairwise_zero_extended_energy(g, st):
    """Reference: the interior pairs of `bilinear_energy` plus, at offset j,
    the first and the last min(j, n) cells of each row paired with a zero,
    as prefix sums of the column sums of g^2."""
    g = np.asarray(g, dtype=float)
    n = g.shape[-1]
    col = np.square(g).reshape(-1, n).sum(axis=0)
    head = np.concatenate([[0.0], np.cumsum(col)])
    tail = np.concatenate([[0.0], np.cumsum(col[::-1])])
    k = np.minimum(st.offsets, n)
    straddling = float(np.dot(st.weights, head[k] + tail[k]))
    return bilinear_energy(g, g, st) + st.dx * straddling


def _kernel_stencil(kind, K):
    """An atom, a truncated fractional measure with a tail beyond K dx, and
    a sum of a scaled fractional band and two atoms, on dx = 1/64."""
    dx = 1.0 / 64
    frac = truncate(FractionalRadial(alpha=1.3), 2 * dx)[1]
    measure = {
        "atom": single_atom(z=5 * dx, w=0.7),
        "fractional_tail": frac,
        "sum": SumMeasure(parts=(
            ScaledMeasure(factor=0.5, inner=FractionalRadial(
                alpha=0.8, lo=2 * dx, hi=0.25)),
            AtomicSymmetric(entries=((3 * dx, 0.25), (9.4 * dx, 1.5))))),
    }[kind]
    return build_stencil(measure, dx, 2 * dx, K * dx)


@pytest.mark.parametrize("kind", ["atom", "fractional_tail", "sum"])
@pytest.mark.parametrize("n,K", [(12, 30), (40, 16), (256, 30)])
def test_zero_extended_energy_matches_the_pairwise_form(kind, n, K):
    st = _kernel_stencil(kind, K)
    rng = np.random.default_rng(7 * K + n)
    # 600 rows of 256 cells span three row blocks
    rows = 600 if n == 256 else 9
    assert len(stencil.row_blocks(rows, n)) >= (3 if n == 256 else 1)
    g = 0.5 + rng.normal(size=(rows, n))
    want = pairwise_zero_extended_energy(g, st)
    got = zero_extended_energy(g, st)
    assert want > 0.0
    assert abs(got - want) <= 1e-13 * want
    # the running sum adds one term per row, in row order
    total = 0.0
    for i in range(rows):
        one = pairwise_zero_extended_energy(g[i], st)
        term = zero_extended_sum(g[i:i + 1], st)
        assert abs(st.dx * term - one) <= 1e-13 * one
        total += term
    assert zero_extended_sum(g, st) == total
    head = zero_extended_sum(g[:1], st, 2.5)
    assert zero_extended_sum(g, st, 2.5) == zero_extended_sum(g[1:], st, head)


def test_zero_extended_energy_does_not_depend_on_the_block_size(monkeypatch):
    st = _kernel_stencil("fractional_tail", 30)
    g = np.random.default_rng(4).normal(size=(300, 64))
    want = zero_extended_energy(g, st)
    for values in (64, 1000, 1 << 22):
        monkeypatch.setattr(stencil, "BLOCK_VALUES", values)
        assert zero_extended_energy(g, st) == want


def test_zero_extended_energy_of_a_null_stencil_is_zero():
    st = build_stencil(zero_measure(), 1 / 64, 1 / 64, 0.25)
    assert st.kernel is None
    assert zero_extended_energy(np.ones((3, 10)), st) == 0.0


def test_zero_extended_energy_of_zero_field_is_exactly_zero():
    st = _random_stencil("fractional", 30, np.random.default_rng(3))
    assert zero_extended_energy(np.zeros((4, 12)), st) == 0.0
    assert zero_extended_energy(np.zeros(40), st) == 0.0
    for kind in ("atom", "fractional_tail", "sum"):
        st = _kernel_stencil(kind, 30)
        assert zero_extended_energy(np.zeros((700, 12)), st) == 0.0
        assert zero_extended_energy(np.zeros((5, 256)), st) == 0.0


def test_without_tail_is_built_once_with_the_same_weights():
    st = _kernel_stencil("fractional_tail", 16)
    assert st.tau > 0.0
    bare = st.without_tail
    assert bare is st.without_tail
    assert bare.tau == 0.0
    assert bare.weights is st.weights
    assert (bare.dx, bare.r, bare.Z, bare.sigma2) == (st.dx, st.r, st.Z,
                                                       st.sigma2)
    assert np.array_equal(bare.kernel, st.kernel)


@pytest.mark.parametrize("kind", ["atoms", "fractional"])
def test_energy_exactly_symmetric_on_batches(kind):
    rng = np.random.default_rng(21)
    st = _random_stencil(kind, 30, rng)
    for _ in range(5):
        # more than one block of rows
        phi = rng.normal(size=(300, 256))
        psi = rng.normal(size=(300, 256))
        assert bilinear_energy(phi, psi, st) == bilinear_energy(psi, phi, st)


def test_stencil_symbol_matches_measure_for_aligned_atoms():
    dx = 0.01
    atom = single_atom(z=7 * dx, w=0.3)
    st = build_stencil(atom, dx, dx, 0.2)
    xis = np.linspace(-40.0, 40.0, 17)
    assert np.allclose(st.symbol(xis), MultiplierEval(atom).m_many(xis),
                       atol=1e-13)


# -- Fourier cross-check -------------------------------------------------------

def _grid(n, box=20.0):
    dx = 2 * box / n
    return dx, -box + (np.arange(n) + 0.5) * dx


def test_fourier_identity_grid_aligned_atom():
    n = 1024
    dx, x = _grid(n)
    phi = np.exp(-x ** 2)
    atom = single_atom(z=32 * dx, w=0.5)
    st = build_stencil(atom, dx, dx, 2.0)
    chk = fourier_energy_check(phi, dx, MultiplierEval(atom), st)
    assert chk["rel_err"] <= 1e-3


def test_fourier_identity_misaligned_atom_documents_snapping_error():
    # an atom off the cell lattice is snapped to its cell; the two sides then
    # discretize different shifts and the identity only holds to ~1e-2
    n = 1024
    dx, x = _grid(n)
    phi = np.exp(-x ** 2)
    atom = single_atom(z=1.0, w=0.5)  # 1.0 / dx = 25.6
    st = build_stencil(atom, dx, dx, 2.0)
    chk = fourier_energy_check(phi, dx, MultiplierEval(atom), st)
    assert 1e-3 < chk["rel_err"] < 0.1


def test_fourier_identity_zero_field():
    dx, x = _grid(256)
    st = build_stencil(single_atom(z=32 * dx, w=0.5), dx, dx, 2.0)
    chk = fourier_energy_check(np.zeros_like(x), dx,
                               MultiplierEval(single_atom(z=32 * dx, w=0.5)),
                               st)
    assert chk["lhs"] == 0.0 and chk["rhs"] == 0.0 and chk["rel_err"] == 0.0


def test_fourier_identity_truncated_fractional():
    n = 4096
    dx, x = _grid(n)
    phi = np.exp(-x ** 2)
    band = FractionalRadial(alpha=1.0, lo=0.08, hi=4.0)
    st = build_stencil(band, dx, 0.08, 4.0)
    chk = fourier_energy_check(phi, dx, MultiplierEval(band), st)
    assert chk["rel_err"] <= 1e-2


def test_fourier_identity_non_power_of_two():
    n = 1000
    dx, x = _grid(n)
    atom = single_atom(z=40 * dx, w=0.5)
    st = build_stencil(atom, dx, dx, 2.0)
    chk = fourier_energy_check(np.exp(-x ** 2), dx, MultiplierEval(atom), st)
    assert chk["rel_err"] <= 1e-3
