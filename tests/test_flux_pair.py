"""The explicit update in reused buffers is bit for bit the allocating one.

The oracles below are the flux callables, the numerical flux pair and the
step in their allocating form, without `out=`: every operation makes a
fresh array.  States cover signed zeros, the kinks of each flux, values
whose squares overflow, NaN and the infinities; results are compared as
their 64-bit patterns, so a NaN's sign and a zero's sign count."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levyfv.measures import single_atom, zero_measure
from levyfv.problem import diffusion_identity, discretize, flux_burgers, \
    flux_from_table, flux_linear, flux_zero, make_problem
from levyfv.scheme import SchemeConfig, _numerical_flux, jump_term, step
from levyfv.stencil import build_stencil

# a table with a plateau on (0, 0.5) and kinks at -1, 0, 0.5 and 2
TABLE = ((-1.0, 0.0, 0.5, 2.0), (1.0, 0.0, 0.0, 1.5))
FLUXES = {"zero": flux_zero, "linear": lambda: flux_linear(1.5),
          "linear_negative": lambda: flux_linear(-0.75),
          "burgers": flux_burgers, "table": lambda: flux_from_table(*TABLE)}
KINDS = ("engquist_osher", "lax_friedrichs")
# signed zeros, the kinks, subnormals and values whose squares are
# subnormal, values whose squares or sums of two fluxes overflow or nearly
# do, NaN of either sign and the infinities
SPECIAL = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, np.nextafter(0.5, 1.0), 5e-324,
           -1.5e-323, 1e-161, -3e-162, 1e-300, 1e154, -1.4e154, 1e200, 1e308,
           -1e308, 1.7e308, np.nan, -np.nan, np.inf, -np.inf)
VALUES = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(allow_nan=False, allow_infinity=False))
SETTINGS = settings(derandomize=True, database=None, max_examples=60,
                    deadline=None)


def old_parts(name, flux):
    """(f, f_plus, f_minus) as each flux computed them, allocating."""
    if name == "zero":
        z = lambda u: np.zeros_like(np.asarray(u, dtype=float))
        return z, z, z
    if name.startswith("linear"):
        c = 1.5 if name == "linear" else -0.75
        cp, cm = max(c, 0.0), min(c, 0.0)
        return (lambda u: c * np.asarray(u, dtype=float),
                lambda u: cp * np.asarray(u, dtype=float),
                lambda u: cm * np.asarray(u, dtype=float))
    if name == "burgers":
        return (lambda u: 0.5 * np.square(np.asarray(u, dtype=float)),
                lambda u: 0.5 * np.square(np.maximum(u, 0.0)),
                lambda u: 0.5 * np.square(np.minimum(u, 0.0)))
    return tuple(lambda u, g=g: np.interp(u, g.xs, g.ys)
                 for g in (flux.f, flux.f_plus, flux.f_minus))


def old_pair(kind, parts, lam):
    f, fp, fm = parts
    if kind == "engquist_osher":
        return lambda a, b: fp(a) + fm(b)
    return lambda a, b: 0.5 * (f(a) + f(b)) - 0.5 * lam * (b - a)


def old_step(u_full, disc, stencil, config, dt, pair):
    spec, grid = disc.spec, disc.grid
    source = None
    if stencil.tau != 0.0 or stencil.kernel is not None:
        source = jump_term(spec.diffusion.b(u_full), disc, stencil,
                           config.tail_mode)
    h = grid.n_halo
    fhat = pair(u_full[h - 1:h + grid.n], u_full[h:h + grid.n + 1])
    out = np.subtract(fhat[1:], fhat[:-1])
    out *= dt / grid.dx
    np.subtract(u_full[grid.interior], out, out=out)
    if source is None:
        out += 0.0
    else:
        out += dt * source
    return out


def same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.int64),
                                                 y.view(np.int64))


def make_case(name, kind, jumps=False):
    """(spec, disc, stencil, config, lam) on an 8-cell grid."""
    flux = FLUXES[name]()
    spec = make_problem(flux, diffusion_identity() if jumps else "zero",
                        "bump")
    config = SchemeConfig(dx=1 / 8, r=1 / 8, Z=1 / 8, numerical_flux=kind)
    stencil = build_stencil(single_atom(z=0.125, w=0.5) if jumps
                            else zero_measure(), config.dx, config.r,
                            config.Z)
    disc = discretize(spec, config.dx, stencil.Z)
    return spec, disc, stencil, config, flux.lipschitz_on(-1.0, 2.0)


@pytest.mark.parametrize("name", sorted(FLUXES))
def test_flux_callables_with_out_are_bit_identical(name):
    flux = FLUXES[name]()
    old = old_parts(name, flux)

    @SETTINGS
    @given(st.lists(VALUES, min_size=1, max_size=12))
    def check(vals):
        u = np.array(vals)
        with np.errstate(all="ignore"):
            for new, ref in zip((flux.f, flux.f_plus, flux.f_minus), old):
                buf = np.full_like(u, 7.0)
                assert new(u, out=buf) is buf
                assert same_bits(buf, ref(u))
                assert same_bits(np.asarray(new(u)), ref(u))

    check()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(FLUXES))
def test_flux_pair_is_bit_identical_on_both_shapes(name, kind):
    # step's (n + 1,) face views of one state, and MassBudget's (rows, 2)
    # boundary-face columns, basic strided slices against fancy-indexed
    # copies of the same columns
    spec, disc, _, config, lam = make_case(name, kind)
    h, n = disc.grid.n_halo, disc.grid.n
    n_full = disc.grid.n_full
    ref = old_pair(kind, old_parts(name, spec.flux), lam)

    @SETTINGS
    @given(st.lists(VALUES, min_size=3 * n_full, max_size=3 * n_full))
    def check(vals):
        u = np.array(vals).reshape(3, n_full)
        pair = _numerical_flux(config, spec, lam)
        with np.errstate(all="ignore"):
            for row in u:
                a, b = row[h - 1:h + n], row[h:h + n + 1]
                assert same_bits(pair(a, b), ref(a, b))
            cols = pair(u[:, h - 1:h + n:n], u[:, h:h + n + 1:n])
            assert same_bits(cols, ref(u[:, [h - 1, h + n - 1]],
                                       u[:, [h, h + n]]))

    check()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(FLUXES))
def test_flux_pair_on_every_pair_of_special_states(name, kind):
    spec, _, _, config, lam = make_case(name, kind)
    a, b = np.meshgrid(SPECIAL, SPECIAL)
    ref = old_pair(kind, old_parts(name, spec.flux), lam)
    with np.errstate(all="ignore"):
        assert same_bits(_numerical_flux(config, spec, lam)(a, b), ref(a, b))


@pytest.mark.parametrize("jumps", [False, True], ids=["local", "jumps"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(FLUXES))
def test_step_in_reused_buffers_is_bit_identical(name, kind, jumps):
    spec, disc, stencil, config, _ = make_case(name, kind, jumps)
    lo, hi = disc.data_range
    lam = spec.flux.lipschitz_on(lo, hi)
    ref = old_pair(kind, old_parts(name, spec.flux), lam)
    pair = _numerical_flux(config, spec, lam)
    out = np.empty(disc.grid.n)

    @SETTINGS
    @given(st.lists(VALUES, min_size=disc.grid.n_full,
                    max_size=disc.grid.n_full))
    def check(vals):
        u = np.array(vals)
        with np.errstate(all="ignore"):
            want = old_step(u, disc, stencil, config, 0.01, ref)
            assert same_bits(step(u, disc, stencil, config, 0.01), want)
            got = step(u, disc, stencil, config, 0.01, flux_pair=pair,
                       out=out)
            assert got is out and same_bits(out, want)

    check()


@pytest.mark.parametrize("kind", KINDS)
def test_the_next_call_overwrites_the_returned_array(kind):
    spec, disc, _, config, lam = make_case("burgers", kind)
    pair = _numerical_flux(config, spec, lam)
    ref = old_pair(kind, old_parts("burgers", spec.flux), lam)
    rng = np.random.default_rng(3)
    a, b, c, d = rng.uniform(-1.0, 2.0, (4, 17))
    first = pair(a, b)
    kept = first.copy()
    second = pair(c, d)
    assert second is first
    assert same_bits(second, ref(c, d)) and not np.array_equal(first, kept)
    # a call of another shape gets new buffers and leaves the old alone
    cols = pair(a.reshape(-1, 1), b.reshape(-1, 1))
    assert cols.shape == (17, 1) and same_bits(first, ref(c, d))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", ["zero", "linear", "burgers"])
def test_a_step_into_out_allocates_no_interior_sized_array(name, kind):
    # 4096 cells, no jump term; a table flux is left out, as `np.interp`
    # builds its values in a temporary
    spec = make_problem(FLUXES[name](), "zero", "riemann")
    config = SchemeConfig(dx=1 / 4096, r=1 / 4096, Z=1 / 256,
                          numerical_flux=kind)
    stencil = build_stencil(zero_measure(), config.dx, config.r, config.Z)
    disc = discretize(spec, config.dx, stencil.Z)
    lo, hi = disc.data_range
    pair = _numerical_flux(config, spec, spec.flux.lipschitz_on(lo, hi))
    u = np.zeros(disc.grid.n_full)
    u[disc.grid.interior] = disc.u0
    disc.refresh_halo(u, 0.0)
    out = np.empty(disc.grid.n)
    step(u, disc, stencil, config, 1e-5, flux_pair=pair, out=out)
    tracemalloc.start()
    try:
        for _ in range(5):
            step(u, disc, stencil, config, 1e-5, flux_pair=pair, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # less than one interior row; the allocating step held several at once
    assert peak < 8 * disc.grid.n
