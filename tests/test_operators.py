"""Quantized operators: application paths, adjoints, kernels, dilation.

The reference oracle is a literal quadrature double sum written here with
no FFTs, evaluated on grids small enough to brute-force.
"""

import numpy as np
import pytest

import bipdo as bp
from bipdo import (DecompositionIndex, SampledField, adjoint_apply, apply,
                   apply_at, builtin, derived_symbol, dft_forward,
                   dilate_symbol, kernel_l1, kernel_slice, lp_norm, make_grid,
                   make_symbol, quantize)
from bipdo.operators import kernel_l1_split


def literal_apply(symbol, grid, f):
    """Tf(x) = sum_xi fhat(xi) sigma(x,xi) e^{2 pi i x.xi} / L^n, no FFT."""
    fhat = dft_forward(f).values.ravel()
    xs = grid.points()
    frs = grid.freqs()
    out = np.empty(len(xs), dtype=complex)
    for i, x in enumerate(xs):
        sig = symbol.evaluator(np.broadcast_to(x, frs.shape), frs)
        out[i] = np.sum(fhat * sig * np.exp(2j * np.pi * (frs @ x)))
    return SampledField(grid, (out / grid.period ** grid.n).reshape(grid.shape))


def rand_field(grid, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return SampledField(grid, v)


def rand_separable(seed, nterms=3):
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(nterms):
        terms.append({
            "amp": float(rng.uniform(0.2, 1.0)),
            "xfreq": [int(rng.integers(-2, 3)), int(rng.integers(-2, 3))],
            "phase": float(rng.uniform(0, 2 * np.pi)),
            "orders": [float(rng.uniform(-1.0, 0.0)), float(rng.uniform(-1.0, 0.0))],
        })
    return builtin("separable", {"terms": terms})


# ---------------------------------------------------------------------------
# application vs the literal sum


def test_apply_matches_literal_sum():
    grid = make_grid(1, 1, 6, 1.0)
    f = rand_field(grid, 0)
    for sym in (rand_separable(1), builtin("oscillatory_exotic", {"m": 0.0, "rho": 0.5})):
        want = literal_apply(sym, grid, f).values
        for path in ("dense", "separable"):
            got = apply(quantize(sym, grid, path=path), f).values
            err = np.abs(got - want).max() / np.abs(want).max()
            assert err <= 1e-12, (sym.name, path, err)


def test_identity_symbol():
    grid = make_grid(1, 1, 16, 1.0)
    f = rand_field(grid, 2)
    T = quantize(builtin("constant", {"c": 1.0}), grid)
    out = apply(T, f)
    assert np.abs(out.values - f.values).max() <= 1e-12 * np.abs(f.values).max()


def test_translation_symbol_shifts_exactly():
    grid = make_grid(1, 1, 8, 1.0)
    shift = (3, 1)
    y0 = np.array(shift) * grid.period / 8

    def ev(x, xi):
        xi = np.asarray(xi, dtype=float)
        return np.exp(-2j * np.pi * (xi @ y0))

    sym = make_symbol(ev, 1, 1, name="translate")
    f = rand_field(grid, 3)
    out = apply(quantize(sym, grid), f).values
    want = np.roll(f.values, shift, axis=(0, 1))
    assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()


def test_multiplication_symbol():
    grid = make_grid(1, 1, 8, 1.0)
    # band-limited coefficient a(x), frequency-independent symbol
    def a_of(x):
        x = np.asarray(x, dtype=float)
        return (1.3 + np.cos(2 * np.pi * x[..., 0])
                + 0.5j * np.sin(2 * np.pi * x[..., 1]))

    sym = make_symbol(lambda x, xi: a_of(x).astype(complex), 1, 1, name="mult")
    f = rand_field(grid, 4)
    out = apply(quantize(sym, grid), f).values
    want = a_of(grid.points()).reshape(grid.shape) * f.values
    assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()


def test_multiplier_diagonalizes():
    grid = make_grid(1, 1, 16, 1.0)
    sym = builtin("multiplier_bessel", {"m": -1.0})
    f = rand_field(grid, 5)
    lhs = dft_forward(apply(quantize(sym, grid), f)).values
    fr = grid.freqs()
    sv = sym.evaluator(np.zeros_like(fr), fr).reshape(grid.shape)
    rhs = sv * dft_forward(f).values
    assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_dense_and_separable_paths_agree():
    grid = make_grid(1, 1, 8, 1.0)
    f = rand_field(grid, 6)
    for seed in range(20):
        sym = rand_separable(100 + seed)
        d = apply(quantize(sym, grid, path="dense"), f).values
        s = apply(quantize(sym, grid, path="separable"), f).values
        assert np.abs(d - s).max() <= 1e-10 * max(1.0, np.abs(d).max())


def test_linearity():
    grid = make_grid(1, 1, 8, 1.0)
    T = quantize(builtin("oscillatory_exotic", {"m": 0.0, "rho": 0.5}), grid)
    f, g = rand_field(grid, 7), rand_field(grid, 8)
    a, b = 1.7 - 0.3j, -0.8 + 2.1j
    comb = SampledField(grid, a * f.values + b * g.values)
    lhs = apply(T, comb).values
    rhs = a * apply(T, f).values + b * apply(T, g).values
    assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()


def test_translation_covariance_of_multipliers():
    grid = make_grid(1, 1, 16, 1.0)
    T = quantize(builtin("multiplier_bessel", {"m": -0.5}), grid)
    f = rand_field(grid, 9)
    rolled = SampledField(grid, np.roll(f.values, (2, 5), axis=(0, 1)))
    lhs = apply(T, rolled).values
    rhs = np.roll(apply(T, f).values, (2, 5), axis=(0, 1))
    assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_apply_validates_inputs():
    g1 = make_grid(1, 1, 8, 1.0)
    g2 = make_grid(1, 1, 16, 1.0)
    T = quantize(builtin("constant", {"c": 1.0}), g1)
    with pytest.raises(ValueError):
        apply(T, rand_field(g2, 0))
    nonsep = make_symbol(lambda x, xi: np.ones(np.asarray(x).shape[:-1],
                                               dtype=complex), 1, 1)
    with pytest.raises(ValueError):
        quantize(nonsep, g1, path="separable")
    with pytest.raises(ValueError):
        quantize(nonsep, g1, path="warp")


# ---------------------------------------------------------------------------
# off-lattice evaluation


def test_apply_at_consistent_on_lattice():
    grid = make_grid(1, 1, 8, 1.0)
    sym = builtin("oscillatory_exotic", {"m": 0.0, "rho": 0.5})
    T = quantize(sym, grid)
    f = rand_field(grid, 10)
    out = apply(T, f).values
    for idx in ((0, 0), (3, 5), (7, 1)):
        x = np.array(idx) * grid.period / 8
        got = apply_at(T, f, x)
        assert abs(got - out[idx]) <= 1e-12 * abs(out[idx])


def test_apply_at_single_mode_closed_form():
    grid = make_grid(1, 1, 8, 1.0)
    pts = grid.points().reshape(8, 8, 2)
    k0 = np.array([2.0, -3.0])
    f = SampledField(grid, np.exp(2j * np.pi * (pts @ k0)))
    T = quantize(builtin("constant", {"c": 1.0}), grid)
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.uniform(0.0, 1.0, 2)
        want = np.exp(2j * np.pi * (x @ k0))
        assert abs(apply_at(T, f, x) - want) <= 1e-12


# ---------------------------------------------------------------------------
# adjoints


def test_adjoint_inner_product_identity():
    grid = make_grid(1, 1, 8, 1.0)
    w = grid.cell_volume
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        sym = rand_separable(300 + seed) if seed % 2 else builtin(
            "oscillatory_exotic", {"m": 0.0, "rho": 0.5, "xmod": 0.5})
        T = quantize(sym, grid, path="dense" if seed % 3 else "auto")
        f, g = rand_field(grid, seed), rand_field(grid, 50 + seed)
        # <Tf, g> = <f, T*g> with <u, v> = sum u conj(v) * cell volume
        lhs = np.vdot(g.values, apply(T, f).values) * w
        rhs = np.vdot(adjoint_apply(T, g).values, f.values) * w
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_real_multiplier_self_adjoint():
    grid = make_grid(1, 1, 8, 1.0)
    T = quantize(builtin("multiplier_bessel", {"m": -1.0}), grid)
    g = rand_field(grid, 12)
    assert np.abs(adjoint_apply(T, g).values
                  - apply(T, g).values).max() <= 1e-12


def test_multiplication_adjoint_conjugates():
    grid = make_grid(1, 1, 8, 1.0)

    def a_of(x):
        x = np.asarray(x, dtype=float)
        return np.cos(2 * np.pi * x[..., 0]) + 2j * np.sin(2 * np.pi * x[..., 1])

    sym = make_symbol(lambda x, xi: a_of(x).astype(complex), 1, 1)
    T = quantize(sym, grid)
    g = rand_field(grid, 13)
    want = np.conj(a_of(grid.points()).reshape(grid.shape)) * g.values
    got = adjoint_apply(T, g).values
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


# ---------------------------------------------------------------------------
# kernels


def test_kernel_of_identity_is_lattice_spike():
    grid = make_grid(1, 1, 8, 2.0)
    ks = kernel_slice(builtin("constant", {"c": 1.0}), grid, np.zeros(2))
    v = ks.values
    assert abs(v[0, 0] - 8 ** 2 / 2.0 ** 2) <= 1e-9
    rest = v.copy()
    rest[0, 0] = 0.0
    assert np.abs(rest).max() <= 1e-9


def test_kernel_gaussian_self_duality():
    grid = make_grid(1, 1, 64, 12.0)

    def gauss(x, xi):
        xi = np.asarray(xi, dtype=float)
        return np.exp(-np.pi * np.sum(xi * xi, axis=-1)).astype(complex)

    sym = make_symbol(gauss, 1, 1, rho=1.0)
    ks = kernel_slice(sym, grid, np.zeros(2))
    pts = grid.points()
    d = np.minimum(pts % 12.0, 12.0 - pts % 12.0)
    want = np.exp(-np.pi * np.sum(d * d, axis=-1))
    assert np.abs(ks.values.ravel() - want).max() <= 1e-6


def test_kernel_l1_matches_direct_sum():
    grid = make_grid(1, 1, 16, 1.0)
    sym = builtin("multiplier_bessel", {"m": -0.5})
    piece = derived_symbol(
        sym, DecompositionIndex(j=2, ell=1, ell_max=4, r=1.0), "cone_lj")
    x0 = np.array([0.3, 0.45])
    val = kernel_l1(piece, grid, x0)
    fr = grid.freqs()
    sv = piece.evaluator(np.broadcast_to(x0, fr.shape), fr)
    acc = np.array([np.sum(sv * np.exp(2j * np.pi * (fr @ y)))
                    for y in grid.points()]) / grid.period ** 2
    oracle = float(np.sum(np.abs(acc)) * grid.cell_volume)
    assert val == pytest.approx(oracle, rel=1e-12)


def test_kernel_l1_homogeneous():
    grid = make_grid(1, 1, 16, 1.0)
    sym = builtin("multiplier_bessel", {"m": -0.5})
    from bipdo.symbols import scale_symbol
    base = kernel_l1(sym, grid, np.zeros(2))
    scaled = kernel_l1(scale_symbol(sym, -3.0j), grid, np.zeros(2))
    assert scaled == pytest.approx(3.0 * base, rel=1e-12)


def test_kernel_l1_split_partitions():
    grid = make_grid(1, 1, 16, 1.0)
    sym = builtin("multiplier_bessel", {"m": -0.5})
    x0 = np.array([0.4, 0.1])
    near, far = kernel_l1_split(sym, grid, x0, radius=0.2)
    total = kernel_l1(sym, grid, x0)
    assert near >= 0 and far >= 0
    assert near + far == pytest.approx(total, rel=1e-12)


# ---------------------------------------------------------------------------
# dilation and conjugation


def test_dilate_symbol_pointwise():
    sym = builtin("oscillatory_exotic", {"m": 0.0, "rho": 0.5})
    s = 2.0 ** 1.5
    dil = dilate_symbol(sym, s)
    rng = np.random.default_rng(18)
    x, xi = rng.uniform(0, 1, (10, 2)), rng.uniform(-10, 10, (10, 2))
    want = sym.evaluator(x / s, s * xi)
    assert np.abs(dil.evaluator(x, xi) - want).max() <= 1e-14
    assert dil.rho == sym.rho and dil.order == sym.order


def test_conjugation_identity_off_lattice():
    # T_j at scale 2^{j rho}: applying the dilated symbol on the rescaled
    # torus reproduces the original piece at off-lattice points
    rho, j = 0.5, 3
    grid = make_grid(1, 1, 16, 1.0)
    sym = builtin("oscillatory_exotic", {"m": 0.0, "rho": rho})
    piece = derived_symbol(sym, DecompositionIndex(j=j), "annulus_j")
    T = quantize(piece, grid)
    f = rand_field(grid, 19)

    s = 2.0 ** (j * rho)
    big = make_grid(1, 1, 16, s * grid.period)
    tilde = quantize(dilate_symbol(piece, s), big)
    f_big = SampledField(big, f.values)

    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(10):
        x = rng.uniform(0.0, 1.0, 2)
        a = apply_at(T, f, x)
        b = apply_at(tilde, f_big, s * x)
        worst = max(worst, abs(a - b) / max(abs(a), 1e-30))
    assert worst <= 1e-8


# ---------------------------------------------------------------------------
# bessel multiplier


def bessel_multiplier(alpha, f):
    """The lattice multiplier (1+|xi|^2)^(-alpha) as a quantized builtin."""
    sym = builtin("multiplier_bessel", {"m": -2.0 * alpha})
    return apply(quantize(sym, f.grid), f)


def test_bessel_apply_identity_and_modes():
    grid = make_grid(1, 1, 16, 1.0)
    f = rand_field(grid, 21)
    out0 = bessel_multiplier(0.0, f)
    assert np.abs(out0.values - f.values).max() <= 1e-12 * np.abs(f.values).max()

    pts = grid.points().reshape(16, 16, 2)
    k0 = np.array([3.0, -2.0])
    mode = SampledField(grid, np.exp(2j * np.pi * (pts @ k0)))
    out = bessel_multiplier(0.7, mode)
    scale = (1.0 + k0 @ k0) ** -0.7
    assert np.abs(out.values - scale * mode.values).max() <= 1e-12


def test_bessel_apply_roundtrip():
    grid = make_grid(1, 1, 16, 1.0)
    f = rand_field(grid, 22)
    back = bessel_multiplier(-0.4, bessel_multiplier(0.4, f))
    assert np.abs(back.values - f.values).max() <= 1e-12 * np.abs(f.values).max()
