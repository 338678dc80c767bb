"""Quantized operators: application paths, adjoints, kernels, dilation.

The reference oracle is a literal quadrature double sum written here with
no FFTs, evaluated on grids small enough to brute-force.
"""

import re
import tracemalloc

import numpy as np
import pytest

import bipdo as bp
from bipdo import (DecompositionIndex, DyadicCube, SampledField, adjoint_apply,
                   adjoint_product, apply, apply_at, builtin, derived_symbol,
                   dft_forward, kernel_l1, kernel_slice, make_grid, make_symbol,
                   mollifier_lambda, quantize, theta_symbol)
from helpers import count_ffts, ones, rand_field, rand_separable


def literal_sum(symbol, grid, f, xs):
    """sum_xi fhat(xi) sigma(x,xi) e^{2 pi i x.xi} / L^n at each row x of xs,
    with the full exponential and no FFT."""
    fhat = dft_forward(f).values.ravel()
    frs = grid.freqs()
    out = np.empty(len(xs), dtype=complex)
    for i, x in enumerate(xs):
        sig = symbol.evaluator(np.broadcast_to(x, frs.shape), frs)
        out[i] = np.sum(fhat * sig * np.exp(2j * np.pi * (frs @ x)))
    return out / grid.period ** grid.n


def literal_apply(symbol, grid, f):
    """Tf on the grid points by the literal sum."""
    return SampledField(grid, literal_sum(symbol, grid, f, grid.points()))


# ---------------------------------------------------------------------------
# application vs the literal sum


def test_apply_matches_literal_sum(monkeypatch):
    # three- and four-axis grids check the axis order of the dense sweep's
    # per-axis sums, the earlier axes contracted once and twice after the
    # last; a small block runs the sweep over several blocks, the last one
    # ragged
    exotic = {"m": 0.0, "rho": 0.5}
    cases = [(make_grid(1, 1, 6, 1.0),
              (rand_separable(1), builtin("oscillatory_exotic", exotic))),
             (make_grid(2, 1, 4, 1.5),
              (rand_separable(1, n1=2),
               builtin("oscillatory_exotic", exotic, n1=2, n2=1))),
             (make_grid(2, 2, 4, 1.0),
              (rand_separable(1, n1=2, n2=2),
               builtin("oscillatory_exotic", exotic, n1=2, n2=2)))]
    for grid, syms in cases:
        f = rand_field(grid, 0)
        xs = np.random.default_rng(1).uniform(0.0, grid.period, (7, grid.n))
        for sym in syms:
            want = literal_apply(sym, grid, f).values
            want_at = literal_sum(sym, grid, f, xs)
            for chunk in (bp.operators._CHUNK, 5 * grid.size):
                monkeypatch.setattr(bp.operators, "_CHUNK", chunk)
                for path in ("dense", "separable"):
                    T = quantize(sym, grid, path=path)
                    got = apply(T, f).values
                    err = np.abs(got - want).max() / np.abs(want).max()
                    assert err <= 1e-12, (grid.n, sym.name, chunk, path, err)
                    # off-grid points go through the same dense sweep
                    got = apply_at(T, f, xs)
                    err = np.abs(got - want_at).max() / np.abs(want_at).max()
                    assert err <= 1e-12, (grid.n, sym.name, chunk, "at", err)


def test_dense_sweep_keeps_its_bits_at_any_block(monkeypatch):
    # each row's sum does not depend on the rows it is swept with, one-row
    # blocks included (a _CHUNK of 1), and apply_at at the grid points is apply
    exotic = {"m": 0.0, "rho": 0.5}
    sep = {"terms": [{"amp": 1.0, "xfreq": [1, -1, 0], "phase": 0.4},
                     {"amp": 0.5, "xfreq": [0, 2, 1], "orders": [-0.5, 0.25]}]}
    for grid in (make_grid(1, 1, 16, 1.0), make_grid(2, 1, 6, 1.0)):
        f = rand_field(grid, 3)
        xs = np.random.default_rng(2).uniform(-1.0, 2.0, (13, grid.n))
        sep_n = {"terms": [{**t, "xfreq": t["xfreq"][:grid.n]} for t in sep["terms"]]}
        for sym in (builtin("oscillatory_exotic", exotic, n1=grid.n1),
                    builtin("separable", sep_n, n1=grid.n1)):
            T = quantize(sym, grid, path="dense")
            outs = []
            for chunk in (bp.operators._CHUNK, 5 * grid.size, 1):
                monkeypatch.setattr(bp.operators, "_CHUNK", chunk)
                outs.append((apply(T, f).values, apply_at(T, f, xs),
                             apply_at(T, f, grid.points())))
            a0, at0, pts0 = outs[0]
            for a, at, pts in outs:
                assert np.array_equal(a, a0) and np.array_equal(at, at0), sym.name
                assert np.array_equal(pts, a.ravel()), sym.name


def test_dense_apply_working_set_does_not_grow_with_the_grid():
    # the sweep holds one block of rows of about _CHUNK / 4 elements at a
    # time; at 64^2 the (point, frequency) product alone would be 256 MiB
    grid = make_grid(1, 1, 64, 1.0)
    f = rand_field(grid, 4)
    T = quantize(builtin("oscillatory_exotic", {"m": 0.0, "rho": 0.5}), grid,
                 path="dense")
    tracemalloc.start()
    try:
        apply(T, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak


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

    def b(xi):
        xi = np.asarray(xi, dtype=float)
        return np.exp(-2j * np.pi * (xi @ y0))

    sym = make_symbol([(ones, b)], 1, 1, name="translate")
    f = rand_field(grid, 3)
    want = np.roll(f.values, shift, axis=(0, 1))
    for path in ("dense", "separable"):
        out = apply(quantize(sym, grid, path), f).values
        assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max(), path


def test_multiplication_symbol():
    grid = make_grid(1, 1, 8, 1.0)
    # band-limited coefficient a(x), frequency-independent symbol
    def a_of(x):
        x = np.asarray(x, dtype=float)
        return (1.3 + np.cos(2 * np.pi * x[..., 0])
                + 0.5j * np.sin(2 * np.pi * x[..., 1]))

    sym = make_symbol([(a_of, ones)], 1, 1, name="mult")
    f = rand_field(grid, 4)
    want = a_of(grid.points()).reshape(grid.shape) * f.values
    for path in ("dense", "separable"):
        out = apply(quantize(sym, grid, path), f).values
        assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max(), path


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


# every way of deriving a symbol, applied to a parent with non-constant a-factors
_DERIVATIONS = {
    "annulus": lambda s, g: derived_symbol(s, DecompositionIndex(j=2), "annulus_j"),
    "annulus-pair": lambda s, g: derived_symbol(s, DecompositionIndex(j=(1, 2)),
                                                "annulus_j"),
    "cone": lambda s, g: derived_symbol(
        s, DecompositionIndex(j=3, ell=-1, ell_max=3), "cone_lj"),
    "high": lambda s, g: derived_symbol(s, DecompositionIndex(r=0.2), "high_r"),
    "theta": lambda s, g: theta_symbol(
        s, mollifier_lambda(g, DyadicCube((4, 4), 4), 0.5)),
}


@pytest.mark.parametrize("how", sorted(_DERIVATIONS))
@pytest.mark.parametrize("name,params", [
    ("oscillatory_exotic", {"m": 0.0, "rho": 0.5, "xmod": 0.75}),
    ("separable", {"terms": [{"amp": 1.0, "xfreq": [1, -1], "phase": 0.4,
                              "orders": [-0.5, 0.25]},
                             {"amp": 0.5, "xfreq": [0, 2]}]}),
], ids=["exotic", "separable"])
def test_derived_terms_match_derived_evaluator(name, params, how):
    # the literal sum reads the derived evaluator; both paths sum its terms,
    # the dense one literally and the separable one by FFTs
    grid = make_grid(1, 1, 16, 1.0)
    sym = _DERIVATIONS[how](builtin(name, params), grid)
    assert sym.separable_terms
    f = rand_field(grid, 9)
    want = literal_apply(sym, grid, f).values
    scale = max(1.0, np.abs(want).max())
    for path in ("dense", "separable"):
        got = apply(quantize(sym, grid, path=path), f).values
        assert np.abs(got - want).max() <= 1e-10 * scale, path


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
    with pytest.raises(ValueError, match="unknown path 'warp'"):
        quantize(builtin("constant", {"c": 1.0}), g1, path="warp")


@pytest.mark.parametrize("call,message", [
    (lambda g: quantize(builtin("constant", {"c": 1.0}, n1=2, n2=1), g),
     "symbol has 3 axes, grid has 2"),
    (lambda g: quantize(builtin("constant", {"c": 1.0}, n1=2, n2=1),
                        make_grid(1, 2, 8, 1.0)),
     r"symbol has factors \(2, 1\), grid has \(1, 2\)"),
    (lambda g: apply_at(quantize(builtin("constant", {"c": 1.0}), g),
                        rand_field(g, 0), np.zeros((4, 3))),
     r"points must be a point of 2 coordinates or a non-empty list of them, "
     r"got shape \(4, 3\)"),
    (lambda g: kernel_slice(quantize(builtin("constant", {"c": 1.0}), g), np.zeros(3)),
     r"x must be a point of 2 coordinates or a non-empty list of them, got shape \(3,\)"),
    (lambda g: kernel_slice(quantize(builtin("constant", {"c": 1.0}), g), np.zeros((2, 2))),
     r"x must be one point, got shape \(2, 2\)"),
    (lambda g: adjoint_product(
        quantize(builtin("constant", {"c": 1.0}), g),
        quantize(builtin("constant", {"c": 1.0}), make_grid(1, 1, 16, 1.0))),
     "composed maps must share a grid"),
], ids=["quantize-axes", "quantize-factors", "apply_at-axes", "kernel_slice-shape",
        "kernel_slice-stack", "adjoint_product-grids"])
def test_mismatched_axes_and_grids_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call(make_grid(1, 1, 8, 1.0))


@pytest.mark.parametrize("x,shown", [
    (["0.1", "0.2"], "['0.1', '0.2']"),
    ([True, False], "[True, False]"),
    ([0.5, True], "[0.5, True]"),
    ([float("nan"), 0.0], "[nan, 0.0]"),
    (np.array([[0.1, 0.2], [0.3, np.inf]]), "[0.3, inf]"),
    ([[0.1, 0.2], [0.3, None]], "[0.3, None]"),
], ids=["strings", "bools", "a-bool", "nan", "inf-in-stack", "none-in-stack"])
def test_points_must_have_finite_real_coordinates(x, shown):
    # the point at fault is named before the symbol is evaluated at all
    def unreachable(v):
        raise AssertionError("the symbol was evaluated")

    grid = make_grid(1, 1, 8, 1.0)
    T = quantize(make_symbol([(unreachable, unreachable)], 1, 1), grid)
    f = rand_field(grid, 0)
    for name, call in (("points", lambda: apply_at(T, f, x)),
                       ("x", lambda: kernel_slice(T, x))):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"{name} must have finite real coordinates, got {shown}"


def test_apply_at_names_a_point_whose_phase_is_not_finite():
    # e^{2 pi i x.xi} overflows at x = 2^1023 on the 8^2 lattice; the point is
    # named before the symbol is evaluated, for a lone point and in a stack
    def unreachable(v):
        raise AssertionError("the symbol was evaluated")

    grid = make_grid(1, 1, 8, 1.0)
    f = rand_field(grid, 0)
    for T in (quantize(builtin("constant", {"c": 1.0}), grid),
              quantize(make_symbol([(unreachable, unreachable)], 1, 1), grid)):
        for x in ([2 ** 1023, 0.0], np.array([[0.1, 0.2], [0.0, -2.0 ** 1023]])):
            with pytest.raises(ValueError, match=re.escape(
                    "points must have a finite phase e^(2 pi i x.xi) on the 8^2 grid, "
                    f"got {[float(c) for c in np.atleast_2d(x)[-1]]!r}")):
                apply_at(T, f, x)


def test_norm_iteration_ignores_the_path():
    # the norm iteration reads only the factor tables, so a dense-path
    # operator gets the separable estimate bit for bit, alone or in a product
    grid = make_grid(1, 1, 8, 1.0)
    for seed in range(3):
        S, T = rand_separable(600 + seed), rand_separable(700 + seed)
        Ss, Ts = quantize(S, grid), quantize(T, grid)
        Sd, Td = quantize(S, grid, "dense"), quantize(T, grid, "dense")
        for sep, dense in ((Ts, Td), (adjoint_product(Ss, Ts), adjoint_product(Sd, Td))):
            est = bp.l2_opnorm(sep, 1e-10, 2000)
            assert est.iterations > 0
            assert bp.l2_opnorm(dense, 1e-10, 2000) == est, seed


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


def test_apply_at_of_one_point_is_its_row_in_a_stack():
    # a lone point is a block of one row, summed as it is in a larger block
    grid = make_grid(1, 1, 32, 1.0)
    T = quantize(builtin("oscillatory_exotic", {"m": 0.0, "rho": 0.5}), grid)
    f = rand_field(grid, 15)
    rng = np.random.default_rng(16)
    for _ in range(20):
        x, y = rng.uniform(0.0, 1.0, (2, 2))
        assert apply_at(T, f, x) == apply_at(T, f, [x, y])[0], x


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
    # one factor-wise adjoint on both paths, checked against the separable
    # apply and against the dense literal sum
    for grid in (make_grid(1, 1, 8, 1.0), make_grid(2, 1, 4, 1.0)):
        w = grid.cell_volume
        for seed in range(10):
            sym = rand_separable(300 + seed, n1=grid.n1) if seed % 2 else builtin(
                "oscillatory_exotic", {"m": 0.0, "rho": 0.5, "xmod": 0.5},
                n1=grid.n1, n2=grid.n2)
            f, g = rand_field(grid, seed), rand_field(grid, 50 + seed)
            adj = {}
            for path in ("dense", "separable"):
                T = quantize(sym, grid, path)
                adj[path] = adjoint_apply(T, g).values
                # <Tf, g> = <f, T*g> with <u, v> = sum u conj(v) * cell volume
                lhs = np.vdot(g.values, apply(T, f).values) * w
                rhs = np.vdot(adj[path], f.values) * w
                assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0), (grid.n, seed, path)
            assert np.array_equal(adj["dense"], adj["separable"]), (grid.n, seed)


def test_adjoint_sums_terms_before_one_ifft(monkeypatch):
    # K fftn (one per term) and one ifftn of their sum: 4 FFTs for 3 terms
    grid = make_grid(1, 1, 8, 1.0)
    T = quantize(rand_separable(3), grid)
    assert len(T.symbol.separable_terms) == 3
    g = rand_field(grid, 14)
    calls = count_ffts(monkeypatch)
    adjoint_apply(T, g)
    assert sorted(calls) == ["fftn"] * 3 + ["ifftn"]


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

    sym = make_symbol([(a_of, ones)], 1, 1)
    g = rand_field(grid, 13)
    want = np.conj(a_of(grid.points()).reshape(grid.shape)) * g.values
    for path in ("dense", "separable"):
        got = adjoint_apply(quantize(sym, grid, path), g).values
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), path


# ---------------------------------------------------------------------------
# kernels


def test_kernel_of_identity_is_lattice_spike():
    grid = make_grid(1, 1, 8, 2.0)
    ks = kernel_slice(quantize(builtin("constant", {"c": 1.0}), grid), np.zeros(2))
    v = ks.values
    assert abs(v[0, 0] - 8 ** 2 / 2.0 ** 2) <= 1e-9
    rest = v.copy()
    rest[0, 0] = 0.0
    assert np.abs(rest).max() <= 1e-9


def test_kernel_gaussian_self_duality():
    grid = make_grid(1, 1, 64, 12.0)

    def gauss(xi):
        xi = np.asarray(xi, dtype=float)
        return np.exp(-np.pi * np.sum(xi * xi, axis=-1))

    sym = make_symbol([(ones, gauss)], 1, 1, rho=1.0)
    pts = grid.points()
    d = np.minimum(pts % 12.0, 12.0 - pts % 12.0)
    want = np.exp(-np.pi * np.sum(d * d, axis=-1))
    ks = kernel_slice(quantize(sym, grid), np.zeros(2))
    assert np.abs(ks.values.ravel() - want).max() <= 1e-6


_KERNEL_SYMBOLS = {
    "constant": {"c": 1.5},
    "multiplier_bessel": {"m": -0.5},
    "separable": {"terms": [{"amp": 1.0, "xfreq": [1, -1], "phase": 0.4,
                             "orders": [-0.5, 0.25]},
                            {"amp": 0.5, "xfreq": [0, 2]}]},
    "oscillatory_exotic": {"m": 0.0, "rho": 0.5, "xmod": 0.75},
    "modulated_bessel": {"m": -0.5},
}
_KERNEL_PIECES = {
    "whole": lambda s, g: s,
    "cone_lj": lambda s, g: derived_symbol(
        s, DecompositionIndex(j=2, ell=1, ell_max=3), "cone_lj"),
    "annulus_j": lambda s, g: derived_symbol(s, DecompositionIndex(j=2), "annulus_j"),
    "theta": _DERIVATIONS["theta"],
}


def direct_kernel(symbol, grid, x):
    """sum_xi sigma(x, xi) e^{-2 pi i y.xi} / L^n at every grid point y, with
    the full exponential and no FFT."""
    frs = grid.freqs()
    sig = symbol.evaluator(np.broadcast_to(x, frs.shape), frs)
    return np.array([np.sum(sig * np.exp(-2j * np.pi * (frs @ y)))
                     for y in grid.points()]) / grid.period ** grid.n


@pytest.mark.parametrize("piece", sorted(_KERNEL_PIECES))
@pytest.mark.parametrize("name", sorted(_KERNEL_SYMBOLS))
def test_kernel_slice_tables_match_dense_oracle(name, piece):
    # the slice transforms the table sigma(x, .) with an FFT; the oracle is
    # the literal lattice sum
    grid = make_grid(1, 1, 16, 1.0)
    sym = _KERNEL_PIECES[piece](builtin(name, _KERNEL_SYMBOLS[name]), grid)
    T = quantize(sym, grid)
    for x in ([0.0, 0.0], [0.25, 0.5625], [0.3, 0.71], [1.37, -0.13]):
        got = kernel_slice(T, x).values.ravel()
        want = direct_kernel(sym, grid, np.asarray(x))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), x


def test_kernel_l1_matches_direct_sum():
    grid = make_grid(1, 1, 16, 1.0)
    sym = builtin("multiplier_bessel", {"m": -0.5})
    piece = derived_symbol(
        sym, DecompositionIndex(j=2, ell=1, ell_max=4), "cone_lj")
    x0 = np.array([0.3, 0.45])
    val = kernel_l1(quantize(piece, grid), x0)
    oracle = float(np.sum(np.abs(direct_kernel(piece, grid, x0))) * grid.cell_volume)
    assert val == pytest.approx(oracle, rel=1e-12)


def test_kernel_l1_homogeneous():
    grid = make_grid(1, 1, 16, 1.0)
    sym = builtin("multiplier_bessel", {"m": -0.5})
    (a, b), = sym.separable_terms
    scaled = make_symbol([(lambda x: -3.0j * a(x), b)], 1, 1)
    base = kernel_l1(quantize(sym, grid), np.zeros(2))
    assert kernel_l1(quantize(scaled, grid), np.zeros(2)) == pytest.approx(
        3.0 * base, rel=1e-12)


def test_kernel_slice_keeps_its_bits_at_any_block(monkeypatch):
    # sigma(x, .) is evaluated in blocks of _CHUNK lattice rows and the table
    # transformed in place; at the default block and at 7-row blocks (the last
    # one ragged) the slice is the out-of-place transform of the whole table
    sep = {"terms": [{"amp": 1.0, "xfreq": [1, -1, 2], "phase": 0.4,
                      "orders": [-0.5, 0.25]},
                     {"amp": 0.5, "xfreq": [0, 2, 1]}]}
    for grid in (make_grid(1, 1, 12, 1.0), make_grid(2, 1, 6, 1.5)):
        n1, n = grid.n1, grid.n
        exotic = builtin("oscillatory_exotic", {"m": 0.0, "rho": 0.5, "xmod": 0.75},
                         n1=n1, n2=1)
        syms = (builtin("multiplier_bessel", {"m": -0.5}, n1=n1, n2=1), exotic,
                derived_symbol(exotic, DecompositionIndex(j=1, ell=1, ell_max=3),
                               "cone_lj"),
                builtin("separable", {"terms": [{**t, "xfreq": t["xfreq"][:n]}
                                                for t in sep["terms"]]}, n1=n1, n2=1))
        assert grid.size % 7
        for sym in syms:
            T = quantize(sym, grid)
            for x in (np.zeros(n), np.linspace(0.3, 1.1, n)):
                table = np.asarray(sym.evaluator(x[None, :], grid.freqs()), dtype=complex)
                want = np.fft.fftn(table.reshape(grid.shape)) / grid.period ** n
                for chunk in (bp.operators._CHUNK, 7):
                    monkeypatch.setattr(bp.operators, "_CHUNK", chunk)
                    got = kernel_slice(T, x).values
                    assert np.array_equal(got, want), (n, sym.name, chunk, x)


def test_kernel_slice_working_set_stays_below_the_lattice_table():
    # a 512^2 slice holds its 4 MiB complex table and one block of the
    # evaluator's temporaries; the out-of-place transform and scaling held
    # three such tables (23 MiB for a five-slice experiment).  The grid's
    # frequency cache is built before tracing.
    grid = make_grid(1, 1, 512, 1.0)
    grid.freqs()
    piece = derived_symbol(builtin("multiplier_bessel", {"m": -0.5}),
                           DecompositionIndex(j=5, ell=2, ell_max=6), "cone_lj")
    T = quantize(piece, grid)
    tracemalloc.start()
    try:
        kernel_l1(T, np.zeros(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 << 20, peak


def test_transforms_leave_their_inputs_unchanged():
    # the halves and the kernel slice transform only arrays they allocate:
    # the battery maximum reuses one fhat for every operator on a grid, so a
    # transform into it (or into a factor table) would corrupt every later
    # image without an error
    grid = make_grid(1, 1, 16, 1.0)
    f, g = rand_field(grid, 21), rand_field(grid, 22)
    fhat = np.fft.fftn(f.values)
    x = np.array([0.3, 0.71])
    for sym in (builtin("oscillatory_exotic", {"m": 0.0, "rho": 0.5}),
                rand_separable(23)):
        T = quantize(sym, grid)
        tables = [(a.copy(), b.copy()) for a, b in T._separable_factors()]
        inputs = [fhat.copy(), g.values.copy(), f.values.copy(), x.copy()]
        calls = (lambda: bp.operators.synthesize(T, fhat),
                 lambda: bp.operators.analyze(T, g.values),
                 lambda: apply(T, f).values, lambda: adjoint_apply(T, g).values,
                 lambda: kernel_slice(T, x).values)
        for call in calls:
            first, second = call(), call()
            assert np.array_equal(first, second), sym.name
            assert not any(np.shares_memory(first, v) for v in (fhat, g.values, f.values))
        for have, kept in zip((fhat, g.values, f.values, x), inputs):
            assert np.array_equal(have, kept), sym.name
        for (a, b), (a0, b0) in zip(T._separable_factors(), tables):
            assert np.array_equal(a, a0) and np.array_equal(b, b0), sym.name


# ---------------------------------------------------------------------------
# dilation and conjugation


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
    # the conjugated symbol sigma(x/s, s xi), term by term
    dilated = make_symbol([(lambda x, a=a: a(x / s), lambda xi, b=b: b(s * xi))
                           for a, b in piece.separable_terms], 1, 1)
    tilde = quantize(dilated, big)
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
