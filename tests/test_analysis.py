"""Operator-norm estimation and the experiment layer.

The norm oracle densifies the operator column by column and takes the top
singular value, sharing no code with the Lanczos iteration under test.
"""

import json

import numpy as np
import pytest

import bipdo as bp
from bipdo import (DecompositionIndex, SampledField, adjoint_of,
                   adversarial_battery, apply, band_limited_battery,
                   bmo_experiment, builtin, commutator_check, compose,
                   derived_symbol, kernel_decay_experiment, l2_opnorm,
                   l2_uniformity_sweep, make_grid, make_symbol,
                   ortho_experiment, quantize, sharpness_scan, DyadicCube)
from bipdo import test_battery as standard_battery
from bipdo.analysis import fit_line


def dense_opnorm_oracle(T, grid):
    """Top singular value via explicit columns; independent of the iteration.

    ``T`` is a quantized operator or a map with a ``matvec``."""
    matvec = getattr(T, "matvec", None) or (lambda f: apply(T, f))
    cols = []
    for i in range(grid.size):
        e = np.zeros(grid.size, dtype=complex)
        e[i] = 1.0
        cols.append(matvec(SampledField(grid, e.reshape(grid.shape))).values.ravel())
    mat = np.stack(cols, axis=1)
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def rand_symbol(seed):
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(3):
        terms.append({
            "amp": float(rng.uniform(0.2, 1.0)),
            "xfreq": [int(rng.integers(-2, 3)), int(rng.integers(-2, 3))],
            "phase": float(rng.uniform(0, 2 * np.pi)),
            "orders": [float(rng.uniform(-1, 0)), float(rng.uniform(-1, 0))],
        })
    return builtin("separable", {"terms": terms})


# ---------------------------------------------------------------------------
# operator norm


def test_opnorm_matches_svd_oracle():
    grid = make_grid(1, 1, 8, 1.0)
    for seed in (0, 1, 2):
        T = quantize(rand_symbol(seed), grid)
        est = l2_opnorm(T, tol=1e-10, max_iter=2000)
        oracle = dense_opnorm_oracle(T, grid)
        assert est.converged
        assert est.value == pytest.approx(oracle, rel=1e-6)
        # Ritz values approach the top singular value from below
        assert est.value <= oracle * (1.0 + 1e-9)


def test_opnorm_multiplier_is_lattice_sup():
    grid = make_grid(1, 1, 16, 1.0)
    sym = builtin("multiplier_bessel", {"m": -1.0})
    est = l2_opnorm(quantize(sym, grid), tol=1e-10, max_iter=2000)
    fr = grid.freqs()
    sup = np.abs(sym.evaluator(np.zeros_like(fr), fr)).max()
    assert est.value == pytest.approx(float(sup), rel=1e-6)


def test_opnorm_multiplication_is_sup_of_coefficient():
    grid = make_grid(1, 1, 16, 1.0)

    def a_of(x):
        x = np.asarray(x, dtype=float)
        return 2.0 + np.cos(2 * np.pi * x[..., 0])

    sym = make_symbol(lambda x, xi: a_of(x).astype(complex), 1, 1)
    est = l2_opnorm(quantize(sym, grid), tol=1e-10, max_iter=5000)
    sup = a_of(grid.points()).max()
    assert est.value == pytest.approx(float(sup), rel=1e-5)


def test_opnorm_constant_is_closed_form():
    grid = make_grid(1, 1, 8, 1.0)
    est = l2_opnorm(quantize(builtin("constant", {"c": 2.0}), grid))
    assert est == bp.OpNormEstimate(2.0, 0, True, 0.0)


def test_opnorm_nonconstant_coefficient_iterates():
    # one separable term whose a-factor varies in x: not a Fourier multiplier
    grid = make_grid(1, 1, 8, 1.0)
    sym = builtin("separable", {"terms": [{"amp": 1.0, "xfreq": [1, 0],
                                           "orders": [-0.5, 0.0]}]})
    est = l2_opnorm(quantize(sym, grid), tol=1e-10, max_iter=2000)
    assert est.converged and est.iterations > 0


def ortho_piece_ops(grid, js):
    sym = builtin("oscillatory_exotic", {"m": 0.0, "rho": 0.5})
    return {j: quantize(derived_symbol(sym, DecompositionIndex(j=j), "annulus_j"), grid)
            for j in js}


def test_opnorm_converged_residual_within_tol():
    tol = 1e-8
    grid8 = make_grid(1, 1, 8, 1.0)
    maps = [quantize(rand_symbol(seed), grid8) for seed in (0, 1, 2)]
    maps.append(quantize(builtin("multiplier_bessel", {"m": -1.0}), grid8))
    grid16 = make_grid(1, 1, 16, 1.0)
    ops = ortho_piece_ops(grid16, (1, 2, 3))
    maps += [compose(adjoint_of(ops[j]), ops[k])
             for j, k in ((1, 1), (1, 2), (1, 3), (2, 3))]
    for T in maps:
        est = l2_opnorm(T, tol=tol, max_iter=2000)
        assert est.converged
        assert est.residual <= tol * est.value ** 2, est


def test_opnorm_ortho_cell_matches_svd_oracle():
    grid = make_grid(1, 1, 32, 1.0)
    ops = ortho_piece_ops(grid, (1, 3, 4))
    for j, k in ((1, 3), (3, 4)):
        comp = compose(adjoint_of(ops[j]), ops[k])
        est = l2_opnorm(comp, tol=1e-8, max_iter=2000)
        oracle = dense_opnorm_oracle(comp, grid)
        assert est.converged
        assert est.value == pytest.approx(oracle, rel=1e-9), (j, k)


def test_opnorm_zero_operator():
    grid = make_grid(1, 1, 8, 1.0)
    est = l2_opnorm(quantize(builtin("constant", {"c": 0.0}), grid))
    assert est.converged and est.value == 0.0


def test_opnorm_deterministic():
    grid = make_grid(1, 1, 8, 1.0)
    T = quantize(rand_symbol(7), grid)
    a = l2_opnorm(T)
    b = l2_opnorm(T)
    assert a.value == b.value and a.iterations == b.iterations


def test_fit_line_recovers_exact_line():
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    ys = -0.75 * xs + 2.0
    slope, intercept, r2 = fit_line(xs, ys)
    assert slope == pytest.approx(-0.75, abs=1e-12)
    assert intercept == pytest.approx(2.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# almost-orthogonality


def test_ortho_multiplier_compositions_vanish():
    grid = make_grid(1, 1, 32, 1.0)
    sym = builtin("multiplier_bessel", {"m": 0.0})
    rep = ortho_experiment(sym, [1, 2, 3, 4], grid)
    for (j, k), v in rep.entries.items():
        if abs(j - k) >= 2:
            assert v == 0.0, (j, k, v)
    # annuli at distance >= 2 have disjoint supports, so the closed-form
    # norm max |b_j b_k| is exactly zero; diagonals and neighbors stay positive
    assert rep.entries[(1, 1)] > 0.1


def test_ortho_diagonal_matches_opnorm_squared():
    grid = make_grid(1, 1, 16, 1.0)
    sym = builtin("multiplier_bessel", {"m": 0.0})
    rep = ortho_experiment(sym, [1, 2], grid, tol=1e-10, max_iter=5000)
    from bipdo import DecompositionIndex, derived_symbol
    for j in (1, 2):
        piece = derived_symbol(sym, DecompositionIndex(j=j), "annulus_j")
        norm = l2_opnorm(quantize(piece, grid), tol=1e-10, max_iter=5000).value
        assert rep.entries[(j, j)] == pytest.approx(norm ** 2, rel=1e-6)


def test_ortho_entries_symmetric_and_deterministic():
    grid = make_grid(1, 1, 16, 1.0)
    sym = builtin("oscillatory_exotic", {"m": 0.0, "rho": 0.5})
    a = ortho_experiment(sym, [1, 2, 3], grid, max_iter=800)
    b = ortho_experiment(sym, [1, 2, 3], grid, max_iter=800)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)
    for (j, k), v in a.entries.items():
        assert a.entries[(k, j)] == v


def test_ortho_parallel_matches_serial():
    grid = make_grid(1, 1, 16, 1.0)
    sym = builtin("oscillatory_exotic", {"m": 0.0, "rho": 0.5})
    serial = ortho_experiment(sym, [1, 2, 3], grid, max_workers=1)
    threaded = ortho_experiment(sym, [1, 2, 3], grid, max_workers=4)
    assert json.dumps(serial.to_dict(), sort_keys=True) == \
        json.dumps(threaded.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# kernel decay


def test_kernel_decay_zero_symbol_degenerate():
    grid = make_grid(1, 1, 16, 1.0)
    rep = kernel_decay_experiment(builtin("constant", {"c": 0.0}), 3,
                                  range(0, 3), [np.zeros(2)], grid)
    assert rep.verdict == "degenerate"
    assert all(v == 0.0 for v in rep.values)


def test_kernel_decay_monotone_for_product_symbol():
    grid = make_grid(1, 1, 32, 1.0)
    sym = builtin("multiplier_bessel", {"m": -0.5})
    rep = kernel_decay_experiment(sym, 4, range(0, 4), [np.zeros(2)], grid)
    assert rep.verdict == "ok"
    for a, b in zip(rep.values, rep.values[1:]):
        assert b <= a * (1.0 + 1e-9)
    assert rep.target_slope == -0.5


# ---------------------------------------------------------------------------
# uniformity and BMO sweeps


def test_uniformity_contraction_multiplier():
    sym = builtin("multiplier_bessel", {"m": -1.0})   # |sigma| <= 1
    rep = l2_uniformity_sweep(sym, [8, 16, 32])
    assert all(v <= 1.0 + 1e-6 for v in rep.ratios)
    assert rep.verdict == "PASS"


def test_uniformity_requires_increasing_n():
    sym = builtin("multiplier_bessel", {"m": -1.0})
    with pytest.raises(ValueError):
        l2_uniformity_sweep(sym, [16, 8, 32])


def test_bmo_zero_symbol_and_constant_field():
    zero = builtin("constant", {"c": 0.0})
    rep = bmo_experiment(zero, None, [8, 16])
    assert all(r == 0.0 for r in rep.ratios)

    grid = make_grid(1, 1, 16, 1.0)
    const = [SampledField(grid, np.ones(grid.shape, dtype=complex))]
    sym = builtin("multiplier_bessel", {"m": -0.5})
    rep2 = bmo_experiment(sym, lambda g: const if g == grid else
                          [SampledField(g, np.ones(g.shape, dtype=complex))],
                          [16])
    assert rep2.ratios[0] <= 1e-12


# ---------------------------------------------------------------------------
# batteries


def test_battery_composition_and_normalization():
    grid = make_grid(1, 1, 32, 1.0)
    fields = standard_battery(grid)
    assert len(fields) == 16
    for f in fields:
        assert np.abs(f.values).max() == pytest.approx(1.0, rel=1e-12)


def test_battery_is_resolution_stable():
    # every member is a fixed continuum function, so coarse-grid samples
    # coincide with the fine-grid samples at shared physical points
    coarse = standard_battery(make_grid(1, 1, 16, 1.0))
    fine = standard_battery(make_grid(1, 1, 32, 1.0))
    for fc, ff in zip(coarse, fine):
        sub = ff.values[::2, ::2]
        assert np.abs(fc.values - sub).max() <= 1e-12


def test_band_limited_battery_spectrum_and_norms():
    grid = make_grid(1, 1, 32, 1.0)
    kmax = 5
    fields = band_limited_battery(grid, kmax)
    idx = np.rint(np.fft.fftfreq(32) * 32).astype(int)
    k1, k2 = np.meshgrid(idx, idx, indexing="ij")
    outside = np.maximum(np.abs(k1), np.abs(k2)) > kmax
    for f in fields:
        spec = np.fft.fftn(f.values)
        assert np.abs(spec[outside]).max() <= 1e-10 * np.abs(spec).max()
        assert bp.lp_norm(f, 2) == pytest.approx(1.0, rel=1e-10)
    with pytest.raises(ValueError):
        band_limited_battery(grid, 16)     # beyond the lattice


def test_adversarial_battery_deterministic():
    grid = make_grid(1, 1, 16, 1.0)
    a = adversarial_battery(grid, 0.5)
    b = adversarial_battery(grid, 0.5)
    assert len(a) == len(b)
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.values, fb.values)
        assert np.abs(fa.values).max() > 0


# ---------------------------------------------------------------------------
# sharpness scan


def test_sharpness_p2_column_flips_above_zero():
    tab = sharpness_scan(0.5, [2.0], [-0.5, 0.5], [16, 32])
    assert not tab.growing[(-0.5, 2.0)]
    assert tab.growing[(0.5, 2.0)]
    assert tab.flip_m(2.0) == 0.5
    assert tab.monotone_in_m(2.0)


def test_sharpness_table_serializes():
    tab = sharpness_scan(0.5, [2.0], [0.0], [16, 32])
    doc = tab.to_dict()
    assert json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# commutator identity


def test_commutator_single_mode_battery():
    grid = make_grid(1, 1, 32, 1.0)
    pts = grid.points().reshape(grid.shape + (2,))
    mode = SampledField(grid, np.exp(2j * np.pi * (3 * pts[..., 0] - 2 * pts[..., 1])))
    sym = builtin("oscillatory_exotic", {"m": 0.0, "rho": 0.5})
    err = commutator_check(sym, DyadicCube((8, 8), 8), 0.5, [mode])
    assert err <= 1e-12


def test_commutator_rejects_full_band_battery():
    grid = make_grid(1, 1, 16, 1.0)
    rng = np.random.default_rng(0)
    noise = SampledField(grid, rng.choice([-1.0, 1.0], size=grid.shape).astype(complex))
    sym = builtin("multiplier_bessel", {"m": -0.5})
    with pytest.raises(ValueError, match="alias"):
        commutator_check(sym, DyadicCube((4, 4), 4), 0.5, [noise])
