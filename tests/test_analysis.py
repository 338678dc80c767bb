"""Operator-norm estimation and the experiment layer.

The norm oracle densifies the operator column by column and takes the top
singular value, sharing no code with the Lanczos iteration under test.
"""

import json
import math
import re

import numpy as np
import pytest

import bipdo as bp
from bipdo import (DecompositionIndex, SampledField, adjoint_product,
                   adversarial_battery, apply, band_limited_battery,
                   bmo_experiment, builtin, commutator_check,
                   derived_symbol, kernel_decay_experiment, l2_opnorm,
                   l2_uniformity_sweep, make_grid, make_symbol,
                   mollifier_lambda, ortho_experiment, quantize,
                   sharpness_scan, DyadicCube)
from bipdo import test_battery as standard_battery
from bipdo.analysis import (OPNORM_SEED, LinearFieldMap, _as_map, _battery_max,
                            _exotic_orders, _ritz_screen, fit_line)
from bipdo.cli import _sharpness_flips
from helpers import count_ffts, dense_opnorm_oracle, ones, rand_field, rand_separable


# ---------------------------------------------------------------------------
# operator norm


def test_opnorm_matches_svd_oracle():
    grid = make_grid(1, 1, 8, 1.0)
    for seed in (0, 1, 2):
        T = quantize(rand_separable(seed), grid)
        est = l2_opnorm(T, tol=1e-10, max_iter=2000)
        oracle = dense_opnorm_oracle(T, grid)
        assert est.converged
        assert est.value == pytest.approx(oracle, rel=1e-6)
        # Ritz values approach the top singular value from below
        assert est.value <= oracle * (1.0 + 1e-9)


def test_opnorm_multiplier_is_lattice_sup():
    # the closed form, with no iteration, whichever path evaluates T
    grid = make_grid(1, 1, 16, 1.0)
    sym = builtin("multiplier_bessel", {"m": -1.0})
    fr = grid.freqs()
    sup = float(np.abs(sym.evaluator(np.zeros_like(fr), fr)).max())
    for path in ("dense", "separable"):
        est = l2_opnorm(quantize(sym, grid, path), tol=1e-10, max_iter=2000)
        assert est == bp.OpNormEstimate(sup, 0, True, 0.0), path


def test_opnorm_multiplication_is_sup_of_coefficient():
    grid = make_grid(1, 1, 16, 1.0)

    def a_of(x):
        x = np.asarray(x, dtype=float)
        return 2.0 + np.cos(2 * np.pi * x[..., 0])

    sym = make_symbol([(a_of, ones)], 1, 1)
    sup = a_of(grid.points()).max()
    for path in ("dense", "separable"):
        est = l2_opnorm(quantize(sym, grid, path), tol=1e-10, max_iter=5000)
        assert est.value == pytest.approx(float(sup), rel=1e-5), path


def test_opnorm_constant_is_closed_form():
    grid = make_grid(1, 1, 8, 1.0)
    est = l2_opnorm(quantize(builtin("constant", {"c": 2.0}), grid))
    assert est == bp.OpNormEstimate(2.0, 0, True, 0.0)


@pytest.mark.parametrize("tol,max_iter", [(np.inf, 50), (np.nan, 50), (0.0, 50),
                                          (-1e-8, 50), (1e-8, 0), (1e-8, -1)])
def test_opnorm_rejects_bad_solver_settings(tol, max_iter):
    # each would give a wrong or empty estimate; refused before any table
    grid = make_grid(1, 1, 8, 1.0)
    T = quantize(builtin("oscillatory_exotic", {"m": 0.0, "rho": 0.5}), grid)
    with pytest.raises(ValueError, match="tol must be|max_iter must be"):
        l2_opnorm(T, tol=tol, max_iter=max_iter)
    assert T._factors is None


def test_opnorm_nonconstant_coefficient_iterates():
    # one separable term whose a-factor varies in x: not a Fourier multiplier
    grid = make_grid(1, 1, 8, 1.0)
    sym = builtin("separable", {"terms": [{"amp": 1.0, "xfreq": [1, 0],
                                           "orders": [-0.5, 0.0]}]})
    est = l2_opnorm(quantize(sym, grid), tol=1e-10, max_iter=2000)
    assert est.converged and est.iterations > 0


def ortho_cells(sym, grid, js):
    """The products T_j* T_k (j <= k) of ``sym``'s annulus pieces."""
    ops = {j: quantize(derived_symbol(sym, DecompositionIndex(j=j), "annulus_j"), grid)
           for j in js}
    return {(j, k): adjoint_product(ops[j], ops[k])
            for j in js for k in js if j <= k}


EXOTIC = builtin("oscillatory_exotic", {"m": 0.0, "rho": 0.5})


def test_opnorm_converged_residual_within_tol():
    tol = 1e-8
    grid8 = make_grid(1, 1, 8, 1.0)
    maps = [quantize(rand_separable(seed), grid8) for seed in (0, 1, 2)]
    maps.append(quantize(builtin("multiplier_bessel", {"m": -1.0}), grid8))
    cells = ortho_cells(EXOTIC, make_grid(1, 1, 16, 1.0), (1, 2, 3))
    maps += [cells[jk] for jk in ((1, 1), (1, 2), (1, 3), (2, 3))]
    for T in maps:
        est = l2_opnorm(T, tol=tol, max_iter=2000)
        assert est.converged
        assert est.residual <= tol * est.value ** 2, est


def test_opnorm_ortho_cell_matches_svd_oracle():
    grid = make_grid(1, 1, 32, 1.0)
    cells = ortho_cells(EXOTIC, grid, (1, 3, 4))
    for j, k in ((1, 3), (3, 4)):
        comp = cells[(j, k)]
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
    T = quantize(rand_separable(7), grid)
    a = l2_opnorm(T)
    b = l2_opnorm(T)
    assert a.value == b.value and a.iterations == b.iterations


def per_step_opnorm(T, tol, max_iter):
    """The Lanczos loop of ``l2_opnorm`` with eigh at every step."""
    A = _as_map(T)
    if A.multiplier is not None:
        return bp.OpNormEstimate(float(np.max(np.abs(A.multiplier))), 0, True, 0.0)
    rng = np.random.default_rng(OPNORM_SEED)
    v = rng.standard_normal(A.grid.shape) + 1j * rng.standard_normal(A.grid.shape)
    v = np.fft.fftn(v)
    v /= np.linalg.norm(v)
    v_prev = np.zeros_like(v)
    alphas, betas = [], []
    beta = 0.0
    theta = residual = 0.0
    for it in range(1, max_iter + 1):
        Tv = A.matvec(v)
        w = A.rmatvec(Tv)
        alpha = np.vdot(v, w).real
        linearity_defect = abs(alpha - np.vdot(Tv, Tv).real)
        w = w - alpha * v - beta * v_prev
        alphas.append(alpha)
        beta = float(np.linalg.norm(w))
        ritz, vecs = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1)
                                    + np.diag(betas, -1))
        theta = max(float(ritz[-1]), 0.0)
        residual = beta * abs(float(vecs[-1, -1]))
        if residual <= tol * theta or linearity_defect > tol * theta:
            return bp.OpNormEstimate(math.sqrt(theta), it, True, residual)
        betas.append(beta)
        v_prev, v = v, w / beta
    return bp.OpNormEstimate(math.sqrt(theta), max_iter, False, residual)


def test_opnorm_matches_a_literal_per_step_loop():
    # the Ritz screen only decides when eigh may be skipped: every estimate
    # equals the per-step loop's bit for bit (dataclass equality on floats)
    grid32 = make_grid(1, 1, 32, 1.0)
    cases = []
    for sym in (EXOTIC, builtin("modulated_bessel", {"m": 0.0})):
        for T in ortho_cells(sym, grid32, (1, 2, 3, 4)).values():
            cases += [(T, 1e-8, 2000), (T, 1e-12, 2000)]
    # capped at 7 steps, the last cell returns unconverged
    cases.append((cases[-1][0], 1e-8, 7))
    zero = LinearFieldMap(grid32, matvec=lambda v: 0 * v, rmatvec=lambda u: 0 * u)
    cases.append((zero, 1e-8, 2000))
    grid8 = make_grid(1, 1, 8, 1.0)
    for seed in range(6):
        T = quantize(rand_separable(seed), grid8)
        # tol 1e-16 is below roundoff: most of these stop on the defect
        cases += [(T, 1e-10, 2000), (T, 1e-16, 2000)]
    # on three axes sqrt(N^n) is not a power of two, so the DFT scaling rounds
    grid3 = make_grid(2, 1, 8, 1.0)
    T3 = quantize(rand_separable(3, n1=2), grid3)
    cases.append((T3, 1e-10, 2000))
    est3 = l2_opnorm(T3, 1e-10, 2000)
    assert est3.converged and est3.iterations > 0
    assert est3.value == pytest.approx(dense_opnorm_oracle(T3, grid3), rel=1e-9)
    stops = {"cap": 0, "defect": 0}
    for T, tol, max_iter in cases:
        est = l2_opnorm(T, tol, max_iter)
        assert est == per_step_opnorm(T, tol, max_iter), (tol, max_iter)
        if not est.converged:
            stops["cap"] += 1
        elif est.residual > tol * est.value ** 2:
            stops["defect"] += 1
    # the cases reach both stops the screen must never skip: the cap, and the
    # defect (the (1,4) cells, whose disjoint supports leave a roundoff norm,
    # and the tol 1e-16 maps, which stop on it at steps 2 and 3)
    assert stops["cap"] == 1 and stops["defect"] >= 8


def test_opnorm_calls_eigh_on_few_steps(monkeypatch):
    # eigh costs O(k^3) at step k; the screen keeps it off most steps
    T = ortho_cells(EXOTIC, make_grid(1, 1, 32, 1.0), (3, 4))[(3, 4)]
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(len(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    est = l2_opnorm(T, tol=1e-8, max_iter=2000)
    assert est.converged and est.iterations > 40
    assert calls[0] == 1 and calls[-1] == est.iterations
    assert len(calls) <= est.iterations // 4, calls


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("side", ["matvec", "rmatvec"])
def test_opnorm_rejects_non_finite_maps(side, bad):
    # a map that leaves the finite numbers stops the loop with a ValueError,
    # not a NaN estimate
    grid = make_grid(1, 1, 8, 1.0)
    maps = {"matvec": lambda v: v, "rmatvec": lambda u: u}
    maps[side] = lambda v: np.full_like(v, bad)
    with pytest.raises(ValueError, match="finite"):
        l2_opnorm(LinearFieldMap(grid, **maps), tol=1e-8, max_iter=50)


def test_product_map_step_costs_four_ffts(monkeypatch):
    # one fftn for the start, then K_S + K_T FFTs each way per step: the
    # composition of apply and adjoint_apply would make 8 per step
    grid = make_grid(1, 1, 32, 1.0)
    P = ortho_cells(EXOTIC, grid, (2, 3))[(2, 3)]
    calls = count_ffts(monkeypatch)
    est = l2_opnorm(P, tol=1e-8, max_iter=2000)
    assert est.converged and est.iterations > 10
    assert len(calls) == 1 + 4 * est.iterations


def test_lone_map_step_costs_two_ffts_per_term(monkeypatch):
    # one fftn for the start, then K FFTs each way per step for K terms, and
    # no field wraps: apply and adjoint_apply would make 2K + 2 and four
    cases = [quantize(EXOTIC, make_grid(1, 1, 32, 1.0)),
             quantize(rand_separable(0), make_grid(1, 1, 16, 1.0))]
    calls = count_ffts(monkeypatch)
    wraps = []
    post_init = SampledField.__post_init__

    def counted(self):
        wraps.append(1)
        post_init(self)

    monkeypatch.setattr(SampledField, "__post_init__", counted)
    for T, K in zip(cases, (1, 3)):
        assert len(T.symbol.separable_terms) == K
        calls.clear()
        est = l2_opnorm(T, tol=1e-8, max_iter=2000)
        assert est.converged and est.iterations > 10, K
        assert len(calls) == 1 + 2 * K * est.iterations, K
    assert wraps == []


def test_adjoint_product_is_an_adjoint_pair():
    # the map is fft S* T ifft, and its rmatvec is its Euclidean adjoint
    for grid in (make_grid(1, 1, 8, 1.0), make_grid(2, 1, 4, 1.0)):
        for seed in range(4):
            S = quantize(rand_separable(400 + seed, n1=grid.n1), grid)
            T = quantize(rand_separable(500 + seed, n1=grid.n1), grid)
            P = adjoint_product(S, T)
            f, g = rand_field(grid, seed).values, rand_field(grid, 60 + seed).values
            u, v = np.fft.fftn(g), np.fft.fftn(f)
            lhs = np.vdot(u, P.matvec(v))
            rhs = np.vdot(P.rmatvec(u), v)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs), (grid.n, seed)
            want = bp.adjoint_apply(S, apply(T, SampledField(grid, f))).values
            got = np.fft.ifftn(P.matvec(v))
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (grid.n, seed)


def lanczos_tridiagonal(rng, k, n=400):
    """Lanczos coefficients of k steps on a random positive diagonal matrix."""
    spectrum = rng.uniform(0.0, 1.0, n)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    v_prev, beta = np.zeros(n), 0.0
    alphas, betas = [], []
    for _ in range(k):
        w = spectrum * v
        alpha = v @ w
        w = w - alpha * v - beta * v_prev
        beta = np.linalg.norm(w)
        alphas.append(alpha)
        betas.append(beta)
        v_prev, v = v, w / beta
    return np.array(alphas), np.array(betas[:-1])


def test_ritz_screen_bounds_the_top_pair():
    rng = np.random.default_rng(19)
    screened = 0
    for trial in range(300):
        k = int(rng.integers(2, 201))
        if trial % 2:
            alphas, betas = lanczos_tridiagonal(rng, k)
        else:
            alphas = rng.uniform(0.0, 1.0, k)
            betas = rng.uniform(0.0, 1.0, k - 1)
        if trial % 3 == 1:
            # theta_k nearly equals theta_{k-1}, as when Lanczos has converged
            betas[-1] = 10.0 ** -rng.integers(4, 15)
        head = np.linalg.eigh(np.diag(alphas[:-1]) + np.diag(betas[:-1], 1)
                              + np.diag(betas[:-1], -1))
        prev_theta = head[0][-1]
        ritz, vecs = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1)
                                    + np.diag(betas, -1))
        theta, s = ritz[-1], abs(vecs[-1, -1])
        r = betas[-1] * abs(head[1][-1, -1])
        rayleigh = 0.5 * (prev_theta + alphas[-1]) + math.hypot(
            0.5 * (prev_theta - alphas[-1]), r)
        alphas, betas = alphas.tolist(), betas.tolist()
        # Newton from left of theta_{k-1} could find a lower root
        assert _ritz_screen(alphas, betas, prev_theta - 0.05) is None, trial
        pair = _ritz_screen(alphas, betas, rayleigh)
        if pair is not None:
            lo, hi, s_lo = pair
            assert lo <= theta * (1 + 1e-14), (trial, lo, theta)
            assert hi >= theta * (1 - 1e-14), (trial, hi, theta)
            assert s_lo <= s * (1 + 1e-12), (trial, s_lo, s)
            screened += 1
    assert screened >= 80
    # at scale 1e-200 a pivot near rounding squares to below the float range
    alphas, betas = [1e-200, 0.5e-200, 0.8e-200, 0.3e-200], [0.4e-200, 0.2e-200, 0.1e-200]
    top = np.linalg.eigvalsh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))[-1]
    for x in np.linspace(0.5e-200, 1.3e-200, 2001):
        pair = _ritz_screen(alphas, betas, float(x))
        assert pair is None or pair[0] <= top * (1 + 1e-14) <= pair[1] * (1 + 2e-14)


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
    entries = {(j, k): v for j, k, v in rep["entries"]}
    for (j, k), v in entries.items():
        if abs(j - k) >= 2:
            assert v == 0.0, (j, k, v)
    # annuli at distance >= 2 have disjoint supports, so the closed-form
    # norm max |b_j b_k| is exactly zero; diagonals and neighbors stay positive
    assert entries[(1, 1)] > 0.1


def test_ortho_without_a_far_pair_has_no_fit():
    # j_range [1, 2] holds no pair with gap >= 2, so nothing enters the fit
    grid = make_grid(1, 1, 16, 1.0)
    rep = ortho_experiment(builtin("oscillatory_exotic", {"m": 0.0, "rho": 0.5}),
                           [1, 2], grid)
    assert math.isnan(rep["fitted_epsilon"]) and math.isnan(rep["fitted_A"])


def test_ortho_entries_of_a_one_term_symbol_do_not_see_rho():
    # T_j = a |psi_j b|(D) u(D) with u = e^{i phase} unimodular, so
    # |T_j* T_k| = |P_j |a|^2 P_k| does not depend on the phase, hence not on
    # rho: c5's epsilon measures cutoff overlap and x-bandwidth, not the class
    # (entries at the report's zero floor are roundoff and stay there)
    grid = make_grid(1, 1, 32, 1.0)

    def entries(rho):
        sym = builtin("oscillatory_exotic", {"m": 0.0, "rho": rho})
        rep = ortho_experiment(sym, [1, 2, 3, 4], grid, max_iter=2000)
        return {(j, k): v if v > rep["zero_floor"] else 0.0 for j, k, v in rep["entries"]}
    want = entries(0.5)
    assert sum(v > 0.0 for v in want.values()) == 14
    for rho in (0.25, 0.75):
        got = entries(rho)
        assert got.keys() == want.keys()
        for jk, w in want.items():
            assert got[jk] == pytest.approx(w, rel=1e-10, abs=0.0), (rho, jk)


@pytest.mark.parametrize("m", [-0.5, 0.0, 0.5])
def test_l2_norm_of_a_one_term_symbol_is_that_of_its_modulus(m):
    # the same identity for c7: |a b(D)| = |a |b|(D)|, so the norm of
    # oscillatory_exotic is that of its a-factor times |b|, at every rho
    grid = make_grid(1, 1, 32, 1.0)
    sym = builtin("oscillatory_exotic", {"m": m, "rho": 0.5})
    ((a, b),) = sym.separable_terms
    modulus = make_symbol([(a, lambda xi: np.abs(b(xi)))], 1, 1)
    got, want = (l2_opnorm(quantize(s, grid), max_iter=2000) for s in (sym, modulus))
    assert got.converged and want.converged
    assert got.value == pytest.approx(want.value, rel=1e-14, abs=0.0)


def test_ortho_diagonal_matches_opnorm_squared():
    grid = make_grid(1, 1, 16, 1.0)
    sym = builtin("multiplier_bessel", {"m": 0.0})
    rep = ortho_experiment(sym, [1, 2], grid, tol=1e-10, max_iter=5000)
    diagonal = {j: v for j, k, v in rep["entries"] if j == k}
    for j in (1, 2):
        piece = derived_symbol(sym, DecompositionIndex(j=j), "annulus_j")
        norm = l2_opnorm(quantize(piece, grid), tol=1e-10, max_iter=5000).value
        assert diagonal[j] == pytest.approx(norm ** 2, rel=1e-6)


def test_ortho_entries_symmetric_and_deterministic():
    grid = make_grid(1, 1, 16, 1.0)
    sym = builtin("oscillatory_exotic", {"m": 0.0, "rho": 0.5})
    a = ortho_experiment(sym, [1, 2, 3], grid, max_iter=800)
    b = ortho_experiment(sym, [1, 2, 3], grid, max_iter=800)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    entries = {(j, k): v for j, k, v in a["entries"]}
    for (j, k), v in entries.items():
        assert entries[(k, j)] == v


# ---------------------------------------------------------------------------
# kernel decay


def test_kernel_decay_zero_symbol_degenerate():
    grid = make_grid(1, 1, 16, 1.0)
    rep = kernel_decay_experiment(builtin("constant", {"c": 0.0}), 3,
                                  range(0, 3), [np.zeros(2)], grid)
    assert rep["verdict"] == "degenerate"
    assert all(v == 0.0 for v in rep["values"])


def test_kernel_decay_rejects_empty_or_misshapen_x_samples(monkeypatch):
    # refused before any piece is quantized
    grid = make_grid(1, 1, 16, 1.0)
    sym = builtin("multiplier_bessel", {"m": -0.5})

    def no_quantize(*args):
        raise AssertionError("a piece was quantized")

    monkeypatch.setattr(bp.analysis, "quantize", no_quantize)
    for xs in (np.empty((0, 2)), [], np.zeros((2, 3)), np.zeros((1, 2, 2))):
        with pytest.raises(ValueError, match=re.escape(
                f"x_samples must be a point of 2 coordinates or a non-empty list of "
                f"them, got shape {np.shape(xs)}")):
            kernel_decay_experiment(sym, 3, range(0, 3), xs, grid)


def test_kernel_decay_reads_x_samples_not_coerced(monkeypatch):
    # a string or a bool is not a coordinate: ["0", "0"] is not the origin
    grid = make_grid(1, 1, 16, 1.0)
    sym = builtin("multiplier_bessel", {"m": -0.5})
    monkeypatch.setattr(bp.analysis, "quantize", None)
    for xs, shown in (([["0", "0"]], "['0', '0']"), ([[True, 0.0]], "[True, 0.0]"),
                      ([[0.0, np.nan]], "[0.0, nan]"),
                      ([[0.0, 0.0], [1, "x"]], "[1, 'x']")):
        with pytest.raises(ValueError, match=re.escape(
                f"x_samples must have finite real coordinates, got {shown}")):
            kernel_decay_experiment(sym, 3, range(0, 3), xs, grid)


def test_kernel_decay_names_a_row_of_another_length(monkeypatch):
    # a ragged list of rows is refused by its first row of another length,
    # before any piece is quantized
    grid = make_grid(1, 1, 16, 1.0)
    sym = builtin("multiplier_bessel", {"m": -0.5})
    monkeypatch.setattr(bp.analysis, "quantize", None)
    for xs, row in (([[0.0, 0.0], [1.0]], "row 1 has 1 coordinate"),
                    ([[0.0, 0.0], [1.0], [2.0, 3.0]], "row 1 has 1 coordinate"),
                    ([[0.0, 0.0, 0.0], (1.0, 2.0)], "row 0 has 3 coordinates"),
                    ([[0.0, 0.0], np.zeros(3), [1.0, 2.0]], "row 1 has 3 coordinates"),
                    ([[0.0, 0.0], []], "row 1 has 0 coordinates")):
        with pytest.raises(ValueError, match=re.escape(f"x_samples {row}, expected 2")):
            kernel_decay_experiment(sym, 3, range(0, 3), xs, grid)


@pytest.mark.parametrize("name,params,per_ell", [
    ("multiplier_bessel", {"m": -0.5}, 1),
    ("oscillatory_exotic", {"m": 0.0, "rho": 0.5, "xmod": 0.75}, 5),
])
def test_kernel_decay_slices_each_distinct_sample_once(monkeypatch, name, params,
                                                       per_ell):
    # samples with equal a-factor values give one slice: one per ell for a
    # multiplier, one per sample and ell when the symbol varies in x; the
    # values are the sup over every sample, bit for bit
    grid = make_grid(1, 1, 16, 1.0)
    sym = builtin(name, params)
    xs = np.random.default_rng(4).uniform(0.0, 1.0, size=(5, 2))
    want = []
    for ell in range(3):
        T = quantize(derived_symbol(sym, DecompositionIndex(j=3, ell=ell, ell_max=4),
                                    "cone_lj"), grid)
        want.append(max(bp.kernel_l1(T, x) for x in xs))
    calls = []
    slice_ = bp.operators.kernel_slice
    monkeypatch.setattr(bp.operators, "kernel_slice",
                        lambda T, x: calls.append(x) or slice_(T, x))
    rep = kernel_decay_experiment(sym, 3, range(3), xs, grid, ell_max=4)
    assert len(calls) == 3 * per_ell
    assert rep["values"] == want


def test_kernel_decay_monotone_for_product_symbol():
    grid = make_grid(1, 1, 32, 1.0)
    sym = builtin("multiplier_bessel", {"m": -0.5})
    rep = kernel_decay_experiment(sym, 4, range(0, 4), [np.zeros(2)], grid)
    assert rep["verdict"] == "ok"
    for a, b in zip(rep["values"], rep["values"][1:]):
        assert b <= a * (1.0 + 1e-9)
    assert rep["target_slope"] == -0.5


# ---------------------------------------------------------------------------
# uniformity and BMO sweeps


def test_uniformity_contraction_multiplier():
    sym = builtin("multiplier_bessel", {"m": -1.0})   # |sigma| <= 1
    rep = l2_uniformity_sweep(sym, [8, 16, 32])
    assert all(v <= 1.0 + 1e-6 for v in rep["ratios"])
    assert rep["verdict"] == "PASS"


def test_uniformity_zero_symbol_has_no_growth_fit():
    rep = l2_uniformity_sweep(builtin("constant", {"c": 0.0}), [8, 16, 32])
    assert rep["ratios"] == [0.0, 0.0, 0.0]
    assert math.isnan(rep["growth_exponent"])
    assert rep["variation"] == 0.0 and rep["verdict"] == "PASS"


def test_uniformity_requires_increasing_n():
    sym = builtin("multiplier_bessel", {"m": -1.0})
    sweeps = (lambda Ns: l2_uniformity_sweep(sym, Ns),
              lambda Ns: bmo_experiment(sym, Ns),
              lambda Ns: sharpness_scan(0.5, [2.0], [0.0], Ns))
    for sweep in sweeps:
        for Ns in ([16, 8, 32], [8, 8, 16], [8]):
            with pytest.raises(ValueError):
                sweep(Ns)


def test_library_ranges_are_read_not_coerced():
    # a fractional size or index, or a non-number order, is an error naming
    # its key; ranges, tuples and numpy numbers are read as they are
    sym = builtin("multiplier_bessel", {"m": -1.0})
    grid = make_grid(1, 1, 16, 1.0)
    bad = [(lambda: l2_uniformity_sweep(sym, [8.7, 16.2]), "N_list"),
           (lambda: bmo_experiment(sym, [8.7, 16.2]), "N_list"),
           (lambda: ortho_experiment(sym, [1.5, 2.9], grid), "j_range"),
           (lambda: kernel_decay_experiment(sym, 3, [0.5, 1.5], [np.zeros(2)], grid),
            "ell_range"),
           (lambda: sharpness_scan(0.5, [2.0], ["0.5"], [8, 16]), "m_grid"),
           # repeated or decreasing ranges
           (lambda: ortho_experiment(sym, [2, 1, 2], grid), "j_range"),
           (lambda: ortho_experiment(sym, [2, 1], grid), "j_range"),
           (lambda: kernel_decay_experiment(sym, 3, [1, 1], [np.zeros(2)], grid),
            "ell_range"),
           (lambda: kernel_decay_experiment(sym, 3, [2, 1], [np.zeros(2)], grid),
            "ell_range"),
           (lambda: sharpness_scan(0.5, [2.0], [0.0, 0.0, -0.5], [8, 16]), "m_grid"),
           (lambda: sharpness_scan(0.5, [2.0], [0.5, 0.0], [8, 16]), "m_grid"),
           # solver settings and grid arguments that are not numbers of their kind
           (lambda: l2_opnorm(quantize(sym, grid), tol="x"), "tol"),
           (lambda: l2_opnorm(quantize(sym, grid), max_iter=2.5), "max_iter"),
           (lambda: make_grid(True, 1, 8, 1.0), "n1"),
           (lambda: make_grid(1, 1, 8, True), "period"),
           (lambda: make_grid(1, 1, 8, 10 ** 400), "period")]
    for call, key in bad:
        with pytest.raises(ValueError, match=key):
            call()
    assert ortho_experiment(sym, range(1, 3), grid)["js"] == [1, 2]
    assert ortho_experiment(sym, (np.int64(1), np.int64(2)), grid)["js"] == [1, 2]
    assert l2_uniformity_sweep(sym, (np.int64(8), 16))["n_values"] == [8, 16]
    assert kernel_decay_experiment(sym, 3, range(2), [np.zeros(2)], grid)["ells"] == [0, 1]
    tab = sharpness_scan(0.5, [2.0], (np.float64(0.0),), range(8, 24, 8))
    assert tab["ms"] == [0.0] and tab["n_values"] == [8, 16]
    assert all(type(v) is int for v in tab["n_values"])


def test_kernel_decay_checks_every_cone_index_before_slicing(monkeypatch):
    # ell = 5 exceeds ell_max = 4: refused before ell = 0 and 1 are sliced
    calls = []
    kernel_slice = bp.operators.kernel_slice
    monkeypatch.setattr(bp.operators, "kernel_slice",
                        lambda T, x: calls.append(x) or kernel_slice(T, x))
    sym = builtin("multiplier_bessel", {"m": -1.0})
    grid = make_grid(1, 1, 16, 1.0)
    with pytest.raises(ValueError, match="exceeds ell_max"):
        kernel_decay_experiment(sym, 3, [0, 1, 5], [np.zeros(2)], grid, ell_max=4)
    assert calls == []
    kernel_decay_experiment(sym, 3, [0, 1], [np.zeros(2)], grid, ell_max=4)
    assert len(calls) == 2


def test_bmo_ratios_match_a_literal_loop():
    sym = builtin("modulated_bessel", {"m": -0.5})
    rep = bmo_experiment(sym, [16, 32])
    expect = []
    for N in (16, 32):
        grid = make_grid(1, 1, N, 1.0)
        T = quantize(sym, grid)
        ratios = []
        for f in standard_battery(grid):
            ratios.append(bp.bmo_norm(apply(T, f)) / bp.lp_norm(f, np.inf))
        expect.append(max(ratios))
    assert rep["ratios"] == expect


def _literal_bmo_ratios(T, battery):
    return [bp.bmo_norm(apply(T, f)) / bp.lp_norm(f, np.inf) for f in battery]


@pytest.mark.parametrize("symbol", ["multiplier_bessel", "modulated_bessel"])
def test_bmo_battery_max_is_floor_free_in_any_order(symbol):
    # the winning field scanned first, so every later scan starts from the
    # maximum, and scanned last, so it must beat every earlier floor
    sym = builtin(symbol, {"m": -0.5})
    for N in (16, 32):
        grid = make_grid(1, 1, N, 1.0)
        T = quantize(sym, grid)
        battery = standard_battery(grid)
        ratios = _literal_bmo_ratios(T, battery)
        win = ratios.index(max(ratios))
        rest = battery[:win] + battery[win + 1:]
        for order in (battery, battery[::-1], [battery[win]] + rest,
                      rest + [battery[win]]):
            assert _battery_max(order, [math.inf])(T) == {math.inf: max(ratios)}


@pytest.mark.parametrize("symbol", ["multiplier_bessel", "modulated_bessel"])
def test_bmo_battery_max_prunes_with_the_running_best(monkeypatch, symbol):
    # counts cubes, not seconds: the battery max must evaluate at most a
    # quarter of the cubes that the floor-free loop evaluates
    cube_sums, evaluated = bp.grid._cube_sums, [0]

    def counted(windows, anchors):
        evaluated[0] += len(anchors)
        return cube_sums(windows, anchors)
    monkeypatch.setattr(bp.grid, "_cube_sums", counted)
    grid = make_grid(1, 1, 32, 1.0)
    T = quantize(builtin(symbol, {"m": -0.5}), grid)
    battery = standard_battery(grid)
    expect = max(_literal_bmo_ratios(T, battery))
    floor_free, evaluated[0] = evaluated[0], 0
    assert _battery_max(battery, [math.inf])(T) == {math.inf: expect}
    assert 0 < 4 * evaluated[0] <= floor_free, (evaluated[0], floor_free)


def test_battery_max_rejects_an_operator_on_another_grid():
    # same N, another period: the images would be formed from the battery's
    # transforms on the wrong lattice and give wrong ratios without a word
    battery = standard_battery(make_grid(1, 1, 16, 1.0))
    T = quantize(builtin("modulated_bessel", {"m": -0.5}), make_grid(1, 1, 16, 2.0))
    with pytest.raises(ValueError, match="does not match"):
        _battery_max(battery, [2.0])(T)


def test_bmo_zero_symbol_and_constant_field():
    zero = builtin("constant", {"c": 0.0})
    rep = bmo_experiment(zero, [8, 16])
    assert all(r == 0.0 for r in rep["ratios"])

    grid = make_grid(1, 1, 16, 1.0)
    const = SampledField(grid, np.ones(grid.shape, dtype=complex))
    T = quantize(builtin("multiplier_bessel", {"m": -0.5}), grid)
    assert bp.bmo_norm(apply(T, const)) <= 1e-12


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
    # (2, 1, 16, 1.3): the mask on three axes and a non-dyadic period
    for n1, n2, N, period in ((1, 1, 32, 1.0), (2, 1, 16, 1.3)):
        grid = make_grid(n1, n2, N, period)
        kmax = 5
        fields = band_limited_battery(grid, kmax)
        idx = np.rint(np.fft.fftfreq(N) * N).astype(int)
        ks = np.meshgrid(*([idx] * grid.n), indexing="ij")
        outside = np.max(np.abs(ks), axis=0) > kmax
        for f in fields:
            spec = np.fft.fftn(f.values)
            assert np.abs(spec[outside]).max() <= 1e-10 * np.abs(spec).max()
            assert bp.lp_norm(f, 2) == pytest.approx(1.0, rel=1e-10)
        with pytest.raises(ValueError):
            band_limited_battery(grid, N // 2)     # beyond the lattice


def test_adversarial_battery_deterministic():
    grid = make_grid(1, 1, 16, 1.0)
    a = adversarial_battery(grid, 0.5)
    b = adversarial_battery(grid, 0.5)
    assert len(a) == len(b) == 7
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.values, fb.values)
        assert np.abs(fa.values).max() > 0


@pytest.mark.parametrize("n1,n2,N", [(1, 1, 32), (1, 1, 64), (2, 1, 16)])
@pytest.mark.parametrize("rho", [0.25, 0.5, 0.75])
def test_adversarial_chirp_cancels_the_symbol_phase(rho, n1, n2, N):
    # the first chirp is ifftn(env e^{-i phase}): the pure multiplier
    # chi e^{i phase} (xmod 0, m 0) maps it to ifftn(chi env), with env and
    # chi written here from varphi
    grid = make_grid(n1, n2, N, 1.0)
    chirp = adversarial_battery(grid, rho)[3]
    sym = builtin("oscillatory_exotic", {"m": 0.0, "rho": rho, "xmod": 0.0},
                  n1=n1, n2=n2)
    r = np.sqrt(np.sum(grid.freqs() ** 2, axis=-1))
    env = bp.varphi(2.0 * r / r.max()) - bp.varphi(16.0 * r / r.max())
    want = np.fft.ifftn(((1.0 - bp.varphi(r)) * env).reshape(grid.shape))
    got = apply(quantize(sym, grid), chirp).values
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


# ---------------------------------------------------------------------------
# sharpness scan


def test_sharpness_p2_column_flips_above_zero():
    tab = sharpness_scan(0.5, [2.0], [-0.5, 0.5], [16, 32])
    assert [(c["m"], c["p"], c["growing"]) for c in tab["cells"]] == \
        [(-0.5, 2.0, False), (0.5, 2.0, True)]
    assert _sharpness_flips(tab) == ({2.0: 0.5}, True)


def _literal_sharpness_ratios(ps, ms, Ns):
    """{(m, p): [max battery ratio per N]}, one field and exponent at a time."""
    expect = {}
    for m in ms:
        sym = builtin("oscillatory_exotic", {"m": m, "rho": 0.5})
        for N in Ns:
            grid = make_grid(1, 1, N, 1.0)
            T = quantize(sym, grid)
            ratios = {p: [] for p in ps}
            for f in adversarial_battery(grid, 0.5):
                Tf = apply(T, f)
                for p in ps:
                    if np.isinf(p):
                        ratios[p].append(bp.bmo_norm(Tf) / bp.lp_norm(f, p))
                    else:
                        ratios[p].append(bp.lp_norm(Tf, p) / bp.lp_norm(f, p))
            for p in ps:
                expect.setdefault((m, p), []).append(max(ratios[p]))
    return expect


def test_sharpness_ratios_match_a_literal_loop():
    ps, ms, Ns = [4 / 3, 2.0, np.inf], [-0.5, 0.0], [16, 32]
    tab = sharpness_scan(0.5, ps, ms, Ns)
    assert ({(c["m"], c["p"]): c["ratios"] for c in tab["cells"]}
            == _literal_sharpness_ratios(ps, ms, Ns))


@pytest.mark.parametrize("ps", [[2.0, np.inf]])
def test_sharpness_mixed_p_matches_a_literal_loop(ps):
    # the BMO floor of each image is read from the running best of its own p
    ms, Ns = [-0.5, 0.5], [16, 32]
    tab = sharpness_scan(0.5, ps, ms, Ns)
    assert ({(c["m"], c["p"]): c["ratios"] for c in tab["cells"]}
            == _literal_sharpness_ratios(ps, ms, Ns))


def test_sharpness_rejects_a_decreasing_p_list(monkeypatch):
    # the flips of a run read p in increasing order; the scan reads p_list so
    monkeypatch.setattr(bp.analysis, "quantize", None)
    with pytest.raises(ValueError, match=re.escape(
            "p_list must be strictly increasing, got [inf, 2.0]")):
        sharpness_scan(0.5, [np.inf, 2.0], [0.0], [16, 32])


@pytest.mark.parametrize("sweep", [
    lambda Ns: l2_uniformity_sweep(builtin("multiplier_bessel", {"m": -0.5}), Ns),
    lambda Ns: bmo_experiment(builtin("multiplier_bessel", {"m": -0.5}), Ns),
    lambda Ns: sharpness_scan(0.5, [2.0], [0.0], Ns),
], ids=["l2_uniformity", "bmo", "sharpness"])
def test_sweeps_build_every_grid_before_any_operator(monkeypatch, sweep):
    def no_quantize(*args):
        raise AssertionError("an operator was quantized")

    monkeypatch.setattr(bp.analysis, "quantize", no_quantize)
    with pytest.raises(ValueError, match="points_per_axis must be an even integer "
                                         ">= 4, got 15"):
        sweep([8, 15])


def test_sharpness_transforms_each_battery_field_once_per_grid(monkeypatch):
    # per grid: one fftn per battery field, and one ifftn per (field, m) plus
    # the two of the battery's chirps; an apply per image would make an
    # fftn per (field, m) as well
    ms, Ns = [-0.5, 0.0, 0.5], [16, 32]
    calls = count_ffts(monkeypatch)
    fields = len(adversarial_battery(make_grid(1, 1, 16, 1.0), 0.5))
    assert fields == 7 and calls == ["ifftn", "ifftn"]
    calls.clear()
    sharpness_scan(0.5, [2.0], ms, Ns)
    assert calls.count("fftn") == len(Ns) * fields
    assert calls.count("ifftn") == len(Ns) * (2 + fields * len(ms))


@pytest.mark.parametrize("n1,n2,N", [(1, 1, 32), (2, 1, 16)])
@pytest.mark.parametrize("rho", [0.25, 0.5])
def test_sharpness_family_tables_are_the_builtin_tables(rho, n1, n2, N):
    # each order's tables, built from the grid's a-factor and carrier, are
    # the bytes of the quantized builtin's; the a-table is shared
    ms = [-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5]
    grid = make_grid(n1, n2, N, 1.0)
    members = list(_exotic_orders(rho, ms, n1, n2)(grid))
    assert [m for m, _ in members] == ms
    for m, T in members:
        sym = builtin("oscillatory_exotic", {"m": m, "rho": rho}, n1=n1, n2=n2)
        want = quantize(sym, grid)._separable_factors()
        assert T.symbol.name == sym.name and T.path == "separable"
        assert ([(a.tobytes(), b.tobytes()) for a, b in T._separable_factors()]
                == [(a.tobytes(), b.tobytes()) for a, b in want])
        assert T._separable_factors()[0][0] is members[0][1]._separable_factors()[0][0]


def test_sharpness_refuses_an_overflowing_order_as_quantize_does():
    # <xi>^1000 overflows on the 16^2 lattice: the family's product table is
    # refused with the message of the builtin's own table
    message = "symbol exotic[m=1000,rho=0.5] is not finite on the 16^2 grid"
    sym = builtin("oscillatory_exotic", {"m": 1000.0, "rho": 0.5})
    with pytest.raises(ValueError, match=re.escape(message)):
        quantize(sym, make_grid(1, 1, 16, 1.0))._separable_factors()
    with pytest.raises(ValueError, match=re.escape(message)):
        sharpness_scan(0.5, [2.0], [0.0, 1000.0], [16, 32])


def test_sharpness_builds_the_m_independent_tables_once_per_grid(monkeypatch):
    # the a-factor and the carrier chi e^{i phi} are evaluated once per grid,
    # not once per (m, N); in symbols, varphi is read only by the carrier
    counts = {"a": 0, "carrier": 0}
    modulation, varphi = bp.symbols._axis_cos_modulation, bp.symbols.varphi

    def counted_modulation(*args):
        a = modulation(*args)

        def counted_a(x):
            counts["a"] += 1
            return a(x)
        return counted_a

    def counted_varphi(t):
        counts["carrier"] += 1
        return varphi(t)
    monkeypatch.setattr(bp.symbols, "_axis_cos_modulation", counted_modulation)
    monkeypatch.setattr(bp.symbols, "varphi", counted_varphi)
    tab = sharpness_scan(0.5, [2.0, 4.0], [-0.5, 0.0, 0.5], [16, 32])
    assert counts == {"a": 2, "carrier": 2}
    monkeypatch.undo()
    assert tab == sharpness_scan(0.5, [2.0, 4.0], [-0.5, 0.0, 0.5], [16, 32])


def test_sharpness_large_p_ratios_are_finite():
    # at p = 400 the sum |Tf|^p overflows unless lp_norm rescales it
    tab = sharpness_scan(0.5, [2.0, 400.0], [0.0, 1.0], [16, 32])
    for c in tab["cells"]:
        assert all(np.isfinite(r) and r > 0 for r in c["ratios"])
        assert np.isfinite(c["exponent"])


def test_sharpness_table_serializes():
    tab = sharpness_scan(0.5, [2.0], [0.0], [16, 32])
    assert json.loads(json.dumps(tab, sort_keys=True)) == tab


# ---------------------------------------------------------------------------
# commutator identity


def check_battery_spectrum(lam, f_battery) -> None:
    """Oracle for the alias rule: raise ValueError if any battery mode that
    carries spectrum, shifted by any mollifier mode offset, leaves
    [-N/2, N/2-1] on some axis.  Scans the FFT of every field, sharing no
    code with the rule kmax + degree <= N/2 - 1 under test."""
    grid = lam.field.grid
    N = grid.points_per_axis
    steps = np.asarray(lam.mode_steps, dtype=int)
    m_pos, m_neg = int(steps.max()), int(steps.min())
    idx = np.rint(np.fft.fftfreq(N) * N).astype(int)
    for f in f_battery:
        spec = np.fft.fftn(f.values)
        live = np.abs(spec) > 1e-12 * float(np.max(np.abs(spec)))
        for a in range(grid.n):
            shape = [1] * grid.n
            shape[a] = N
            ax = np.broadcast_to(idx.reshape(shape), grid.shape)[live]
            if int(ax.max()) + m_pos > N // 2 - 1 or int(ax.min()) + m_neg < -(N // 2):
                raise ValueError("alias")


def test_commutator_single_mode_battery():
    # count=2: the constant and the single mode +kmax on every axis
    grid = make_grid(1, 1, 32, 1.0)
    sym = builtin("oscillatory_exotic", {"m": 0.0, "rho": 0.5})
    err = commutator_check(sym, grid, DyadicCube((8, 8), 8), 0.5, 3, count=2)
    assert err <= 1e-12


def test_commutator_rejects_full_band_battery():
    grid = make_grid(1, 1, 16, 1.0)
    sym = builtin("multiplier_bessel", {"m": -0.5})
    with pytest.raises(ValueError, match="alias"):
        commutator_check(sym, grid, DyadicCube((4, 4), 4), 0.5, 7)


@pytest.mark.parametrize("n1,n2,N", [(1, 1, 4), (1, 1, 8), (1, 1, 16), (2, 1, 8)])
def test_commutator_alias_rule_matches_spectrum_scan(n1, n2, N):
    grid = make_grid(n1, n2, N, 1.0)
    sym = builtin("multiplier_bessel", {"m": -0.5}, n1=n1, n2=n2)
    edges = set()
    for side in (2 ** e for e in range(N.bit_length())):
        Q = DyadicCube((N - side,) * grid.n, side)
        for rho in (0.0, 0.5, 1.0):
            try:
                lam = mollifier_lambda(grid, Q, rho)
            except ValueError:
                continue
            for kmax in range(N // 2):
                for count in (2, 3):
                    try:
                        check_battery_spectrum(
                            lam, band_limited_battery(grid, kmax, count, 7))
                        aliases = False
                    except ValueError:
                        aliases = True
                    if aliases:
                        with pytest.raises(ValueError, match="alias"):
                            commutator_check(sym, grid, Q, rho, kmax, count)
                    else:
                        assert commutator_check(sym, grid, Q, rho, kmax, count) <= 1e-12
                    edges.add((kmax + lam.degree - (N // 2 - 1), aliases))
    # the boundary is crossed on both sides: sum N/2 - 1 passes, N/2 raises
    assert {(0, False), (1, True)} <= edges
