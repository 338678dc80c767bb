"""Acceptance gate: nine go/no-go checks with pinned tolerances.

Each check prints one verdict line directly to the terminal so a full run
reads as a checklist.  Check 6 is expected to stay red at this grid scale:
the measured cone-kernel decay slope falls short of the pinned bar, and the
assertion message carries the measured numbers.  The analysis lives in the
project notes; the check is kept faithful rather than loosened.
"""

import time

import numpy as np

from bipdo import (DecompositionIndex, DyadicCube, SampledField,
                   adjoint_apply, apply, apply_at, bmo_experiment, builtin,
                   commutator_check, derived_symbol, kernel_decay_experiment,
                   l2_opnorm, l2_uniformity_sweep, make_grid, make_symbol,
                   ortho_experiment, quantize, sharpness_scan)
from bipdo.cli import _identity_errors, _sharpness_flips
from helpers import dense_opnorm_oracle, rand_field, rand_separable


def _verdict(capsys, idx, name, ok, detail):
    with capsys.disabled():
        print(f"\nacceptance {idx} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_c1_identity_suite(capsys):
    t0 = time.time()
    errs = _identity_errors(32)
    elapsed = time.time() - t0
    worst = max(errs.values())
    ok = worst <= 1e-12 and elapsed <= 60.0
    detail = ("worst_err=%.2e of %s, %.1fs"
              % (worst, {k: f"{v:.1e}" for k, v in errs.items()}, elapsed))
    _verdict(capsys, 1, "identity-suite", ok, detail)
    assert ok, detail


def test_c2_oracle_equivalence(capsys):
    grid = make_grid(1, 1, 8, 1.0)

    syms = [rand_separable(s) for s in range(6)]
    rng = np.random.default_rng(3)
    syms.append(builtin("multiplier_bessel", {"m": float(rng.uniform(-1, 0))}))
    syms.append(builtin("modulated_bessel", {"m": float(rng.uniform(-1, 0))}))
    syms.append(builtin("oscillatory_exotic",
                        {"m": 0.0, "rho": float(rng.uniform(0.25, 0.75))}))
    syms.append(builtin("constant", {"c": float(rng.uniform(0.5, 2.0))}))
    worst_norm = 0.0
    for sym in syms:
        T = quantize(sym, grid)
        est = l2_opnorm(T, tol=1e-10, max_iter=5000)
        oracle = dense_opnorm_oracle(T, grid)
        worst_norm = max(worst_norm, abs(est.value - oracle) / oracle)

    worst_adj = 0.0
    w = grid.cell_volume
    for s in range(20):
        sym = syms[s % len(syms)]
        T = quantize(sym, grid)
        f, g = rand_field(grid, 100 + s), rand_field(grid, 200 + s)
        lhs = np.vdot(g.values, apply(T, f).values) * w
        rhs = np.vdot(adjoint_apply(T, g).values, f.values) * w
        worst_adj = max(worst_adj, abs(lhs - rhs))

    worst_path = 0.0
    for s in range(20):
        sym = rand_separable(300 + s)
        f = rand_field(grid, 400 + s)
        a = apply(quantize(sym, grid, path="dense"), f)
        b = apply(quantize(sym, grid, path="separable"), f)
        worst_path = max(worst_path, float(np.abs(a.values - b.values).max()))

    ok = worst_norm <= 1e-6 and worst_adj <= 1e-10 and worst_path <= 1e-10
    detail = (f"opnorm_vs_svd={worst_norm:.2e} adjoint={worst_adj:.2e} "
              f"dense_vs_sep={worst_path:.2e}")
    _verdict(capsys, 2, "oracle-equivalence", ok, detail)
    assert ok, detail


def test_c3_commutator_identity(capsys):
    t0 = time.time()
    grid = make_grid(1, 1, 32, 1.0)
    sym = builtin("oscillatory_exotic", {"m": 0.0, "rho": 0.5})
    err = commutator_check(sym, grid, DyadicCube((8, 8), 8), 0.5, 8)
    err_const = commutator_check(sym, grid, DyadicCube((0, 0), 32), 0.5, 8)
    elapsed = time.time() - t0
    ok = err <= 1e-8 and err_const <= 1e-12 and elapsed <= 120.0
    detail = f"generic={err:.2e} constant_weight={err_const:.2e} {elapsed:.1f}s"
    _verdict(capsys, 3, "commutator-identity", ok, detail)
    assert ok, detail


def test_c4_scaling_conjugation(capsys):
    grid = make_grid(1, 1, 16, 1.0)
    rng = np.random.default_rng(5)
    worst = 0.0
    for rho in (0.25, 0.5):
        sym = builtin("oscillatory_exotic", {"m": 0.0, "rho": rho})
        for j in (1, 2, 3, 4):
            piece = derived_symbol(sym, DecompositionIndex(j=j), "annulus_j")
            T = quantize(piece, grid)
            f = rand_field(grid, 10 * j)
            s = 2.0 ** (j * rho)
            big = make_grid(1, 1, 16, s * grid.period)
            # the conjugated symbol sigma(x/s, s xi), term by term
            dilated = make_symbol([(lambda x, a=a, s=s: a(x / s),
                                    lambda xi, b=b, s=s: b(s * xi))
                                   for a, b in piece.separable_terms], 1, 1)
            tilde = quantize(dilated, big)
            f_big = SampledField(big, f.values)
            for _ in range(50):
                x = rng.uniform(0.0, 1.0, 2)
                a = apply_at(T, f, x)
                b = apply_at(tilde, f_big, s * x)
                worst = max(worst, abs(a - b) / max(abs(a), 1e-30))
    ok = worst <= 1e-8
    detail = f"max_rel_err={worst:.2e} over 2 scalings x 4 bands x 50 points"
    _verdict(capsys, 4, "scaling-conjugation", ok, detail)
    assert ok, detail


def test_c5_almost_orthogonality_decay(capsys):
    # a one-term symbol a(x)|b|(xi)u(xi) with |u| = 1 has L2 numbers that
    # cannot see u: every entry, and so epsilon, is the same at any rho
    # (test_ortho_entries_of_a_one_term_symbol_do_not_see_rho). The fit
    # measures cutoff overlap and x-bandwidth, not the class.
    t0 = time.time()
    grid = make_grid(1, 1, 64, 1.0)
    sym = builtin("oscillatory_exotic", {"m": 0.0, "rho": 0.5})
    rep = ortho_experiment(sym, [1, 2, 3, 4, 5], grid, max_iter=2000)

    mult = builtin("multiplier_bessel", {"m": 0.0})
    repm = ortho_experiment(mult, [1, 2, 3, 4, 5], grid, max_iter=2000)
    far = max(v for j, k, v in repm["entries"] if abs(j - k) >= 2)
    elapsed = time.time() - t0

    ok = (rep["fitted_epsilon"] >= 0.1 and rep["r_squared"] >= 0.8
          and far <= 1e-10 and elapsed <= 600.0)
    detail = (f"epsilon={rep['fitted_epsilon']:.3f} R2={rep['r_squared']:.4f} "
              f"multiplier_far_max={far:.2e} {elapsed:.1f}s")
    _verdict(capsys, 5, "almost-orthogonality", ok, detail)
    assert ok, detail


def test_c6_kernel_cone_decay(capsys):
    # pinned bar: fitted slope <= -0.35 (half the ideal -1.0 would be -0.5;
    # the bar already concedes cutoff overlap).  At ell_max 6 the measured
    # slope is -0.198 at N=64, -0.099 at 128, -0.112 at 256, -0.115 at 512 and
    # -0.1156 (R2 0.785) at 1024: refining the grid moves it away from the
    # bar, so this check documents a real gap rather than passing a loosened
    # version of it.
    t0 = time.time()
    grid = make_grid(1, 1, 64, 1.0)
    sym = builtin("multiplier_bessel", {"m": -0.5})
    rng = np.random.default_rng(2026)
    xs = rng.uniform(0.0, 1.0, size=(5, 2))
    rep = kernel_decay_experiment(sym, 5, range(0, 5), xs, grid)
    elapsed = time.time() - t0
    ok = rep["slope"] <= -0.35 and elapsed <= 300.0
    detail = (f"fitted_slope={rep['slope']:.3f} bar=-0.35 ideal=-0.5 "
              f"R2={rep['r_squared']:.3f} "
              f"values={[round(v, 4) for v in rep['values']]} "
              f"{elapsed:.1f}s")
    _verdict(capsys, 6, "kernel-cone-decay", ok, detail)
    assert ok, detail


def test_c7_uniform_l2_bound(capsys):
    # the L2 norm of a one-term symbol is that of a(x)|b|(xi), so these
    # ratios cannot see rho either
    # (test_l2_norm_of_a_one_term_symbol_is_that_of_its_modulus)
    sym = builtin("oscillatory_exotic", {"m": 0.0, "rho": 0.5})
    rep = l2_uniformity_sweep(sym, [16, 32, 64], tol=1e-8, max_iter=2000)
    vals = rep["ratios"]
    var = (max(vals) - min(vals)) / min(vals)

    twin = builtin("oscillatory_exotic", {"m": 0.5, "rho": 0.5})
    rept = l2_uniformity_sweep(twin, [16, 32, 64], tol=1e-8, max_iter=2000)
    growth = (rept["ratios"][-1] - rept["ratios"][0]) / rept["ratios"][0]

    ok = var <= 0.20 and growth >= 0.25
    detail = (f"critical_order_variation={var * 100:.2f}% (cap 20%), "
              f"supercritical_growth={growth * 100:.1f}% (floor 25%)")
    _verdict(capsys, 7, "uniform-l2-bound", ok, detail)
    assert ok, detail


def test_c8_bmo_ratio_stability(capsys):
    t0 = time.time()
    plain = bmo_experiment(builtin("multiplier_bessel", {"m": -0.5}),
                           [16, 32, 64])
    modulated = bmo_experiment(builtin("modulated_bessel", {"m": -0.5}),
                               [16, 32, 64])
    elapsed = time.time() - t0
    ok = (plain["variation"] <= 0.20 and modulated["variation"] <= 0.20
          and elapsed <= 600.0)
    detail = (f"multiplier_variation={plain['variation'] * 100:.2f}% "
              f"modulated_variation={modulated['variation'] * 100:.2f}% "
              f"(cap 20%) {elapsed:.1f}s")
    _verdict(capsys, 8, "bmo-ratio-stability", ok, detail)
    assert ok, detail


def test_c9_sharpness_scan(capsys):
    t0 = time.time()
    ms = [-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5]
    step = 0.25
    ps = [4.0 / 3.0, 2.0, 4.0]
    tab = sharpness_scan(0.5, ps, ms, [16, 32, 64])
    elapsed = time.time() - t0

    flips, monotone = _sharpness_flips(tab)
    p2_ok = flips[2.0] is not None and abs(flips[2.0]) <= step + 1e-12
    side_ok = all(flips[p] is not None and -1.0 <= flips[p] <= 0.0
                  for p in (ps[0], 4.0))
    ok = monotone and p2_ok and side_ok and elapsed <= 1800.0
    detail = (f"monotone={monotone} flip_p2={flips[2.0]} (|.|<=0.25) "
              f"flip_p43={flips[ps[0]]} flip_p4={flips[4.0]} "
              f"(in [-1,0]) {elapsed:.1f}s")
    _verdict(capsys, 9, "sharpness-scan", ok, detail)
    assert ok, detail
