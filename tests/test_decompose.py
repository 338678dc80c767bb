"""Cutoff profiles, partitions, derived symbols, and the mollifier."""

import re

import numpy as np
import pytest

import bipdo as bp
from bipdo import (DecompositionIndex, DyadicCube, make_grid,
                   dft_forward, default_ell_max, delta_ell, derived_symbol,
                   mollifier_lambda, phi_j, smooth_step, theta_symbol, varphi,
                   cube_partition)
from bipdo.decompose import phi_j_radial


def central_fd(fn, t0, order, h):
    """Central finite difference of the given order at t0."""
    k = order
    acc = 0.0
    for i in range(k + 1):
        from math import comb
        acc += (-1) ** i * comb(k, i) * fn(t0 + (k / 2 - i) * h)
    return acc / h ** k


# ---------------------------------------------------------------------------
# smooth step and varphi profile


def test_varphi_plateau_and_support():
    assert varphi(0.0) == 1.0
    assert varphi(0.5) == 1.0
    assert varphi(1.0) == 1.0
    assert varphi(2.0) == 0.0
    assert varphi(3.0) == 0.0
    assert varphi(-3.0) == 0.0


def test_varphi_midpoint_by_symmetry():
    # the splice s(u) = g(1-u)/(g(u)+g(1-u)) satisfies s(u)+s(1-u) = 1,
    # pinning the midpoint value exactly
    assert abs(varphi(1.5) - 0.5) <= 1e-15
    for u in (0.1, 0.25, 0.4):
        assert abs(varphi(1 + u) + varphi(2 - u) - 1.0) <= 1e-14


def test_varphi_even_and_monotone():
    ts = np.linspace(0.0, 3.0, 301)
    vals = varphi(ts)
    assert np.array_equal(varphi(-ts), vals)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    trans = varphi(np.linspace(1.0, 2.0, 101))
    assert np.all(np.diff(trans) <= 1e-15)


def test_varphi_flat_to_high_order_at_joins():
    # all one-sided derivatives vanish where the splice meets the plateaus;
    # low-order centered differences straddling each join must stay tiny
    for t0 in (1.0, 2.0, -1.0, -2.0):
        for order in (1, 2, 3):
            est = central_fd(varphi, t0, order, h=0.005)
            assert abs(est) <= 1e-6, (t0, order, est)
    assert abs(varphi(1.0 + 1e-3) - 1.0) <= 1e-6
    assert abs(varphi(2.0 - 1e-3)) <= 1e-6


def test_smooth_step_endpoints():
    assert smooth_step(-1.0) == 1.0 and smooth_step(0.0) == 1.0
    assert smooth_step(1.0) == 0.0 and smooth_step(2.0) == 0.0
    u = np.linspace(0.0, 1.0, 51)
    s = smooth_step(u)
    assert np.all(np.diff(s) <= 1e-15)
    assert np.abs(s + smooth_step(1.0 - u) - 1.0).max() <= 1e-14


# ---------------------------------------------------------------------------
# dyadic annuli


def test_phi_j_ring_values():
    for j in (1, 2, 5):
        xi = np.array([[2.0 ** j, 0.0]])
        assert phi_j(xi, j)[0] == pytest.approx(1.0, abs=1e-15)
    origin = np.zeros((1, 2))
    assert phi_j(origin, 0)[0] == 1.0
    for j in (1, 2, 3):
        assert phi_j(origin, j)[0] == 0.0


def test_phi_j_support():
    # the profile is numerically flat within ~1% of the joins, so positive
    # probes sit well inside the transition band
    for j in (1, 3):
        lo, hi = 2.0 ** (j - 1), 2.0 ** (j + 1)
        inside = np.array([[lo * 1.3, 0.0], [hi * 0.7, 0.0]])
        outside = np.array([[lo * 0.99, 0.0], [hi * 1.01, 0.0]])
        assert np.all(phi_j(inside, j) > 0.0)
        assert np.all(phi_j(outside, j) == 0.0)


def test_phi_j_radial_consistency():
    rng = np.random.default_rng(2)
    xi = rng.uniform(-30, 30, (50, 2))
    r = np.linalg.norm(xi, axis=-1)
    for j in (0, 2, 4):
        assert np.array_equal(phi_j(xi, j), phi_j_radial(r, j))


def test_dyadic_telescoping_on_lattice():
    g = make_grid(1, 1, 32, 1.0)
    xi = g.freqs()
    J = 6                                  # 2^6 covers |xi| <= sqrt(2)*16/1
    total = sum(phi_j(xi, j) for j in range(J + 1))
    assert np.abs(total - 1.0).max() <= 1e-12


# ---------------------------------------------------------------------------
# cone cutoffs


def test_delta_ell_ridge_values():
    lm = 5
    for ell in (-2, 0, 1, 3):
        xi1 = np.array([[1.0]])
        xi2 = np.array([[2.0 ** ell]])
        assert delta_ell(xi1, xi2, ell, lm)[0] == pytest.approx(1.0, abs=1e-15)


def test_delta_ell_tail_conventions():
    lm = 4
    xi1z = np.array([[0.0]])
    xi2 = np.array([[3.0]])
    for ell in range(-lm, lm):
        assert delta_ell(xi1z, xi2, ell, lm)[0] == 0.0
    assert delta_ell(xi1z, xi2, lm, lm)[0] == 1.0
    # xi2 = 0 lands in the opposite tail
    assert delta_ell(xi2, xi1z, -lm, lm)[0] == 1.0
    # both zero: assigned to ell = 0
    z = np.array([[0.0]])
    for ell in range(-lm, lm + 1):
        assert delta_ell(z, z, ell, lm)[0] == (1.0 if ell == 0 else 0.0)


def test_cone_partition_on_lattice():
    g = make_grid(1, 1, 32, 1.0)
    lm = default_ell_max(32)
    xi = g.freqs()
    nz = np.any(xi != 0.0, axis=-1)
    total = sum(delta_ell(xi[:, :1], xi[:, 1:], ell, lm)
                for ell in range(-lm, lm + 1))
    assert np.abs(total[nz] - 1.0).max() <= 1e-12


def test_default_ell_max():
    assert default_ell_max(16) == 4
    assert default_ell_max(32) == 5
    assert default_ell_max(64) == 6


# ---------------------------------------------------------------------------
# cube partition of unity


def test_cube_partition_sums_to_one():
    rng = np.random.default_rng(2026)
    x = rng.uniform(-5.0, 5.0, (1000, 2))
    total = np.zeros(len(x))
    for k1 in range(-6, 7):
        for k2 in range(-6, 7):
            total += cube_partition(x, np.array([k1, k2]))
    assert np.abs(total - 1.0).max() <= 1e-12


def test_cube_partition_support_and_range():
    x = np.array([[0.3, -0.2]])
    k_far = np.array([3, 3])
    assert cube_partition(x, k_far)[0] == 0.0
    k0 = np.array([0, 0])
    v = float(cube_partition(np.zeros(2), k0))
    assert 0.0 < v <= 1.0
    assert cube_partition(x, k0)[0] >= 0.0


# ---------------------------------------------------------------------------
# derived symbols


def test_annulus_of_constant_is_cutoff():
    one = bp.builtin("constant", {"c": 1.0})
    for j in (1, 3):
        ann = derived_symbol(one, DecompositionIndex(j=j), "annulus_j")
        xi = np.array([[2.0 ** j, 0.0]])
        x = np.zeros((1, 2))
        assert ann.evaluator(x, xi)[0] == pytest.approx(1.0, abs=1e-15)


def test_annulus_reassembly():
    sig = bp.builtin("multiplier_bessel", {"m": -1.0})
    rng = np.random.default_rng(4)
    xi = rng.uniform(-14.0, 14.0, (60, 2))    # inside the 2^4 ball
    x = rng.uniform(0.0, 1.0, (60, 2))
    total = sum(
        derived_symbol(sig, DecompositionIndex(j=j), "annulus_j").evaluator(x, xi)
        for j in range(6))                 # 2^5 covers |xi| <= 14*sqrt(2)
    ref = sig.evaluator(x, xi)
    assert np.abs(total - ref).max() <= 1e-12 * np.abs(ref).max()


def test_low_high_split_is_exact():
    # the high part is sigma minus its low part sigma * varphi(r |xi|)
    sig = bp.builtin("oscillatory_exotic", {"m": 0.0, "rho": 0.5})
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, (50, 2))
    xi = rng.uniform(-40.0, 40.0, (50, 2))
    hi = derived_symbol(sig, DecompositionIndex(r=0.25), "high_r")
    ref = sig.evaluator(x, xi) * (1.0 - varphi(0.25 * np.linalg.norm(xi, axis=-1)))
    assert np.abs(hi.evaluator(x, xi) - ref).max() <= 1e-15 + 1e-14 * np.abs(ref).max()


def test_cone_piece_is_product_of_cutoffs():
    sig = bp.builtin("multiplier_bessel", {"m": -0.5})
    j, ell, lm = 3, 1, 5
    rng = np.random.default_rng(6)
    x = rng.uniform(0.0, 1.0, (40, 2))
    xi = rng.uniform(-30.0, 30.0, (40, 2))
    cone = lambda l: derived_symbol(
        sig, DecompositionIndex(j=j, ell=l, ell_max=lm), "cone_lj").evaluator(x, xi)
    manual = (sig.evaluator(x, xi) * phi_j(xi, j)
              * delta_ell(xi[:, :1], xi[:, 1:], ell, lm).ravel())
    assert np.abs(cone(ell) - manual).max() <= 1e-15
    # the cone pieces of an annulus piece sum back to it
    ann = derived_symbol(sig, DecompositionIndex(j=j), "annulus_j").evaluator(x, xi)
    total = sum(cone(l) for l in range(-lm, lm + 1))
    assert np.abs(total - ann).max() <= 1e-14


def test_derived_symbol_rejects_mismatch():
    sig = bp.builtin("constant", {"c": 1.0})
    for fields, kind, needle in [
            ({}, "annulus_j", "requires index field 'j'"),
            ({"j": 1}, "no_such_kind", "unknown derived kind 'no_such_kind'"),
            ({"j": 1, "ell_max": 3}, "flat_j", "unknown derived kind 'flat_j'"),
            ({"j": 3, "ell": 1, "ell_max": 5, "r": 0.5}, "cone_lj",
             "does not read index field 'r'"),
            ({"j": 3, "ell_max": 5}, "annulus_j", "does not read index field 'ell_max'"),
            ({"j": 3, "r": 0.5}, "high_r", "does not read index field 'j'"),
            ({}, "theta", "unknown derived kind 'theta'"),
            ({"j": 2.5}, "annulus_j", "j must be nonnegative integer"),
            ({"j": 2, "ell": 1.5, "ell_max": 3}, "cone_lj", "ell must be an integer"),
            ({"j": 2, "ell": 1, "ell_max": 2.5}, "cone_lj",
             "ell_max must be an integer"),
            ({"j": float("inf")}, "annulus_j", "j must be nonnegative integer"),
            ({"j": 2, "ell": float("inf"), "ell_max": 3}, "cone_lj",
             "ell must be an integer"),
            ({"j": 2, "ell": 1, "ell_max": float("inf")}, "cone_lj",
             "ell_max must be an integer"),
            ({"j": 2, "ell": float("nan"), "ell_max": 3}, "cone_lj",
             "ell must be an integer")]:
        with pytest.raises(ValueError, match=re.escape(needle)):
            derived_symbol(sig, DecompositionIndex(**fields), kind)


def test_split_scale_is_read_not_coerced():
    # r is a positive finite number: a string, a bool, NaN or an infinity is
    # a ValueError naming it, not a numpy TypeError or a scale of 1
    for r in ("x", True, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^r must be a finite number"):
            DecompositionIndex(r=r)
    for r in (0, -0.5):
        with pytest.raises(ValueError, match="split scale must be positive"):
            DecompositionIndex(r=r)
    assert DecompositionIndex(r=np.float64(0.25)).r == 0.25


def test_derived_symbol_takes_no_mollifier():
    # the commutator symbol is theta_symbol's; no derived kind reads a mollifier
    lam = mollifier_lambda(make_grid(1, 1, 16, 1.0), DyadicCube((4, 4), 4), 0.5)
    with pytest.raises(TypeError):
        derived_symbol(bp.builtin("constant"), DecompositionIndex(j=2), "annulus_j",
                       mollifier=lam)


# ---------------------------------------------------------------------------
# mollifier


def test_mollifier_documented_configuration():
    grid = make_grid(1, 1, 64, 1.0)
    Q = DyadicCube((8, 8), 16)             # physical side 1/4
    lam = mollifier_lambda(grid, Q, 0.5)
    v = lam.field.values
    assert np.abs(v.imag).max() == 0.0
    on_q = v.real[tuple(slice(a, a + Q.side) for a in Q.anchor)]
    assert on_q.min() >= 1.0
    assert on_q.min() <= 1.0 + 1e-6
    assert v.real.max() <= 10.0
    assert v.real.min() >= -1e-12
    # frozen from the construction: peak of the squared kernel product
    assert v.real.max() == pytest.approx(1.3217, rel=1e-3)
    hat = dft_forward(lam.field).values
    fr = np.linalg.norm(grid.freqs(), axis=-1).reshape(grid.shape)
    radius = np.sqrt(grid.n) * lam.degree / grid.period
    leak = np.abs(hat[fr > radius + 1e-9]).max()
    assert leak <= 1e-12


def test_mollifier_whole_torus_is_one():
    grid = make_grid(1, 1, 32, 1.0)
    lam = mollifier_lambda(grid, DyadicCube((0, 0), 32), 0.7)
    assert np.array_equal(lam.field.values, np.ones(grid.shape, dtype=complex))
    assert lam.degree == 0


def test_mollifier_infeasible_configurations():
    grid = make_grid(1, 1, 64, 1.0)
    with pytest.raises(ValueError, match="larger cube or smaller rho"):
        mollifier_lambda(grid, DyadicCube((0, 0), 32), 0.5)
    with pytest.raises(ValueError):
        mollifier_lambda(grid, DyadicCube((0, 0), 16), 1.5)   # rho out of range


# ---------------------------------------------------------------------------
# commutator symbol theta


def test_theta_constant_mollifier_vanishes():
    grid = make_grid(1, 1, 32, 1.0)
    lam = mollifier_lambda(grid, DyadicCube((0, 0), 32), 0.5)
    sig = bp.builtin("oscillatory_exotic", {"m": 0.0, "rho": 0.5})
    hi = derived_symbol(sig, DecompositionIndex(r=0.25), "high_r")
    th = theta_symbol(hi, lam)
    rng = np.random.default_rng(8)
    x = rng.uniform(0.0, 1.0, (30, 2))
    xi = rng.uniform(-15.0, 15.0, (30, 2))
    assert np.abs(th.evaluator(x, xi)).max() == 0.0
    # no separable terms are left: the kernel slice is the zero field
    assert th.separable_terms == ()
    assert not np.any(bp.kernel_slice(bp.quantize(th, grid), x[0]).values)


@pytest.mark.parametrize("name,params", [
    ("oscillatory_exotic", {"m": 0.0, "rho": 0.5, "xmod": 0.75}),
    ("separable", {"terms": [{"amp": 1.0, "xfreq": [1, -1], "phase": 0.4,
                              "orders": [-0.5, 0.25]},
                             {"amp": 0.5, "xfreq": [0, 2]}]}),
], ids=["exotic", "separable"])
def test_theta_matches_its_defining_formula(name, params):
    # theta = sum_eta beta_eta (sigma(x, xi) - sigma(x, xi + eta)) e^{2 pi i x.eta},
    # summed here from the parent's evaluator; theta's own evaluator sums its terms
    grid = make_grid(1, 1, 32, 1.0)
    lam = mollifier_lambda(grid, DyadicCube((8, 8), 8), 0.5)
    sig = bp.builtin(name, params)
    rng = np.random.default_rng(10)
    x = rng.uniform(0.0, 1.0, (40, 2))
    xi = rng.uniform(-15.0, 15.0, (40, 2))
    want = sum(beta * (sig.evaluator(x, xi) - sig.evaluator(x, xi + eta))
               * np.exp(2j * np.pi * (x @ eta))
               for eta, beta in zip(lam.mode_steps / grid.period, lam.mode_coeffs))
    got = theta_symbol(sig, lam).evaluator(x, xi)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_theta_is_trig_polynomial_in_x():
    grid = make_grid(1, 1, 32, 1.0)
    Q = DyadicCube((8, 8), 8)
    lam = mollifier_lambda(grid, Q, 0.5)
    sig = bp.builtin("multiplier_bessel", {"m": -0.5})
    r = Q.side * grid.period / 32
    hi = derived_symbol(sig, DecompositionIndex(r=r), "high_r")
    th = theta_symbol(hi, lam)
    xs = grid.points()
    xi0 = np.broadcast_to(np.array([7.0, -3.0]), xs.shape)
    slice_x = th.evaluator(xs, xi0).reshape(grid.shape)
    spec = np.fft.fftn(slice_x)
    k = np.rint(np.fft.fftfreq(32) * 32).astype(int)
    k1, k2 = np.meshgrid(k, k, indexing="ij")
    outside = np.maximum(np.abs(k1), np.abs(k2)) > lam.degree
    top = np.abs(spec).max()
    assert top > 0.0
    assert np.abs(spec[outside]).max() <= 1e-10 * top
