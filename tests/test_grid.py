"""Grids, transforms, norms, and field serialization.

The BMO tests compare against two oracles.  An exhaustive one scans every
periodic axis-aligned cube of every integer side, written here from scratch
so it shares nothing with the library's cube family.  A brute-force one
scans the library's own family, every dyadic side at every anchor, adding
one shifted copy of the field per cube offset; the pruned library scan must
return its value bit for bit.
"""

import itertools
import struct
import tracemalloc

import numpy as np
import pytest

from bipdo import (SampledField, DyadicCube, builtin, make_grid,
                   dft_forward, dft_inverse, lp_norm, bmo_norm,
                   apply, quantize, read_field, write_field)
from bipdo.grid import lp_norms
from bipdo import test_battery as standard_battery
from helpers import rand_field


def bmo_exhaustive(vals, N, n):
    """Sup of mean oscillation over all periodic cubes of integer side."""
    best = 0.0
    for side in range(1, N + 1):
        for anchor in itertools.product(range(N), repeat=n):
            idx = np.ix_(*[np.arange(a, a + side) % N for a in anchor])
            block = vals[idx]
            osc = float(np.abs(block - block.mean()).mean())
            best = max(best, osc)
    return best


def _box_means(v, side):
    """Mean over the cube anchored at each index (periodic), all axes."""
    out = v
    for ax in range(v.ndim):
        acc = out.copy()
        for t in range(1, side):
            acc += np.roll(out, -t, axis=ax)
        out = acc
    return out / float(side ** v.ndim)


def bmo_bruteforce_levels(vals):
    """Largest cube oscillation per dyadic side 2, 4, ..., N, every anchor."""
    n, N = vals.ndim, vals.shape[0]
    levels = []
    side = 2
    while side <= N:
        means = _box_means(vals, side)
        acc = np.zeros(vals.shape, dtype=float)
        for offset in np.ndindex(*((side,) * n)):
            if any(offset):
                shifted = np.roll(vals, tuple(-o for o in offset), axis=tuple(range(n)))
            else:
                shifted = vals
            acc += np.abs(shifted - means)
        levels.append(float(acc.max()) / side ** n)
        side *= 2
    return levels


def bmo_bruteforce(vals):
    return max(0.0, *bmo_bruteforce_levels(vals))


# ---------------------------------------------------------------------------
# grid construction


def test_make_grid_basic():
    g = make_grid(1, 1, 8, 1.0)
    assert g.n == 2 and g.size == 64 and g.shape == (8, 8)
    g3 = make_grid(2, 1, 16, 2 * np.pi)
    assert g3.n == 3 and g3.size == 4096
    # the lattice is the row-major product of the per-axis frequencies
    for grid in (g, g3, make_grid(1, 1, 6, 3.0)):
        k = grid.axis_freqs()
        mesh = np.meshgrid(*([k] * grid.n), indexing="ij")
        assert np.array_equal(grid.freqs(),
                              np.stack(mesh, axis=-1).reshape(-1, grid.n))


def test_make_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_grid(1, 1, 3, 1.0)          # odd N
    with pytest.raises(ValueError):
        make_grid(1, 1, 2, 1.0)          # below the N >= 4 floor
    with pytest.raises(ValueError):
        make_grid(1, 1, 8, 0.0)
    with pytest.raises(ValueError):
        make_grid(1, 1, 8, -2.0)
    with pytest.raises(ValueError):
        make_grid(0, 1, 8, 1.0)


def test_make_grid_rejects_grids_beyond_an_array_index():
    # N^n points must fit np.intp; a huge n is refused without forming N^n
    for n2, N in ((100, 8), (10 ** 400, 8), (1, 2 ** 62)):
        with pytest.raises(ValueError, match="does not fit an array index"):
            make_grid(1, n2, N, 1.0)
    assert make_grid(1, 1, 2 ** 31, 1.0).size == 2 ** 62


def test_lattice_layout():
    g = make_grid(1, 1, 8, 2.0)
    # points x = i L / N, frequencies k / L with k in [-N/2, N/2)
    assert np.allclose(g.axis_coords(), np.arange(8) * 0.25, atol=0)
    assert np.array_equal(g.axis_freqs(), [0, 0.5, 1, 1.5, -2, -1.5, -1, -0.5])
    assert g.cell_volume == pytest.approx((2.0 / 8) ** 2, abs=0)


def test_sampled_field_validation():
    g = make_grid(1, 1, 8, 1.0)
    with pytest.raises(ValueError):
        SampledField(g, np.ones(63, dtype=complex))
    bad = np.ones((8, 8), dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        SampledField(g, bad)


def test_dyadic_cube_validation():
    g = make_grid(1, 1, 8, 1.0)
    DyadicCube((2, 4), 4).check(g)
    with pytest.raises(ValueError):
        DyadicCube((0, 0), 3).check(g)   # not a power of two
    with pytest.raises(ValueError):
        DyadicCube((6, 6), 4).check(g)   # would wrap around
    with pytest.raises(ValueError):
        DyadicCube((0, 0), 16).check(g)
    with pytest.raises(ValueError):
        DyadicCube((-1, 0), 2).check(g)


# ---------------------------------------------------------------------------
# transforms


def test_dft_constant():
    g = make_grid(1, 1, 8, 2.0)
    f = SampledField(g, np.ones(g.shape, dtype=complex))
    fh = dft_forward(f).values
    assert abs(fh[0, 0] - 2.0 ** 2) <= 1e-13
    rest = fh.copy()
    rest[0, 0] = 0.0
    assert np.abs(rest).max() <= 1e-13


def test_dft_single_mode():
    g = make_grid(1, 1, 16, 1.0)
    pts = g.points().reshape(16, 16, 2)
    k0 = (3, -5)
    vals = np.exp(2j * np.pi * (k0[0] * pts[..., 0] + k0[1] * pts[..., 1]))
    fh = dft_forward(SampledField(g, vals)).values
    i = np.rint(np.fft.fftfreq(16) * 16).astype(int)
    where = np.abs(fh) > 1e-10
    assert where.sum() == 1
    r, c = np.argwhere(where)[0]
    assert (i[r], i[c]) == k0
    assert abs(fh[r, c] - 1.0) <= 1e-12  # L^n = 1


def test_dft_roundtrip():
    g = make_grid(1, 1, 16, 0.7)
    f = rand_field(g, 42)
    back = dft_inverse(dft_forward(f))
    scale = np.abs(f.values).max()
    assert np.abs(back.values - f.values).max() <= 1e-12 * scale
    fwd = dft_forward(dft_inverse(f))
    assert np.abs(fwd.values - f.values).max() <= 1e-12 * scale


def test_parseval():
    g = make_grid(1, 1, 16, 1.3)
    for seed in (0, 1, 2):
        f = rand_field(g, seed)
        lhs = lp_norm(f, 2) ** 2
        fh = dft_forward(f).values
        rhs = float(np.sum(np.abs(fh) ** 2)) / g.period ** g.n
        assert abs(lhs - rhs) <= 1e-10 * lhs


# ---------------------------------------------------------------------------
# Lp norms


def test_lp_constant():
    g = make_grid(1, 1, 8, 1.0)
    f = SampledField(g, np.full(g.shape, -2.5 + 0j))
    for p in (1.0, 2.0, 3.5, np.inf):
        assert lp_norm(f, p) == pytest.approx(2.5, rel=1e-13)


def test_lp_large_p_leaves_no_overflow():
    # sum |f|^p over- or underflows at these p; the norm of a constant c on
    # the torus of side L is c L^(n/p)
    g = make_grid(1, 1, 16, 1.3)
    for c in (8.0, 0.1):
        f = SampledField(g, np.full(g.shape, c + 0j))
        for p in (400.0, 1000.0):
            assert lp_norm(f, p) == pytest.approx(c * 1.3 ** (2 / p), rel=1e-12)


def test_lp_norm_is_the_literal_sum_and_holds_one_lattice_array():
    # |f|^p is formed in place: the bits of the literal weighted sum (at p = 1
    # the plain sum of |f| times the cell volume, which kernel_l1 once kept as
    # its own code), and one float lattice array at the peak, not two
    g = make_grid(1, 1, 128, 1.7)
    f = rand_field(g, 5)
    a = np.abs(f.values)
    assert lp_norm(f, 1) == float(np.sum(a) * g.cell_volume)
    for p in (1.0, 4 / 3, 2.0, 3.0):
        assert lp_norm(f, p) == float((np.sum(a ** p) * g.cell_volume) ** (1.0 / p))
    tracemalloc.start()
    try:
        lp_norm(f, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * a.nbytes, peak


def test_lp_norms_are_the_literal_sums_from_one_abs():
    # every exponent of one call has the bits of its own literal sum: at
    # p = 1, 4/3, 2, 4 and inf, on a zero field, and at p = 400, where
    # sum |f|^p overflows and the norm is rescaled by max |f|; several
    # exponents hold two float lattice arrays at the peak, one |f| shared
    g = make_grid(1, 1, 128, 1.7)
    vol = g.cell_volume
    ps = [1.0, 4 / 3, 2.0, 4.0, np.inf]
    for f in (rand_field(g, 5), SampledField(g, np.zeros(g.shape, dtype=complex))):
        a = np.abs(f.values)
        expect = [float(a.max()) if p == np.inf
                  else float((np.sum(a ** p) * vol) ** (1.0 / p)) for p in ps]
        for order in (ps, ps[::-1], [np.inf, 2.0], [4 / 3]):
            assert lp_norms(f, order) == [expect[ps.index(p)] for p in order]
            assert [lp_norm(f, p) for p in order] == lp_norms(f, order)
    f = SampledField(g, 8.0 * rand_field(g, 6).values)
    a = np.abs(f.values)
    top = float(a.max())
    big = top * float((np.sum((a / top) ** 400.0) * vol) ** (1.0 / 400.0))
    assert lp_norms(f, [2.0, 400.0]) == [lp_norm(f, 2.0), big] and big < np.inf
    assert lp_norms(f, []) == []
    tracemalloc.start()
    try:
        lp_norms(f, ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * a.nbytes, peak


def test_lp_spike():
    g = make_grid(1, 1, 8, 1.0)
    v = np.zeros(g.shape, dtype=complex)
    v[2, 5] = 1.0
    assert lp_norm(SampledField(g, v), 1) == pytest.approx(1.0 / 64, rel=1e-13)


def test_lp_monotone_on_unit_torus():
    g = make_grid(1, 1, 16, 1.0)
    f = rand_field(g, 7)
    ps = [1.0, 1.5, 2.0, 4.0, 8.0]
    vals = [lp_norm(f, p) for p in ps] + [lp_norm(f, np.inf)]
    for a, b in zip(vals, vals[1:]):
        assert a <= b * (1 + 1e-12)


def test_lp_rejects_p_below_one():
    g = make_grid(1, 1, 8, 1.0)
    f = rand_field(g, 0)
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


def test_lp_exponent_is_read_not_coerced():
    # a string or a bool is not an exponent; an infinite one is the sup norm
    g = make_grid(1, 1, 8, 1.0)
    f = rand_field(g, 0)
    for p in ("2", True, np.bool_(True), float("nan"), -np.inf, 10 ** 400):
        with pytest.raises(ValueError, match="^p must be"):
            lp_norm(f, p)
    top = np.abs(f.values).max()
    assert lp_norm(f, float("inf")) == lp_norm(f, np.inf) == top
    assert lp_norm(f, 2) == lp_norm(f, np.float64(2.0)) == lp_norm(f, np.int64(2))


def test_linf_is_max_abs():
    g = make_grid(1, 1, 8, 1.0)
    f = rand_field(g, 3)
    assert lp_norm(f, np.inf) == pytest.approx(np.abs(f.values).max(), abs=0)


# ---------------------------------------------------------------------------
# BMO


def test_bmo_constant_is_zero():
    g = make_grid(1, 1, 8, 1.0)
    f = SampledField(g, np.full(g.shape, 3.0 - 1.0j))
    assert bmo_norm(f) == 0.0


def test_bmo_half_and_half_matches_exhaustive():
    N = 8
    g = make_grid(1, 1, N, 1.0)
    vals = np.ones((N, N), dtype=complex)
    vals[N // 2:, :] = -1.0
    mine = bmo_norm(SampledField(g, vals))
    oracle = bmo_exhaustive(vals, N, 2)
    assert mine > 0 and oracle > 0
    assert mine <= oracle + 1e-12          # library family is a subfamily
    assert mine >= 0.75 * oracle
    # the worst cube straddles the sign change with half/half split
    assert mine == pytest.approx(1.0, abs=1e-12)


def test_bmo_random_vs_exhaustive():
    g = make_grid(1, 1, 8, 1.0)
    for seed in (5, 6, 7):
        f = rand_field(g, seed)
        mine = bmo_norm(f)
        oracle = bmo_exhaustive(f.values, 8, 2)
        assert mine <= oracle + 1e-12
        assert mine >= 0.75 * oracle


def test_bmo_invariances_exact():
    g = make_grid(1, 1, 8, 1.0)
    f = rand_field(g, 11)
    base = bmo_norm(f)
    shifted = SampledField(g, np.roll(f.values, (3, 5), axis=(0, 1)))
    assert bmo_norm(shifted) == base
    offset = SampledField(g, f.values + (2.7 - 1.3j))
    assert bmo_norm(offset) == base


def _stress_fields(N):
    """Named fields on the N x N torus that stress the pruning bound."""
    g = make_grid(1, 1, N, 1.0)
    rng = np.random.default_rng(N)
    noise = lambda: rng.standard_normal(g.shape)
    x = np.arange(N) / N
    spike = np.zeros(g.shape, dtype=complex)
    spike[N // 3, N // 2] = 1.0
    fields = {f"random{k}": noise() + 1j * noise() for k in range(3)}
    fields.update({
        "complex-offset": noise() + 1j * noise() + (3e7 - 2e7j),
        "near-constant": 1e6 + 1e-9 * noise(),
        # the rounding of the cube means matters here
        "near-constant-signs": 1e6 + 1e-9 * rng.choice([-1.0, 1.0], size=g.shape),
        "blocks": np.where(np.indices(g.shape)[0] < N // 2, 1e8, -1e8) + noise(),
        "spike": spike,
        "tiny": 1e-170 * (noise() + 1j * noise()),  # |c|^2 underflows unscaled
        # every side below N oscillates less than the whole torus
        "whole-torus": np.cos(2 * np.pi * x)[:, None] + 1j * np.sin(2 * np.pi * x)[None, :],
    })
    return g, fields


@pytest.mark.parametrize("N", [8, 16, 32])
def test_bmo_matches_bruteforce_bitwise(N):
    g, fields = _stress_fields(N)
    for name, vals in fields.items():
        f = SampledField(g, vals)
        levels = bmo_bruteforce_levels(f.values)
        if name == "whole-torus":
            assert levels[-1] > max(levels[:-1]), levels
        assert bmo_norm(f) == max(levels), name


def test_bmo_matches_bruteforce_bitwise_three_axes():
    g = make_grid(2, 1, 8, 1.0)
    for seed in (1, 2):
        f = rand_field(g, seed)
        assert bmo_norm(f) == bmo_bruteforce(f.values)


def _floor_cases():
    for N in (8, 16, 32):
        g, fields = _stress_fields(N)
        for name, vals in fields.items():
            yield f"{name}@{N}", SampledField(g, vals)
    g = make_grid(2, 1, 8, 1.0)
    for seed in (1, 2):
        yield f"three-axes{seed}", rand_field(g, seed)


def test_bmo_floor_is_a_max_bitwise():
    # a floor at, just around, and far from every level the scan meets
    for name, f in _floor_cases():
        v = bmo_norm(f)
        whole = bmo_bruteforce_levels(f.values)[-1]
        for t in (0.0, v / 2, whole, np.nextafter(v, 0), v,
                  np.nextafter(v, np.inf), 2 * v):
            assert bmo_norm(f, t) == max(v, t), (name, t)


def test_bmo_rejects_bad_floor():
    f = rand_field(make_grid(1, 1, 8, 1.0), 0)
    for t in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            bmo_norm(f, t)


@pytest.mark.parametrize("symbol", ["multiplier_bessel", "modulated_bessel"])
def test_bmo_matches_bruteforce_on_c8_battery(symbol):
    # the outputs the c8 BMO ratio (and the bmo-sweep benchmark) measures
    for N in (16, 32):
        g = make_grid(1, 1, N, 1.0)
        T = quantize(builtin(symbol, {"m": -0.5}), g)
        for f in standard_battery(g):
            Tf = apply(T, f)
            assert bmo_norm(Tf) == bmo_bruteforce(Tf.values)


def test_bmo_below_twice_sup():
    g = make_grid(1, 1, 16, 1.0)
    for seed in range(10):
        f = rand_field(g, seed)
        assert bmo_norm(f) <= 2.0 * lp_norm(f, np.inf) + 1e-12


# ---------------------------------------------------------------------------
# serialization


def test_field_binary_roundtrip(tmp_path):
    g = make_grid(2, 1, 8, 1.5)
    rng = np.random.default_rng(9)
    v = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    f = SampledField(g, v)
    path = tmp_path / "f.fld"
    write_field(f, path)
    back = read_field(path)
    assert back.grid == g
    # storage is complex64, so roundtrip is lossy at single precision
    assert np.abs(back.values - v).max() <= 1e-6 * np.abs(v).max()


def test_field_binary_rejects_corruption(tmp_path):
    g = make_grid(1, 1, 8, 1.0)
    f = rand_field(g, 0)
    path = tmp_path / "f.fld"
    write_field(f, path)
    raw = path.read_bytes()
    (tmp_path / "bad_magic.fld").write_bytes(b"XXXXXXXX" + raw[8:])
    with pytest.raises(ValueError):
        read_field(tmp_path / "bad_magic.fld")
    (tmp_path / "short.fld").write_bytes(raw[:40])
    with pytest.raises(ValueError, match="short.fld: expected 64 samples, found 1$"):
        read_field(tmp_path / "short.fld")
    (tmp_path / "cut.fld").write_bytes(raw[:20])
    with pytest.raises(ValueError, match="cut.fld: truncated field file"):
        read_field(tmp_path / "cut.fld")
    # every message names the file: a NaN first sample, and header grids that
    # make_grid rejects (N = 3 at byte 16, a NaN period at byte 20)
    start = len(raw) - 8 * g.size
    nan = np.array([np.nan], dtype="<c8").tobytes()
    bad = {"nan.fld": (raw[:start] + nan + raw[start + 8:],
                       "field values must be finite"),
           "bad3.fld": (raw[:16] + struct.pack("<I", 3) + raw[20:],
                        "points_per_axis must be an even integer >= 4, got 3"),
           "nanperiod.fld": (raw[:20] + struct.pack("<d", np.nan) + raw[28:],
                             "period must be positive and finite, got nan")}
    for name, (data, message) in bad.items():
        (tmp_path / name).write_bytes(data)
        with pytest.raises(ValueError, match=f"{name}: {message}"):
            read_field(tmp_path / name)


def test_field_binary_rejects_complex64_overflow(tmp_path):
    # finite in complex128, infinite once stored as complex64
    g = make_grid(1, 1, 8, 1.0)
    vals = np.ones(g.shape, dtype=complex)
    vals[3, 5] = 1j * 1e39
    path = tmp_path / "f.fld"
    with pytest.raises(ValueError, match="complex64"):
        write_field(SampledField(g, vals), path)
    assert not path.exists()
