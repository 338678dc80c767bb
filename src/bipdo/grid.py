"""Periodic grids, discrete Fourier transforms, and function-space norms.

The computational domain is the flat torus [0, L)^n with n = n1 + n2 axes,
where the first n1 axes form the first parameter block and the remaining n2
axes the second.  Each axis carries N equispaced samples x = (i/N) L, and
frequencies live on the dual lattice {k/L : k integer, -N/2 <= k < N/2}.

Transforms carry physical quadrature weights so that they approximate their
continuum counterparts:

    forward   fhat(xi) = sum_x f(x) exp(-2 pi i x.xi) (L/N)^n
    inverse   f(x)     = sum_xi fhat(xi) exp(+2 pi i x.xi) (1/L)^n

and ``dft_inverse(dft_forward(f)) == f`` to roundoff.  Norms use the cell
volume (L/N)^n as integration weight.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .symbols import read_number

FIELD_MAGIC = b"BPDOFLD1"
# magic, n1, n2, N, L, padded to 32 bytes
_FIELD_HEADER = struct.Struct("<8sIIId4x")


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [0, L)^(n1+n2).

    Attributes
    ----------
    n1, n2 : int
        Number of axes in the first and second parameter block.
    points_per_axis : int
        Samples per axis, even and at least 4.
    period : float
        Side length L of the torus.
    """

    n1: int
    n2: int
    points_per_axis: int
    period: float

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.n

    @property
    def size(self) -> int:
        return self.points_per_axis ** self.n

    @property
    def cell_volume(self) -> float:
        return (self.period / self.points_per_axis) ** self.n

    def axis_coords(self) -> np.ndarray:
        """Sample positions along one axis."""
        N = self.points_per_axis
        return np.arange(N) * (self.period / N)

    def axis_freqs(self) -> np.ndarray:
        """Lattice frequencies along one axis, k / L in FFT order."""
        N = self.points_per_axis
        return np.fft.fftfreq(N, d=self.period / N)

    def points(self) -> np.ndarray:
        """All grid points, shape (N^n, n), row-major with block-1 axes first."""
        return _points_freqs(self)[0]

    def freqs(self) -> np.ndarray:
        """All lattice frequencies, shape (N^n, n), flattened in FFT layout."""
        return _points_freqs(self)[1]


def make_grid(n1: int, n2: int, points_per_axis: int, period: float = 1.0) -> GridSpec:
    """Validate parameters and build a :class:`GridSpec`.

    Raises
    ------
    ValueError
        If ``read_number`` rejects an argument (n1, n2 and N are integers),
        a block is empty, N is odd or below 4, the N^n points do not fit an
        array index, or the period is not positive.
    """
    n1 = read_number("n1", n1, int, finite=False)
    n2 = read_number("n2", n2, int, finite=False)
    N = read_number("points_per_axis", points_per_axis, int, finite=False)
    period = read_number("period", period, finite=False)
    if n1 < 1 or n2 < 1:
        raise ValueError(f"block dimensions must be positive integers, got ({n1}, {n2})")
    if N < 4 or N % 2 != 0:
        raise ValueError(f"points_per_axis must be an even integer >= 4, got {N}")
    # N >= 4, so from n = 32 on N^n >= 2^64: the power is not formed there
    if n1 + n2 >= 32 or N ** (n1 + n2) > np.iinfo(np.intp).max:
        raise ValueError(f"a grid of {N}^{n1 + n2} points does not fit an array index")
    if not (np.isfinite(period) and period > 0):
        raise ValueError(f"period must be positive and finite, got {period}")
    return GridSpec(n1, n2, N, period)


@lru_cache(maxsize=64)
def _points_freqs(grid: GridSpec):
    n, x1, k1 = grid.n, grid.axis_coords(), grid.axis_freqs()
    pts = np.stack(np.meshgrid(*([x1] * n), indexing="ij"), axis=-1).reshape(-1, n)
    frs = np.stack(np.meshgrid(*([k1] * n), indexing="ij"), axis=-1).reshape(-1, n)
    pts.setflags(write=False)
    frs.setflags(write=False)
    return pts, frs


@dataclass(frozen=True)
class SampledField:
    """Complex field sampled on a grid.

    ``values`` has shape ``grid.shape`` (row-major, block-1 axes first); a flat
    array of length N^n is accepted and reshaped.  Frequency-domain fields use
    the same container with values indexed by lattice frequency in FFT layout.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.size != self.grid.size:
            raise ValueError(f"expected {self.grid.size} values, got {v.size}")
        v = v.reshape(self.grid.shape)
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class DyadicCube:
    """Axis-aligned cube with power-of-two side, in grid units.

    ``anchor`` is the lower corner index per axis and ``side`` the edge length
    in points.  The cube must lie inside one period (no wraparound), which is
    checked against a grid via :meth:`check`.
    """

    anchor: tuple
    side: int

    def __post_init__(self):
        s = self.side
        if s < 1 or (s & (s - 1)) != 0:
            raise ValueError(f"side must be a positive power of two, got {s}")
        if any(a < 0 for a in self.anchor):
            raise ValueError(f"anchor must be nonnegative, got {self.anchor}")

    def check(self, grid: GridSpec) -> None:
        if len(self.anchor) != grid.n:
            raise ValueError(f"anchor has {len(self.anchor)} axes, grid has {grid.n}")
        N = grid.points_per_axis
        if self.side > N or any(a + self.side > N for a in self.anchor):
            raise ValueError(f"cube {self.anchor}+{self.side} leaves the period (N={N})")


def dft_forward(f: SampledField) -> SampledField:
    """Forward transform with quadrature weight (L/N)^n."""
    return SampledField(f.grid, np.fft.fftn(f.values) * f.grid.cell_volume)


def dft_inverse(fhat: SampledField) -> SampledField:
    """Inverse transform with weight (1/L)^n per lattice frequency."""
    g = fhat.grid
    scale = (g.points_per_axis / g.period) ** g.n
    return SampledField(g, np.fft.ifftn(fhat.values) * scale)


def lp_exponent(p) -> float:
    """``p`` as a float L^p exponent, read by ``read_number``: at least 1,
    or +inf."""
    p = read_number("p", p, finite=False)
    if not p >= 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return p


def lp_norms(f: SampledField, ps) -> list:
    """The discrete L^p norms of f, with cell-volume weight, for each p in
    ``ps`` (p = inf gives the sup norm), from one |f|.

    Each finite p sums |f|^p formed in place, in a copy of |f| except at the
    last finite p, so the norms hold at most two lattice arrays besides the
    field; each equals the one-exponent sum bit for bit.  When sum |f|^p
    leaves the float range (large p), that norm is taken again as
    max|f| (sum (|f| / max|f|)^p vol)^(1/p).
    """
    ps = [lp_exponent(p) for p in ps]
    if not ps:
        return []
    a = np.abs(f.values)
    out = [float(a.max()) if np.isinf(p) else 0.0 for p in ps]
    finite = [i for i, p in enumerate(ps) if not np.isinf(p)]
    buf = np.empty_like(a) if len(finite) > 1 else None
    vol = f.grid.cell_volume
    for i in finite:
        p, ap = ps[i], a
        if i != finite[-1]:
            np.copyto(buf, a)
            ap = buf
        with np.errstate(over="ignore"):
            ap **= p  # in place, with the bits of a ** p
            norm = float((np.sum(ap) * vol) ** (1.0 / p))
        if not 0.0 < norm < np.inf:
            full = np.abs(f.values)
            top = float(full.max())
            if top > 0.0:
                norm = top * float((np.sum((full / top) ** p) * vol) ** (1.0 / p))
        out[i] = norm
    return out


def lp_norm(f: SampledField, p: float) -> float:
    """The discrete L^p norm of f: ``lp_norms`` at the one exponent p."""
    return lp_norms(f, [p])[0]


# complex values gathered per block of exactly evaluated cubes
_BMO_BLOCK = 1 << 13
# relative margin on every pruning bound, far above the rounding it covers
_BMO_MARGIN = 1e-9


def _cube_sums(windows: np.ndarray, anchors) -> np.ndarray:
    """Sum of |v - v_Q| over the cube Q at each flat anchor index.

    ``windows`` is the cube-side sliding-window view of the wrap-padded
    field.  The cube mean sums the offsets one axis at a time and the
    deviations sum the offsets in ``np.ndindex`` order, one after another:
    the order of a full-grid scan that adds one shifted copy of the field
    per offset.  ``np.add.accumulate`` fixes that order, where a reduction
    may sum pairwise.
    """
    block = windows[np.unravel_index(anchors, windows.shape[:windows.ndim // 2])]
    mean = block
    for _ in range(block.ndim - 1):
        mean = np.add.accumulate(mean, axis=1)[:, -1]
    block = block.reshape(len(anchors), -1)
    block -= (mean / float(block.shape[1]))[:, None]
    dev = np.abs(block)
    return np.add.accumulate(dev, axis=1, out=dev)[:, -1]


def bmo_norm(f: SampledField, floor: float = 0.0) -> float:
    """Mean-oscillation norm over periodic dyadic cubes, or ``floor`` if larger.

    The cube family contains every axis-aligned cube whose side is a power of
    two (2, 4, ..., N points), anchored at every lattice position and wrapping
    periodically.  For each cube Q the oscillation is the cube average of
    |f - f_Q| (modulus for complex fields), and the norm is the sup over the
    family.  Closure of the family under lattice shifts makes the value exactly
    invariant under periodic translation, and invariant under adding constants.

    The scan is exact but pruned.  Per side s < N, Cauchy-Schwarz bounds the
    oscillation at every anchor at once: mean|f - f_Q| <= k sqrt(mean|c|^2 -
    |c_Q|^2), where c = (f - mean f) / k and k = max|f - mean f|, which limits
    cancellation and underflow.  The box means of c and |c|^2 come from
    power-of-two doubling, O(n N^n) per side.  Every rounding error is
    covered: (4 n s + 16) eps mean|c|^2 is added under the root (box sums,
    the difference and c itself), 4 n s eps max|f| is added for the rounding
    of the computed f_Q, and the sum is scaled by 1 + 1e-9 + 4 s^n eps for
    the summation over the cube.  Anchors are evaluated in decreasing order
    of this bound, in vectorized blocks, and the side is left as soon as the
    next bound falls below the best value found.  At side N every cube is
    the whole torus: one anchor is evaluated first, and the others, which
    differ from it only by rounding, are evaluated only when it comes within
    that rounding of the sup.

    An evaluated cube sums the same terms in the same order as the full
    brute-force scan (see ``_cube_sums``), and a skipped cube cannot exceed
    the value already found, so the result equals the brute-force sup bit
    for bit.

    ``floor`` (finite, >= 0, else ValueError) is a branch-and-bound start:
    the scan begins with best = max(whole torus, floor), and a side whose
    largest bound is below best is skipped whole.  The result is
    max(bmo_norm(f), floor) bit for bit: a sup above the floor is reached by
    a cube whose bound is at least its value, which is still evaluated, in
    the same order; otherwise the floor is returned.  A caller that wants
    only the maximum over several fields passes the best value so far.
    """
    floor = float(floor)
    if not 0.0 <= floor < np.inf:
        raise ValueError(f"floor must be finite and >= 0, got {floor}")
    v = f.values
    n, N = v.ndim, f.grid.points_per_axis
    eps = float(np.finfo(float).eps)
    padded = np.pad(v, [(0, N - 1)] * n, mode="wrap")
    whole = float(_cube_sums(sliding_window_view(padded, v.shape), [0])[0]) / N ** n
    best = max(whole, floor)
    vmax = float(np.abs(v).max())
    c = v - v.mean()
    scale = float(np.abs(c).max()) or 1.0
    box_c = c / scale  # box sums of c and |c|^2 at the current side
    box_sq = box_c.real ** 2 + box_c.imag ** 2
    side = 1
    while side < N:
        for ax in range(n):
            box_sq = box_sq + np.roll(box_sq, -side, axis=ax)
            box_c = box_c + np.roll(box_c, -side, axis=ax)
        side *= 2
        vol = side ** n
        if side < N:
            msq, mc = box_sq / vol, box_c / vol
            var = np.maximum(msq - (mc.real ** 2 + mc.imag ** 2), 0.0)
            bound = scale * np.sqrt(var + (4 * n * side + 16) * eps * msq)
        else:
            bound = np.full(v.shape, whole)
        reach = (bound + 4 * n * side * eps * vmax) * (1 + _BMO_MARGIN + 4 * vol * eps)
        if not reach.max() >= best:
            continue
        order = np.argsort(reach, axis=None)[::-1]
        reach = reach.ravel()[order]
        windows = sliding_window_view(padded, (side,) * n)[(slice(0, N),) * n]
        per_block = max(1, _BMO_BLOCK // vol)
        i = 0
        while i < reach.size and reach[i] >= best:
            stop = i + int(np.count_nonzero(reach[i:i + per_block] >= best))
            best = max(best, float(_cube_sums(windows, order[i:stop]).max()) / vol)
            i = stop
    return best


def write_field(f: SampledField, path) -> None:
    """Write a field as a 32-byte header plus little-endian complex64 values.

    Raises ValueError, before the file is opened, when a value does not fit
    in complex64 (``read_field`` would reject the infinite samples).
    """
    g = f.grid
    with np.errstate(over="ignore"):
        vals = np.ascontiguousarray(f.values, dtype="<c8")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{path}: field values overflow complex64")
    header = _FIELD_HEADER.pack(FIELD_MAGIC, g.n1, g.n2, g.points_per_axis, g.period)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(vals.tobytes())


def read_field(path) -> SampledField:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        if len(raw) < _FIELD_HEADER.size:
            raise ValueError("truncated field file")
        magic, n1, n2, N, L = _FIELD_HEADER.unpack_from(raw)
        if magic != FIELD_MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        grid = make_grid(int(n1), int(n2), int(N), float(L))
        vals = np.frombuffer(raw, dtype="<c8", offset=_FIELD_HEADER.size)
        if vals.size != grid.size:
            raise ValueError(f"expected {grid.size} samples, found {vals.size}")
        return SampledField(grid, vals.astype(np.complex128))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
