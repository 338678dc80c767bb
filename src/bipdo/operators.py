"""Quantized operators: application, adjoints, kernel slices, dilation.

The quantization rule is

    (T f)(x) = sum_{xi in lattice} fhat(xi) sigma(x, xi) e^{2 pi i x.xi} (1/L)^n

with fhat from ``dft_forward``.  The dense path evaluates this sum literally
(chunked over output points) and is the reference semantics: apply, apply_at
and the dense adjoint share one chunked sweep.  The separable
path rewrites sigma = sum_k a_k(x) b_k(xi) as multiplier sandwiches

    T f = sum_k a_k * ifft(b_k * fft(f))

which agrees with the dense path to roundoff and runs at FFT speed.  Adjoints
are taken with respect to the quadrature inner product <u, v> =
sum u conj(v) (L/N)^n.

``apply_at`` evaluates the same lattice sum at arbitrary (off-grid) points,
which makes the dilation conjugation identity exact: with s = 2^(j rho),
T f at x equals the operator with symbol sigma(x/s, s xi) on the grid of
period s L applied to the rescaled samples, evaluated at s x.
"""
from __future__ import annotations

import numpy as np

from .grid import GridSpec, SampledField, dft_forward, dft_inverse
from .symbols import SymbolDescriptor, make_symbol

# elements per evaluator chunk in dense sweeps
_CHUNK = 1 << 22


class QuantizedOperator:
    """A symbol bound to a grid with a chosen application path.

    ``path`` is "dense" or "separable"; "auto" at construction picks the
    separable path whenever the symbol carries separable terms.  The
    separable path caches the factor tables a_k on the point grid and b_k on
    the frequency lattice; the dense path caches nothing and evaluates the
    symbol afresh in every sweep.
    """

    def __init__(self, symbol: SymbolDescriptor, grid: GridSpec, path: str = "auto"):
        if symbol.n != grid.n:
            raise ValueError(
                f"symbol has {symbol.n} axes, grid has {grid.n}")
        if path == "auto":
            path = "separable" if symbol.separable_terms is not None else "dense"
        if path not in ("dense", "separable"):
            raise ValueError(f"unknown path '{path}'")
        if path == "separable" and symbol.separable_terms is None:
            raise ValueError("separable path requires a symbol with separable terms")
        self.symbol = symbol
        self.grid = grid
        self.path = path
        self._factors = None

    def _separable_factors(self):
        if self._factors is None:
            pts = self.grid.points()
            frs = self.grid.freqs()
            shape = self.grid.shape
            factors = []
            for a, b in self.symbol.separable_terms:
                av = np.asarray(a(pts), dtype=complex).reshape(shape)
                bv = np.asarray(b(frs), dtype=complex).reshape(shape)
                factors.append((av, bv))
            self._factors = factors
        return self._factors


def quantize(symbol: SymbolDescriptor, grid: GridSpec, path: str = "auto") -> QuantizedOperator:
    return QuantizedOperator(symbol, grid, path)


def _check_grid(T: QuantizedOperator, f: SampledField):
    if f.grid != T.grid:
        raise ValueError(f"field grid {f.grid} does not match operator grid {T.grid}")


def apply(T: QuantizedOperator, f: SampledField) -> SampledField:
    """Apply the operator; both paths realize the same lattice sum."""
    _check_grid(T, f)
    if T.path == "separable":
        fhat = np.fft.fftn(f.values)
        out = np.zeros(T.grid.shape, dtype=complex)
        for av, bv in T._separable_factors():
            out += av * np.fft.ifftn(bv * fhat)
        return SampledField(T.grid, out)
    fhat_flat = dft_forward(f).values.ravel()
    vals = _dense_rows(T.symbol, T.grid, T.grid.points(), fhat_flat)
    return SampledField(T.grid, vals.reshape(T.grid.shape))


def _dense_blocks(symbol: SymbolDescriptor, grid: GridSpec, xs: np.ndarray):
    """Yield (rows, K) for successive chunks ``xs[rows]`` of the points, with
    K = sigma(x, xi) e^{2 pi i x.xi} over (point, frequency)."""
    frs = grid.freqs()
    step = max(1, _CHUNK // max(1, frs.shape[0]))
    for i in range(0, len(xs), step):
        xc = xs[i:i + step]
        sig = np.asarray(symbol.evaluator(xc[:, None, :], frs[None, :, :]),
                         dtype=complex)
        yield slice(i, i + step), sig * np.exp(2j * np.pi * (xc @ frs.T))


def _dense_rows(symbol: SymbolDescriptor, grid: GridSpec, xs: np.ndarray,
                fhat_flat: np.ndarray) -> np.ndarray:
    out = np.empty(len(xs), dtype=complex)
    for rows, K in _dense_blocks(symbol, grid, xs):
        out[rows] = K @ fhat_flat
    return out / grid.period ** grid.n


def apply_at(T: QuantizedOperator, f: SampledField, x) -> complex:
    """Evaluate T f at arbitrary points (same lattice quadrature as apply).

    ``x`` is one point of shape (n,) or a stack (..., n); returns a complex
    scalar or the matching array.
    """
    _check_grid(T, f)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    rows = np.atleast_2d(x)
    if rows.shape[-1] != T.grid.n:
        raise ValueError(f"points have {rows.shape[-1]} axes, grid has {T.grid.n}")
    fhat_flat = dft_forward(f).values.ravel()
    vals = _dense_rows(T.symbol, T.grid, rows.reshape(-1, T.grid.n), fhat_flat)
    if single:
        return complex(vals[0])
    return vals.reshape(x.shape[:-1])


def adjoint_apply(T: QuantizedOperator, g: SampledField) -> SampledField:
    """Apply the conjugate transpose with respect to the quadrature product.

    Separable operators use the exact factor-wise adjoint
    T* g = sum_k ifft(conj(b_k) fft(conj(a_k) g)).  Dense operators run the
    apply sweep with each kernel block conjugated and transposed.
    """
    _check_grid(T, g)
    if T.path == "separable":
        out = np.zeros(T.grid.shape, dtype=complex)
        for av, bv in T._separable_factors():
            out += np.fft.ifftn(np.conj(bv) * np.fft.fftn(np.conj(av) * g.values))
        return SampledField(T.grid, out)
    grid = T.grid
    gv = g.values.ravel()
    acc = np.zeros(grid.size, dtype=complex)
    for rows, K in _dense_blocks(T.symbol, grid, grid.points()):
        acc += K.conj().T @ gv[rows]
    acc *= grid.cell_volume
    return dft_inverse(SampledField(grid, acc.reshape(grid.shape)))


def kernel_slice(symbol: SymbolDescriptor, grid: GridSpec, x) -> SampledField:
    """The x-slice of the kernel: y -> sum_xi sigma(x, xi) e^{-2 pi i y.xi} / L^n."""
    x = np.asarray(x, dtype=float)
    if x.shape != (grid.n,):
        raise ValueError(f"x must be one point of shape ({grid.n},), got {x.shape}")
    frs = grid.freqs()
    table = np.asarray(symbol.evaluator(x[None, :], frs), dtype=complex)
    table = table.reshape(grid.shape)
    vals = np.fft.fftn(table) / grid.period ** grid.n
    return SampledField(grid, vals)


def kernel_l1(symbol: SymbolDescriptor, grid: GridSpec, x) -> float:
    """Quadrature L1 norm of the kernel slice at x."""
    sl = kernel_slice(symbol, grid, x)
    return float(np.sum(np.abs(sl.values)) * grid.cell_volume)


def kernel_l1_split(symbol: SymbolDescriptor, grid: GridSpec, x, radius: float):
    """Kernel L1 mass split at periodic distance ``radius`` from the diagonal.

    Returns (near, far): the quadrature L1 mass of the slice over |y| <= radius
    and its complement, with |y| the periodic Euclidean distance.  The split
    radius is a free diagnostic parameter; sweeping it locates where kernel
    mass concentrates.
    """
    sl = kernel_slice(symbol, grid, x)
    L = grid.period
    c = grid.axis_coords()
    d1 = np.minimum(c, L - c)
    dist2 = np.zeros(grid.shape)
    for a in range(grid.n):
        shape = [1] * grid.n
        shape[a] = grid.points_per_axis
        dist2 = dist2 + (d1 ** 2).reshape(shape)
    mask = np.sqrt(dist2) <= radius
    mass = np.abs(sl.values) * grid.cell_volume
    near = float(np.sum(mass[mask]))
    return near, float(np.sum(mass) - near)


def dilate_symbol(symbol: SymbolDescriptor, scale) -> SymbolDescriptor:
    """The conjugated symbol sigma(x/s, s xi) for per-axis scales s.

    With scalar ``scale`` every axis is dilated equally; an array gives one
    factor per axis.  Class parameters are unchanged (dilation maps the class
    to itself; the seminorm changes by bounded factors absorbed in constants).
    """
    s = np.asarray(scale, dtype=float)
    if s.ndim == 0:
        s = np.full(symbol.n, float(s))
    if s.shape != (symbol.n,) or np.any(s <= 0):
        raise ValueError(f"scale must be positive scalar or ({symbol.n},) array")
    ev = symbol.evaluator

    def evaluator(x, xi, _e=ev, _s=s):
        return _e(np.asarray(x, dtype=float) / _s, np.asarray(xi, dtype=float) * _s)

    terms = None
    if symbol.separable_terms is not None:
        def wrap_a(a, _s=s):
            def ad(x, _a=a):
                return np.asarray(_a(np.asarray(x, dtype=float) / _s))
            return ad

        def wrap_b(b, _s=s):
            def bd(xi, _b=b):
                return np.asarray(_b(np.asarray(xi, dtype=float) * _s))
            return bd
        terms = tuple((wrap_a(a), wrap_b(b)) for a, b in symbol.separable_terms)
    return make_symbol(evaluator, symbol.n1, symbol.n2, order=symbol.order,
                       rho=symbol.rho, delta=symbol.delta, separable_terms=terms,
                       name=f"{symbol.name}|dilated")
