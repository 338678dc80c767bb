"""Quantized operators: application, adjoints, kernel slices.

The quantization rule is

    (T f)(x) = sum_{xi in lattice} fhat(xi) sigma(x, xi) e^{2 pi i x.xi} (1/L)^n

with fhat from ``dft_forward``.  The separable path, every operator's
default, applies the symbol's terms sigma = sum_k a_k(x) b_k(xi) as
multiplier sandwiches at FFT speed.  It is built from two halves, each a sum
over the terms:

    synthesize:  T ifft(fhat)  = sum_k a_k * ifft(b_k * fhat)
    analyze:     fft(T* g)     = sum_k conj(b_k) * fft(conj(a_k) * g)

so that T f = synthesize(T, fft(f)) and T* g = ifft(analyze(T, g)), the
adjoint for the quadrature inner product <u, v> = sum u conj(v) (L/N)^n.  A
product of operators can chain the halves on DFT coefficients and skip the
ifft/fft pair between them.  The dense path, on request, is the oracle of the
separable apply: it evaluates the lattice sum literally, with sigma summed
from the same terms.  The dense apply and apply_at share one sweep, chunked
over output points, which builds the phase e^{2 pi i x.xi} as a product of
per-axis tables e^{2 pi i x_a k_a}.  The path chooses only how apply
evaluates T: adjoint_apply and the maps ``analysis.l2_opnorm`` iterates read
the factor tables on either path, and ``multiplier_table`` reads them to spot
a Fourier multiplier.  A kernel slice transforms sigma(x, .) on the lattice
on either path.

``apply_at`` evaluates the same lattice sum at arbitrary (off-grid) points,
which makes the dilation conjugation identity exact: with s = 2^(j rho),
T f at x equals the operator with symbol sigma(x/s, s xi) on the grid of
period s L applied to the rescaled samples, evaluated at s x.
"""
from __future__ import annotations

import numpy as np

from .grid import GridSpec, SampledField, dft_forward
from .symbols import SymbolDescriptor, sum_terms

# elements per evaluator chunk in dense sweeps
_CHUNK = 1 << 22


class QuantizedOperator:
    """A symbol bound to a grid with a chosen application path.

    ``path`` is "separable" (the default) or "dense"; it chooses how apply
    evaluates T.  The factor tables a_k on the point grid and b_k on the
    frequency lattice, the operator's one cache, are built on first use and
    serve the separable apply, and the adjoint and the norm iteration on
    either path.  The dense apply sums the terms afresh in every sweep.
    """

    def __init__(self, symbol: SymbolDescriptor, grid: GridSpec,
                 path: str = "separable"):
        if symbol.n != grid.n:
            raise ValueError(
                f"symbol has {symbol.n} axes, grid has {grid.n}")
        if symbol.n1 != grid.n1:
            raise ValueError(f"symbol has factors ({symbol.n1}, {symbol.n2}), "
                             f"grid has ({grid.n1}, {grid.n2})")
        if path not in ("dense", "separable"):
            raise ValueError(f"unknown path '{path}'")
        self.symbol = symbol
        self.grid = grid
        self.path = path
        self._factors = None

    def _separable_factors(self):
        """The (a_k, b_k) tables, each checked by ``_finite``."""
        if self._factors is None:
            pts = self.grid.points()
            frs = self.grid.freqs()
            shape = self.grid.shape
            self._factors = [(_finite(self, a, pts).reshape(shape),
                              _finite(self, b, frs).reshape(shape))
                             for a, b in self.symbol.separable_terms]
        return self._factors


def _finite(T: QuantizedOperator, fn, *args) -> np.ndarray:
    """fn(*args) as a complex array, computed with numpy's warnings off; a
    value that is not finite, e.g. from an order that overflows, is a
    ValueError naming T's symbol."""
    with np.errstate(all="ignore"):
        out = np.asarray(fn(*args), dtype=complex)
    if not np.isfinite(out).all():
        raise ValueError(f"symbol {T.symbol.name} is not finite on "
                         f"the {T.grid.points_per_axis}^{T.grid.n} grid")
    return out


def quantize(symbol: SymbolDescriptor, grid: GridSpec,
             path: str = "separable") -> QuantizedOperator:
    return QuantizedOperator(symbol, grid, path)


def check_grid(T: QuantizedOperator, grid: GridSpec):
    """Raise ValueError unless a field on ``grid`` can be applied to T."""
    if grid != T.grid:
        raise ValueError(f"field grid {grid} does not match operator grid {T.grid}")


def apply(T: QuantizedOperator, f: SampledField) -> SampledField:
    """Apply the operator; both paths realize the same lattice sum."""
    check_grid(T, f.grid)
    if T.path == "separable":
        return SampledField(T.grid, synthesize(T, np.fft.fftn(f.values)))
    vals = _finite(T, _dense_rows, T, T.grid.points(), f)
    return SampledField(T.grid, vals.reshape(T.grid.shape))


def _dense_rows(T: QuantizedOperator, xs: np.ndarray, f: SampledField) -> np.ndarray:
    """The lattice sum of T f at the points ``xs``, chunked over points, with
    K = sigma(x, xi) e^{2 pi i x.xi} over (point, frequency) per chunk.

    The phase factors over the axes, e^{2 pi i x.xi} = prod_a e^{2 pi i x_a k_a},
    so each chunk builds n tables of shape (chunk, N) and multiplies them out
    in the lattice's row-major order.  A value of sigma that is not finite
    makes the sum non-finite, so callers check the sum once by ``_finite``.
    """
    grid = T.grid
    fhat_flat = dft_forward(f).values.ravel()
    frs = grid.freqs()
    k = grid.axis_freqs()
    step = max(1, _CHUNK // max(1, frs.shape[0]))
    out = np.empty(len(xs), dtype=complex)
    for i in range(0, len(xs), step):
        xc = xs[i:i + step]
        K = np.exp(2j * np.pi * np.multiply.outer(xc[:, 0], k))
        for a in range(1, grid.n):
            E = np.exp(2j * np.pi * np.multiply.outer(xc[:, a], k))
            K = (K[:, :, None] * E[:, None, :]).reshape(len(xc), -1)
        K *= T.symbol.evaluator(xc[:, None, :], frs[None, :, :])
        out[i:i + step] = K @ fhat_flat
    return out / grid.period ** grid.n


def apply_at(T: QuantizedOperator, f: SampledField, x) -> complex:
    """Evaluate T f at arbitrary points (same lattice quadrature as apply).

    ``x`` is one point of shape (n,) or a stack (..., n); returns a complex
    scalar or the matching array.
    """
    check_grid(T, f.grid)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    rows = np.atleast_2d(x)
    if rows.shape[-1] != T.grid.n:
        raise ValueError(f"points have {rows.shape[-1]} axes, grid has {T.grid.n}")
    vals = _finite(T, _dense_rows, T, rows.reshape(-1, T.grid.n), f)
    if single:
        return complex(vals[0])
    return vals.reshape(x.shape[:-1])


def adjoint_apply(T: QuantizedOperator, g: SampledField) -> SampledField:
    """Apply the conjugate transpose with respect to the quadrature product.

    On either path this is the exact factor-wise adjoint
    T* g = ifft(sum_k conj(b_k) fft(conj(a_k) g)) over the cached factor
    tables: K + 1 FFTs for K terms.
    """
    check_grid(T, g.grid)
    return SampledField(T.grid, np.fft.ifftn(analyze(T, g.values)))


def synthesize(T: QuantizedOperator, fhat: np.ndarray) -> np.ndarray:
    """T ifft(fhat) = sum_k a_k ifft(b_k fhat) on the point grid, from the DFT
    coefficients ``fhat`` (FFT layout) of the field T is applied to."""
    return sum_terms((av * np.fft.ifftn(bv * fhat)
                      for av, bv in T._separable_factors()), T.grid.shape)


def analyze(T: QuantizedOperator, g: np.ndarray) -> np.ndarray:
    """fft(T* g) = sum_k conj(b_k) fft(conj(a_k) g): the DFT coefficients of
    the adjoint applied to the point values ``g``."""
    return sum_terms((np.conj(bv) * np.fft.fftn(np.conj(av) * g)
                      for av, bv in T._separable_factors()), T.grid.shape)


def multiplier_table(T: QuantizedOperator):
    """T's lattice multiplier table (FFT layout) when every a-factor is
    constant, so that T is the Fourier multiplier f -> ifft(m fft(f)), else None."""
    factors = T._separable_factors()
    if all(np.all(av == av.flat[0]) for av, _ in factors):
        return sum_terms((av.flat[0] * bv for av, bv in factors), T.grid.shape)
    return None


def kernel_slice(T: QuantizedOperator, x) -> SampledField:
    """The x-slice of the kernel: y -> sum_xi sigma(x, xi) e^{-2 pi i y.xi} / L^n,
    the fftn of sigma(x, .) on the lattice over L^n, on either path."""
    grid = T.grid
    x = np.asarray(x, dtype=float)
    if x.shape != (grid.n,):
        raise ValueError(f"x must be one point of shape ({grid.n},), got {x.shape}")
    table = _finite(T, T.symbol.evaluator, x[None, :], grid.freqs())
    vals = np.fft.fftn(table.reshape(grid.shape)) / grid.period ** grid.n
    return SampledField(grid, vals)


def kernel_l1(T: QuantizedOperator, x) -> float:
    """Quadrature L1 norm of the kernel slice at x: ``lp_norm(slice, 1)`` bit
    for bit, without its power and rescaling."""
    sl = kernel_slice(T, x)
    return float(np.sum(np.abs(sl.values)) * T.grid.cell_volume)
