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
separable apply: the direct sum (no inverse FFT) of the same lattice sum,
sum_k a_k(x) sum_xi b_k(xi) fhat(xi) e^{2 pi i x.xi}, which the dense apply
and apply_at sweep over blocks of output points one axis at a time, so their
working set does not grow with N (0.5 MiB at 32^2, 0.6 MiB at 64^2).  The
literal sum of sigma from the evaluator is ``literal_sum`` in
``tests/test_operators.py``.  The path chooses only how apply
evaluates T: adjoint_apply and the maps ``analysis.l2_opnorm`` iterates read
the factor tables on either path, and ``multiplier_table`` reads them to spot
a Fourier multiplier.  A kernel slice transforms sigma(x, .) on the lattice
on either path: sigma is evaluated in blocks of ``_CHUNK`` lattice rows into
one complex table, which is transformed and scaled in place, so a 512^2
slice holds one 4 MiB table and one block of temporaries.  Its L1 norm,
``kernel_l1``, is ``grid.lp_norm`` of the slice at p = 1.  ``reweighted``
builds one operator's tables from another's on the same grid: the a_k tables
shared, and each b_k table the other's times one weight on the lattice.

Every FFT here writes into an array its own function allocated (``out=``),
never into a caller's array such as ``f.values`` or a battery's ``fhat``:
synthesize and analyze transform the product they have just formed and
multiply their factor into the same buffer.  An in-place transform has the
bits of the out-of-place one.

``apply_at`` evaluates the same lattice sum at arbitrary (off-grid) points,
which makes the dilation conjugation identity exact: with s = 2^(j rho),
T f at x equals the operator with symbol sigma(x/s, s xi) on the grid of
period s L applied to the rescaled samples, evaluated at s x.  ``apply_at``
and ``kernel_slice`` read their points by ``symbols.read_points`` before
anything is evaluated.
"""
from __future__ import annotations

import numpy as np

from .grid import GridSpec, SampledField, dft_forward, lp_norm
from .symbols import SymbolDescriptor, read_points, sum_terms

# lattice rows per block of a kernel slice's symbol evaluation, and four
# times the elements of a block of the dense sweep's per-axis sums
_CHUNK = 1 << 15


class QuantizedOperator:
    """A symbol bound to a grid with a chosen application path.

    ``path`` is "separable" (the default) or "dense"; it chooses how apply
    evaluates T.  The factor tables a_k on the point grid and b_k on the
    frequency lattice, the operator's one cache, are built on first use and
    serve the separable apply, and the adjoint and the norm iteration on
    either path.  The dense apply does not read them: every sweep evaluates
    the terms afresh, each b_k once on the lattice and each a_k per block of
    points, and sums them directly.
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


def reweighted(T: QuantizedOperator, symbol: SymbolDescriptor, weight) -> QuantizedOperator:
    """``symbol`` on T's grid and path, for a symbol whose terms are T's with
    each b_k times one weight w(xi) = ``weight(xi)``: its factor tables are
    T's a_k tables, shared, and T's b_k tables times w on the lattice, each
    product checked by ``_finite`` as a table of ``symbol``.  A product has
    the bits of the table of b_k(xi) * w(xi) computed left to right, so an
    order whose weight overflows is refused as ``quantize`` refuses it."""
    grid = T.grid
    S = QuantizedOperator(symbol, grid, T.path)
    with np.errstate(all="ignore"):
        w = np.reshape(weight(grid.freqs()), grid.shape)
    S._factors = [(av, _finite(S, np.multiply, bv, w)) for av, bv in T._separable_factors()]
    return S


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
    """The lattice sum of T f at the points ``xs``, summed directly (no
    inverse FFT), one axis at a time, over blocks of rows.

    sigma's terms are summed in their order: v_k = b_k fhat is formed on the
    lattice once per sweep, and each block contracts it with the per-axis
    phases E_a = e^{2 pi i x_a k_a}, last axis first, then multiplies by a_k
    at the block's points.  The contractions are ``np.einsum`` calls, which
    call no BLAS, so each row's sum has the same bits in any block, a lone
    row included.  A block holds about ``_CHUNK`` / 4 elements, so the working
    set does not grow with the rows.  A value of sigma that is not finite
    makes the sum non-finite, so callers check the sum once by ``_finite``.
    """
    grid = T.grid
    fhat = dft_forward(f).values
    k = grid.axis_freqs()
    n, N = grid.n, grid.points_per_axis
    terms = [(a, np.reshape(b(grid.freqs()), grid.shape) * fhat)
             for a, b in T.symbol.separable_terms]
    rows = max(1, _CHUNK // (4 * max(n * N, N ** (n - 1))))
    out = np.empty(len(xs), dtype=complex)
    for i in range(0, len(xs), rows):
        xc = xs[i:i + rows]
        E = np.exp(2j * np.pi * (xc[:, :, None] * k))
        sums = []
        for a_fn, v in terms:
            t = np.einsum("...j,rj->r...", v, E[:, -1])
            for a in range(n - 2, -1, -1):
                t = np.einsum("r...j,rj->r...", t, E[:, a])
            sums.append(np.asarray(a_fn(xc)) * t)
        out[i:i + rows] = sum_terms(sums, len(xc))
    return out / grid.period ** grid.n


def apply_at(T: QuantizedOperator, f: SampledField, x) -> complex:
    """Evaluate T f at arbitrary points (same lattice quadrature as apply).

    ``x`` is one point of shape (n,) or a list (k, n) of them, read by
    ``read_points``; returns a complex scalar or the matching array.  A point
    whose phase e^{2 pi i x.xi} is not finite on the lattice is a ValueError
    naming it, raised before the symbol is evaluated.
    """
    check_grid(T, f.grid)
    x = read_points("points", x, T.grid.n)
    rows = np.atleast_2d(x)
    # a row's largest phase angle is 2 pi max|x_a| max|k|, rounded as in _dense_rows
    with np.errstate(over="ignore"):
        far = ~np.isfinite(2 * np.pi * (np.abs(rows).max(axis=-1)
                                        * np.abs(T.grid.axis_freqs()).max()))
    if far.any():
        raise ValueError(f"points must have a finite phase e^(2 pi i x.xi) on the "
                         f"{T.grid.points_per_axis}^{T.grid.n} grid, "
                         f"got {rows[np.argmax(far)].tolist()!r}")
    vals = _finite(T, _dense_rows, T, rows, f)
    return complex(vals[0]) if x.ndim == 1 else vals


def adjoint_apply(T: QuantizedOperator, g: SampledField) -> SampledField:
    """Apply the conjugate transpose with respect to the quadrature product.

    On either path this is the exact factor-wise adjoint
    T* g = ifft(sum_k conj(b_k) fft(conj(a_k) g)) over the cached factor
    tables: K + 1 FFTs for K terms.
    """
    check_grid(T, g.grid)
    vals = analyze(T, g.values)
    return SampledField(T.grid, np.fft.ifftn(vals, out=vals))


def synthesize(T: QuantizedOperator, fhat: np.ndarray) -> np.ndarray:
    """T ifft(fhat) = sum_k a_k ifft(b_k fhat) on the point grid, from the DFT
    coefficients ``fhat`` (FFT layout) of the field T is applied to."""
    def term(av, bv):
        buf = bv * fhat
        np.fft.ifftn(buf, out=buf)
        return np.multiply(av, buf, out=buf)
    return sum_terms((term(av, bv) for av, bv in T._separable_factors()),
                     T.grid.shape)


def analyze(T: QuantizedOperator, g: np.ndarray) -> np.ndarray:
    """fft(T* g) = sum_k conj(b_k) fft(conj(a_k) g): the DFT coefficients of
    the adjoint applied to the point values ``g``."""
    def term(av, bv):
        buf = np.conj(av) * g
        np.fft.fftn(buf, out=buf)
        return np.multiply(np.conj(bv), buf, out=buf)
    return sum_terms((term(av, bv) for av, bv in T._separable_factors()),
                     T.grid.shape)


def multiplier_table(T: QuantizedOperator):
    """T's lattice multiplier table (FFT layout) when every a-factor is
    constant, so that T is the Fourier multiplier f -> ifft(m fft(f)), else None."""
    factors = T._separable_factors()
    if all(np.all(av == av.flat[0]) for av, _ in factors):
        return sum_terms((av.flat[0] * bv for av, bv in factors), T.grid.shape)
    return None


def kernel_slice(T: QuantizedOperator, x) -> SampledField:
    """The x-slice of the kernel: y -> sum_xi sigma(x, xi) e^{-2 pi i y.xi} / L^n,
    the fftn of sigma(x, .) on the lattice over L^n, on either path.

    sigma(x, .) is evaluated in blocks of ``_CHUNK`` lattice rows, each
    checked by ``_finite`` and written into one complex table that the slice
    allocates; the table is transformed in place and divided by L^n in place.
    The values equal the out-of-place fftn of the whole table bit for bit,
    at any block size."""
    grid = T.grid
    x = read_points("x", x, grid.n)
    if x.ndim != 1:
        raise ValueError(f"x must be one point, got shape {x.shape}")
    frs = grid.freqs()
    vals = np.empty(grid.shape, dtype=complex)
    flat = vals.reshape(-1)
    for i in range(0, len(frs), _CHUNK):
        flat[i:i + _CHUNK] = _finite(T, T.symbol.evaluator, x[None, :],
                                     frs[i:i + _CHUNK])
    np.fft.fftn(vals, out=vals)
    vals /= grid.period ** grid.n
    return SampledField(grid, vals)


def kernel_l1(T: QuantizedOperator, x) -> float:
    """Quadrature L1 norm of the kernel slice at x."""
    return lp_norm(kernel_slice(T, x), 1)
