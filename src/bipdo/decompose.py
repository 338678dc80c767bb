"""Dyadic/cone decompositions, partitions of unity, and derived symbols.

Everything here is built from the cutoff profile ``varphi`` and the frequency
norms, imported from ``bipdo.symbols``, which documents the frozen smooth step.

The module provides dyadic annuli phi_j, cone cutoffs delta_ell on the ratio
|xi2|/|xi1| (with tail-absorbing end indices so the family sums to 1 for every
frequency, including the axes), a cube partition of unity, band-limited
mollifiers that majorize 1 on a cube, ``derived_symbol`` which composes a
parent symbol with these cutoffs (annulus, cone, high-frequency part), and
``theta_symbol``, the symbol of the commutator with a mollifier.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .grid import DyadicCube, GridSpec, SampledField
from .symbols import (SymbolDescriptor, block_norms, read_number, sq_norm,
                      transform_symbol, varphi)

# the DecompositionIndex fields each derived kind reads; it reads no other
_KIND_FIELDS = {"annulus_j": ("j",), "cone_lj": ("j", "ell", "ell_max"),
                "high_r": ("r",)}


def phi_j_radial(norm, j: int):
    """Dyadic annulus weight as a function of |xi|."""
    if j < 0:
        raise ValueError(f"dyadic index must be nonnegative, got {j}")
    norm = np.asarray(norm, dtype=float)
    if j == 0:
        return varphi(norm)
    return varphi(norm * 2.0 ** (-j)) - varphi(norm * 2.0 ** (-j + 1))


def phi_j(xi, j: int):
    """Dyadic annulus weight of a frequency vector (last axis = components)."""
    return phi_j_radial(np.sqrt(sq_norm(xi)), j)


def _delta_from_norms(r1, r2, ell: int, ell_max: int):
    """Cone cutoff as a function of the block norms |xi1|, |xi2|.

    The ratio |xi2|/|xi1| is +inf on the xi1 = 0 lines (absorbed by the top
    index) and the origin is assigned to ell = 0 by convention.  The family
    over ell in [-ell_max, ell_max] sums to 1 exactly by telescoping.  Scalar
    norms give a float.
    """
    if ell_max < 1:
        raise ValueError(f"ell_max must be >= 1, got {ell_max}")
    if abs(ell) > ell_max:
        raise ValueError(f"|ell| = {abs(ell)} exceeds ell_max = {ell_max}")
    if ell == ell_max:
        def profile(t):
            return 1.0 - varphi(t * 2.0 ** (-ell_max + 1))
    elif ell == -ell_max:
        def profile(t):
            return varphi(t * 2.0 ** ell_max)
    else:
        def profile(t):
            return varphi(t * 2.0 ** (-ell)) - varphi(t * 2.0 ** (-ell + 1))
    scalar = np.ndim(r1) == 0 and np.ndim(r2) == 0
    r1 = np.atleast_1d(np.asarray(r1, dtype=float))
    r2 = np.atleast_1d(np.asarray(r2, dtype=float))
    r1, r2 = np.broadcast_arrays(r1, r2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = r2 / r1
    both_zero = (r1 == 0.0) & (r2 == 0.0)
    # any finite placeholder; overwritten below
    safe = np.where(both_zero, 1.0, ratio)
    out = np.where(both_zero, 1.0 if ell == 0 else 0.0, profile(safe))
    return float(out[0]) if scalar else out


def delta_ell(xi1, xi2, ell: int, ell_max: int):
    """Cone cutoff evaluated on frequency blocks (last axis = components)."""
    return _delta_from_norms(np.sqrt(sq_norm(xi1)), np.sqrt(sq_norm(xi2)), ell, ell_max)


def default_ell_max(points_per_axis: int) -> int:
    """Cone truncation index matched to the lattice: log2(N)."""
    return max(1, int(round(np.log2(points_per_axis))))


def cube_partition(x, k):
    """Weight of the unit-lattice cube centered at integer vector k.

    Built from the half-scale profile p(u) = varphi(2u) tensored over axes and
    normalized by the sum over the (at most 3^d) neighboring lattice centers,
    so the weights sum to 1 at every point.  Supported in k + [-1, 1]^d.
    """
    x = np.asarray(x, dtype=float)
    k = np.asarray(k)
    d = x.shape[-1]
    if k.shape != (d,):
        raise ValueError(f"center has shape {k.shape}, expected ({d},)")

    def p0(v):
        return np.prod(varphi(2.0 * v), axis=-1)

    numer = p0(x - k)
    base = np.floor(x)
    denom = np.zeros(numer.shape)
    for off in np.ndindex(*((3,) * d)):
        denom = denom + p0(x - base - (np.asarray(off) - 1))
    return numer / denom


@dataclass(frozen=True)
class DecompositionIndex:
    """Indices selecting a derived piece of a symbol.

    ``j`` is the dyadic scale (a scalar, or a per-factor pair for product
    annuli), ``ell`` the cone index, ``ell_max`` the cone truncation, and
    ``r`` the split scale of the high-frequency part.  Each derived kind
    takes exactly the fields it reads; ``j``, ``ell`` and ``ell_max`` are
    integers and ``r`` a finite number, read by
    :func:`~bipdo.symbols.read_number`.
    """

    j: object = None
    ell: int = None
    r: float = None
    ell_max: int = None

    def __post_init__(self):
        if self.j is not None:
            js = self.j if isinstance(self.j, tuple) else (self.j,)
            try:
                valid = all(read_number("j", v, int) >= 0 for v in js)
            except ValueError:
                valid = False
            if not valid:
                raise ValueError(f"j must be nonnegative integer(s), got {self.j}")
        if self.ell_max is not None and read_number("ell_max", self.ell_max, int) < 1:
            raise ValueError(f"ell_max must be an integer >= 1, got {self.ell_max}")
        if self.ell is not None:
            read_number("ell", self.ell, int)
            if self.ell_max is None:
                raise ValueError("ell requires ell_max")
            if abs(self.ell) > self.ell_max:
                raise ValueError(f"|ell| = {abs(self.ell)} exceeds ell_max = {self.ell_max}")
        if self.r is not None and not read_number("r", self.r) > 0:
            raise ValueError(f"split scale must be positive, got {self.r}")


def _check_fields(index: DecompositionIndex, kind: str):
    """Raise ValueError unless ``index`` sets exactly the fields ``kind`` reads."""
    reads = _KIND_FIELDS[kind]
    for f in (fld.name for fld in fields(index)):
        if f in reads and getattr(index, f) is None:
            raise ValueError(f"derived kind '{kind}' requires index field '{f}'")
        if f not in reads and getattr(index, f) is not None:
            raise ValueError(f"derived kind '{kind}' does not read index field '{f}'")


def _cut_symbol(sigma: SymbolDescriptor, cut, tag: str) -> SymbolDescriptor:
    """Multiply sigma by a frequency cutoff: each term (a, b) becomes (a, b cut)."""
    def term(a, b):
        return [(a, lambda xi, _b=b, _c=cut: np.asarray(_b(xi)) * _c(xi))]
    return transform_symbol(sigma, term, f"{sigma.name}|{tag}")


def derived_symbol(sigma: SymbolDescriptor, index: DecompositionIndex,
                   kind: str) -> SymbolDescriptor:
    """Compose a symbol with the decomposition cutoffs.

    Kinds
    -----
    annulus_j : sigma * phi_j(xi); a pair j = (j1, j2) uses per-factor annuli.
    cone_lj   : sigma * phi_j(xi) * delta_ell(xi).
    high_r    : sigma * (1 - varphi(r |xi|)).
    """
    if kind not in _KIND_FIELDS:
        raise ValueError(f"unknown derived kind '{kind}'; "
                         f"expected one of {tuple(_KIND_FIELDS)}")
    _check_fields(index, kind)
    n1 = sigma.n1

    if kind == "annulus_j":
        j = index.j
        if isinstance(j, tuple):
            if len(j) != 2:
                raise ValueError(f"pair annulus index needs 2 entries, got {j}")
            j1, j2 = int(j[0]), int(j[1])

            def cut(xi, _j1=j1, _j2=j2):
                r1, r2 = block_norms(xi, n1)
                return phi_j_radial(r1, _j1) * phi_j_radial(r2, _j2)
            tag = f"annulus[{j1},{j2}]"
        else:
            jj = int(j)

            def cut(xi, _j=jj):
                return phi_j(xi, _j)
            tag = f"annulus[{jj}]"
        return _cut_symbol(sigma, cut, tag)

    if kind == "cone_lj":
        jj, ell, em = int(index.j), index.ell, index.ell_max

        def cut(xi, _j=jj, _l=ell, _m=em):
            r1, r2 = block_norms(xi, n1)
            return phi_j(xi, _j) * _delta_from_norms(r1, r2, _l, _m)
        return _cut_symbol(sigma, cut, f"cone[{jj},{ell}]")

    # high_r
    scale = float(index.r)

    def cut(xi, _s=scale):
        return 1.0 - varphi(_s * np.sqrt(sq_norm(xi)))
    return _cut_symbol(sigma, cut, f"high[{scale:g}]")


def theta_symbol(sigma: SymbolDescriptor, mollifier: "Mollifier") -> SymbolDescriptor:
    """The symbol of the commutator [lambda, T_sigma] for a band-limited
    mollifier lambda:

        theta(x, xi) = sum_eta beta_eta (sigma(x, xi) - sigma(x, xi + eta))
                       * e^{2 pi i x.eta}

    with beta_eta the Fourier coefficients of lambda.  The shift enters as
    xi + eta: expanding lambda f in modes moves the frequency seen by the
    symbol up by eta, which the difference must mirror for the operator
    identity to be exact.  Each term (a, b) of sigma becomes the terms
    (beta_eta a e^{2 pi i x.eta}, b - b(. + eta)), so a whole-torus mollifier,
    which has no eta != 0, leaves none.
    """
    # (K, n) physical frequencies
    etas = mollifier.mode_steps / mollifier.field.grid.period
    if etas.shape[1] != sigma.n:
        raise ValueError(f"mollifier has {etas.shape[1]} axes, symbol has {sigma.n}")
    # the eta = 0 term vanishes identically
    modes = [(eta, beta) for eta, beta in zip(etas, mollifier.mode_coeffs)
             if np.any(eta)]

    def term(a, b):
        out = []
        for eta, beta in modes:
            def ax(x, _a=a, _eta=eta, _beta=beta):
                x = np.asarray(x, dtype=float)
                return _beta * np.asarray(_a(x)) * np.exp(
                    2j * np.pi * np.sum(x * _eta, axis=-1))

            def bx(xi, _b=b, _eta=eta):
                xi = np.asarray(xi, dtype=float)
                return np.asarray(_b(xi)) - np.asarray(_b(xi + _eta))
            out.append((ax, bx))
        return out
    return transform_symbol(sigma, term, f"{sigma.name}|theta")


@dataclass(frozen=True)
class Mollifier:
    """Band-limited majorant of the indicator of a cube.

    ``field`` holds the values on the construction grid; ``mode_steps`` (K, n
    integer rows) and ``mode_coeffs`` give the exact finite Fourier expansion
    lam(x) = sum_k coeffs[k] * e^{2 pi i (steps[k]/L).x}, which the commutator
    symbol consumes.  ``degree`` is the largest |step| per axis, so the
    transform is supported in |xi| <= sqrt(n) * degree / L.
    """

    field: SampledField
    degree: int
    mode_steps: np.ndarray
    mode_coeffs: np.ndarray


def _one_sided_fejer_autocorr(M: int) -> np.ndarray:
    """Coefficients c_d of |sum_k (1 - k/(M+1)) z^k|^2, d = 0..M."""
    w = 1.0 - np.arange(M + 1) / (M + 1.0)
    return np.array([np.dot(w[: M + 1 - d], w[d:]) for d in range(M + 1)])


def _axis_profile(c: np.ndarray, u: np.ndarray, period: float) -> np.ndarray:
    """Evaluate c_0 + 2 sum_d c_d cos(2 pi d u / L), the per-axis factor."""
    val = np.full(u.shape, c[0])
    for d in range(1, len(c)):
        val = val + 2.0 * c[d] * np.cos(2.0 * np.pi * d * u / period)
    return val


def mollifier_lambda(grid: GridSpec, Q: DyadicCube, rho: float) -> Mollifier:
    """Construct lambda >= 1 on Q, 0 <= lambda <= 10, with Fourier support
    inside |xi| <= (side length)^(-rho).

    Built as c * prod_a |F(x_a - q_a)|^2 where F is a one-sided Fejer-type
    kernel of the largest per-axis degree M compatible with the support
    constraint (sqrt(n) M / L <= r^(-rho)); M is lowered until the cap
    c * max(lambda) <= 10 holds.  A whole-torus cube returns lambda = 1.
    ``rho = 0`` (or any combination making the support radius smaller than
    2/L) is rejected unless the cube is the whole torus.
    """
    Q.check(grid)
    rho = read_number("rho", rho)
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    N, L, n = grid.points_per_axis, grid.period, grid.n
    step = L / N

    if Q.side == N:
        ones = SampledField(grid, np.ones(grid.shape, dtype=complex))
        return Mollifier(ones, 0, np.zeros((1, n), dtype=int),
                         np.ones(1, dtype=complex))

    center = tuple((a + Q.side / 2.0) * step for a in Q.anchor)
    r_phys = Q.side * step
    radius = r_phys ** (-rho)
    if radius < 2.0 / L - 1e-12:
        raise ValueError(
            f"mollifier support radius {radius:g} below 2/L = {2.0 / L:g}; "
            f"use a larger cube or smaller rho")
    m_cap = min(int(np.floor(L * radius / np.sqrt(n))), N // 2 - 1)
    if m_cap < 1:
        raise ValueError(
            f"no admissible nonconstant frequency content for side {r_phys:g}, "
            f"rho {rho:g} on period {L:g}; use a larger cube or smaller rho")

    half = r_phys / 2.0
    # candidate offsets from the cube center where the >= 1 bound is enforced:
    # every grid offset inside the cube plus a dense sweep of the closed cube
    probe = np.concatenate([
        (np.arange(Q.side) - Q.side / 2.0) * step,
        np.linspace(-half, half, 2049),
    ])
    for M in range(m_cap, 0, -1):
        c_d = _one_sided_fejer_autocorr(M)
        prof = _axis_profile(c_d, probe, L)
        vmin = float(prof.min())
        if vmin <= 0.0:
            continue
        vmax = float(np.sum(c_d[1:]) * 2.0 + c_d[0])  # attained at u = 0
        scale = (1.0 + 1e-9) / vmin ** n
        if scale * vmax ** n <= 10.0:
            break
    else:
        raise ValueError(
            f"mollifier cap 10 unattainable for side {r_phys:g}, rho {rho:g}; "
            f"use a larger cube or smaller rho")

    coords = grid.axis_coords()
    axis_vals = [_axis_profile(c_d, coords - q, L) for q in center]
    vals = np.full((), scale, dtype=float)
    for av in axis_vals:
        vals = np.multiply.outer(vals, av)
    field = SampledField(grid, vals.astype(complex))

    steps = np.stack(np.meshgrid(*([np.arange(-M, M + 1)] * n), indexing="ij"),
                     axis=-1).reshape(-1, n)
    coeffs = np.empty(len(steps), dtype=complex)
    for i, d in enumerate(steps):
        amp = scale * np.prod(c_d[np.abs(d)])
        coeffs[i] = amp * np.exp(-2j * np.pi * np.dot(d, center) / L)
    return Mollifier(field, M, steps, coeffs)
