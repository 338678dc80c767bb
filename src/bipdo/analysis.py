"""Measurements: operator norms, decay fits, boundedness sweeps, sharpness.

Everything here is an experiment producing numbers a theorem constrains:
operator norms (Lanczos on T*T with a Ritz residual, or the closed form
max |m| for Fourier multipliers), almost-orthogonality decay of annulus pieces,
kernel L1 decay across cone sectors, norm growth (or its absence) as the grid
is refined, BMO/L-inf ratios at the critical order, and the (m, p) sharpness
table around the boundedness threshold.

Conventions shared by the experiments:

* decay and growth fits are least squares on log2 of the measured values;
  1-D decay fits (kernel experiment) drop their first point as a transient,
* entries measured as exact zeros are excluded from decay fits (they sit at
  the quadrature floor, not on the decay line),
* every random choice is driven by an explicit seed, so reports are
  reproducible byte for byte,
* L^p ratios for p != 2 are battery lower bounds on the operator norm, not
  certified upper bounds; growth verdicts compare the fitted exponent of the
  ratio as a function of N against a 0.05 threshold.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .grid import (GridSpec, SampledField, bmo_norm, linf_norm, lp_norm,
                   make_grid)
from .decompose import (DecompositionIndex, _block_norms, default_ell_max,
                        derived_symbol, mollifier_lambda, varphi)
from .symbols import SymbolDescriptor, builtin
from .operators import adjoint_apply, apply, kernel_l1, quantize

# fixed start-vector seed for every Lanczos iteration (documented constant;
# changing it changes nothing but the iteration count)
OPNORM_SEED = 1806

# fitted growth exponents above this are called "growing"
GROWTH_EXPONENT_THRESHOLD = 0.05


# ---------------------------------------------------------------------------
# linear maps on sampled fields


@dataclass(frozen=True)
class LinearFieldMap:
    """A linear map on fields over one grid, with its adjoint.

    ``multiplier`` is the map's lattice multiplier table (FFT layout) when it
    is known to be the Fourier multiplier f -> ifft(m * fft(f)), else None.
    """

    grid: GridSpec
    matvec: object
    rmatvec: object
    multiplier: object = None


def _as_map(T) -> LinearFieldMap:
    if isinstance(T, LinearFieldMap):
        return T
    multiplier = None
    if T.path == "separable":
        factors = T._separable_factors()
        if all(np.all(av == av.flat[0]) for av, _ in factors):
            multiplier = sum(av.flat[0] * bv for av, bv in factors)
    return LinearFieldMap(T.grid,
                          matvec=lambda f, _T=T: apply(_T, f),
                          rmatvec=lambda g, _T=T: adjoint_apply(_T, g),
                          multiplier=multiplier)


def compose(outer, inner) -> LinearFieldMap:
    """The map f -> outer(inner(f)); adjoint composes in reverse."""
    A = _as_map(outer)
    B = _as_map(inner)
    if A.grid != B.grid:
        raise ValueError("composed maps must share a grid")
    multiplier = None
    if A.multiplier is not None and B.multiplier is not None:
        multiplier = A.multiplier * B.multiplier
    return LinearFieldMap(A.grid,
                          matvec=lambda f: A.matvec(B.matvec(f)),
                          rmatvec=lambda g: B.rmatvec(A.rmatvec(g)),
                          multiplier=multiplier)


def adjoint_of(T) -> LinearFieldMap:
    A = _as_map(T)
    multiplier = None if A.multiplier is None else np.conj(A.multiplier)
    return LinearFieldMap(A.grid, matvec=A.rmatvec, rmatvec=A.matvec,
                          multiplier=multiplier)


@dataclass(frozen=True)
class OpNormEstimate:
    """An operator-norm estimate ``value`` with its evidence.

    ``residual`` is the Ritz residual |T*T y - value^2 y| of the reported
    unit Ritz vector y (0.0 for closed forms); ``iterations`` counts
    applications of T*T.
    """

    value: float
    iterations: int
    converged: bool
    residual: float


def l2_opnorm(T, tol: float = 1e-8, max_iter: int = 500) -> OpNormEstimate:
    """L2 operator norm by Lanczos iteration on T*T, or in closed form.

    A Fourier multiplier (a map carrying its lattice table m) has norm
    exactly max |m|, returned with 0 iterations.  Any other map runs
    Lanczos on the positive map T*T from a fixed seeded random field,
    without reorthogonalization: each step costs one application of T and
    one of T*, and only the last two Lanczos vectors are kept.  The top
    eigenpair (theta, s) of the k x k tridiagonal gives the Ritz value
    theta <= |T|^2, so sqrt(theta) is a lower bound on the norm, and the
    residual beta_k |s_k| of its Ritz vector.  Iteration stops as converged
    when the residual is <= ``tol`` * theta; at ``max_iter`` steps the best
    estimate is returned flagged unconverged.

    In exact arithmetic <v, T*Tv> = |Tv|^2 for every Lanczos vector v.  When
    the two differ by more than ``tol`` * theta the map is not linear at the
    scale of its own norm: the iteration runs on roundoff noise (e.g. a
    composition with disjoint frequency supports whose true norm is zero).
    That also stops as converged, with the Ritz value reached so far.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    A = _as_map(T)
    if A.multiplier is not None:
        return OpNormEstimate(float(np.max(np.abs(A.multiplier))), 0, True, 0.0)
    rng = np.random.default_rng(OPNORM_SEED)
    v = rng.standard_normal(A.grid.shape) + 1j * rng.standard_normal(A.grid.shape)
    v /= np.linalg.norm(v)
    v_prev = np.zeros_like(v)
    alphas, betas = [], []
    beta = 0.0
    theta = residual = 0.0
    for it in range(1, max_iter + 1):
        Tv = A.matvec(SampledField(A.grid, v)).values
        w = A.rmatvec(SampledField(A.grid, Tv)).values
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
            return OpNormEstimate(math.sqrt(theta), it, True, residual)
        betas.append(beta)
        v_prev, v = v, w / beta
    return OpNormEstimate(math.sqrt(theta), max_iter, False, residual)


def fit_line(xs, ys):
    """Least-squares line fit: (slope, intercept, r_squared)."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size < 2:
        return math.nan, math.nan, 0.0
    A = np.vstack([x, np.ones_like(x)]).T
    coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


def _run_cells(keys, worker, max_workers):
    """Evaluate worker over keys, optionally threaded; merge by key."""
    if max_workers is not None and max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            vals = list(pool.map(worker, keys))
    else:
        vals = [worker(k) for k in keys]
    return dict(zip(keys, vals))


# ---------------------------------------------------------------------------
# almost-orthogonality of annulus pieces


@dataclass
class OrthoMatrix:
    """Measured |T_j* T_k| over a block of annulus indices, with decay fit.

    ``entries`` maps ordered pairs (j, k) to the ``l2_opnorm`` estimate of
    |T_j* T_k| (symmetric by construction): a Lanczos Ritz value, or the exact
    max |b_j b_k| over the lattice when both pieces are Fourier multipliers.
    The fit models entries with |j - k| >= min_gap as A 2^(-eps (j+k));
    entries at or below ``zero_floor`` are treated as exact zeros and left
    out of the fit.
    """

    js: tuple
    entries: dict
    fitted_epsilon: float
    fitted_A: float
    r_squared: float
    zero_floor: float
    min_gap: int
    converged: bool

    def to_dict(self) -> dict:
        return {
            "js": list(self.js),
            "entries": [[j, k, self.entries[(j, k)]]
                        for j in self.js for k in self.js],
            "fitted_epsilon": self.fitted_epsilon,
            "fitted_A": self.fitted_A,
            "r_squared": self.r_squared,
            "zero_floor": self.zero_floor,
            "min_gap": self.min_gap,
            "converged": self.converged,
        }


def ortho_experiment(sigma: SymbolDescriptor, j_range, grid: GridSpec,
                     tol: float = 1e-8, max_iter: int = 500,
                     min_gap: int = 2, max_workers: int | None = None) -> OrthoMatrix:
    """Measure |T_j* T_k| for annulus pieces of sigma and fit the decay."""
    js = tuple(int(j) for j in j_range)
    ops = {}
    for j in js:
        piece = derived_symbol(sigma, DecompositionIndex(j=j), "annulus_j")
        ops[j] = quantize(piece, grid)

    pairs = [(j, k) for a, j in enumerate(js) for k in js[a:]]

    def cell(pair):
        j, k = pair
        comp = compose(adjoint_of(ops[j]), _as_map(ops[k]))
        return l2_opnorm(comp, tol, max_iter)

    results = _run_cells(pairs, cell, max_workers)
    entries = {}
    converged = True
    for (j, k), est in results.items():
        entries[(j, k)] = est.value
        entries[(k, j)] = est.value
        converged = converged and est.converged

    top = max(entries.values(), default=0.0)
    zero_floor = 1e-10 * max(1.0, top)
    xs, ys = [], []
    for a, j in enumerate(js):
        for k in js[a + 1:]:
            if abs(j - k) >= min_gap and entries[(j, k)] > zero_floor:
                xs.append(j + k)
                ys.append(math.log2(entries[(j, k)]))
    slope, intercept, r2 = fit_line(xs, ys)
    eps = -slope if not math.isnan(slope) else math.nan
    A = 2.0 ** intercept if not math.isnan(intercept) else math.nan
    return OrthoMatrix(js, entries, eps, A, r2, zero_floor, min_gap, converged)


# ---------------------------------------------------------------------------
# kernel L1 decay across cone sectors


@dataclass
class KernelDecayReport:
    j: int
    ells: tuple
    values: tuple
    slope: float
    intercept: float
    r_squared: float
    target_slope: float
    verdict: str

    def to_dict(self) -> dict:
        return {
            "j": self.j,
            "ells": list(self.ells),
            "values": list(self.values),
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "target_slope": self.target_slope,
            "verdict": self.verdict,
        }


def kernel_decay_experiment(sigma: SymbolDescriptor, j: int, ell_range,
                            x_samples, grid: GridSpec,
                            ell_max: int | None = None) -> KernelDecayReport:
    """Sup over x-samples of the kernel L1 norm per cone sector, with fit.

    The fitted slope of log2(value) against ell is compared to the
    theoretical -n1/2; the first point is dropped from the fit as a
    transient.  All-zero values give verdict "degenerate" and a NaN slope.
    """
    ells = tuple(int(e) for e in ell_range)
    if ell_max is None:
        ell_max = default_ell_max(grid.points_per_axis)
    xs = np.atleast_2d(np.asarray(x_samples, dtype=float))
    if xs.shape[1] != grid.n:
        raise ValueError(f"x_samples must have {grid.n} columns")
    values = []
    for ell in ells:
        idx = DecompositionIndex(j=j, ell=ell, ell_max=ell_max)
        piece = derived_symbol(sigma, idx, "cone_lj")
        values.append(max(kernel_l1(piece, grid, x) for x in xs))
    values = tuple(values)
    target = -grid.n1 / 2.0
    fit_ells = [e for e, v in zip(ells[1:], values[1:]) if v > 0.0]
    fit_vals = [math.log2(v) for v in values[1:] if v > 0.0]
    if max(values, default=0.0) <= 0.0 or len(fit_ells) < 2:
        return KernelDecayReport(j, ells, values, math.nan, math.nan, 0.0,
                                 target, "degenerate")
    slope, intercept, r2 = fit_line(fit_ells, fit_vals)
    return KernelDecayReport(j, ells, values, slope, intercept, r2, target, "ok")


# ---------------------------------------------------------------------------
# boundedness sweeps over grid refinement


@dataclass
class BoundednessReport:
    """Norm-ratio measurements across bandwidths with a growth verdict."""

    experiment: str
    symbol_name: str
    params: dict
    n_values: tuple
    ratios: tuple
    growth_exponent: float
    verdict: str
    seed: int | None = None
    battery: str = ""

    def variation(self) -> float:
        """Relative spread (max-min)/max of the last three ratios."""
        return _variation(self.ratios)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "symbol": self.symbol_name,
            "params": dict(self.params),
            "n_values": list(self.n_values),
            "ratios": list(self.ratios),
            "growth_exponent": self.growth_exponent,
            "variation": self.variation(),
            "verdict": self.verdict,
            "seed": self.seed,
            "battery": self.battery,
        }


def _variation(ratios) -> float:
    tail = ratios[-3:]
    hi = max(tail)
    if hi == 0.0:
        return 0.0
    return (hi - min(tail)) / hi


def _symbol_params(sigma: SymbolDescriptor, extra: dict | None = None) -> dict:
    order = sigma.order
    params = {
        "m": list(order) if isinstance(order, tuple) else order,
        "rho": sigma.rho,
        "delta": sigma.delta,
    }
    if extra:
        params.update(extra)
    return params


def _growth_exponent(n_values, ratios) -> float:
    pts = [(math.log2(N), math.log2(r)) for N, r in zip(n_values, ratios) if r > 0.0]
    if len(pts) < 2:
        return math.nan
    slope, _, _ = fit_line([p[0] for p in pts], [p[1] for p in pts])
    return slope


def l2_uniformity_sweep(sigma: SymbolDescriptor, N_list, period: float = 1.0,
                        tol: float = 1e-8, max_iter: int = 500) -> BoundednessReport:
    """l2_opnorm across grids; PASS when the last three values vary <= 20%."""
    Ns = tuple(int(N) for N in N_list)
    if any(b > a for a, b in zip(Ns[1:], Ns)):
        raise ValueError("N_list must be increasing")
    values = []
    for N in Ns:
        grid = make_grid(sigma.n1, sigma.n2, N, period)
        values.append(l2_opnorm(quantize(sigma, grid), tol, max_iter).value)
    values = tuple(values)
    return BoundednessReport(
        experiment="l2_uniformity", symbol_name=sigma.name,
        params=_symbol_params(sigma, {"p": 2.0}), n_values=Ns, ratios=values,
        growth_exponent=_growth_exponent(Ns, values),
        verdict="PASS" if _variation(values) <= 0.20 else "FAIL",
        seed=OPNORM_SEED, battery="lanczos")


# ---------------------------------------------------------------------------
# test batteries


def test_battery(grid: GridSpec, seed: int = 2026) -> list:
    """The frozen L-inf-normalized battery: 8 random sign fields, 4 lacunary
    sums, 4 translated bump trains.

    Every member is a fixed continuum function sampled onto ``grid``: the
    sign fields are block-constant on a fixed 8-per-axis partition, the
    lacunary sums use a fixed mode set {1, 2, 4}, and the bump offsets are
    drawn once in torus coordinates.  No random draw depends on the grid
    resolution, so ratios measured across bandwidths compare the operator
    on the same test functions rather than on a drifting battery.
    """
    rng = np.random.default_rng(seed)
    fields = []
    L = grid.period
    coords = grid.axis_coords()

    # sign fields: random +-1 per block of a fixed 8x...x8 torus partition
    blocks = 8
    bidx = np.floor(coords * blocks / L).astype(int) % blocks
    for _ in range(8):
        signs = rng.choice([-1.0, 1.0], size=(blocks,) * grid.n)
        vals = signs[tuple(np.meshgrid(*([bidx] * grid.n), indexing="ij"))]
        fields.append(SampledField(grid, vals.astype(complex)))

    pts = grid.points()
    dirs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
            np.array([1.0, 1.0]), np.array([1.0, -1.0])]
    K = 3
    for d in range(4):
        e = dirs[d % len(dirs)] if grid.n == 2 else np.eye(grid.n)[d % grid.n]
        signs = rng.choice([-1.0, 1.0], size=K)
        vals = np.zeros(grid.size, dtype=complex)
        for k in range(K):
            vals += signs[k] * np.exp(2j * np.pi * (2 ** k) * (pts @ e) / L) / K
        vals = vals.reshape(grid.shape)
        top = float(np.max(np.abs(vals)))
        fields.append(SampledField(grid, vals / top))

    # bump trains: width L/4 bumps repeated at spacing L/2 along every axis
    width = L / 4.0
    for _ in range(4):
        offsets = rng.uniform(0.0, L, size=grid.n)
        prof = np.ones(grid.shape)
        for a in range(grid.n):
            pa = np.zeros(grid.points_per_axis)
            for c in (offsets[a], offsets[a] + L / 2.0):
                d = np.abs(coords - (c % L))
                d = np.minimum(d, L - d)
                pa += varphi(4.0 * d / width)
            shape = [1] * grid.n
            shape[a] = grid.points_per_axis
            prof = prof * pa.reshape(shape)
        top = float(np.max(np.abs(prof)))
        if top == 0.0:
            # grid too coarse to see the bumps; fall back to a plateau field
            prof = np.ones(grid.shape)
            top = 1.0
        fields.append(SampledField(grid, (prof / top).astype(complex)))
    return fields


def band_limited_battery(grid: GridSpec, kmax: int, count: int = 8,
                         seed: int = 7) -> list:
    """Unit-L2 fields with spectrum confined to |k|_inf <= kmax.

    Contains a constant, one pure extreme mode, and seeded random fields.
    """
    N = grid.points_per_axis
    if not 0 <= kmax <= N // 2 - 1:
        raise ValueError(f"kmax must lie in [0, {N // 2 - 1}], got {kmax}")
    rng = np.random.default_rng(seed)
    idx = np.rint(np.fft.fftfreq(N) * N).astype(int)
    mask1 = np.abs(idx) <= kmax
    mask = np.ones(grid.shape, dtype=bool)
    for a in range(grid.n):
        shape = [1] * grid.n
        shape[a] = N
        mask = mask & mask1.reshape(shape)

    def normalize(vals):
        f = SampledField(grid, vals)
        return SampledField(grid, vals / lp_norm(f, 2))

    fields = [normalize(np.ones(grid.shape, dtype=complex))]
    pts = grid.points()
    mode = np.full(grid.n, kmax / grid.period)
    fields.append(normalize(np.exp(2j * np.pi * (pts @ mode)).reshape(grid.shape)))
    while len(fields) < count:
        spec = (rng.standard_normal(grid.shape)
                + 1j * rng.standard_normal(grid.shape)) * mask
        fields.append(normalize(np.fft.ifftn(spec)))
    return fields


# ---------------------------------------------------------------------------
# BMO boundedness at the critical order


def bmo_experiment(sigma: SymbolDescriptor, battery, N_list,
                   period: float = 1.0, seed: int = 2026) -> BoundednessReport:
    """Max of bmo(Tf)/linf(f) over a battery, per grid size.

    ``battery`` is a callable grid -> list of fields (fields are grid-bound,
    so the battery must be rebuilt per N); None uses the frozen default
    battery with ``seed``.
    """
    if battery is None:
        factory = lambda g: test_battery(g, seed)
    elif callable(battery):
        factory = battery
    else:
        raise ValueError("battery must be callable or None")
    Ns = tuple(int(N) for N in N_list)
    ratios = []
    for N in Ns:
        grid = make_grid(sigma.n1, sigma.n2, N, period)
        T = quantize(sigma, grid)
        best = 0.0
        for f in factory(grid):
            denom = linf_norm(f)
            if denom == 0.0:
                continue
            best = max(best, bmo_norm(apply(T, f)) / denom)
        ratios.append(best)
    ratios = tuple(ratios)
    return BoundednessReport(
        experiment="bmo", symbol_name=sigma.name,
        params=_symbol_params(sigma, {"p": "inf-proxy"}), n_values=Ns,
        ratios=ratios, growth_exponent=_growth_exponent(Ns, ratios),
        verdict="PASS" if _variation(ratios) <= 0.20 else "FAIL",
        seed=seed, battery="signs+lacunary+bumps")


# ---------------------------------------------------------------------------
# sharpness scan around the boundedness threshold


def adversarial_battery(grid: GridSpec, rho: float, seed: int = 2026) -> list:
    """Fields chosen to stress an oscillating symbol of parameter rho.

    Composition (8 fields): a lattice spike, a spike train, the extreme
    lattice mode, a chirp whose spectral phase cancels the symbol phase
    exp(i(<xi_1>^a + <xi_2>^a)) with a = 1-rho over a dyadic band, the
    conjugate chirp, and two random complex fields.
    """
    rng = np.random.default_rng(seed)
    fields = []

    spike = np.zeros(grid.shape, dtype=complex)
    spike[(0,) * grid.n] = 1.0
    fields.append(SampledField(grid, spike))

    train = np.zeros(grid.shape, dtype=complex)
    step = max(1, grid.points_per_axis // 4)
    train[(slice(None, None, step),) * grid.n] = 1.0
    fields.append(SampledField(grid, train))

    frs = grid.freqs()
    pts = grid.points()
    top = frs[int(np.argmax(np.sum(frs ** 2, axis=1)))]
    fields.append(SampledField(grid,
                               np.exp(2j * np.pi * (pts @ top)).reshape(grid.shape)))

    r = np.sqrt(np.sum(frs ** 2, axis=1))
    R = float(np.max(r))
    env = varphi(2.0 * r / R) - varphi(16.0 * r / R)
    r1, r2 = _block_norms(frs, grid.n1, grid.n2)
    a = 1.0 - rho
    phase = (1.0 + r1 ** 2) ** (a / 2.0) + (1.0 + r2 ** 2) ** (a / 2.0)
    for sgn in (-1.0, 1.0):
        spec = (env * np.exp(1j * sgn * phase)).reshape(grid.shape)
        fields.append(SampledField(grid, np.fft.ifftn(spec)))

    for _ in range(2):
        vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        fields.append(SampledField(grid, vals))
    return fields


@dataclass
class SharpnessTable:
    """Growth verdicts per (m, p) cell around the boundedness threshold."""

    rho: float
    ms: tuple
    ps: tuple
    n_values: tuple
    ratios: dict
    exponents: dict
    growing: dict
    seed: int

    def flip_m(self, p) -> float | None:
        """Smallest m marked growing at this p (None if none are)."""
        for m in self.ms:
            if self.growing[(m, p)]:
                return m
        return None

    def monotone_in_m(self, p) -> bool:
        flags = [self.growing[(m, p)] for m in self.ms]
        return all(b or not a for a, b in zip(flags, flags[1:]))

    def to_dict(self) -> dict:
        cells = []
        for m in self.ms:
            for p in self.ps:
                cells.append({
                    "m": m, "p": p,
                    "ratios": list(self.ratios[(m, p)]),
                    "exponent": self.exponents[(m, p)],
                    "growing": self.growing[(m, p)],
                })
        return {"rho": self.rho, "ms": list(self.ms), "ps": list(self.ps),
                "n_values": list(self.n_values), "cells": cells,
                "seed": self.seed,
                "threshold": GROWTH_EXPONENT_THRESHOLD}


def _ratio(Tf: SampledField, f: SampledField, p: float) -> float:
    if math.isinf(p):
        denom = linf_norm(f)
        return bmo_norm(Tf) / denom if denom > 0 else 0.0
    denom = lp_norm(f, p)
    return lp_norm(Tf, p) / denom if denom > 0 else 0.0


def sharpness_scan(rho: float, p_list, m_grid, N_list, period: float = 1.0,
                   seed: int = 2026, n1: int = 1, n2: int = 1,
                   symbol_params: dict | None = None,
                   max_workers: int | None = None) -> SharpnessTable:
    """Battery L^p ratios for the oscillating symbol across (m, p, N).

    For each order m the symbol is the built-in oscillatory family at the
    given rho; ratios are maxima over the adversarial battery; the growth
    exponent is the fitted slope of log2(ratio) against log2(N).  p = inf is
    measured through the BMO/L-inf proxy ratio.
    """
    ps = tuple(float(p) for p in p_list)
    ms = tuple(float(m) for m in m_grid)
    Ns = tuple(int(N) for N in N_list)
    grids = {N: make_grid(n1, n2, N, period) for N in Ns}
    batteries = {N: adversarial_battery(grids[N], rho, seed) for N in Ns}

    def cell(m):
        params = {"m": m, "rho": rho}
        if symbol_params:
            params.update(symbol_params)
        sym = builtin("oscillatory_exotic", params, n1=n1, n2=n2)
        out = {p: [] for p in ps}
        for N in Ns:
            T = quantize(sym, grids[N])
            images = [(apply(T, f), f) for f in batteries[N]]
            for p in ps:
                out[p].append(max(_ratio(Tf, f, p) for Tf, f in images))
        return out

    per_m = _run_cells(ms, cell, max_workers)
    ratios, exponents, growing = {}, {}, {}
    for m in ms:
        for p in ps:
            vals = tuple(per_m[m][p])
            ratios[(m, p)] = vals
            exp = _growth_exponent(Ns, vals)
            exponents[(m, p)] = exp
            growing[(m, p)] = bool(exp > GROWTH_EXPONENT_THRESHOLD)
    return SharpnessTable(rho, ms, ps, Ns, ratios, exponents, growing, seed)


# ---------------------------------------------------------------------------
# commutator identity


def commutator_check(sigma: SymbolDescriptor, Q, rho: float, f_battery) -> float:
    """Max relative L2 error of lam*T1(f) - T1(lam*f) = T_theta(f).

    T1 carries the high-frequency part of sigma split at the side length of
    Q, lam is the mollifier adapted to (Q, rho), and theta its commutator
    symbol.  The identity is exact on the lattice only when no spectrum
    escapes: every battery mode index k plus every mollifier mode offset must
    stay within [-N/2, N/2-1] per axis, which is checked up front.
    """
    if not f_battery:
        raise ValueError("f_battery must be nonempty")
    grid = f_battery[0].grid
    for f in f_battery:
        if f.grid != grid:
            raise ValueError("battery fields must share one grid")
    lam = mollifier_lambda(grid, Q, rho)
    N = grid.points_per_axis
    r_side = Q.side * grid.period / N
    sigma1 = derived_symbol(sigma, DecompositionIndex(r=r_side), "high_r")
    theta = derived_symbol(sigma1, DecompositionIndex(), "theta", mollifier=lam)

    steps = np.asarray(lam.mode_steps, dtype=int)
    m_pos = int(steps.max()) if steps.size else 0
    m_neg = int(steps.min()) if steps.size else 0
    idx = np.rint(np.fft.fftfreq(N) * N).astype(int)
    for f in f_battery:
        spec = np.fft.fftn(f.values)
        cap = 1e-12 * float(np.max(np.abs(spec)))
        live = np.abs(spec) > cap
        for a in range(grid.n):
            shape = [1] * grid.n
            shape[a] = N
            ax = np.broadcast_to(idx.reshape(shape), grid.shape)[live]
            if ax.size and (int(ax.max()) + m_pos > N // 2 - 1
                            or int(ax.min()) + m_neg < -(N // 2)):
                raise ValueError(
                    "battery field spectrum too wide: mode shifts would alias "
                    f"(axis {a}, modes [{ax.min()}, {ax.max()}], "
                    f"mollifier offsets [{m_neg}, {m_pos}])")

    T1 = quantize(sigma1, grid)
    Tth = quantize(theta, grid)
    lam_vals = lam.field.values
    worst = 0.0
    for f in f_battery:
        tf = apply(T1, f).values
        tlf = apply(T1, SampledField(grid, lam_vals * f.values)).values
        lhs = lam_vals * tf - tlf
        rhs = apply(Tth, f).values
        err = lp_norm(SampledField(grid, lhs - rhs), 2) / lp_norm(f, 2)
        worst = max(worst, err)
    return worst
