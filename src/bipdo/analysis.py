"""Measurements: operator norms, decay fits, boundedness sweeps, sharpness.

Everything here is an experiment producing numbers a theorem constrains:
operator norms (Lanczos on T*T with a Ritz residual, or the closed form
max |m| for Fourier multipliers), almost-orthogonality decay of annulus pieces,
kernel L1 decay across cone sectors, norm growth (or its absence) as the grid
is refined, BMO/L-inf ratios at the critical order, and the (m, p) sharpness
table around the boundedness threshold.

Conventions shared by the experiments:

* the decay, sweep and sharpness experiments return their report as a plain
  dict of JSON values, the ``report`` that ``bipdo run`` writes (the README
  lists its keys),
* decay and growth fits are least squares on log2 of the measured values;
  1-D decay fits (kernel experiment) drop their first point as a transient,
* entries measured as exact zeros are excluded from decay fits (they sit at
  the quadrature floor, not on the decay line),
* every random choice is driven by an explicit seed, so reports are
  reproducible byte for byte,
* the L2, BMO and sharpness sweeps share one family-by-N loop, which
  builds the grid of every size before any operator, and BMO and
  L^p ratios one battery maximum: lower bounds on the operator norm, not
  certified upper bounds; growth verdicts compare the fitted exponent of the
  ratio as a function of N against a 0.05 threshold,
* the battery maximum transforms each battery field once per grid, and
  forms each symbol's image from that transform, so a sweep over many
  symbols makes one forward FFT per field, not one per field and symbol;
  it reads the battery one field at a time, and takes the finite-p norms
  of a field or an image from one |f| (``lp_norms``),
* the sharpness scan measures one grid in one pass over its orders: the
  m = 0 member of ``oscillatory_exotic`` is quantized and |xi|^2 formed once
  per grid, and order m's b-table is the m = 0 table times <xi>^m, with
  the bits of the builtin's own table,
* the battery maximum of BMO ratios passes the best ratio so far to each
  image's cube scan as a floor, so an image that cannot raise the maximum
  is not scanned exactly; the maximum is the floor-free one bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (GridSpec, SampledField, bmo_norm, lp_exponent, lp_norm,
                   lp_norms, make_grid)
from .decompose import (DecompositionIndex, default_ell_max, derived_symbol,
                        mollifier_lambda, theta_symbol)
from .symbols import (SymbolDescriptor, bracket, builtin, exotic_phase, read_number,
                      read_numbers, read_points, sq_norm, varphi)
from .operators import (analyze, apply, check_grid, kernel_l1, multiplier_table,
                        quantize, reweighted, synthesize)

# fixed start-vector seed for every Lanczos iteration (documented constant;
# another start changes the iteration count and moves each reported Ritz
# value within the tolerance, so reports are byte-identical only per seed)
OPNORM_SEED = 1806

# fitted growth exponents above this are called "growing"
GROWTH_EXPONENT_THRESHOLD = 0.05

# the almost-orthogonality fit uses only pairs (j, k) with |j - k| >= this
ORTHO_MIN_GAP = 2

# defaults: Lanczos stop tolerance and step cap, commutator battery size, and
# the run seed, which draws the test batteries and the kernel x-samples
TOL = 1e-8
MAX_ITER = 500
BATTERY_COUNT = 8
SEED = 2026


# ---------------------------------------------------------------------------
# linear maps on sampled fields


@dataclass(frozen=True)
class LinearFieldMap:
    """A linear map on fields over one grid, with its adjoint.

    ``matvec`` always takes the DFT coefficients fftn(f) of a field f and
    returns an array of ``grid.shape``; ``rmatvec``, its Euclidean adjoint,
    returns DFT coefficients.  fftn is sqrt(N^n) times a unitary map, so the
    map has the norm of the map on fields it stands for.  ``multiplier`` is
    the lattice multiplier table (FFT layout) when the map is known to be
    the Fourier multiplier f -> ifft(m * fft(f)), else None.
    """

    grid: GridSpec
    matvec: object
    rmatvec: object
    multiplier: object = None


def _as_map(T) -> LinearFieldMap:
    """T U* for the unitary DFT U = fftn / s, s = sqrt(N^n): K FFTs each
    way for K terms, and |Tv|^2 = <v, T*Tv> as for T itself."""
    if isinstance(T, LinearFieldMap):
        return T
    s = math.sqrt(T.grid.size)
    return LinearFieldMap(T.grid,
                          matvec=lambda v: s * synthesize(T, v),
                          rmatvec=lambda g: analyze(T, g) / s,
                          multiplier=multiplier_table(T))


def adjoint_product(S, T) -> LinearFieldMap:
    """The map S* T of two operators, on DFT coefficients.

    matvec is v -> analyze(S, synthesize(T, v)) = fft(S* T ifft(v)) and
    rmatvec is u -> analyze(T, synthesize(S, u)) = fft(T* S ifft(u)): the
    ifft/fft pair that composing apply and adjoint_apply would put between
    the two halves is skipped, so each costs K_S + K_T FFTs for K_S and K_T
    terms.  When both are Fourier multipliers the map carries the table
    conj(m_S) m_T.
    """
    if S.grid != T.grid:
        raise ValueError("composed maps must share a grid")
    mS, mT = multiplier_table(S), multiplier_table(T)
    return LinearFieldMap(S.grid,
                          matvec=lambda v: analyze(S, synthesize(T, v)),
                          rmatvec=lambda u: analyze(T, synthesize(S, u)),
                          multiplier=None if mS is None or mT is None
                          else np.conj(mS) * mT)


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


def _ritz_screen(alphas, betas, x):
    """Certified bounds on the top Ritz pair of a Lanczos tridiagonal, in O(k).

    ``alphas`` (k entries) and ``betas`` (k - 1) are the diagonal and
    off-diagonal of T_k, whose top eigenpair is (theta, s) with s the last
    entry of the unit eigenvector.  Newton's method solves d_k(x) = 0 from
    the start ``x``, where d_1 = x - a_1, d_i = x - a_i - b_{i-1}^2 / d_{i-1}
    are the pivots of x - T_k and d_i' = 1 + b_{i-1}^2 d_{i-1}' / d_{i-1}^2
    their derivatives.  An iterate with d_1..d_{k-1} > 0 and d_k <= 0 lies in
    (theta_{k-1}, theta] by Sturm's count.  There d_k is increasing and
    concave, so Newton from the left never passes the root, and
    d_k' = 1/s^2 at the root but larger to its left.  The last such iterate x
    gives (x, x - d_k(x), d_k'(x)^-1/2): theta_lo <= theta <= theta_hi and
    s_lo <= |s|, all up to rounding.  None when no iterate is certified,
    e.g. when ``x`` starts at or left of theta_{k-1}.
    """
    best = None
    # Newton converges in a few steps; the cap ends a crawl through rounding
    for _ in range(20):
        d, dd = x - alphas[0], 1.0
        for a, b in zip(alphas[1:], betas):
            if d <= 0.0:
                return best
            b2 = b * b
            dd = 1.0 + b2 * dd / d / d  # d * d may underflow to 0
            d = x - a - b2 / d
        if d > 0.0:
            return best
        best = (x, x - d, 1.0 / math.sqrt(dd))
        step = -d / dd
        if not x + step > x:
            return best
        x += step
    return best


def solver_settings(tol: float = TOL, max_iter: int = MAX_ITER) -> tuple:
    """(tol, max_iter) read by ``read_number``: a finite tol > 0 and an
    integer max_iter >= 1, else a ValueError naming the key."""
    tol = read_number("tol", tol)
    max_iter = read_number("max_iter", max_iter, int)
    if not tol > 0:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter!r}")
    return tol, max_iter


def l2_opnorm(T, tol: float = TOL, max_iter: int = MAX_ITER) -> OpNormEstimate:
    """L2 operator norm by Lanczos iteration on T*T, or in closed form.

    A Fourier multiplier (a map carrying its lattice table m) has norm
    exactly max |m|, returned with 0 iterations.  Any other map runs
    Lanczos on the positive map T*T, on DFT coefficients, from the fftn of a
    fixed seeded random field, without reorthogonalization: each step costs
    one application of T and one of T*, and only the last two Lanczos
    vectors are kept.  That is 2K FFTs per step for a lone operator of K
    terms, and 2 (K_S + K_T) for a product map ``adjoint_product(S, T)`` of
    K_S and K_T terms.  A step whose alpha, beta or |Tv|^2 is not finite
    raises ValueError.  The top eigenpair (theta, s) of the k x k
    tridiagonal gives the Ritz value theta <= |T|^2, so sqrt(theta) is a
    lower bound on the norm, and the residual beta_k |s_k| of its Ritz
    vector.  Iteration stops as converged when the residual is <= ``tol`` *
    theta; at ``max_iter`` steps the best estimate is returned flagged
    unconverged.

    In exact arithmetic <v, T*Tv> = |Tv|^2 for every Lanczos vector v.  When
    the two differ by more than ``tol`` * theta the map is not linear at the
    scale of its own norm: the iteration runs on roundoff noise (e.g. a
    composition with disjoint frequency supports whose true norm is zero).
    That also stops as converged, with the Ritz value reached so far.

    The stop test and the returned estimate always come from
    ``np.linalg.eigh`` on the whole tridiagonal, but eigh runs only at the
    first step, at ``max_iter``, and where an O(k) screen (``_ritz_screen``,
    started from the top of the 2 x 2 Rayleigh block of the previous pair
    and the new diagonal entry) cannot rule a stop out.  The screen bounds
    theta_lo <= theta <= theta_hi and s_lo <= |s_k|; eigh is skipped only
    when beta_k s_lo > 2 tol theta_hi and 2 defect <= tol theta_lo.  Then
    the residual exceeds tol * theta and the defect is below it, with a
    factor 2 to spare for rounding, so no step that would stop is skipped
    and every estimate equals the one from an eigh at every step.
    """
    tol, max_iter = solver_settings(tol, max_iter)
    A = _as_map(T)
    if A.multiplier is not None:
        return OpNormEstimate(float(np.max(np.abs(A.multiplier))), 0, True, 0.0)
    rng = np.random.default_rng(OPNORM_SEED)
    v = rng.standard_normal(A.grid.shape) + 1j * rng.standard_normal(A.grid.shape)
    np.fft.fftn(v, out=v)
    v /= np.linalg.norm(v)
    v_prev = np.zeros_like(v)
    alphas, betas = [], []
    beta = 0.0
    theta = residual = 0.0
    for it in range(1, max_iter + 1):
        Tv = A.matvec(v)
        w = A.rmatvec(Tv)
        alpha = float(np.vdot(v, w).real)
        tv2 = float(np.vdot(Tv, Tv).real)
        linearity_defect = abs(alpha - tv2)
        w = w - alpha * v - beta * v_prev
        alphas.append(alpha)
        beta = float(np.linalg.norm(w))
        if not (math.isfinite(alpha) and math.isfinite(tv2) and math.isfinite(beta)):
            raise ValueError(f"the map gave non-finite values at Lanczos step {it}")
        # (theta, residual) is the previous step's pair, from eigh or the screen
        screen = None if it == 1 else _ritz_screen(
            alphas, betas,
            0.5 * (theta + alpha) + math.hypot(0.5 * (theta - alpha), residual))
        if (screen is None or it == max_iter
                or beta * screen[2] <= 2 * tol * screen[1]
                or 2 * linearity_defect > tol * screen[0]):
            ritz, vecs = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1)
                                        + np.diag(betas, -1))
            theta = max(float(ritz[-1]), 0.0)
            residual = beta * abs(float(vecs[-1, -1]))
            if residual <= tol * theta or linearity_defect > tol * theta:
                return OpNormEstimate(math.sqrt(theta), it, True, residual)
        else:
            theta, residual = screen[0], beta * screen[2]
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


def _log2_fit(xs, values):
    """``fit_line`` of log2(value) against x over the positive values."""
    pts = [(x, math.log2(v)) for x, v in zip(xs, values) if v > 0.0]
    return fit_line([x for x, _ in pts], [y for _, y in pts])


# ---------------------------------------------------------------------------
# almost-orthogonality of annulus pieces


def ortho_experiment(sigma: SymbolDescriptor, j_range, grid: GridSpec,
                     tol: float = TOL, max_iter: int = MAX_ITER) -> dict:
    """Measure |T_j* T_k| for annulus pieces of sigma and fit the decay.

    The report's ``entries`` are [j, k, value] triples over every ordered
    pair, j major, where value is the ``l2_opnorm`` estimate of |T_j* T_k|
    (symmetric by construction): a Lanczos Ritz value of
    ``adjoint_product(T_j, T_k)``, which runs on DFT coefficients, or the
    exact max |b_j b_k| over the lattice when both pieces are Fourier
    multipliers.
    The fit models entries with |j - k| >= ``min_gap`` (``ORTHO_MIN_GAP``)
    as A 2^(-eps (j+k)); entries at or below ``zero_floor`` are treated as
    exact zeros and left out of the fit.  ``j_range`` is strictly increasing.
    """
    js = read_numbers("j_range", j_range, int, increasing=True)
    ops = {}
    for j in js:
        piece = derived_symbol(sigma, DecompositionIndex(j=j), "annulus_j")
        ops[j] = quantize(piece, grid)

    norms = {}
    converged = True
    for a, j in enumerate(js):
        for k in js[a:]:
            est = l2_opnorm(adjoint_product(ops[j], ops[k]), tol, max_iter)
            norms[(j, k)] = est.value
            norms[(k, j)] = est.value
            converged = converged and est.converged

    top = max(norms.values(), default=0.0)
    zero_floor = 1e-10 * max(1.0, top)
    xs, values = [], []
    for a, j in enumerate(js):
        for k in js[a + 1:]:
            if abs(j - k) >= ORTHO_MIN_GAP and norms[(j, k)] > zero_floor:
                xs.append(j + k)
                values.append(norms[(j, k)])
    slope, intercept, r2 = _log2_fit(xs, values)
    return {
        "js": js,
        "entries": [[j, k, norms[(j, k)]] for j in js for k in js],
        "fitted_epsilon": -slope,
        "fitted_A": 2.0 ** intercept,
        "r_squared": r2,
        "zero_floor": zero_floor,
        "min_gap": ORTHO_MIN_GAP,
        "converged": converged,
    }


# ---------------------------------------------------------------------------
# kernel L1 decay across cone sectors


def kernel_decay_experiment(sigma: SymbolDescriptor, j: int, ell_range,
                            x_samples, grid: GridSpec,
                            ell_max: int | None = None) -> dict:
    """Sup over x-samples of the kernel L1 norm per cone sector, with fit.

    The fitted slope of log2(value) against ell is compared to the
    theoretical -n1/2; the first point is dropped from the fit as a
    transient, and so are values of exactly zero.  Fewer than two values
    left to fit give verdict "degenerate" and a NaN slope.  ``ell_range`` is
    strictly increasing, the x-samples are one point or a list of them read
    by ``read_points``, and every cone index and sample is checked before
    any slice.
    """
    j = read_number("j", j, int)
    ells = read_numbers("ell_range", ell_range, int, increasing=True)
    if ell_max is None:
        ell_max = default_ell_max(grid.points_per_axis)
    idxs = [DecompositionIndex(j=j, ell=ell, ell_max=ell_max) for ell in ells]
    xs = np.atleast_2d(read_points("x_samples", x_samples, grid.n))
    # a slice at x transforms sum_k a_k(x) b_k over the cone piece's terms,
    # which keep sigma's a_k: samples with equal a-values share every slice,
    # bit for bit
    xs = {b"".join(np.asarray(a(x[None, :]), dtype=complex).tobytes()
                   for a, _ in sigma.separable_terms): x for x in xs}.values()
    values = []
    for idx in idxs:
        T = quantize(derived_symbol(sigma, idx, "cone_lj"), grid)
        values.append(max(kernel_l1(T, x) for x in xs))
    slope, intercept, r2 = _log2_fit(ells[1:], values[1:])
    return {"j": j, "ells": ells, "values": values, "slope": slope,
            "intercept": intercept, "r_squared": r2,
            "target_slope": -grid.n1 / 2.0,
            "verdict": "ok" if sum(v > 0.0 for v in values[1:]) >= 2 else "degenerate"}


# ---------------------------------------------------------------------------
# boundedness sweeps over grid refinement


def _growth_exponent(n_values, ratios) -> float:
    return _log2_fit([math.log2(N) for N in n_values], ratios)[0]


def sweep_sizes(N_list) -> list:
    """The grid sizes of a sweep as ints: at least two, strictly increasing."""
    Ns = read_numbers("N_list", N_list, int, increasing=True)
    if len(Ns) < 2:
        raise ValueError(f"N_list needs at least two sizes, got {Ns}")
    return Ns


def _family_sweep(family, Ns, n1, n2, period, probe) -> dict:
    """{(v, key): [ratio per N]} over a family of operators.  The grid of
    every size in ``Ns`` (``sweep_sizes``) is built first, then the family,
    once: ``family()`` builds its symbols and returns ``members(grid)``, the
    (v, operator) pairs of one grid, the same v on every grid.  One grid's
    measure T -> {key: ratio}, ``probe(grid)``, is held at a time."""
    grids = [make_grid(n1, n2, N, period) for N in Ns]
    members = family()
    out = {}
    for grid in grids:
        measure = probe(grid)
        for v, T in members(grid):
            for key, r in measure(T).items():
                out.setdefault((v, key), []).append(r)
    return out


def _sweep(experiment: str, sigma: SymbolDescriptor, N_list, period: float,
           probe, p, seed: int, battery: str) -> dict:
    """The one-symbol family sweep of sigma, whose measure ``probe(grid)``
    returns one ratio per grid; PASS when the last three values vary <= 20%,
    where the variation is their relative spread (max-min)/max.  The
    report's params are sigma's class parameters and the exponent ``p``."""
    Ns = sweep_sizes(N_list)
    (ratios,) = _family_sweep(lambda: lambda grid: [(None, quantize(sigma, grid))],
                              Ns, sigma.n1, sigma.n2, period, probe).values()
    tail = ratios[-3:]
    variation = (max(tail) - min(tail)) / max(tail) if max(tail) != 0.0 else 0.0
    order = sigma.order
    params = {"m": list(order) if isinstance(order, tuple) else order,
              "rho": sigma.rho, "delta": sigma.delta, "p": p}
    return {"experiment": experiment, "symbol": sigma.name, "params": params,
            "n_values": Ns, "ratios": ratios,
            "growth_exponent": _growth_exponent(Ns, ratios),
            "variation": variation,
            "verdict": "PASS" if variation <= 0.20 else "FAIL",
            "seed": seed, "battery": battery}


def l2_uniformity_sweep(sigma: SymbolDescriptor, N_list, period: float = 1.0,
                        tol: float = TOL, max_iter: int = MAX_ITER) -> dict:
    """l2_opnorm across grids; PASS when the last three values vary <= 20%."""
    return _sweep("l2_uniformity", sigma, N_list, period,
                  lambda grid: lambda T: {2.0: l2_opnorm(T, tol, max_iter).value},
                  2.0, OPNORM_SEED, "lanczos")


def _bmo_floor(best: float, d: float) -> float:
    """The ``bmo_norm`` floor of an image whose ratio is bmo / d, given the
    best ratio so far: best d (1 - 1e-12), kept only when floor / d <= best
    (else 0).  Rounding is monotone, so an image whose bmo is at most the
    floor has a ratio, exact or floored, at most best and leaves the maximum
    as it is; an image above the floor gets its exact bmo."""
    floor = best * d * (1 - 1e-12)
    return floor if floor / d <= best < math.inf else 0.0


def _battery_max(battery, ps):
    """The measure T -> {p: max over the battery of |Tf|_p / |f|_p}, with
    bmo(Tf) / |f|_inf at p = inf and 0 for a zero f.  ``battery``, any
    iterable of fields, is read once, so once per grid: each field's norms
    and forward FFT are taken before the next field is read, and a lazy
    battery holds one field at a time.  Each image is
    Tf = synthesize(T, fftn(f)), the separable apply bit for bit; T's grid
    is checked against f's as ``apply`` checks it.  One image is held at a
    time, and its finite-p norms, like a field's, come from one |f| by
    ``lp_norms``.  At p = inf each cube scan starts from the best ratio so
    far times |f|_inf (``_bmo_floor``), so only a field that can raise the
    maximum is scanned far, and the maximum is the floor-free one bit for
    bit."""
    fhats, denoms = [], []
    for f in battery:
        denoms.append(lp_norms(f, ps))
        fhats.append((f.grid, np.fft.fftn(f.values)))
    finite = [p for p in ps if not math.isinf(p)]

    def measure(T):
        best = [0.0] * len(ps)
        for (grid, fhat), ds in zip(fhats, denoms):
            check_grid(T, grid)
            Tf = SampledField(grid, synthesize(T, fhat))
            norms = dict(zip(finite, lp_norms(Tf, finite)))
            rs = [(bmo_norm(Tf, _bmo_floor(b, d)) if math.isinf(p) else norms[p]) / d
                  if d > 0 else 0.0 for p, d, b in zip(ps, ds, best)]
            best = [max(b, r) for b, r in zip(best, rs)]
        return dict(zip(ps, best))
    return measure


# ---------------------------------------------------------------------------
# test batteries


def test_battery(grid: GridSpec, seed: int = SEED) -> list:
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


def band_limited_battery(grid: GridSpec, kmax: int, count: int = BATTERY_COUNT,
                         seed: int = 7) -> list:
    """Unit-L2 fields with spectrum confined to |k|_inf <= kmax.

    Contains a constant, one pure extreme mode, and seeded random fields.
    """
    kmax = read_number("kmax", kmax, int)
    count = read_number("count", count, int)
    N = grid.points_per_axis
    if not 0 <= kmax <= N // 2 - 1:
        raise ValueError(f"kmax must lie in [0, {N // 2 - 1}], got {kmax}")
    if count < 2:
        raise ValueError(f"count must be >= 2 (the constant and the extreme "
                         f"mode), got {count}")
    rng = np.random.default_rng(seed)
    mask = (np.abs(np.rint(grid.freqs() * grid.period)).max(axis=-1)
            <= kmax).reshape(grid.shape)

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
        fields.append(normalize(np.fft.ifftn(spec, out=spec)))
    return fields


# ---------------------------------------------------------------------------
# BMO boundedness at the critical order


def bmo_experiment(sigma: SymbolDescriptor, N_list, period: float = 1.0,
                   seed: int = SEED) -> dict:
    """Max of bmo(Tf)/linf(f) over ``test_battery(grid, seed)``, per grid size."""
    return _sweep("bmo", sigma, N_list, period,
                  lambda grid: _battery_max(test_battery(grid, seed), [math.inf]),
                  "inf-proxy", seed, "signs+lacunary+bumps")


# ---------------------------------------------------------------------------
# sharpness scan around the boundedness threshold


def adversarial_battery(grid: GridSpec, rho: float, seed: int = SEED) -> list:
    """Fields chosen to stress an oscillating symbol of parameter rho.

    Composition (7 fields): a lattice spike, a spike train, the extreme
    lattice mode, a chirp whose spectral phase cancels the symbol phase
    exp(i(<xi_1>^a + <xi_2>^a)) with a = 1-rho over a dyadic band, the
    conjugate chirp, and two random complex fields.  The list of
    ``_adversarial_fields``, which makes them one at a time.
    """
    return list(_adversarial_fields(grid, rho, seed))


def _adversarial_fields(grid: GridSpec, rho: float, seed: int):
    """The fields of ``adversarial_battery`` in its order, made one at a
    time: no field or lattice temporary is held here after the next field
    is made."""
    rng = np.random.default_rng(seed)
    vals = np.zeros(grid.shape, dtype=complex)
    vals[(0,) * grid.n] = 1.0
    yield SampledField(grid, vals)

    vals = np.zeros(grid.shape, dtype=complex)
    step = max(1, grid.points_per_axis // 4)
    vals[(slice(None, None, step),) * grid.n] = 1.0
    yield SampledField(grid, vals)

    frs = grid.freqs()
    sq = sq_norm(frs)
    top = frs[int(np.argmax(sq))]
    vals = np.exp(2j * np.pi * (grid.points() @ top)).reshape(grid.shape)
    yield SampledField(grid, vals)

    r = np.sqrt(sq)
    R = float(np.max(r))
    env = varphi(2.0 * r / R) - varphi(16.0 * r / R)
    phase = exotic_phase(frs, rho, grid.n1)
    del sq, r
    for sgn in (-1.0, 1.0):
        vals = (env * np.exp(1j * sgn * phase)).reshape(grid.shape)
        yield SampledField(grid, np.fft.ifftn(vals, out=vals))
    del env, phase

    for _ in range(2):
        vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        yield SampledField(grid, vals)


def _exotic_orders(rho: float, ms, n1: int, n2: int):
    """The ``_family_sweep`` family of the ``oscillatory_exotic`` builtin at
    rho over the orders ``ms``.  Order m's b-factor is the m = 0 one times
    <xi>^m, bit for bit, so on each grid the m = 0 member is quantized once,
    |xi|^2 is formed once, and each order's operator is ``reweighted`` from
    them by <xi>^m: its tables are those of quantize(builtin(...), grid)."""
    syms = {m: builtin("oscillatory_exotic", {"m": m, "rho": rho}, n1=n1, n2=n2)
            for m in [0.0, *ms]}

    def members(grid):
        base, sq = quantize(syms[0.0], grid), sq_norm(grid.freqs())
        for m in ms:
            yield m, reweighted(base, syms[m], lambda _xi, _m=m: bracket(sq, _m))
    return members


def sharpness_scan(rho: float, p_list, m_grid, N_list, period: float = 1.0,
                   seed: int = SEED, n1: int = 1, n2: int = 1) -> dict:
    """Battery L^p ratios for the oscillating symbol across (m, p, N).

    For each order m the symbol is the built-in oscillatory family at the
    given rho; ratios are maxima over the adversarial battery; the growth
    exponent is the fitted slope of log2(ratio) against log2(N).  p = inf is
    measured through the BMO/L-inf proxy ratio.  The report's ``cells`` hold
    one entry per (m, p), m major, with the ratios per N, the exponent, and
    whether it exceeds ``GROWTH_EXPONENT_THRESHOLD``.  ``m_grid`` and
    ``p_list`` are strictly increasing.
    """
    rho = read_number("rho", rho)
    ps = [lp_exponent(p) for p in read_numbers("p_list", p_list, finite=False,
                                               increasing=True)]
    ms = read_numbers("m_grid", m_grid, increasing=True)
    Ns = sweep_sizes(N_list)
    ratios = _family_sweep(
        lambda: _exotic_orders(rho, ms, n1, n2), Ns, n1, n2, period,
        lambda grid: _battery_max(_adversarial_fields(grid, rho, seed), ps))
    cells = []
    for m in ms:
        for p in ps:
            exp = _growth_exponent(Ns, ratios[(m, p)])
            cells.append({"m": m, "p": p, "ratios": ratios[(m, p)], "exponent": exp,
                          "growing": bool(exp > GROWTH_EXPONENT_THRESHOLD)})
    return {"rho": rho, "ms": ms, "ps": ps, "n_values": Ns, "cells": cells,
            "seed": seed, "threshold": GROWTH_EXPONENT_THRESHOLD}


# ---------------------------------------------------------------------------
# commutator identity


def commutator_check(sigma: SymbolDescriptor, grid: GridSpec, Q, rho: float,
                     kmax: int, count: int = BATTERY_COUNT, seed: int = 7) -> float:
    """Max relative L2 error of lam*T1(f) - T1(lam*f) = T_theta(f) over the
    fields f of ``band_limited_battery(grid, kmax, count, seed)``.

    T1 carries the high-frequency part of sigma split at the side length of
    Q, lam is the mollifier adapted to (Q, rho), and theta its commutator
    symbol.  The identity is exact on the lattice only when no spectrum
    escapes [-N/2, N/2-1] per axis.  The battery holds the mode +kmax on
    every axis and lam shifts modes by at most its degree, so a ValueError
    is raised, before any operator is applied, when kmax + degree > N/2 - 1.
    """
    battery = band_limited_battery(grid, kmax, count, seed)
    lam = mollifier_lambda(grid, Q, rho)
    N = grid.points_per_axis
    r_side = Q.side * grid.period / N
    sigma1 = derived_symbol(sigma, DecompositionIndex(r=r_side), "high_r")
    theta = theta_symbol(sigma1, lam)
    if kmax + lam.degree > N // 2 - 1:
        raise ValueError(f"battery modes would alias: kmax {kmax} + mollifier "
                         f"degree {lam.degree} > N/2 - 1 = {N // 2 - 1}")

    T1 = quantize(sigma1, grid)
    Tth = quantize(theta, grid)
    lam_vals = lam.field.values
    worst = 0.0
    for f in battery:
        tf = apply(T1, f).values
        tlf = apply(T1, SampledField(grid, lam_vals * f.values)).values
        lhs = lam_vals * tf - tlf
        rhs = apply(Tth, f).values
        err = lp_norm(SampledField(grid, lhs - rhs), 2) / lp_norm(f, 2)
        worst = max(worst, err)
    return worst
