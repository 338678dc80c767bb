"""Symbol descriptors, built-in families, and symbol-class verification.

A symbol is a function sigma(x, xi) on R^n x R^n with the axes split into two
frequency factors of dimensions n1 and n2.  Class membership is quantified by
weighted derivative suprema over finite probe sets: the product-type class of
order m with parameters (rho, delta) demands

    |d_xi^alpha d_x^beta sigma| <= C (1+|xi|)^m
        * prod_i (1+|xi_i|)^(-rho|alpha_i| + delta|beta_i|),

and the bi-parameter variant replaces (1+|xi|)^m by per-factor orders
(1+|xi_1|)^(m1) (1+|xi_2|)^(m2).  ``seminorm`` and ``class_check`` estimate
the suprema with closed-form derivative oracles where available and central
finite differences with Richardson extrapolation otherwise.

Descriptors may carry a separable decomposition sigma = sum_k a_k(x) b_k(xi),
which downstream code uses for FFT-speed operator application; the evaluator
and the decomposition must agree (and tests enforce it for builtins).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

DEFAULT_CLASS_CAP = 1e3
# x-modulation defaults shared by the oscillating builtins: unit period, so
# grids with integer period keep the modulation band-limited on the lattice
DEFAULT_MOD_FREQ = 2
DEFAULT_MOD_DEPTH = 0.75


@dataclass(frozen=True)
class SymbolDescriptor:
    """An evaluable symbol with declared class parameters.

    Attributes
    ----------
    evaluator : callable
        ``evaluator(x, xi) -> complex array`` where ``x`` and ``xi`` are
        broadcast-compatible arrays whose last axis has length n1 + n2.
        Must be total (finite for every finite input, including xi = 0)
        and deterministic.
    n1, n2 : int
        Dimensions of the two frequency factors.
    order : float or tuple
        Declared order: scalar m for the product-type class, pair (m1, m2)
        for the bi-parameter class.
    rho, delta : float
        Declared regularity parameters, each in [0, 1].
    derivative_oracle : callable or None
        Optional ``oracle(alpha, beta, x, xi) -> complex array`` returning
        the exact derivative d_xi^alpha d_x^beta sigma; may raise
        NotImplementedError for orders it does not know, in which case
        finite differences are used.
    separable_terms : tuple or None
        Optional tuple of ``(a, b)`` callables with sigma = sum a_k(x) b_k(xi);
        ``a`` maps (..., n) points to complex, ``b`` maps (..., n) frequencies
        to complex.
    name : str
        Human-readable tag used in reports.
    """

    evaluator: object
    n1: int
    n2: int
    order: object = 0.0
    rho: float = 0.0
    delta: float = 0.0
    derivative_oracle: object = None
    separable_terms: object = None
    name: str = "symbol"

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    def order_scalar(self) -> float:
        """Product-class order: the declared scalar, or the pair sum."""
        if isinstance(self.order, tuple):
            return float(self.order[0] + self.order[1])
        return float(self.order)


def _terms_evaluator(terms):
    def evaluator(x, xi, _terms=terms):
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        out = None
        for a, b in _terms:
            contrib = np.asarray(a(x)) * np.asarray(b(xi))
            out = contrib if out is None else out + contrib
        return np.asarray(out, dtype=complex)
    return evaluator


def make_symbol(evaluator, n1: int, n2: int, order=0.0, rho: float = 0.0,
                delta: float = 0.0, derivative_oracle=None, separable_terms=None,
                name: str = "symbol", checked: bool = False) -> SymbolDescriptor:
    """Validate parameters and build a :class:`SymbolDescriptor`.

    ``checked=True`` additionally verifies the derivative oracle against
    finite differences and the separable decomposition against the
    evaluator at a few random points.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError(f"factor dimensions must be positive, got ({n1}, {n2})")
    if isinstance(order, (list, tuple)):
        if len(order) != 2:
            raise ValueError(f"order pair must have two entries, got {order}")
        order = (float(order[0]), float(order[1]))
    else:
        order = float(order)
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    if separable_terms is not None:
        separable_terms = tuple(tuple(t) for t in separable_terms)
        if any(len(t) != 2 for t in separable_terms):
            raise ValueError("separable terms must be (a(x), b(xi)) pairs")
    sym = SymbolDescriptor(evaluator, n1, n2, order, float(rho), float(delta),
                           derivative_oracle, separable_terms, name)
    if checked:
        _validate_symbol(sym)
    return sym


def _validate_symbol(sym: SymbolDescriptor, count: int = 12, seed: int = 2024):
    rng = np.random.default_rng(seed)
    n = sym.n
    xs = rng.uniform(0.0, 1.0, size=(count, n))
    xis = rng.uniform(-6.0, 6.0, size=(count, n))
    if sym.separable_terms is not None:
        direct = np.asarray(sym.evaluator(xs, xis))
        summed = _terms_evaluator(sym.separable_terms)(xs, xis)
        err = np.max(np.abs(direct - summed))
        ref = max(np.max(np.abs(direct)), 1e-30)
        if err > 1e-9 * ref:
            raise ValueError(
                f"separable terms disagree with evaluator ({err:.2e} vs scale {ref:.2e})")
    if sym.derivative_oracle is not None:
        for axis in range(n):
            alpha = tuple(1 if a == axis else 0 for a in range(n))
            zero = (0,) * n
            for al, be in ((alpha, zero), (zero, alpha)):
                try:
                    got = np.asarray(sym.derivative_oracle(al, be, xs, xis))
                except NotImplementedError:
                    continue
                fd = _fd_derivative(sym.evaluator, al, be, xs, xis,
                                    sym.rho, sym.delta, sym.n1, sym.n2)
                ref = max(np.max(np.abs(got)), np.max(np.abs(fd)), 1e-12)
                if np.max(np.abs(got - fd)) > 1e-5 * ref:
                    raise ValueError(
                        f"derivative oracle disagrees with finite differences "
                        f"at order (alpha={al}, beta={be})")


def transform_symbol(sym: SymbolDescriptor, evaluator, term, name: str,
                     derivative_oracle=None) -> SymbolDescriptor:
    """A symbol derived from ``sym``, its evaluator and terms changed together.

    ``evaluator`` is the derived symbol, and ``term(a, b)`` maps each separable
    term of ``sym`` to the list of terms it becomes, so the derived terms sum
    to ``evaluator`` whenever those of ``sym`` sum to its evaluator.  The
    factor dimensions and class parameters carry over.
    """
    terms = None
    if sym.separable_terms is not None:
        terms = [t for a, b in sym.separable_terms for t in term(a, b)]
    return make_symbol(evaluator, sym.n1, sym.n2, order=sym.order, rho=sym.rho,
                       delta=sym.delta, derivative_oracle=derivative_oracle,
                       separable_terms=terms, name=name)


def scale_symbol(sym: SymbolDescriptor, c: complex) -> SymbolDescriptor:
    """Scalar multiple c * sigma with oracle and separable structure kept."""
    def evaluator(x, xi, _e=sym.evaluator, _c=c):
        return _c * np.asarray(_e(x, xi))

    oracle = None
    if sym.derivative_oracle is not None:
        def oracle(alpha, beta, x, xi, _p=sym.derivative_oracle, _c=c):
            return _c * np.asarray(_p(alpha, beta, x, xi))

    def term(a, b):
        return [(lambda x, _a=a, _c=c: _c * np.asarray(_a(x)), b)]
    return transform_symbol(sym, evaluator, term, f"{abs(c):g}*{sym.name}",
                            derivative_oracle=oracle)


def block_norms(xi, n1: int):
    """The block norms |xi_1|, |xi_2| of frequencies (last axis = components)."""
    xi = np.asarray(xi, dtype=float)
    return (np.sqrt(np.sum(xi[..., :n1] ** 2, axis=-1)),
            np.sqrt(np.sum(xi[..., n1:] ** 2, axis=-1)))


# ---------------------------------------------------------------------------
# probes and finite differences


@dataclass(frozen=True)
class ProbeSpec:
    """Paired sample points for derivative suprema.

    ``xs`` and ``xis`` are (P, n) arrays; row p probes the point
    (xs[p], xis[p]).  Steps for finite differences are derived per point and
    per derivative order (see ``_fd_steps``); ``xi_cap`` records the largest
    frequency magnitude represented.
    """

    xs: np.ndarray
    xis: np.ndarray
    xi_cap: float

    def __post_init__(self):
        xs = np.atleast_2d(np.asarray(self.xs, dtype=float))
        xis = np.atleast_2d(np.asarray(self.xis, dtype=float))
        if xs.shape != xis.shape:
            raise ValueError(f"probe shapes differ: {xs.shape} vs {xis.shape}")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "xis", xis)


def default_probe(n1: int, n2: int, xi_cap: float = 64.0, per_shell: int = 6,
                  seed: int = 11, period: float = 1.0) -> ProbeSpec:
    """Probe battery: dyadic shells of random and axis-aligned frequencies.

    Includes the origin, pure-factor frequencies (one block zeroed), and axis
    directions on every shell, since class weights and cutoff kinks are
    attained there.
    """
    n = n1 + n2
    rng = np.random.default_rng(seed)
    shells = [0.0]
    radius = 1.0
    while radius <= xi_cap:
        shells.append(radius)
        radius *= 2.0
    pts = [np.zeros(n)]
    for r in shells[1:]:
        for a in range(n):
            e = np.zeros(n)
            e[a] = r
            pts.append(e.copy())
        for _ in range(per_shell):
            v = rng.normal(size=n)
            v *= r / np.linalg.norm(v)
            pts.append(v)
        mixed = rng.normal(size=n)
        mixed[:n1] = 0.0
        nrm = np.linalg.norm(mixed)
        if nrm > 0:
            pts.append(mixed * (r / nrm))
    xis = np.array(pts)
    xs = rng.uniform(0.0, period, size=xis.shape)
    return ProbeSpec(xs, xis, float(xi_cap))


def _multi_indices(n: int, total_max: int):
    out = []
    for total in range(total_max + 1):
        for idx in itertools.product(range(total + 1), repeat=n):
            if sum(idx) == total:
                out.append(idx)
    return out


def _axis_stencil(order: int):
    """Integer-offset central stencil of derivative ``order`` (O(h^2))."""
    st = {0: 1.0}
    rem = order

    def convolve(st, other):
        out = {}
        for o1, w1 in st.items():
            for o2, w2 in other.items():
                out[o1 + o2] = out.get(o1 + o2, 0.0) + w1 * w2
        return out

    while rem >= 2:
        st = convolve(st, {-1: 1.0, 0: -2.0, 1: 1.0})
        rem -= 2
    if rem == 1:
        st = convolve(st, {-1: -0.5, 1: 0.5})
    return sorted(st.items())


def _fd_steps(xis: np.ndarray, total_order: int, rho: float, delta: float,
              n1: int, n2: int):
    """Per-point, per-axis steps for x and xi differencing.

    The base step grows with the total derivative order to balance truncation
    against roundoff (1e-3 at first order), and adapts to the class geometry:
    xi steps scale like (1+|xi_i|)^rho (the symbol's oscillation scale), and
    x steps shrink like (1+|xi_i|)^-delta.
    """
    base = 10.0 ** (-15.0 / (total_order + 4))
    r1, r2 = block_norms(xis, n1)
    block = np.concatenate([np.repeat(r1[:, None], n1, axis=1),
                            np.repeat(r2[:, None], n2, axis=1)], axis=1)
    h_xi = base * (1.0 + block) ** rho
    h_x = base * (1.0 + block) ** (-delta)
    return h_x, h_xi


def _fd_single_scale(evaluator, alpha, beta, xs, xis, h_x, h_xi):
    n = xs.shape[1]
    axes = []
    for a in range(n):
        axes.append(_axis_stencil(beta[a]))
    for a in range(n):
        axes.append(_axis_stencil(alpha[a]))
    offs = []
    weights = []
    for combo in itertools.product(*axes):
        offs.append([c[0] for c in combo])
        weights.append(np.prod([c[1] for c in combo]))
    offs = np.asarray(offs, dtype=float)  # (S, 2n): x offsets then xi offsets
    weights = np.asarray(weights)
    ox, oxi = offs[:, :n], offs[:, n:]
    X = xs[:, None, :] + ox[None, :, :] * h_x[:, None, :]
    XI = xis[:, None, :] + oxi[None, :, :] * h_xi[:, None, :]
    vals = np.asarray(evaluator(X, XI), dtype=complex)
    num = vals @ weights
    den = np.prod(h_x ** np.asarray(beta, dtype=float), axis=1) * \
        np.prod(h_xi ** np.asarray(alpha, dtype=float), axis=1)
    return num / den


def _fd_derivative(evaluator, alpha, beta, xs, xis, rho, delta, n1, n2):
    """Richardson-extrapolated central difference of d_xi^alpha d_x^beta."""
    q = int(sum(alpha) + sum(beta))
    if q == 0:
        return np.asarray(evaluator(xs, xis), dtype=complex)
    h_x, h_xi = _fd_steps(xis, q, rho, delta, n1, n2)
    coarse = _fd_single_scale(evaluator, alpha, beta, xs, xis, h_x, h_xi)
    fine = _fd_single_scale(evaluator, alpha, beta, xs, xis, h_x / 2, h_xi / 2)
    return (4.0 * fine - coarse) / 3.0


# ---------------------------------------------------------------------------
# seminorm and class checks


@dataclass(frozen=True)
class SymbolNormReport:
    seminorm: float
    k: int
    n_x: int
    worst_witness: tuple  # (alpha, beta, x, xi)
    class_ok: bool


@dataclass(frozen=True)
class ClassCheckReport:
    ok: bool
    margin: float
    kind: str
    cap: float
    worst_witness: tuple


def _block_orders(idx, n1: int):
    return sum(idx[:n1]), sum(idx[n1:])


def _class_weight(n1: int, rho: float, delta: float, m: float = 0.0,
                  m1: float = 0.0, m2: float = 0.0):
    """Weight (1+|xi|)^(-m) prod_i (1+|xi_i|)^(-m_i + rho|alpha_i| - delta|beta_i|).

    The product class of order m has m1 = m2 = 0; the bi-parameter class of
    orders (m1, m2) has m = 0.
    """
    def weight(xis, alpha, beta):
        a1, a2 = _block_orders(alpha, n1)
        b1, b2 = _block_orders(beta, n1)
        r = np.sqrt(np.sum(xis ** 2, axis=1))
        r1, r2 = block_norms(xis, n1)
        return ((1.0 + r) ** (-m)
                * (1.0 + r1) ** (-m1 + rho * a1 - delta * b1)
                * (1.0 + r2) ** (-m2 + rho * a2 - delta * b2))
    return weight


def _weighted_sup(sym: SymbolDescriptor, probe: ProbeSpec, weight_fn,
                  k: int, n_x: int, rho: float, delta: float):
    """Max over probes and derivative orders of |derivative| * weight."""
    xs, xis = probe.xs, probe.xis
    best = -1.0
    witness = None
    for alpha in _multi_indices(sym.n, k):
        for beta in _multi_indices(sym.n, n_x):
            deriv = None
            if sym.derivative_oracle is not None:
                try:
                    deriv = np.asarray(
                        sym.derivative_oracle(alpha, beta, xs, xis), dtype=complex)
                    deriv = np.broadcast_to(deriv, (xs.shape[0],))
                except NotImplementedError:
                    deriv = None
            if deriv is None:
                deriv = _fd_derivative(sym.evaluator, alpha, beta, xs, xis,
                                       rho, delta, sym.n1, sym.n2)
            if not np.all(np.isfinite(deriv)):
                bad = int(np.flatnonzero(~np.isfinite(deriv))[0])
                raise ArithmeticError(
                    f"non-finite derivative estimate for {sym.name} at "
                    f"alpha={alpha}, beta={beta}, x={xs[bad]}, xi={xis[bad]}")
            vals = np.abs(deriv) * weight_fn(xis, alpha, beta)
            p = int(np.argmax(vals))
            if vals[p] > best:
                best = float(vals[p])
                witness = (alpha, beta, tuple(xs[p]), tuple(xis[p]))
    return best, witness


def seminorm(sym: SymbolDescriptor, probe: ProbeSpec, cap: float = DEFAULT_CLASS_CAP,
             order=None) -> SymbolNormReport:
    """Product-class seminorm estimate over the probe set.

    Maximizes |d_xi^alpha d_x^beta sigma| (1+|xi|)^(-m)
    prod_i (1+|xi_i|)^(rho|alpha_i| - delta|beta_i|) over |alpha| <= k,
    |beta| <= N_x with k = N_x = floor(n/2)+1, the smallest orders exceeding
    n/2.  ``class_ok`` reports whether the value stays below ``cap``.
    """
    check = class_check(sym, "product", probe, order=order, cap=cap)
    k = sym.n // 2 + 1
    return SymbolNormReport(check.margin, k, k, check.worst_witness, check.ok)


def class_check(sym: SymbolDescriptor, class_kind: str, probe: ProbeSpec,
                rho=None, delta=None, order=None,
                cap: float = DEFAULT_CLASS_CAP) -> ClassCheckReport:
    """Empirical membership check for the product or bi-parameter class.

    Parameters default to the symbol's declared ones; pass ``rho``, ``delta``,
    or ``order`` to test membership at other values (e.g. a pair order for
    the bi-parameter check of a scalar-declared symbol).  ``ok`` holds when
    the weighted derivative sup over the probes stays below ``cap``.
    """
    if class_kind not in ("product", "biparameter"):
        raise ValueError(f"unknown class kind '{class_kind}'")
    n1 = sym.n1
    rho = sym.rho if rho is None else float(rho)
    delta = sym.delta if delta is None else float(delta)
    k = n_x = sym.n // 2 + 1

    if class_kind == "product":
        m = sym.order_scalar() if order is None else float(order)
        weight = _class_weight(n1, rho, delta, m=m)
    else:
        pair = sym.order if order is None else order
        if not isinstance(pair, (tuple, list)) or len(pair) != 2:
            raise ValueError(
                f"bi-parameter check needs an order pair, got {pair!r}")
        weight = _class_weight(n1, rho, delta, m1=float(pair[0]), m2=float(pair[1]))

    value, witness = _weighted_sup(sym, probe, weight, k, n_x, rho, delta)
    return ClassCheckReport(bool(np.isfinite(value) and value <= cap),
                            value, class_kind, cap, witness)


# ---------------------------------------------------------------------------
# built-in families


def _bessel_value(xi, power):
    return (1.0 + np.sum(np.asarray(xi, dtype=float) ** 2, axis=-1)) ** (power / 2.0)


def _bessel_derivative(alpha, xi, power):
    """Exact d_xi^alpha (1+|xi|^2)^(power/2) for |alpha| <= 2."""
    xi = np.asarray(xi, dtype=float)
    s = power / 2.0
    u = 1.0 + np.sum(xi ** 2, axis=-1)
    total = sum(alpha)
    if total == 0:
        return u ** s
    nz = [a for a, o in enumerate(alpha) if o > 0]
    if total == 1:
        (i,) = nz
        return 2.0 * s * xi[..., i] * u ** (s - 1.0)
    if total == 2:
        if len(nz) == 2:
            i, j = nz
            return 4.0 * s * (s - 1.0) * xi[..., i] * xi[..., j] * u ** (s - 2.0)
        (i,) = nz
        return (2.0 * s * u ** (s - 1.0)
                + 4.0 * s * (s - 1.0) * xi[..., i] ** 2 * u ** (s - 2.0))
    raise NotImplementedError(f"bessel derivatives beyond order 2 (got {alpha})")


def _axis_cos_modulation(n: int, freq: int):
    """mu(x) = mean over axes of cos(2 pi freq x_a); unit period, |mu| <= 1."""
    def mu(x, _n=n, _f=freq):
        x = np.asarray(x, dtype=float)
        return np.mean(np.cos(2.0 * np.pi * _f * x), axis=-1)
    return mu


def _axis_cos_derivative(beta, x, freq: int, n: int):
    """Exact d_x^beta of the axis-mean cosine modulation, any order."""
    x = np.asarray(x, dtype=float)
    nz = [a for a, o in enumerate(beta) if o > 0]
    if len(nz) == 0:
        return np.mean(np.cos(2.0 * np.pi * freq * x), axis=-1)
    if len(nz) > 1:
        return np.zeros(x.shape[:-1])
    (a,) = nz
    q = beta[a]
    return ((2.0 * np.pi * freq) ** q / n
            * np.cos(2.0 * np.pi * freq * x[..., a] + q * np.pi / 2.0))


def _block_gauss_norms(xi, n1):
    xi = np.asarray(xi, dtype=float)
    g1 = 1.0 + np.sum(xi[..., :n1] ** 2, axis=-1)
    g2 = 1.0 + np.sum(xi[..., n1:] ** 2, axis=-1)
    return g1, g2


BUILTIN_PARAMS = {
    "constant": {"c": 1.0, "rho": 1.0, "delta": 0.0},
    "multiplier_bessel": {"m": -1.0},
    "separable": {"terms": None, "rho": 1.0, "delta": 0.0},
    "oscillatory_exotic": {"m": 0.0, "rho": 0.5, "a": None,
                           "xmod": DEFAULT_MOD_DEPTH, "mod_freq": DEFAULT_MOD_FREQ},
    "riemann_singularity": {"m": 0.0},
    "modulated_bessel": {"m": -1.0, "strength": 0.3, "mod_freq": 1},
}


def builtin(name: str, params: dict = None, n1: int = 1, n2: int = 1) -> SymbolDescriptor:
    """Construct a named built-in symbol family member.

    Families
    --------
    constant            sigma = c.
    multiplier_bessel   sigma(xi) = (1+|xi|^2)^(m/2); order m, rho 1, delta 0.
    separable           sum of amp*cos(2 pi f.x + phase) * <xi_1>^t1 <xi_2>^t2
                        terms; declared bi-parameter order (max t1, max t2).
    oscillatory_exotic  (1 + xmod*mu(x)) * chi(|xi|) e^{i(<xi_1>^a + <xi_2>^a)}
                        (1+|xi|^2)^(m/2) with a = 1-rho by default and chi a
                        smooth cutoff vanishing for |xi| <= 1; the canonical
                        order-m member of the product class at given rho with
                        delta = 0.  mu is a unit-period cosine in each axis
                        (frequency mod_freq), so the symbol is genuinely
                        x-dependent but stays band-limited in x; xmod = 0
                        recovers a pure multiplier.
    riemann_singularity square-root phase e^{i(<xi_1>^(1/2)+<xi_2>^(1/2))}
                        (1+|xi|^2)^(m/2): the rho = 1/2 sharpness family.
    modulated_bessel    (1 + strength*mu(x)) (1+|xi|^2)^(m/2): mildly
                        x-modulated multiplier with exact derivative oracle.

    All families use smoothed per-factor magnitudes <xi_i> = (1+|xi_i|^2)^(1/2)
    so that evaluators are total and infinitely differentiable on the axes.
    """
    if name not in BUILTIN_PARAMS:
        raise ValueError(
            f"unknown builtin '{name}'; available: {sorted(BUILTIN_PARAMS)}")
    defaults = BUILTIN_PARAMS[name]
    params = dict(params or {})
    unknown = set(params) - set(defaults)
    if unknown:
        raise ValueError(f"unknown parameter(s) {sorted(unknown)} for builtin '{name}'")
    p = {**defaults, **params}
    n = n1 + n2

    if name == "constant":
        c = complex(p["c"])

        def evaluator(x, xi, _c=c):
            shape = np.broadcast(np.asarray(x)[..., 0], np.asarray(xi)[..., 0]).shape
            return np.full(shape, _c)

        def oracle(alpha, beta, x, xi, _c=c):
            shape = np.broadcast(np.asarray(x)[..., 0], np.asarray(xi)[..., 0]).shape
            if sum(alpha) + sum(beta) == 0:
                return np.full(shape, _c)
            return np.zeros(shape, dtype=complex)

        terms = (((lambda x, _c=c: np.full(np.asarray(x).shape[:-1], _c)),
                  (lambda xi: np.ones(np.asarray(xi).shape[:-1]))),)
        return make_symbol(evaluator, n1, n2, order=0.0, rho=p["rho"],
                           delta=p["delta"], derivative_oracle=oracle,
                           separable_terms=terms, name=f"constant[{c:g}]")

    if name == "multiplier_bessel":
        m = float(p["m"])

        def evaluator(x, xi, _m=m):
            val = _bessel_value(xi, _m)
            shape = np.broadcast(np.asarray(x)[..., 0], val).shape
            return np.broadcast_to(val.astype(complex), shape)

        def oracle(alpha, beta, x, xi, _m=m):
            shape = np.broadcast(np.asarray(x)[..., 0], np.asarray(xi)[..., 0]).shape
            if sum(beta) > 0:
                return np.zeros(shape, dtype=complex)
            d = _bessel_derivative(alpha, xi, _m)
            return np.broadcast_to(np.asarray(d, dtype=complex), shape)

        terms = (((lambda x: np.ones(np.asarray(x).shape[:-1])),
                  (lambda xi, _m=m: _bessel_value(xi, _m))),)
        return make_symbol(evaluator, n1, n2, order=m, rho=1.0, delta=0.0,
                           derivative_oracle=oracle, separable_terms=terms,
                           name=f"bessel[{m:g}]")

    if name == "separable":
        raw = p["terms"]
        if not raw:
            raise ValueError("separable builtin needs a nonempty 'terms' list")
        spec_terms = []
        for t in raw:
            t = dict(t)
            unknown = set(t) - {"amp", "xfreq", "phase", "orders"}
            if unknown:
                raise ValueError(f"unknown separable term key(s) {sorted(unknown)}")
            amp = float(t.get("amp", 1.0))
            xfreq = tuple(int(v) for v in t.get("xfreq", (0,) * n))
            if len(xfreq) != n:
                raise ValueError(f"xfreq must have {n} entries, got {xfreq}")
            phase = float(t.get("phase", 0.0))
            t1, t2 = (float(v) for v in t.get("orders", (0.0, 0.0)))
            spec_terms.append((amp, xfreq, phase, t1, t2))

        def a_factory(amp, xfreq, phase):
            def a(x, _a=amp, _f=np.asarray(xfreq, dtype=float), _p=phase):
                x = np.asarray(x, dtype=float)
                return _a * np.cos(2.0 * np.pi * np.sum(x * _f, axis=-1) + _p)
            return a

        def b_factory(t1, t2):
            def b(xi, _t1=t1, _t2=t2, _n1=n1):
                g1, g2 = _block_gauss_norms(xi, _n1)
                return g1 ** (_t1 / 2.0) * g2 ** (_t2 / 2.0)
            return b

        terms = tuple((a_factory(amp, xf, ph), b_factory(t1, t2))
                      for amp, xf, ph, t1, t2 in spec_terms)

        def oracle(alpha, beta, x, xi, _terms=spec_terms, _n1=n1, _n2=n2):
            x = np.asarray(x, dtype=float)
            xi = np.asarray(xi, dtype=float)
            a1 = tuple(alpha[:_n1])
            a2 = tuple(alpha[_n1:])
            out = 0.0
            for amp, xfreq, phase, t1, t2 in _terms:
                q = sum(beta)
                theta = 2.0 * np.pi * np.sum(x * np.asarray(xfreq, dtype=float),
                                             axis=-1) + phase
                da = amp * np.prod([(2.0 * np.pi * f) ** b
                                    for f, b in zip(xfreq, beta)]) \
                    * np.cos(theta + q * np.pi / 2.0)
                d1 = _bessel_derivative(a1, xi[..., :_n1], t1)
                d2 = _bessel_derivative(a2, xi[..., _n1:], t2)
                out = out + da * d1 * d2
            return np.asarray(out, dtype=complex)

        m_pair = (max(t[3] for t in spec_terms), max(t[4] for t in spec_terms))
        return make_symbol(_terms_evaluator(terms), n1, n2, order=m_pair,
                           rho=p["rho"], delta=p["delta"], derivative_oracle=oracle,
                           separable_terms=terms, name=f"separable[{len(terms)}]")

    if name == "oscillatory_exotic":
        from .decompose import varphi
        m = float(p["m"])
        rho = float(p["rho"])
        a = 1.0 - rho if p["a"] is None else float(p["a"])
        xmod = float(p["xmod"])
        freq = int(p["mod_freq"])
        mu = _axis_cos_modulation(n, freq)

        def b_part(xi, _m=m, _a=a, _n1=n1):
            xi = np.asarray(xi, dtype=float)
            g1, g2 = _block_gauss_norms(xi, _n1)
            r = np.sqrt(np.sum(xi ** 2, axis=-1))
            chi = 1.0 - varphi(r)
            phase = g1 ** (_a / 2.0) + g2 ** (_a / 2.0)
            return chi * np.exp(1j * phase) * (1.0 + r ** 2) ** (_m / 2.0)

        def evaluator(x, xi, _b=b_part, _mu=mu, _d=xmod):
            x = np.asarray(x, dtype=float)
            amp = 1.0 + _d * _mu(x)
            return amp * _b(xi)

        terms = (((lambda x, _mu=mu, _d=xmod: 1.0 + _d * _mu(x)), b_part),)
        return make_symbol(evaluator, n1, n2, order=m, rho=rho, delta=0.0,
                           separable_terms=terms,
                           name=f"exotic[m={m:g},rho={rho:g}]")

    if name == "riemann_singularity":
        m = float(p["m"])

        def b_part(xi, _m=m, _n1=n1):
            xi = np.asarray(xi, dtype=float)
            g1, g2 = _block_gauss_norms(xi, _n1)
            return np.exp(1j * (g1 ** 0.25 + g2 ** 0.25)) * _bessel_value(xi, _m)

        def evaluator(x, xi, _b=b_part):
            val = _b(xi)
            shape = np.broadcast(np.asarray(x)[..., 0], val).shape
            return np.broadcast_to(val, shape)

        terms = (((lambda x: np.ones(np.asarray(x).shape[:-1])), b_part),)
        return make_symbol(evaluator, n1, n2, order=m, rho=0.5, delta=0.0,
                           separable_terms=terms, name=f"riemann[m={m:g}]")

    # modulated_bessel
    m = float(p["m"])
    strength = float(p["strength"])
    freq = int(p["mod_freq"])
    mu = _axis_cos_modulation(n, freq)

    def evaluator(x, xi, _m=m, _s=strength, _mu=mu):
        x = np.asarray(x, dtype=float)
        return (1.0 + _s * _mu(x)) * _bessel_value(xi, _m)

    def oracle(alpha, beta, x, xi, _m=m, _s=strength, _f=freq, _n=n):
        x = np.asarray(x, dtype=float)
        if sum(beta) == 0:
            amp = 1.0 + _s * _axis_cos_derivative(beta, x, _f, _n)
        else:
            amp = _s * _axis_cos_derivative(beta, x, _f, _n)
        return np.asarray(amp * _bessel_derivative(alpha, xi, _m), dtype=complex)

    terms = (((lambda x, _s=strength, _mu=mu: 1.0 + _s * _mu(x)),
              (lambda xi, _m=m: _bessel_value(xi, _m))),)
    return make_symbol(evaluator, n1, n2, order=m, rho=1.0, delta=0.0,
                       derivative_oracle=oracle, separable_terms=terms,
                       name=f"modbessel[m={m:g},s={strength:g}]")
