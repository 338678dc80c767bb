"""Symbol descriptors and built-in families.

A symbol is a function sigma(x, xi) on R^n x R^n with the axes split into two
frequency factors of dimensions n1 and n2.  Each descriptor declares its class
parameters: the product-type class of order m with parameters (rho, delta)
demands

    |d_xi^alpha d_x^beta sigma| <= C (1+|xi|)^m
        * prod_i (1+|xi_i|)^(-rho|alpha_i| + delta|beta_i|),

and the bi-parameter variant replaces (1+|xi|)^m by per-factor orders
(1+|xi_1|)^(m1) (1+|xi_2|)^(m2).  The builtins declare (m, rho, delta)
analytically, by construction, and every experiment report records them;
class membership is not estimated numerically.

A symbol is its separable terms sigma = sum_k a_k(x) b_k(xi).  Both paths of
the operators apply the terms, and ``make_symbol``, the one constructor, sets
the evaluator to their sum, which kernel slices read.  A builtin or derived
symbol is written as its terms only.  Outside numbers are read by
``read_number`` and ``read_numbers``, outside points by ``read_points``.

The class geometry lives here, below every module that reads it: the
frequency norms (``sq_norm``, ``block_norms``) and the frozen cutoff profile
``varphi``, built from one smooth step, the exponential splice

    s(u) = g(1-u) / (g(u) + g(1-u)),   g(u) = exp(-1/u) for u > 0, else 0,

which is 1 for u <= 0, 0 for u >= 1, and infinitely differentiable.
``varphi`` equals 1 on [-1,1], 0 outside (-2,2), and varphi(1.5) = 0.5 by the
symmetry of s about u = 1/2; the test suite's derived constants assume it.
"""
from __future__ import annotations

import cmath
import numbers
from dataclasses import dataclass

import numpy as np

# x-modulation defaults shared by the oscillating builtins: unit period, so
# grids with integer period keep the modulation band-limited on the lattice
DEFAULT_MOD_FREQ = 2
DEFAULT_MOD_DEPTH = 0.75


@dataclass(frozen=True)
class SymbolDescriptor:
    """A symbol given by its separable terms, with declared class parameters.

    Attributes
    ----------
    evaluator : callable
        ``evaluator(x, xi) -> array``, the sum of the separable terms, set by
        :func:`make_symbol`; ``x`` and ``xi`` are broadcast-compatible arrays
        whose last axis has length n1 + n2.  Kernel slices read it.
    n1, n2 : int
        Dimensions of the two frequency factors.
    order : float or tuple
        Declared order: scalar m for the product-type class, pair (m1, m2)
        for the bi-parameter class.
    rho, delta : float
        Declared regularity parameters, each in [0, 1].
    separable_terms : tuple
        Tuple of ``(a, b)`` callables with sigma = sum a_k(x) b_k(xi); ``a``
        maps (..., n) points and ``b`` maps (..., n) frequencies to arrays.
        Each must be total (finite for every finite input, including xi = 0)
        and deterministic.
    name : str
        Human-readable tag used in reports.
    """

    evaluator: object
    n1: int
    n2: int
    order: object
    rho: float
    delta: float
    separable_terms: tuple
    name: str

    @property
    def n(self) -> int:
        return self.n1 + self.n2


def make_symbol(terms, n1: int, n2: int, order=0.0, rho: float = 0.0,
                delta: float = 0.0, name: str = "symbol") -> SymbolDescriptor:
    """Validate the declared parameters and build the :class:`SymbolDescriptor`
    of sigma = sum_k a_k(x) b_k(xi) over the ``(a, b)`` pairs in ``terms``.

    By :func:`read_number`, n1 and n2 are integers >= 1, the order a finite
    number or a pair (a tuple), and rho and delta in [0, 1]; they are not
    checked against the terms.
    """
    n1, n2 = read_number("n1", n1, int), read_number("n2", n2, int)
    if n1 < 1 or n2 < 1:
        raise ValueError(f"factor dimensions must be positive, got ({n1}, {n2})")
    order = (tuple(read_numbers("order pair", order, length=2))
             if isinstance(order, (list, tuple)) else read_number("order", order))
    rho, delta = read_number("rho", rho), read_number("delta", delta)
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    try:
        terms = tuple((a, b) for a, b in terms)
    except (TypeError, ValueError):
        raise ValueError("separable terms must be (a(x), b(xi)) pairs") from None

    def evaluator(x, xi):
        # summed as computed, real or complex; a kernel slice makes the one
        # complex copy it needs
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        return sum_terms((np.asarray(a(x)) * np.asarray(b(xi)) for a, b in terms),
                         np.broadcast(x[..., 0], xi[..., 0]).shape)
    return SymbolDescriptor(evaluator, n1, n2, order, rho, delta, terms, name)


def transform_symbol(sym: SymbolDescriptor, term, name: str) -> SymbolDescriptor:
    """The symbol whose terms are the lists ``term(a, b)`` over the terms
    (a, b) of ``sym``, with the factor dimensions and class parameters of ``sym``."""
    terms = [t for a, b in sym.separable_terms for t in term(a, b)]
    return make_symbol(terms, sym.n1, sym.n2, order=sym.order, rho=sym.rho,
                       delta=sym.delta, name=name)


def sum_terms(contribs, shape):
    """The sum of the arrays ``contribs`` from the first one on, out of place,
    or complex zeros of ``shape`` when there are none.  Starting from the
    first keeps its -0.0 entries (0.0 + -0.0 is 0.0) and a real sum real."""
    out = None
    for c in contribs:
        out = c if out is None else out + c
    return np.zeros(shape, dtype=complex) if out is None else out


# ---------------------------------------------------------------------------
# frequency norms and the cutoff profile


def _component_sum(f, v):
    """np.sum(f(v), axis=-1) for an elementwise f, bit for bit, summed one
    component at a time: below 8 components numpy's reduction adds them in
    that order too, but slowly over so short an axis.  From 8 on numpy sums
    in pairwise blocks, so np.sum runs there."""
    if not 0 < v.shape[-1] < 8:
        return np.sum(f(v), axis=-1)
    return sum_terms((f(v[..., a]) for a in range(v.shape[-1])), v.shape[:-1])


def sq_norm(xi):
    """|xi|^2 of frequencies: the sum of squares over the last axis, with
    the bits of np.sum."""
    return _component_sum(np.square, np.asarray(xi, dtype=float))


def block_norms(xi, n1: int):
    """The block norms |xi_1|, |xi_2| of frequencies (last axis = components)."""
    xi = np.asarray(xi, dtype=float)
    return np.sqrt(sq_norm(xi[..., :n1])), np.sqrt(sq_norm(xi[..., n1:]))


def smooth_step(u):
    """The frozen transition: 1 for u <= 0, 0 for u >= 1, strictly monotone between."""
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    out = np.where(u <= 0.0, 1.0, 0.0)
    mid = (u > 0.0) & (u < 1.0)
    if np.any(mid):
        um = u[mid]
        ga = np.exp(-1.0 / um)
        gb = np.exp(-1.0 / (1.0 - um))
        out[mid] = gb / (ga + gb)
    return float(out[0]) if scalar else out


def varphi(t):
    """Radial bump: 1 on |t| <= 1, 0 for |t| >= 2, smooth splice between."""
    return smooth_step(np.abs(np.asarray(t, dtype=float)) - 1.0)


# ---------------------------------------------------------------------------
# built-in families


def bracket(sq, s):
    """The weight <.>^s = (1 + |.|^2)^(s/2) from the squared norm ``sq``."""
    return (1.0 + sq) ** (s / 2.0)


def exotic_phase(xi, rho: float, n1: int):
    """<xi_1>^a + <xi_2>^a, a = 1 - rho: the phase of the ``oscillatory_exotic``
    b-factor, which the adversarial battery's chirps cancel."""
    xi = np.asarray(xi, dtype=float)
    a = 1.0 - rho
    return bracket(sq_norm(xi[..., :n1]), a) + bracket(sq_norm(xi[..., n1:]), a)


def _axis_cos_modulation(freq: int, depth: float):
    """The a-factor 1 + depth * mu(x), mu(x) the mean over axes of
    cos(2 pi freq x_a): unit period, |mu| <= 1."""
    def a(x, _f=freq, _d=depth):
        x = np.asarray(x, dtype=float)
        # np.mean is the sum over the axes divided by their count
        return 1.0 + _d * (_component_sum(lambda c: np.cos(2.0 * np.pi * _f * c), x)
                           / x.shape[-1])
    return a


def read_number(name: str, value, kind=float, finite: bool = True):
    """An outside number (a config value, a builtin parameter, a flag, a
    grid size or a decomposition index) read as ``kind``: int, float or complex.

    A bool, a non-number, for int a non-integral value, for float and
    complex an integer beyond the float range and, when ``finite``, NaN, an
    infinity or an integer beyond the float range is a ValueError that
    names the value as ``name``; nothing is coerced.
    """
    abc = {int: numbers.Integral, float: numbers.Real, complex: numbers.Number}[kind]
    if not isinstance(value, bool) and isinstance(value, abc):
        try:
            out = kind(value)
            z = complex(out) if finite else 0j  # OverflowError beyond the float range
        except OverflowError:
            pass
        else:
            if cmath.isfinite(z):
                return out
    what = "an integer" if kind is int else "a finite number" if finite else "a number"
    raise ValueError(f"{name} must be {what}, got {value!r}")


def read_numbers(name: str, values, kind=float, length: int | None = None,
                 finite: bool = True, increasing: bool = False) -> list:
    """A non-empty list of outside numbers, of ``length`` entries when given,
    each read by :func:`read_number`, and strictly increasing if ``increasing``."""
    if not isinstance(values, (list, tuple, range)) or not values or (
            length is not None and len(values) != length):
        size = "a non-empty list of" if length is None else f"a list of {length}"
        raise ValueError(f"{name} must be {size} numbers, got {values!r}")
    out = [read_number(name, v, kind, finite) for v in values]
    if increasing and any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError(f"{name} must be strictly increasing, got {out}")
    return out


def read_points(name: str, x, n: int) -> np.ndarray:
    """Outside points ``x`` as a float array of shape (n,) or (k, n), k >= 1.
    Another shape, a list of rows of which one has another length than n,
    or a coordinate that :func:`read_number` rejects, is a ValueError naming
    the shape, the first such row or the point.  An int or float array is
    read whole, anything else one coordinate at a time (asarray reads True
    as 1)."""
    def coordinate(v):
        try:
            return read_number(name, v)
        except ValueError:
            return np.nan

    whole = isinstance(x, np.ndarray) and x.dtype.kind in "iuf"
    src = x if whole else np.asarray(x, dtype=object)
    if src.ndim == 1 and not whole:
        # rows of unequal lengths make a 1-D object array of rows
        for i, row in enumerate(src):
            if isinstance(row, (list, tuple, np.ndarray)) and len(row) != n:
                raise ValueError(f"{name} row {i} has {len(row)} coordinate"
                                 f"{'' if len(row) == 1 else 's'}, expected {n}")
    if src.ndim not in (1, 2) or src.shape[-1] != n or src.size == 0:
        raise ValueError(f"{name} must be a point of {n} coordinates or a non-empty "
                         f"list of them, got shape {src.shape}")
    pts = np.asarray(src if whole else np.frompyfunc(coordinate, 1, 1)(src), dtype=float)
    ok = np.isfinite(np.atleast_2d(pts)).all(axis=-1)
    if not ok.all():
        point = np.atleast_2d(src)[np.argmin(ok)].tolist()
        raise ValueError(f"{name} must have finite real coordinates, got {point!r}")
    return pts


BUILTIN_PARAMS = {
    "constant": {"c": 1.0},
    "multiplier_bessel": {"m": -1.0},
    "separable": {"terms": None},
    "oscillatory_exotic": {"m": 0.0, "rho": 0.5, "xmod": DEFAULT_MOD_DEPTH,
                           "mod_freq": DEFAULT_MOD_FREQ},
    "modulated_bessel": {"m": -1.0, "strength": 0.3, "mod_freq": 1},
}


def builtin(name: str, params: dict = None, n1: int = 1, n2: int = 1) -> SymbolDescriptor:
    """Construct a named built-in symbol family member.

    Families
    --------
    constant            sigma = c; order 0, rho 1, delta 0.
    multiplier_bessel   sigma(xi) = (1+|xi|^2)^(m/2); order m, rho 1, delta 0.
    separable           sum of amp*cos(2 pi f.x + phase) * <xi_1>^t1 <xi_2>^t2
                        terms; declared bi-parameter order (max t1, max t2),
                        rho 1, delta 0.
    oscillatory_exotic  (1 + xmod*mu(x)) * chi(|xi|) e^{i(<xi_1>^a + <xi_2>^a)}
                        (1+|xi|^2)^(m/2) with a = 1-rho and chi a smooth
                        cutoff vanishing for |xi| <= 1; the canonical
                        order-m member of the product class at given rho with
                        delta = 0.  mu is a unit-period cosine in each axis
                        (frequency mod_freq), so the symbol is genuinely
                        x-dependent but stays band-limited in x; xmod = 0
                        recovers a pure multiplier.
    modulated_bessel    (1 + strength*mu(x)) (1+|xi|^2)^(m/2): mildly
                        x-modulated multiplier of order m, rho 1, delta 0.

    All families use smoothed per-factor magnitudes <xi_i> = (1+|xi_i|^2)^(1/2)
    so that their terms are total and infinitely differentiable on the axes.
    Each family is written as its separable terms only.
    Each family declares its class parameters analytically.  Numeric
    parameters are finite numbers (``mod_freq`` and ``xfreq`` entries
    integers) read by :func:`read_number`; anything else is a ValueError.
    """
    if not isinstance(name, str) or name not in BUILTIN_PARAMS:
        raise ValueError(
            f"unknown builtin {name!r}; available: {sorted(BUILTIN_PARAMS)}")
    defaults = BUILTIN_PARAMS[name]
    if params is not None and not isinstance(params, dict):
        raise ValueError(f"parameters must be a mapping of names to values, "
                         f"got {params!r}")
    params = dict(params or {})
    unknown = set(params) - set(defaults)
    if unknown:
        raise ValueError(f"unknown parameter(s) {sorted(unknown)} for builtin '{name}'")
    p = {**defaults, **params}
    n = n1 + n2

    def num(key, kind=float):
        return read_number(f"parameter '{key}'", p[key], kind)

    if name == "constant":
        c = num("c", complex)
        terms = (((lambda x, _c=c: np.full(np.asarray(x).shape[:-1], _c)),
                  (lambda xi: np.ones(np.asarray(xi).shape[:-1]))),)
        return make_symbol(terms, n1, n2, order=0.0, rho=1.0, delta=0.0,
                           name=f"constant[{c:g}]")

    if name == "multiplier_bessel":
        m = num("m")
        terms = (((lambda x: np.ones(np.asarray(x).shape[:-1])),
                  (lambda xi, _m=m: bracket(sq_norm(xi), _m))),)
        return make_symbol(terms, n1, n2, order=m, rho=1.0, delta=0.0,
                           name=f"bessel[{m:g}]")

    if name == "separable":
        raw = p["terms"]
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ValueError("separable builtin needs a nonempty 'terms' list")
        spec_terms = []
        for i, t in enumerate(raw):
            if not isinstance(t, dict):
                raise ValueError(f"parameter 'terms[{i}]' must be a mapping of "
                                 f"keys to values, got {t!r}")
            unknown = set(t) - {"amp", "xfreq", "phase", "orders"}
            if unknown:
                raise ValueError(f"unknown separable term key(s) {sorted(unknown)}")
            key = f"parameter 'terms[{i}]."
            spec_terms.append((
                read_number(key + "amp'", t.get("amp", 1.0)),
                read_numbers(key + "xfreq'", t.get("xfreq", (0,) * n), int, n),
                read_number(key + "phase'", t.get("phase", 0.0)),
                *read_numbers(key + "orders'", t.get("orders", (0.0, 0.0)), float, 2)))

        def a_factory(amp, xfreq, phase):
            def a(x, _a=amp, _f=np.asarray(xfreq, dtype=float), _p=phase):
                x = np.asarray(x, dtype=float)
                return _a * np.cos(2.0 * np.pi * np.sum(x * _f, axis=-1) + _p)
            return a

        def b_factory(t1, t2):
            def b(xi, _t1=t1, _t2=t2, _n1=n1):
                xi = np.asarray(xi, dtype=float)
                return (bracket(sq_norm(xi[..., :_n1]), _t1)
                        * bracket(sq_norm(xi[..., _n1:]), _t2))
            return b

        terms = tuple((a_factory(amp, xf, ph), b_factory(t1, t2))
                      for amp, xf, ph, t1, t2 in spec_terms)
        m_pair = (max(t[3] for t in spec_terms), max(t[4] for t in spec_terms))
        return make_symbol(terms, n1, n2, order=m_pair, rho=1.0, delta=0.0,
                           name=f"separable[{len(terms)}]")

    if name == "oscillatory_exotic":
        m = num("m")
        rho = num("rho")
        xmod = num("xmod")
        freq = num("mod_freq", int)

        def b(xi):
            # chi(|xi|) e^{i phase} <xi>^m, left to right, from one |xi|^2:
            # <xi>^0 is 1.0, so order m's b is the m = 0 b times <xi>^m
            sq = sq_norm(xi)
            return ((1.0 - varphi(np.sqrt(sq))) * np.exp(1j * exotic_phase(xi, rho, n1))
                    * bracket(sq, m))
        terms = ((_axis_cos_modulation(freq, xmod), b),)
        return make_symbol(terms, n1, n2, order=m, rho=rho, delta=0.0,
                           name=f"exotic[m={m:g},rho={rho:g}]")

    # modulated_bessel
    m = num("m")
    strength = num("strength")
    freq = num("mod_freq", int)
    terms = ((_axis_cos_modulation(freq, strength),
              (lambda xi, _m=m: bracket(sq_norm(xi), _m))),)
    return make_symbol(terms, n1, n2, order=m, rho=1.0, delta=0.0,
                       name=f"modbessel[m={m:g},s={strength:g}]")
