"""Symbol descriptors and builtin families.

Builtins declare their class parameters analytically and reports record
them; these tests check construction, parameter validation, and that every
builtin's terms sum to a closed form written here.
"""

import re

import numpy as np
import pytest

from bipdo import builtin, make_symbol, varphi
from bipdo.symbols import (BUILTIN_PARAMS, _axis_cos_modulation, bracket,
                           read_number, read_numbers, sq_norm)
from helpers import ones


def closed_form_mismatch(sig, closed_form, count=40, seed=2024):
    """max |sigma(x, xi) - closed_form(x, xi)| over seeded points with
    xi in [-6, 6], relative to the largest |closed_form| there."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 1.0, size=(count, 2))
    xis = rng.uniform(-6.0, 6.0, size=(count, 2))
    want = closed_form(xs, xis)
    return np.max(np.abs(sig.evaluator(xs, xis) - want)) / np.max(np.abs(want))


# ---------------------------------------------------------------------------
# construction and validation


def test_make_symbol_rejects_bad_parameters():
    terms = [(ones, ones)]
    for args, kwargs, needle in [
            ((terms, 0, 1), {}, "factor dimensions"),
            ((terms, 1, 1), {"order": (1.0, 2.0, 3.0)}, "order pair"),
            ((terms, 1, 1), {"rho": 1.5}, "rho"),
            (([(ones,)], 1, 1), {}, "(a(x), b(xi)) pairs"),
            (([(ones, ones, ones)], 1, 1), {}, "(a(x), b(xi)) pairs"),
            (([ones], 1, 1), {}, "(a(x), b(xi)) pairs")]:
        with pytest.raises(ValueError, match=re.escape(needle)):
            make_symbol(*args, **kwargs)


def test_make_symbol_reads_its_numbers():
    # the factor dimensions, the order and (rho, delta) are read by
    # read_number: nothing is coerced, and valid values keep their types
    terms = [(ones, ones)]
    for kwargs, needle in [
            ({"order": "1"}, "order must be a finite number, got '1'"),
            ({"order": True}, "order must be a finite number, got True"),
            ({"order": float("nan")}, "order must be a finite number, got nan"),
            ({"order": (0.0, float("inf"))}, "order pair must be a finite number, got inf"),
            ({"n1": 1.5}, "n1 must be an integer, got 1.5"),
            ({"n2": True}, "n2 must be an integer, got True"),
            ({"rho": "0.5"}, "rho must be a finite number, got '0.5'"),
            ({"delta": float("nan")}, "delta must be a finite number, got nan")]:
        with pytest.raises(ValueError, match=re.escape(needle)):
            make_symbol(**{"terms": terms, "n1": 1, "n2": 1, **kwargs})
    sym = make_symbol(terms, np.int64(2), 1, order=[1, 2], rho=1, delta=np.float64(0.25))
    assert (sym.n1, sym.n2, sym.order, sym.rho, sym.delta) == (2, 1, (1.0, 2.0), 1.0, 0.25)
    assert [type(v) for v in (sym.n1, sym.order, *sym.order, sym.rho, sym.delta)] == \
        [int, tuple, float, float, float, float]
    assert type(make_symbol(terms, 1, 1, order=np.float64(-0.5)).order) is float


def test_builtin_unknown_names_and_params():
    # unknown families and parameters are named in the error
    for name, params, key in [
            ("no_such_family", {}, "no_such_family"),
            ("riemann_singularity", {}, "riemann_singularity"),
            ("multiplier_bessel", {"bogus": 1}, "bogus"),
            ("oscillatory_exotic", {"a": 0.5}, "a"),
            ("constant", {"rho": 0.5}, "rho"),
            ("separable", {"terms": [{}], "delta": 0.0}, "delta")]:
        with pytest.raises(ValueError, match=re.escape(f"'{key}'")):
            builtin(name, params)
    with pytest.raises(ValueError):
        builtin("separable", {"terms": []})
    with pytest.raises(ValueError, match="nonempty 'terms' list"):
        builtin("separable", {"terms": 5})
    with pytest.raises(ValueError, match="parameters must be a mapping"):
        builtin("constant", [1, 2])
    with pytest.raises(ValueError):
        builtin("separable", {"terms": [{"bad_key": 1}]})
    # numbers are not coerced: NaN, infinities, bools, fractional integers
    for name, params, key in [
            ("modulated_bessel", {"m": float("nan")}, "m"),
            ("modulated_bessel", {"mod_freq": 2.5}, "mod_freq"),
            ("multiplier_bessel", {"m": True}, "m"),
            ("oscillatory_exotic", {"xmod": float("-inf")}, "xmod"),
            ("oscillatory_exotic", {"m": "0.5"}, "m"),
            ("constant", {"c": complex(1.0, float("inf"))}, "c"),
            ("separable", {"terms": [{"xfreq": [1, 0.5]}]}, "terms[0].xfreq"),
            ("separable", {"terms": [{"orders": [0.0, float("nan")]}]},
             "terms[0].orders"),
            ("separable", {"terms": [{"orders": [0.0, 1.0, 2.0]}]}, "terms[0].orders"),
            ("separable", {"terms": [{"xfreq": 3}]}, "terms[0].xfreq"),
            ("separable", {"terms": [5]}, "terms[0]")]:
        with pytest.raises(ValueError, match=re.escape(f"parameter '{key}'")):
            builtin(name, params)
    sig = builtin("modulated_bessel", {"m": np.float64(-0.5), "mod_freq": np.int64(2)})
    assert sig.order == -0.5


def test_builtin_rejects_a_name_that_is_not_a_string():
    for name in (["x"], {"a": 1}, None):
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin(name)


def test_read_number_rules():
    # one reader for config keys, builtin parameters, flags and indices
    assert read_number("k", 3, int) == 3 and read_number("k", 2) == 2.0
    assert read_number("p", float("inf"), finite=False) == float("inf")
    assert read_numbers("k", [1, 2], int, length=2) == [1, 2]
    for value, kind in ((True, int), (2.5, int), ("1", float), (10 ** 400, int),
                        (10 ** 400, float), (float("nan"), float),
                        (float("inf"), float), (None, float)):
        with pytest.raises(ValueError, match="'k' must be"):
            read_number("'k'", value, kind)
    for values, length in (([], None), (5, 2), ([1, 2, 3], 2), ([2, 2], None)):
        with pytest.raises(ValueError, match="'k' must be"):
            read_numbers("'k'", values, int, length=length, increasing=True)


def test_builtin_constant():
    one = builtin("constant", {"c": 1.0})
    rng = np.random.default_rng(0)
    x, xi = rng.uniform(0, 1, (9, 2)), rng.uniform(-40, 40, (9, 2))
    assert np.array_equal(one.evaluator(x, xi), np.ones(9, dtype=complex))


def test_builtin_bessel_closed_form():
    sig = builtin("multiplier_bessel", {"m": -1.0})
    rng = np.random.default_rng(1)
    x, xi = rng.uniform(0, 1, (20, 2)), rng.uniform(-30, 30, (20, 2))
    ref = (1.0 + np.sum(xi * xi, axis=-1)) ** -0.5
    assert np.abs(sig.evaluator(x, xi) - ref).max() <= 1e-14
    assert sig.order == -1.0 and sig.rho == 1.0 and sig.delta == 0.0


def test_builtin_exotic_phase_exponent_param():
    # the phase exponent is a = 1 - rho, so the declared rho is the true one
    rng = np.random.default_rng(2)
    x, xi = rng.uniform(0, 1, (15, 2)), rng.uniform(-50, 50, (15, 2))
    g1, g2 = 1.0 + xi[:, 0] ** 2, 1.0 + xi[:, 1] ** 2
    r = np.linalg.norm(xi, axis=-1)
    for rho in (0.25, 0.5, 1.0):
        sig = builtin("oscillatory_exotic", {"m": -0.5, "rho": rho, "xmod": 0.0})
        a = 1.0 - rho
        ref = ((1.0 - varphi(r)) * (1.0 + r * r) ** -0.25
               * np.exp(1j * (g1 ** (a / 2) + g2 ** (a / 2))))
        assert np.abs(sig.evaluator(x, xi) - ref).max() <= 1e-14
        assert sig.rho == rho and sig.delta == 0.0 and sig.order == -0.5


def test_modulated_bessel_is_x_dependent():
    sig = builtin("modulated_bessel", {"m": -0.5, "strength": 0.3})
    xi = np.array([[4.0, 4.0], [4.0, 4.0]])
    x = np.array([[0.0, 0.0], [0.31, 0.77]])
    v = sig.evaluator(x, xi)
    assert abs(v[0] - v[1]) > 1e-3


def _bracket(v, power):
    """<v>^power = (1 + |v|^2)^(power / 2) over the last axis."""
    return (1.0 + np.sum(v * v, axis=-1)) ** (power / 2.0)


def _mu(x, freq):
    """The unit-period axis modulation of the oscillating builtins, in 2-D."""
    return (np.cos(2 * np.pi * freq * x[:, 0]) + np.cos(2 * np.pi * freq * x[:, 1])) / 2


_SEP_TERMS = [(0.7, (1, -2), 0.3, (-0.5, -0.25)), (0.4, (0, 1), 0.0, (0.5, 0.0))]


def _exotic(x, xi, m=-0.5, rho=0.5, xmod=0.75):
    a = 1.0 - rho
    phase = _bracket(xi[:, :1], a) + _bracket(xi[:, 1:], a)
    chi = 1.0 - varphi(np.linalg.norm(xi, axis=-1))
    return (1.0 + xmod * _mu(x, 2)) * chi * np.exp(1j * phase) * _bracket(xi, m)


# (name, params, closed form of sigma(x, xi)) for every builtin
BUILTIN_CASES = [
    ("constant", {"c": 1.5 - 0.5j}, lambda x, xi: np.full(len(x), 1.5 - 0.5j)),
    ("multiplier_bessel", {"m": -1.0}, lambda x, xi: _bracket(xi, -1.0)),
    ("separable",
     {"terms": [{"amp": amp, "xfreq": list(f), "phase": ph, "orders": list(t)}
                for amp, f, ph, t in _SEP_TERMS]},
     lambda x, xi: sum(amp * np.cos(2 * np.pi * (x @ np.array(f)) + ph)
                       * _bracket(xi[:, :1], t[0]) * _bracket(xi[:, 1:], t[1])
                       for amp, f, ph, t in _SEP_TERMS)),
    ("oscillatory_exotic", {"m": -0.5, "rho": 0.5, "xmod": 0.75}, _exotic),
    ("modulated_bessel", {"m": -1.0, "strength": 0.3, "mod_freq": 1},
     lambda x, xi: (1.0 + 0.3 * _mu(x, 1)) * _bracket(xi, -1.0)),
]


def test_builtin_separable_terms_match_evaluator():
    # the evaluator is the sum of the terms, so each builtin's terms are
    # checked against a closed form written here
    assert {name for name, _, _ in BUILTIN_CASES} == set(BUILTIN_PARAMS)
    for name, params, closed_form in BUILTIN_CASES:
        assert closed_form_mismatch(builtin(name, params), closed_form) <= 1e-12, name
    for name in ("oscillatory_exotic", "modulated_bessel"):
        assert len(builtin(name, {}).separable_terms) == 1

    # the comparison sees a term list that drops the x-modulation
    sig = builtin("oscillatory_exotic", {"m": -0.5, "rho": 0.5, "xmod": 0.75})
    (_, b), = sig.separable_terms
    assert closed_form_mismatch(make_symbol([(ones, b)], 1, 1), _exotic) > 1e-9


def test_separable_product_bessel_biparameter():
    sig = builtin("separable", {"terms": [{"orders": [-1, -1]}]})
    assert sig.order == (-1.0, -1.0) and sig.rho == 1.0 and sig.delta == 0.0
    rng = np.random.default_rng(4)
    x, xi = rng.uniform(0, 1, (20, 2)), rng.uniform(-30, 30, (20, 2))
    ref = 1.0 / np.sqrt((1.0 + xi[:, 0] ** 2) * (1.0 + xi[:, 1] ** 2))
    assert np.abs(sig.evaluator(x, xi) - ref).max() <= 1e-14


# ---------------------------------------------------------------------------
# frequency norms and the x-modulation: numpy's reductions, bit for bit


def _bits(v):
    return np.asarray(v, dtype=float).view(np.int64)


def _seeded_components(seed):
    """Seeded (M, n) and (a, b, n) arrays for n = 1..9, entries spread over
    six decades, with the column views xi[..., :n1] and xi[..., n1:] that
    ``block_norms`` passes."""
    rng = np.random.default_rng(seed)
    for n in range(1, 10):
        for shape in ((257, n), (5, 7, n)):
            xi = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
            yield n, xi
            for n1 in range(1, n):
                yield n1, xi[..., :n1]
                yield n - n1, xi[..., n1:]


def test_sq_norm_has_the_bits_of_np_sum():
    for n, xi in _seeded_components(11):
        assert np.array_equal(_bits(sq_norm(xi)),
                              _bits(np.sum(xi ** 2, axis=-1))), (n, xi.shape)


def test_axis_cos_modulation_has_the_bits_of_np_mean():
    a = _axis_cos_modulation(2, 0.75)
    for n, x in _seeded_components(12):
        want = 1 + 0.75 * np.mean(np.cos(2.0 * np.pi * 2 * x), axis=-1)
        assert np.array_equal(_bits(a(x)), _bits(want)), (n, x.shape)


@pytest.mark.parametrize("n1", [1, 2])
@pytest.mark.parametrize("name,params", [
    ("multiplier_bessel", {}), ("modulated_bessel", {}),
    ("oscillatory_exotic", {"rho": 0.25}), ("oscillatory_exotic", {"rho": 0.5}),
    ("oscillatory_exotic", {"rho": 0.75})],
    ids=["multiplier_bessel", "modulated_bessel", "exotic-rho0.25", "exotic-rho0.5",
         "exotic-rho0.75"])
def test_order_m_b_factor_is_the_order_0_one_times_the_bracket(name, params, n1):
    # the order enters through one weight: b_m = b_0 * bracket(sq_norm(xi), m),
    # bit for bit, so an order-m table is the m = 0 table reweighted
    xi = np.random.default_rng(37).uniform(-40.0, 40.0, size=(4096, n1 + 1))

    def b(m):
        ((_, b_m),) = builtin(name, {**params, "m": m}, n1=n1, n2=1).separable_terms
        return np.asarray(b_m(xi))
    b0 = b(0.0)
    for m in (-1.0, -0.5, 0.25, 0.5, 2.0):
        assert b(m).tobytes() == (b0 * bracket(sq_norm(xi), m)).tobytes(), m
