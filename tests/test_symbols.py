"""Symbol descriptors and builtin families.

Builtins declare their class parameters analytically and reports record
them; these tests check construction, parameter validation, closed forms,
and that every builtin's separable terms sum to its evaluator.
"""

import re

import numpy as np
import pytest

from bipdo import builtin, make_symbol, varphi
from bipdo.symbols import BUILTIN_PARAMS


def separable_mismatch(evaluator, terms, count=12, seed=2024):
    """max |sum_k a_k(x) b_k(xi) - sigma(x, xi)| over seeded points with
    xi in [-6, 6], relative to the largest |sigma| there."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 1.0, size=(count, 2))
    xis = rng.uniform(-6.0, 6.0, size=(count, 2))
    direct = np.asarray(evaluator(xs, xis))
    summed = sum(np.asarray(a(xs)) * np.asarray(b(xis)) for a, b in terms)
    return np.max(np.abs(direct - summed)) / max(np.max(np.abs(direct)), 1e-30)


# ---------------------------------------------------------------------------
# construction and validation


def test_make_symbol_rejects_bad_parameters():
    ev = lambda x, xi: np.ones(np.asarray(x).shape[:-1], dtype=complex)
    with pytest.raises(ValueError):
        make_symbol(ev, 0, 1)
    with pytest.raises(ValueError):
        make_symbol(ev, 1, 1, order=(1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        make_symbol(ev, 1, 1, rho=1.5)


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


BUILTIN_CASES = [
    ("constant", {}),
    ("multiplier_bessel", {}),
    ("separable", {"terms": [{"amp": 0.7, "xfreq": [1, -2], "phase": 0.3,
                              "orders": [-0.5, -0.25]}]}),
    ("oscillatory_exotic", {"m": 0.0, "rho": 0.5, "xmod": 0.75}),
    ("oscillatory_exotic", {"m": 0.0, "rho": 0.5, "xmod": 0.0}),
    ("modulated_bessel", {}),
]


def test_builtin_separable_terms_match_evaluator():
    assert {name for name, _ in BUILTIN_CASES} == set(BUILTIN_PARAMS)
    for name, params in BUILTIN_CASES:
        sig = builtin(name, params)
        assert separable_mismatch(sig.evaluator, sig.separable_terms) <= 1e-9, name
    for name in ("oscillatory_exotic", "modulated_bessel"):
        assert len(builtin(name, {}).separable_terms) == 1

    # the comparison sees a term that drops the x-modulation
    sig = builtin("oscillatory_exotic", {"xmod": 0.75})
    (_, b), = sig.separable_terms
    ones = lambda x: np.ones(np.asarray(x).shape[:-1])
    assert separable_mismatch(sig.evaluator, ((ones, b),)) > 1e-9


def test_separable_product_bessel_biparameter():
    sig = builtin("separable", {"terms": [{"orders": [-1, -1]}]})
    assert sig.order == (-1.0, -1.0) and sig.rho == 1.0 and sig.delta == 0.0
    rng = np.random.default_rng(4)
    x, xi = rng.uniform(0, 1, (20, 2)), rng.uniform(-30, 30, (20, 2))
    ref = 1.0 / np.sqrt((1.0 + xi[:, 0] ** 2) * (1.0 + xi[:, 1] ** 2))
    assert np.abs(sig.evaluator(x, xi) - ref).max() <= 1e-14
