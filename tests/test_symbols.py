"""Symbol descriptors, builtin families, seminorms, and class checks.

Derivative agreement is checked against a finite-difference oracle written
in this file, independent of the library's own difference machinery.
"""

import numpy as np
import pytest

import bipdo as bp
from bipdo import (ProbeSpec, builtin, class_check, default_probe,
                   make_symbol, seminorm)
from bipdo.symbols import scale_symbol, BUILTIN_PARAMS


def fd_gradient(evaluator, x, xi, axis, wrt, h):
    """Fourth-order central difference of sigma along one x or xi axis."""
    def at(shift):
        xa, xia = np.array(x, dtype=float), np.array(xi, dtype=float)
        if wrt == "x":
            xa[axis] += shift
        else:
            xia[axis] += shift
        return evaluator(xa[None, :], xia[None, :])[0]
    return (-at(2 * h) + 8 * at(h) - 8 * at(-h) + at(-2 * h)) / (12 * h)


def unit_alpha(n, axis):
    a = [0] * n
    a[axis] = 1
    return tuple(a)


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


def test_checked_mode_catches_wrong_oracle():
    def ev(x, xi):
        xi = np.asarray(xi, dtype=float)
        return np.exp(-np.sum(xi * xi, axis=-1)).astype(complex)

    def bad_oracle(alpha, beta, x, xi):
        if sum(alpha) + sum(beta) == 0:
            return ev(x, xi)
        raise NotImplementedError

    class WrongFirst:
        def __call__(self, alpha, beta, x, xi):
            if sum(alpha) + sum(beta) == 0:
                return ev(x, xi)
            if sum(beta) == 0 and sum(alpha) == 1:
                xi = np.asarray(xi, dtype=float)
                axis = list(alpha).index(1)
                true = -2.0 * xi[..., axis] * ev(x, xi)
                return 1.17 * true          # deliberately off by 17%
            raise NotImplementedError

    make_symbol(ev, 1, 1, derivative_oracle=bad_oracle, checked=True)
    with pytest.raises(ValueError):
        make_symbol(ev, 1, 1, derivative_oracle=WrongFirst(), checked=True)


def test_builtin_unknown_names_and_params():
    with pytest.raises(ValueError):
        builtin("no_such_family", {})
    with pytest.raises(ValueError):
        builtin("multiplier_bessel", {"bogus": 1})
    with pytest.raises(ValueError):
        builtin("separable", {"terms": []})
    with pytest.raises(ValueError):
        builtin("separable", {"terms": [{"bad_key": 1}]})


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
    default = builtin("oscillatory_exotic", {"m": 0.0, "rho": 0.5})
    explicit = builtin("oscillatory_exotic", {"m": 0.0, "rho": 0.5, "a": 0.5})
    rng = np.random.default_rng(2)
    x, xi = rng.uniform(0, 1, (15, 2)), rng.uniform(-50, 50, (15, 2))
    assert np.abs(default.evaluator(x, xi) - explicit.evaluator(x, xi)).max() == 0.0


def test_modulated_bessel_is_x_dependent():
    sig = builtin("modulated_bessel", {"m": -0.5, "strength": 0.3})
    xi = np.array([[4.0, 4.0], [4.0, 4.0]])
    x = np.array([[0.0, 0.0], [0.31, 0.77]])
    v = sig.evaluator(x, xi)
    assert abs(v[0] - v[1]) > 1e-3


# ---------------------------------------------------------------------------
# derivative oracles vs finite differences


def test_oracles_match_finite_differences():
    cases = [
        builtin("multiplier_bessel", {"m": -1.0}),
        builtin("modulated_bessel", {"m": -0.5, "strength": 0.3}),
    ]
    rng = np.random.default_rng(3)
    for sig in cases:
        assert sig.derivative_oracle is not None
        for _ in range(50):
            x = rng.uniform(0.0, 1.0, 2)
            xi = rng.uniform(-8.0, 8.0, 2)
            for wrt in ("x", "xi"):
                for axis in (0, 1):
                    alpha = unit_alpha(2, axis) if wrt == "xi" else (0, 0)
                    beta = unit_alpha(2, axis) if wrt == "x" else (0, 0)
                    try:
                        got = sig.derivative_oracle(alpha, beta,
                                                    x[None, :], xi[None, :])[0]
                    except NotImplementedError:
                        continue
                    want = fd_gradient(sig.evaluator, x, xi, axis, wrt, 1e-4)
                    scale = max(1.0, abs(want))
                    assert abs(got - want) <= 1e-5 * scale, (sig.name, wrt, axis)


BUILTIN_CASES = [
    ("constant", {}),
    ("multiplier_bessel", {}),
    ("separable", {"terms": [{"amp": 0.7, "xfreq": [1, -2], "phase": 0.3,
                              "orders": [-0.5, -0.25]}]}),
    ("oscillatory_exotic", {"m": 0.0, "rho": 0.5, "xmod": 0.75}),
    ("oscillatory_exotic", {"m": 0.0, "rho": 0.5, "xmod": 0.0}),
    ("riemann_singularity", {}),
    ("modulated_bessel", {}),
]


def test_checked_construction_of_oracle_builtins():
    # rebuilding through checked mode re-validates the derivative oracle and
    # the separable terms against the hand-written evaluator
    assert {name for name, _ in BUILTIN_CASES} == set(BUILTIN_PARAMS)
    for name, params in BUILTIN_CASES:
        sig = builtin(name, params)
        make_symbol(sig.evaluator, 1, 1, order=sig.order, rho=sig.rho,
                    delta=sig.delta, derivative_oracle=sig.derivative_oracle,
                    separable_terms=sig.separable_terms, checked=True)
    for name in ("oscillatory_exotic", "modulated_bessel"):
        assert len(builtin(name, {}).separable_terms) == 1

    # the check sees a term that drops the x-modulation
    sig = builtin("oscillatory_exotic", {"xmod": 0.75})
    (_, b), = sig.separable_terms
    ones = lambda x: np.ones(np.asarray(x).shape[:-1])
    with pytest.raises(ValueError, match="separable terms disagree"):
        make_symbol(sig.evaluator, 1, 1, order=sig.order, rho=sig.rho,
                    separable_terms=((ones, b),), checked=True)


# ---------------------------------------------------------------------------
# seminorm


def test_seminorm_of_constant_is_one():
    one = builtin("constant", {"c": 1.0})
    rep = seminorm(one, default_probe(1, 1))
    assert rep.seminorm == pytest.approx(1.0, abs=1e-12)
    assert rep.k > 1 and rep.n_x > 1       # orders exceed n/2 = 1
    assert rep.class_ok


def test_seminorm_oracle_vs_difference_path():
    sig = builtin("multiplier_bessel", {"m": -1.0})
    probe = default_probe(1, 1, xi_cap=32.0)
    with_oracle = seminorm(sig, probe).seminorm
    stripped = make_symbol(sig.evaluator, 1, 1, order=sig.order, rho=sig.rho,
                           delta=sig.delta, name="bessel_fd")
    without = seminorm(stripped, probe).seminorm
    assert np.isfinite(with_oracle) and with_oracle > 0
    assert abs(with_oracle - without) <= 1e-4 * with_oracle


def test_seminorm_scales_linearly():
    sig = builtin("multiplier_bessel", {"m": -1.0})
    probe = default_probe(1, 1)
    base = seminorm(sig, probe).seminorm
    scaled = seminorm(scale_symbol(sig, -2.5j), probe).seminorm
    assert abs(scaled - 2.5 * base) <= 1e-12 * base


def test_plane_wave_fails_class_check():
    def pw(x, xi):
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        return np.exp(2j * np.pi * np.sum(x * xi, axis=-1))
    sig = make_symbol(pw, 1, 1, order=0.0, rho=1.0, delta=0.0, name="plane_wave")
    probe = default_probe(1, 1, xi_cap=32.0)
    rep = seminorm(sig, probe)
    assert not rep.class_ok
    cc = class_check(sig, "product", probe)
    assert not cc.ok
    assert cc.margin > 1e3                 # x-derivatives grow like |xi|


def test_exotic_passes_class_check():
    sig = builtin("oscillatory_exotic", {"m": 0.0, "rho": 0.5})
    probe = default_probe(1, 1)            # caps at |xi| <= 64
    rep = seminorm(sig, probe)
    assert rep.class_ok
    assert rep.seminorm == pytest.approx(59.22, rel=1e-2)
    assert class_check(sig, "product", probe).ok


# ---------------------------------------------------------------------------
# class relations


def test_class_check_monotone_in_rho_delta():
    sig = builtin("oscillatory_exotic", {"m": 0.0, "rho": 0.5})
    probe = default_probe(1, 1)
    assert class_check(sig, "product", probe).ok
    # loosening the weights must preserve membership
    assert class_check(sig, "product", probe, rho=0.25).ok
    assert class_check(sig, "product", probe, rho=0.25, delta=0.3).ok


def test_product_implies_biparameter_on_bessel():
    sig = builtin("multiplier_bessel", {"m": -1.0})
    probe = default_probe(1, 1)
    assert class_check(sig, "product", probe).ok
    assert class_check(sig, "biparameter", probe, order=(-0.5, -0.5)).ok


def test_separable_product_bessel_biparameter():
    sig = builtin("separable", {"terms": [{"orders": [-1, -1]}]})
    assert sig.order == (-1.0, -1.0)
    probe = default_probe(1, 1)
    cc = class_check(sig, "biparameter", probe)
    assert cc.ok
    assert cc.margin == pytest.approx(4.63, rel=5e-2)


def test_zero_symbol_class_margin_zero():
    zero = builtin("constant", {"c": 0.0})
    cc = class_check(zero, "product", default_probe(1, 1))
    assert cc.ok and cc.margin == 0.0
