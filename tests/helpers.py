"""Seeded inputs and the dense norm oracle shared by the test modules."""

import numpy as np

from bipdo import SampledField, apply, builtin


def ones(v):
    """The factor 1 of a separable term, on points or frequencies ``v``."""
    return np.ones(np.asarray(v).shape[:-1])


def rand_field(grid, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return SampledField(grid, v)


def rand_separable(seed, nterms=3, n1=1, n2=1):
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(nterms):
        terms.append({
            "amp": float(rng.uniform(0.2, 1.0)),
            "xfreq": [int(rng.integers(-2, 3)) for _ in range(n1 + n2)],
            "phase": float(rng.uniform(0, 2 * np.pi)),
            "orders": [float(rng.uniform(-1.0, 0.0)), float(rng.uniform(-1.0, 0.0))],
        })
    return builtin("separable", {"terms": terms}, n1=n1, n2=n2)


def dense_opnorm_oracle(T, grid):
    """Top singular value via explicit columns; independent of the iteration.

    ``T`` is a quantized operator or a map with a ``matvec`` on arrays.  A map
    on DFT coefficients is U P U* for its map P on fields and a unitary U, so
    its singular values are P's."""
    matvec = getattr(T, "matvec", None) or (
        lambda v: apply(T, SampledField(grid, v)).values)
    cols = []
    for i in range(grid.size):
        e = np.zeros(grid.size, dtype=complex)
        e[i] = 1.0
        cols.append(matvec(e.reshape(grid.shape)).ravel())
    mat = np.stack(cols, axis=1)
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def count_ffts(monkeypatch):
    """Count the calls of np.fft.fftn and np.fft.ifftn: the returned list
    gets one name per call."""
    calls = []
    for name in ("fftn", "ifftn"):
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls
