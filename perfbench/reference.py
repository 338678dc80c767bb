"""Reference values for the benchmark, computed by methods independent of the
code paths the benchmark times.

* ortho64: the norm of T_j* T_k as the largest dense singular value (numpy
  SVD) of the operator written out in frequency space, where the x-factors
  become circulant convolutions.  The program measures it by power iteration.
* scan kernel values: kernel slices by explicit DFT-matrix products instead of
  the FFT.  The multiplier symbol does not depend on x, so these values do not
  depend on the seeded x-samples and can be stored.
* bmo-sweep ratios: the operator applied with DFT matrices and the BMO norm by
  summed-area means and sliding windows instead of repeated ``np.roll``.  The
  battery depends on the seed.  For seeds ``BMO_STORED_SEEDS`` the ratios are
  stored together with a digest of the program's test battery at each N, so a
  change to the battery or to the separable factors shows as a mismatch; for
  other seeds the ratios are computed at run time from the program's battery.

``python3 perfbench/reference.py`` regenerates ``perfbench/reference.json``
(about ten minutes, most of it the SVDs of the j, k >= 4 cells and the bmo
ratios of the stored seeds).  It must be run from the repository root, like
the benchmark.
"""
from __future__ import annotations

import hashlib
import json
import os
import re
import sys

if __name__ == "__main__":
    # one BLAS thread, as in the benchmark, so that the SVDs repeat bit for bit
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

HERE = os.path.dirname(os.path.abspath(__file__))
STORED = os.path.join(HERE, "reference.json")

# Ortho workload: (symbol, params); shared with workloads.py.
ORTHO_SYMBOLS = (
    ("oscillatory_exotic", {"m": 0.0, "rho": 0.5}),
    ("multiplier_bessel", {"m": 0.0}),
)
ORTHO_N = 64
ORTHO_JS = (1, 2, 3, 4, 5)

# bmo-sweep workload: (symbol, params), grid sizes and the seeds stored.
BMO_SYMBOLS = (("multiplier_bessel", {"m": -0.5}), ("modulated_bessel", {"m": -0.5}))
BMO_NS = (16, 32, 64)
BMO_STORED_SEEDS = range(64)

# Scan kernel-decay part.
KERNEL_PARAMS = {"m": -0.5}
KERNEL_J = 5
KERNEL_ELLS = (0, 1, 2, 3, 4)
KERNEL_ELL_MAX = 6
KERNEL_NS = (64, 128, 256, 512)


def _dft_matrix(N: int) -> np.ndarray:
    k = np.arange(N)
    return np.exp(-2j * np.pi * np.outer(k, k) / N)


def _factor_tables(sym, grid):
    pts, frs = grid.points(), grid.freqs()
    return [(np.asarray(a(pts), dtype=complex), np.asarray(b(frs), dtype=complex))
            for a, b in sym.separable_terms]


def ortho_cell(tables_j, tables_k, grid) -> float:
    """|T_j* T_k| as the top singular value of its frequency-space matrix.

    With the unitary DFT U, U T U* = sum_p C(a_p) diag(b_p), where C(w) is the
    circulant matrix of the normalized Fourier coefficients of w.  Rows and
    columns outside the supports of the b factors are zero and are dropped.
    """
    N = grid.points_per_axis
    lat = np.rint(grid.freqs() * grid.period).astype(int) % N
    rows = np.flatnonzero(np.any([b != 0 for _, b in tables_j], axis=0))
    cols = np.flatnonzero(np.any([b != 0 for _, b in tables_k], axis=0))
    if rows.size == 0 or cols.size == 0:
        return 0.0
    d = (lat[rows][:, None, :] - lat[cols][None, :, :]) % N
    M = np.zeros((rows.size, cols.size), dtype=complex)
    for ap, bp in tables_j:
        for aq, bq in tables_k:
            what = np.fft.fftn((np.conj(ap) * aq).reshape(grid.shape)) / grid.size
            M += np.conj(bp[rows])[:, None] * what[d[..., 0], d[..., 1]] * bq[cols][None, :]
    return float(np.linalg.svd(M, compute_uv=False)[0])


def ortho_reference(symbol: str, params: dict) -> list:
    from bipdo import DecompositionIndex, builtin, derived_symbol, make_grid
    grid = make_grid(1, 1, ORTHO_N, 1.0)
    sym = builtin(symbol, params)
    tables = {j: _factor_tables(derived_symbol(sym, DecompositionIndex(j=j), "annulus_j"),
                                grid) for j in ORTHO_JS}
    return [[j, k, ortho_cell(tables[j], tables[k], grid)]
            for a, j in enumerate(ORTHO_JS) for k in ORTHO_JS[a:]]


def kernel_reference(N: int) -> list:
    """Kernel L1 of each cone piece at x = 0 by DFT-matrix products."""
    from bipdo import DecompositionIndex, builtin, derived_symbol, make_grid
    grid = make_grid(1, 1, N, 1.0)
    sym = builtin("multiplier_bessel", KERNEL_PARAMS)
    F = _dft_matrix(N)
    out = []
    for ell in KERNEL_ELLS:
        piece = derived_symbol(sym, DecompositionIndex(
            j=KERNEL_J, ell=ell, ell_max=KERNEL_ELL_MAX), "cone_lj")
        table = np.asarray(piece.evaluator(np.zeros((1, 2)), grid.freqs()),
                           dtype=complex).reshape(grid.shape)
        vals = F @ table @ F.T / grid.period ** 2
        out.append(float(np.sum(np.abs(vals)) * grid.cell_volume))
    return out


def bmo_norm(v: np.ndarray) -> float:
    """Sup over periodic dyadic cubes of the mean of |v - v_Q| (2-D arrays)."""
    N = v.shape[0]
    best = 0.0
    side = 2
    while side <= N:
        pad = np.pad(v, ((0, side - 1), (0, side - 1)), mode="wrap")
        S = np.zeros((N + side, N + side), dtype=complex)
        S[1:, 1:] = pad.cumsum(axis=0).cumsum(axis=1)
        sums = S[side:, side:] - S[:N, side:] - S[side:, :N] + S[:N, :N]
        means = sums / side ** 2
        acc = np.zeros((N, N))
        for o1 in range(side):
            win = sliding_window_view(pad[o1:o1 + N], side, axis=1)[:, :N]
            acc += np.abs(win - means[:, :, None]).sum(axis=2)
        best = max(best, float(acc.max()) / side ** 2)
        side *= 2
    return best


def battery_digest(N: int, seed: int) -> str:
    """Digest of the program's seeded test battery on the N-point grid."""
    from bipdo import make_grid
    from bipdo.analysis import test_battery
    h = hashlib.sha256()
    for f in test_battery(make_grid(1, 1, N, 1.0), seed):
        h.update(np.ascontiguousarray(f.values, dtype="<c16").tobytes())
    return h.hexdigest()[:32]


def bmo_ratios(symbol: str, params: dict, n_list, seed: int) -> list:
    """max over the seeded battery of bmo(T f) / linf(f), per N."""
    from bipdo import builtin, make_grid
    from bipdo.analysis import test_battery
    sym = builtin(symbol, params)
    out = []
    for N in n_list:
        grid = make_grid(1, 1, N, 1.0)
        F = _dft_matrix(N)
        Fi = np.conj(F) / N
        tables = [(a.reshape(grid.shape), b.reshape(grid.shape))
                  for a, b in _factor_tables(sym, grid)]
        best = 0.0
        for f in test_battery(grid, seed):
            denom = float(np.max(np.abs(f.values)))
            if denom == 0.0:
                continue
            fhat = F @ f.values @ F.T
            Tf = sum(a * (Fi @ (b * fhat) @ Fi.T) for a, b in tables)
            best = max(best, bmo_norm(Tf) / denom)
        out.append(best)
    return out


def load() -> dict:
    with open(STORED, "r", encoding="utf-8") as fh:
        return json.load(fh)


def save(doc: dict) -> None:
    """Write ``doc`` with every innermost list on one line."""
    text = json.dumps(doc, indent=1, sort_keys=True)
    text = re.sub(r"\[\s+([^\[\]]*?)\s+\]",
                  lambda m: "[" + re.sub(r"\s+", " ", m.group(1)) + "]", text)
    with open(STORED, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    doc = {
        "about": "independent reference values; regenerate with "
                 "python3 perfbench/reference.py",
        "numpy": np.__version__,
        "ortho64": {sym: ortho_reference(sym, params) for sym, params in ORTHO_SYMBOLS},
        "scan_kernel": {str(N): kernel_reference(N) for N in KERNEL_NS},
        "bmo_sweep": {str(seed): {
            "battery": {str(N): battery_digest(N, seed) for N in BMO_NS},
            "ratios": {sym: bmo_ratios(sym, params, BMO_NS, seed)
                       for sym, params in BMO_SYMBOLS}}
            for seed in BMO_STORED_SEEDS},
    }
    save(doc)
    print(f"wrote {STORED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
