"""Command-line front end: config parsing, experiment dispatch, reports.

Config files are flat ``key = JSON`` lines (``#`` comments, blank lines ok).
Keys are strictly validated: unknown or duplicate keys abort with exit code 2
and a line-numbered message.  Physical parameters (grid, ranges) have no
defaults; only tolerances, seeds, and the output directory do.

Exit codes: 0 success, 1 experiment failure (FAIL verdict, degenerate fit,
non-convergence), 2 configuration or usage error.  BIPDO_THREADS caps
intra-run parallelism (default 1, serial).

Reports: ``<outdir>/<experiment>.json`` embeds the parsed config, the build
identifier, and the seed alongside the experiment report, serialized with
sorted keys so identical runs are byte-identical.  ``<experiment>.csv`` holds
the flat numbers; columns are stable per experiment and documented in the
README.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import decompose
from .grid import (DyadicCube, SampledField, dft_forward, dft_inverse,
                   lp_norm, make_grid, read_field, write_field)
from .decompose import (DecompositionIndex, cube_partition, delta_ell,
                        default_ell_max, derived_symbol, phi_j)
from .symbols import BUILTIN_PARAMS, builtin
from .operators import apply, kernel_l1, kernel_slice, quantize
from . import analysis


class ConfigError(Exception):
    pass


_KNOWN_KEYS = frozenset({
    "experiment", "symbol", "params", "grid", "factors", "period",
    "j", "j_range", "ell_range", "ell_max", "x_count",
    "N_list", "m_grid", "p_list", "rho",
    "cube_anchor", "cube_side", "battery_kmax", "battery_count",
    "seed", "tol", "max_iter", "outdir",
})

_EXPERIMENTS = ("ortho", "kernel_decay", "l2_uniformity", "bmo",
                "sharpness", "commutator")


@dataclass
class RunConfig:
    """Parsed, validated key-value configuration of one run."""

    values: dict

    def get(self, key, default=None):
        return self.values.get(key, default)

    def require(self, *keys):
        missing = [k for k in keys if k not in self.values]
        if missing:
            raise ConfigError(
                f"experiment '{self.values.get('experiment')}' requires "
                f"keys: {', '.join(missing)}")

    def to_dict(self) -> dict:
        return dict(self.values)


def parse_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config '{path}': {exc}")
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, rest = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = JSON value'")
        key = key.strip()
        rest = rest.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        try:
            values[key] = json.loads(rest)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}:{lineno}: value for '{key}' is not valid JSON: {exc}")
    if "experiment" not in values:
        raise ConfigError(f"{path}: missing required key 'experiment'")
    if values["experiment"] not in _EXPERIMENTS:
        raise ConfigError(
            f"{path}: unknown experiment '{values['experiment']}' "
            f"(known: {', '.join(_EXPERIMENTS)})")
    return RunConfig(values)


def _jdefault(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_report(outdir: str, name: str, config: RunConfig, seed,
                  report: dict, rows, header) -> None:
    os.makedirs(outdir, exist_ok=True)
    payload = {
        "build": __version__,
        "config": config.to_dict(),
        "seed": seed,
        "report": report,
    }
    jpath = os.path.join(outdir, f"{name}.json")
    with open(jpath, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=_jdefault)
        fh.write("\n")
    cpath = os.path.join(outdir, f"{name}.csv")
    with open(cpath, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _build_symbol(cfg: RunConfig, n1: int, n2: int):
    name = cfg.get("symbol")
    if name is None:
        raise ConfigError("missing required key 'symbol'")
    params = cfg.get("params", {})
    try:
        return builtin(name, params, n1=n1, n2=n2)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"cannot build symbol '{name}': {exc}")


def _number(key: str, value, kind):
    """A config value read as ``kind``: a JSON integer for int, any JSON
    number for float.  Anything else (a string, a bool, 2.5 for an int key)
    is a ConfigError naming the key."""
    types = (int,) if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, types):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"'{key}' must be {what}, got {value!r}")
    return kind(value)


def _num(cfg: RunConfig, key: str, kind, default=None):
    return _number(key, cfg.get(key, default), kind)


def _nums(cfg: RunConfig, key: str, kind, length: int | None = None) -> list:
    """A config list of numbers, each read by ``_number``."""
    values = cfg.get(key)
    if not isinstance(values, list) or (length is not None and len(values) != length):
        size = "a JSON list" if length is None else f"a JSON list of {length}"
        raise ConfigError(f"'{key}' must be {size} numbers, got {values!r}")
    return [_number(key, v, kind) for v in values]


def _grid_from_cfg(cfg: RunConfig):
    g = cfg.get("grid")
    if not (isinstance(g, list) and len(g) == 4):
        raise ConfigError("'grid' must be a JSON list [n1, n2, N, period]")
    n1, n2, N = (_number("grid", v, int) for v in g[:3])
    try:
        return make_grid(n1, n2, N, _number("grid", g[3], float))
    except ValueError as exc:
        raise ConfigError(f"invalid grid: {exc}")


def _factors_from_cfg(cfg: RunConfig):
    n1, n2 = _nums(cfg, "factors", int, length=2)
    return n1, n2, _num(cfg, "period", float)


def _solver_settings(cfg: RunConfig):
    """(tol, max_iter) of a run: tol finite and > 0, max_iter an integer >= 1."""
    tol = _num(cfg, "tol", float, 1e-8)
    max_iter = _num(cfg, "max_iter", int, 500)
    if not math.isfinite(tol) or tol <= 0:
        raise ConfigError(f"'tol' must be a finite positive number, got {tol!r}")
    if max_iter < 1:
        raise ConfigError(f"'max_iter' must be an integer >= 1, got {max_iter!r}")
    return tol, max_iter


def _threads() -> int | None:
    raw = os.environ.get("BIPDO_THREADS", "")
    if not raw:
        return None
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"BIPDO_THREADS must be an integer, got '{raw}'")
    return n if n > 1 else None


def _run_ortho(cfg: RunConfig):
    cfg.require("symbol", "grid", "j_range")
    grid = _grid_from_cfg(cfg)
    sym = _build_symbol(cfg, grid.n1, grid.n2)
    tol, max_iter = _solver_settings(cfg)
    report = analysis.ortho_experiment(
        sym, _nums(cfg, "j_range", int), grid,
        tol=tol, max_iter=max_iter, max_workers=_threads())
    rows = [[j, k, report.entries[(j, k)]] for j in report.js for k in report.js]
    passed = report.converged
    line = (f"ortho: epsilon={report.fitted_epsilon:.4g} A={report.fitted_A:.4g} "
            f"R2={report.r_squared:.4g} converged={report.converged}")
    return report.to_dict(), rows, ["j", "k", "opnorm"], line, passed


def _run_kernel_decay(cfg: RunConfig):
    cfg.require("symbol", "grid", "j", "ell_range")
    grid = _grid_from_cfg(cfg)
    sym = _build_symbol(cfg, grid.n1, grid.n2)
    seed = _num(cfg, "seed", int, 2026)
    count = _num(cfg, "x_count", int, 5)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, grid.period, size=(count, grid.n))
    ell_max = None if cfg.get("ell_max") is None else _num(cfg, "ell_max", int)
    report = analysis.kernel_decay_experiment(
        sym, _num(cfg, "j", int), _nums(cfg, "ell_range", int), xs, grid,
        ell_max=ell_max)
    rows = list(zip(report.ells, report.values))
    passed = report.verdict == "ok"
    line = (f"kernel_decay: slope={report.slope:.4g} "
            f"target={report.target_slope:.4g} verdict={report.verdict}")
    return report.to_dict(), rows, ["ell", "kernel_l1"], line, passed


def _run_l2_uniformity(cfg: RunConfig):
    cfg.require("symbol", "factors", "period", "N_list")
    n1, n2, period = _factors_from_cfg(cfg)
    sym = _build_symbol(cfg, n1, n2)
    tol, max_iter = _solver_settings(cfg)
    report = analysis.l2_uniformity_sweep(
        sym, _nums(cfg, "N_list", int), period,
        tol=tol, max_iter=max_iter)
    rows = list(zip(report.n_values, report.ratios))
    line = (f"l2_uniformity: ratios={[round(r, 6) for r in report.ratios]} "
            f"variation={report.variation():.4g} verdict={report.verdict}")
    return report.to_dict(), rows, ["N", "opnorm"], line, report.verdict == "PASS"


def _run_bmo(cfg: RunConfig):
    cfg.require("symbol", "factors", "period", "N_list")
    n1, n2, period = _factors_from_cfg(cfg)
    sym = _build_symbol(cfg, n1, n2)
    report = analysis.bmo_experiment(
        sym, None, _nums(cfg, "N_list", int), period,
        seed=_num(cfg, "seed", int, 2026))
    rows = list(zip(report.n_values, report.ratios))
    line = (f"bmo: ratios={[round(r, 6) for r in report.ratios]} "
            f"variation={report.variation():.4g} verdict={report.verdict}")
    return report.to_dict(), rows, ["N", "bmo_ratio"], line, report.verdict == "PASS"


def _run_sharpness(cfg: RunConfig):
    cfg.require("rho", "p_list", "m_grid", "N_list", "factors", "period")
    n1, n2, period = _factors_from_cfg(cfg)
    table = analysis.sharpness_scan(
        _num(cfg, "rho", float), _nums(cfg, "p_list", float),
        _nums(cfg, "m_grid", float), _nums(cfg, "N_list", int),
        period, seed=_num(cfg, "seed", int, 2026), n1=n1, n2=n2,
        max_workers=_threads())
    rows = []
    for m in table.ms:
        for p in table.ps:
            for N, r in zip(table.n_values, table.ratios[(m, p)]):
                rows.append([m, p, N, r, table.exponents[(m, p)],
                             int(table.growing[(m, p)])])
    monotone = all(table.monotone_in_m(p) for p in table.ps)
    flips = {p: table.flip_m(p) for p in table.ps}
    line = f"sharpness: flips={flips} monotone={monotone}"
    return table.to_dict(), rows, ["m", "p", "N", "ratio", "exponent", "growing"], \
        line, monotone


def _run_commutator(cfg: RunConfig):
    cfg.require("symbol", "grid", "cube_anchor", "cube_side", "rho")
    grid = _grid_from_cfg(cfg)
    sym = _build_symbol(cfg, grid.n1, grid.n2)
    tol, _ = _solver_settings(cfg)
    anchor = tuple(_nums(cfg, "cube_anchor", int))
    Q = DyadicCube(anchor, _num(cfg, "cube_side", int))
    Q.check(grid)
    kmax = _num(cfg, "battery_kmax", int, grid.points_per_axis // 4)
    count = _num(cfg, "battery_count", int, 8)
    seed = _num(cfg, "seed", int, 2026)
    battery = analysis.band_limited_battery(grid, kmax, count, seed)
    err = analysis.commutator_check(sym, Q, _num(cfg, "rho", float), battery)
    passed = err <= tol
    report = {"max_relative_error": err, "tol": tol,
              "battery_kmax": kmax, "battery_count": count,
              "verdict": "PASS" if passed else "FAIL"}
    line = f"commutator: max_rel_err={err:.4g} tol={tol:g} verdict={report['verdict']}"
    return report, [["max_relative_error", err]], ["quantity", "value"], line, passed


_RUNNERS = {
    "ortho": _run_ortho,
    "kernel_decay": _run_kernel_decay,
    "l2_uniformity": _run_l2_uniformity,
    "bmo": _run_bmo,
    "sharpness": _run_sharpness,
    "commutator": _run_commutator,
}


def cmd_run(args) -> int:
    cfg = parse_config(args.config)
    name = cfg.get("experiment")
    seed = _num(cfg, "seed", int, 2026)
    report, rows, header, line, passed = _RUNNERS[name](cfg)
    outdir = cfg.get("outdir", ".")
    _write_report(outdir, name, cfg, seed, report, rows, header)
    print(line)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# selftest


def _check_fft_roundtrip(N):
    grid = make_grid(1, 1, N, 1.0)
    rng = np.random.default_rng(3)
    f = SampledField(grid, rng.standard_normal(grid.shape)
                     + 1j * rng.standard_normal(grid.shape))
    back = dft_inverse(dft_forward(f))
    return float(np.max(np.abs(back.values - f.values)))


def _check_dyadic_partition(N):
    rng = np.random.default_rng(4)
    xi = rng.uniform(-40.0, 40.0, size=(400, 2))
    J = 7
    total = sum(phi_j(xi, j) for j in range(J + 1))
    r = np.sqrt(np.sum(xi ** 2, axis=1))
    expect = decompose.varphi(2.0 ** (-J) * r)
    return float(np.max(np.abs(total - expect)))


def _check_cone_partition(N):
    rng = np.random.default_rng(5)
    xi = rng.uniform(-30.0, 30.0, size=(400, 2))
    xi[:10, 0] = 0.0
    xi[10:20, 1] = 0.0
    ell_max = default_ell_max(max(8, N))
    total = sum(delta_ell(xi[:, :1], xi[:, 1:], ell, ell_max)
                for ell in range(-ell_max, ell_max + 1))
    return float(np.max(np.abs(total - 1.0)))


def _check_cube_partition(N):
    rng = np.random.default_rng(6)
    x = rng.uniform(-8.0, 8.0, size=(500, 2))
    ks = range(-9, 10)
    total = np.zeros(len(x))
    for k1 in ks:
        for k2 in ks:
            total += cube_partition(x, np.array([k1, k2]))
    return float(np.max(np.abs(total - 1.0)))


def _check_multiplier_diag(N):
    grid = make_grid(1, 1, N, 1.0)
    sym = builtin("multiplier_bessel", {"m": -1.0})
    T = quantize(sym, grid)
    k = np.array([1.0, 0.0 if N == 4 else 2.0])
    f = SampledField(grid, np.exp(2j * np.pi * (grid.points() @ k)).reshape(grid.shape))
    expect = (1.0 + float(k @ k)) ** (-0.5) * f.values
    out = apply(T, f)
    return float(np.max(np.abs(out.values - expect)))


def _check_identity_symbol(N):
    grid = make_grid(1, 1, N, 1.0)
    sym = builtin("constant", {"c": 1.0})
    T = quantize(sym, grid)
    rng = np.random.default_rng(8)
    f = SampledField(grid, rng.standard_normal(grid.shape)
                     + 1j * rng.standard_normal(grid.shape))
    out = apply(T, f)
    return float(np.max(np.abs(out.values - f.values)))


def _check_commutator_constant(N):
    grid = make_grid(1, 1, N, 1.0)
    sym = builtin("multiplier_bessel", {"m": -0.5})
    Q = DyadicCube((0, 0), N)
    kmax = max(1, N // 4)
    battery = analysis.band_limited_battery(grid, kmax, count=4, seed=9)
    return analysis.commutator_check(sym, Q, 0.5, battery)


_SELFTEST_CHECKS = (
    ("fft-roundtrip", _check_fft_roundtrip, 1e-12),
    ("dyadic-partition", _check_dyadic_partition, 1e-12),
    ("cone-partition", _check_cone_partition, 1e-12),
    ("cube-partition", _check_cube_partition, 1e-12),
    ("multiplier-diag", _check_multiplier_diag, 1e-12),
    ("identity-symbol", _check_identity_symbol, 1e-12),
    ("commutator-constant-mollifier", _check_commutator_constant, 1e-12),
)


def cmd_selftest(args) -> int:
    N = args.n
    if N < 4 or N % 2:
        print(f"selftest: N must be even and >= 4, got {N}", file=sys.stderr)
        return 2
    failed = []
    for name, check, tol in _SELFTEST_CHECKS:
        try:
            err = check(N)
        except Exception as exc:
            print(f"selftest: {name} ERROR ({exc})")
            failed.append(name)
            continue
        if err <= tol:
            print(f"selftest: {name} ok (err={err:.3e})")
        else:
            print(f"selftest: {name} FAIL (err={err:.3e} > {tol:g})")
            failed.append(name)
    if failed:
        print(f"selftest: FAILED checks: {', '.join(failed)}")
        return 1
    print(f"selftest: all {len(_SELFTEST_CHECKS)} checks passed (N={N})")
    return 0


# ---------------------------------------------------------------------------
# apply / kernel / list-symbols


def _parse_grid_flag(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError(f"--grid expects n1,n2,N,L, got '{text}'")
    try:
        return make_grid(int(parts[0]), int(parts[1]), int(parts[2]),
                         float(parts[3]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid --grid: {exc}")


def _symbol_from_flags(args, grid):
    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--params is not valid JSON: {exc}")
    try:
        sym = builtin(args.symbol, params, n1=grid.n1, n2=grid.n2)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"cannot build symbol '{args.symbol}': {exc}")
    if args.split_scale is not None:
        sym = derived_symbol(sym, DecompositionIndex(r=args.split_scale), "high_r")
    if args.ell is not None:
        if args.j is None:
            raise ConfigError("--ell requires --j")
        ell_max = args.ellmax if args.ellmax is not None \
            else default_ell_max(grid.points_per_axis)
        sym = derived_symbol(
            sym, DecompositionIndex(j=args.j, ell=args.ell, ell_max=ell_max),
            "cone_lj")
    elif args.j is not None:
        sym = derived_symbol(sym, DecompositionIndex(j=args.j), "annulus_j")
    return sym


def cmd_apply(args) -> int:
    grid = _parse_grid_flag(args.grid)
    sym = _symbol_from_flags(args, grid)
    f = read_field(args.infile)
    if f.grid != grid:
        raise ConfigError(
            f"field grid {f.grid} does not match --grid {grid}")
    T = quantize(sym, grid, path=args.path)
    g = apply(T, f)
    write_field(g, args.outfile)
    print(f"apply: wrote {args.outfile} (l2={lp_norm(g, 2):.6g})")
    return 0


def cmd_kernel(args) -> int:
    grid = _parse_grid_flag(args.grid)
    sym = _symbol_from_flags(args, grid)
    try:
        x = np.array([float(t) for t in args.x.split(",")])
    except ValueError:
        raise ConfigError(f"--x expects comma-separated reals, got '{args.x}'")
    if x.shape != (grid.n,):
        raise ConfigError(f"--x needs {grid.n} coordinates")
    sl = kernel_slice(sym, grid, x)
    pts = grid.points()
    vals = sl.values.ravel()
    with open(args.outfile, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"y{a + 1}" for a in range(grid.n)] + ["re", "im"])
        for row, v in zip(pts, vals):
            writer.writerow([repr(float(c)) for c in row]
                            + [repr(float(v.real)), repr(float(v.imag))])
    print(f"kernel: wrote {args.outfile} (l1={kernel_l1(sym, grid, x):.6g})")
    return 0


def cmd_list_symbols(args) -> int:
    for name in sorted(BUILTIN_PARAMS):
        defaults = json.dumps(BUILTIN_PARAMS[name], sort_keys=True)
        print(f"{name} {defaults}")
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bipdo",
        description="Bi-parameter pseudo-differential operators on a grid.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config", help="path to a 'key = JSON' config file")
    p_run.set_defaults(func=cmd_run)

    p_self = sub.add_parser("selftest", help="run the built-in identity suite")
    p_self.add_argument("--n", type=int, default=32,
                        help="grid points per axis (even, >= 4; default 32)")
    p_self.set_defaults(func=cmd_selftest)

    def add_symbol_flags(p):
        p.add_argument("--symbol", required=True, help="builtin symbol name")
        p.add_argument("--params", default="", help="JSON parameter map")
        p.add_argument("--grid", required=True, help="n1,n2,N,L")
        p.add_argument("--j", type=int, default=None,
                       help="restrict to dyadic annulus j")
        p.add_argument("--ell", type=int, default=None,
                       help="restrict to cone sector ell (needs --j)")
        p.add_argument("--ellmax", type=int, default=None,
                       help="cone tail index (default log2 N)")
        p.add_argument("--split-scale", type=float, default=None,
                       dest="split_scale",
                       help="keep only frequencies above 1/r for scale r")

    p_apply = sub.add_parser("apply", help="apply a symbol to a stored field")
    add_symbol_flags(p_apply)
    p_apply.add_argument("--in", dest="infile", required=True,
                         help="input .fld file")
    p_apply.add_argument("--out", dest="outfile", required=True,
                         help="output .fld file")
    p_apply.add_argument("--path", default="auto",
                         choices=("auto", "dense", "separable"))
    p_apply.set_defaults(func=cmd_apply)

    p_kernel = sub.add_parser("kernel", help="export a kernel slice as CSV")
    add_symbol_flags(p_kernel)
    p_kernel.add_argument("--x", required=True,
                          help="comma-separated slice point coordinates")
    p_kernel.add_argument("--out", dest="outfile", required=True,
                          help="output .csv file")
    p_kernel.set_defaults(func=cmd_kernel)

    p_list = sub.add_parser("list-symbols",
                            help="list builtin symbols and their defaults")
    p_list.set_defaults(func=cmd_list_symbols)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"bipdo: config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"bipdo: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
