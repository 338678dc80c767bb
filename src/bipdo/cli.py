"""Command-line front end: config parsing, experiment dispatch, reports.

Config files are flat ``key = JSON`` lines (``#`` comments, blank lines ok).
Keys are strictly validated: unknown or duplicate keys, and keys the chosen
experiment does not read, abort with exit code 2 and a line-numbered message;
so does a missing key the experiment requires.  ``_EXPERIMENTS`` declares each
experiment's runner, required keys and optional keys.  Physical parameters
(grid, ranges) have no defaults; only tolerances, seeds, and the output
directory do.  A value the library reads is passed to it unread, so each
range rule is written once; the CLI reads only what the library does not,
and labels the library's ValueErrors with their keys or flags (``_checked``).

Exit codes: 0 success, 1 experiment failure (FAIL verdict, degenerate fit,
non-convergence), 2 configuration or usage error.

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
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import __version__
from .grid import (DyadicCube, SampledField, dft_forward, dft_inverse, lp_norm,
                   make_grid, read_field, write_field)
from .decompose import (DecompositionIndex, cube_partition, delta_ell,
                        default_ell_max, derived_symbol, phi_j)
from .symbols import BUILTIN_PARAMS, builtin, read_number, read_numbers, sq_norm, varphi
from .operators import apply, kernel_slice, quantize
from . import analysis


class ConfigError(Exception):
    pass


@contextmanager
def _checked(what: str):
    """Report a ValueError from reading the keys or flags ``what`` as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"invalid {what}: {exc}") from None


def parse_config(path: str) -> dict:
    """The key -> value map of a config file, holding every key its
    experiment requires and no key it does not read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config '{path}': {exc}")
    values, linenos = {}, {}
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
        linenos[key] = lineno
    if "experiment" not in values:
        raise ConfigError(f"{path}: missing required key 'experiment'")
    name = values["experiment"]
    if not isinstance(name, str) or name not in _EXPERIMENTS:
        raise ConfigError(
            f"{path}: unknown experiment '{name}' "
            f"(known: {', '.join(_EXPERIMENTS)})")
    _, required, optional = _EXPERIMENTS[name]
    for key in values:
        if key not in _COMMON_KEYS + required + optional:
            raise ConfigError(f"{path}:{linenos[key]}: experiment '{name}' "
                              f"does not read key '{key}'")
    missing = [k for k in required if k not in values]
    if missing:
        raise ConfigError(
            f"experiment '{name}' requires keys: {', '.join(missing)}")
    return values


def _write_report(outdir: str, name: str, config: dict, seed,
                  report: dict, rows, header) -> None:
    os.makedirs(outdir, exist_ok=True)
    payload = {
        "build": __version__,
        "config": config,
        "seed": seed,
        "report": report,
    }
    jpath = os.path.join(outdir, f"{name}.json")
    with open(jpath, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    cpath = os.path.join(outdir, f"{name}.csv")
    with open(cpath, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _build_symbol(cfg: dict, n1: int, n2: int):
    name = cfg["symbol"]
    with _checked(f"'symbol' {name!r} or its 'params'"):
        return builtin(name, cfg.get("params", {}), n1=n1, n2=n2)


def _grid_from_cfg(cfg: dict):
    g = cfg.get("grid")
    if not (isinstance(g, list) and len(g) == 4):
        raise ConfigError("'grid' must be a JSON list [n1, n2, N, period]")
    with _checked("'grid'"):
        return make_grid(*g)


def _factors_from_cfg(cfg: dict):
    """(n1, n2) of a sweep; the library reads its 'period' and 'N_list'."""
    with _checked("'factors'"):
        return read_numbers("factors", cfg["factors"], int, length=2)


def _sweep_symbol(cfg: dict):
    """The builtin of an l2_uniformity or bmo config on its 'factors', which
    ``make_symbol`` checks, so the label names them too."""
    n1, n2 = _factors_from_cfg(cfg)
    with _checked(f"'symbol' {cfg['symbol']!r}, its 'params' or 'factors'"):
        return builtin(cfg["symbol"], cfg.get("params", {}), n1=n1, n2=n2)


def _run_ortho(cfg: dict, seed: int):
    grid = _grid_from_cfg(cfg)
    sym = _build_symbol(cfg, grid.n1, grid.n2)
    with _checked("'params', 'j_range', 'tol' or 'max_iter'"):
        report = analysis.ortho_experiment(sym, cfg["j_range"], grid,
                                           cfg.get("tol", analysis.TOL),
                                           cfg.get("max_iter", analysis.MAX_ITER))
    line = (f"ortho: epsilon={report['fitted_epsilon']:.4g} "
            f"A={report['fitted_A']:.4g} R2={report['r_squared']:.4g} "
            f"converged={report['converged']}")
    # a j_range with fewer than two pairs k - j >= min_gap has no fit
    js = report["js"]
    passed = report["converged"] and sum(k - j >= report["min_gap"]
                                         for j in js for k in js) >= 2
    return report, report["entries"], ["j", "k", "opnorm"], line, passed


def _run_kernel_decay(cfg: dict, seed: int):
    grid = _grid_from_cfg(cfg)
    sym = _build_symbol(cfg, grid.n1, grid.n2)
    with _checked("'x_count'"):
        count = read_number("x_count", cfg.get("x_count", 5), int)
        if count < 1:
            raise ValueError(f"x_count must be an integer >= 1, got {count}")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, grid.period, size=(count, grid.n))
    with _checked("'params', 'j', 'ell_range' or 'ell_max'"):
        report = analysis.kernel_decay_experiment(sym, cfg["j"], cfg["ell_range"], xs,
                                                  grid, ell_max=cfg.get("ell_max"))
    rows = list(zip(report["ells"], report["values"]))
    line = (f"kernel_decay: slope={report['slope']:.4g} "
            f"target={report['target_slope']:.4g} verdict={report['verdict']}")
    return report, rows, ["ell", "kernel_l1"], line, report["verdict"] == "ok"


def _sweep_result(report: dict, column: str):
    """The runner result of an l2_uniformity or bmo sweep report."""
    rows = list(zip(report["n_values"], report["ratios"]))
    line = (f"{report['experiment']}: "
            f"ratios={[round(r, 6) for r in report['ratios']]} "
            f"variation={report['variation'] * 100:.2f}% verdict={report['verdict']}")
    return report, rows, ["N", column], line, report["verdict"] == "PASS"


def _run_l2_uniformity(cfg: dict, seed: int):
    sym = _sweep_symbol(cfg)
    with _checked("'params', 'tol', 'max_iter', 'factors', 'period' or 'N_list'"):
        return _sweep_result(analysis.l2_uniformity_sweep(
            sym, cfg["N_list"], cfg["period"], cfg.get("tol", analysis.TOL),
            cfg.get("max_iter", analysis.MAX_ITER)), "opnorm")


def _run_bmo(cfg: dict, seed: int):
    sym = _sweep_symbol(cfg)
    with _checked("'params', 'factors', 'period' or 'N_list'"):
        return _sweep_result(analysis.bmo_experiment(sym, cfg["N_list"], cfg["period"],
                                                     seed=seed), "bmo_ratio")


def _sharpness_flips(report: dict):
    """Per p, the smallest m whose ratio grows with N (None if none does),
    and whether growth, once reached, persists for every larger m."""
    growing = {(c["m"], c["p"]): c["growing"] for c in report["cells"]}
    flags = {p: [growing[(m, p)] for m in report["ms"]] for p in report["ps"]}
    flips = {p: next((m for m, g in zip(report["ms"], f) if g), None)
             for p, f in flags.items()}
    monotone = all(b or not a for f in flags.values() for a, b in zip(f, f[1:]))
    return flips, monotone


def _run_sharpness(cfg: dict, seed: int):
    n1, n2 = _factors_from_cfg(cfg)
    with _checked("'rho', 'p_list', 'm_grid', 'factors', 'period' or 'N_list'"):
        report = analysis.sharpness_scan(cfg["rho"], cfg["p_list"], cfg["m_grid"],
                                         cfg["N_list"], cfg["period"], seed=seed,
                                         n1=n1, n2=n2)
    rows = [[c["m"], c["p"], N, r, c["exponent"], int(c["growing"])]
            for c in report["cells"] for N, r in zip(report["n_values"], c["ratios"])]
    flips, monotone = _sharpness_flips(report)
    line = f"sharpness: flips={flips} monotone={monotone}"
    return report, rows, ["m", "p", "N", "ratio", "exponent", "growing"], \
        line, monotone


def _run_commutator(cfg: dict, seed: int):
    grid = _grid_from_cfg(cfg)
    sym = _build_symbol(cfg, grid.n1, grid.n2)
    kmax = cfg.get("battery_kmax", grid.points_per_axis // 4)
    count = cfg.get("battery_count", analysis.BATTERY_COUNT)
    with _checked("'params', 'tol', 'cube_anchor', 'cube_side', 'rho', 'battery_kmax' "
                  "or 'battery_count'"):
        tol, _ = analysis.solver_settings(cfg.get("tol", analysis.TOL))
        Q = DyadicCube(tuple(read_numbers("cube_anchor", cfg["cube_anchor"], int)),
                       read_number("cube_side", cfg["cube_side"], int))
        err = analysis.commutator_check(sym, grid, Q, cfg["rho"], kmax, count, seed)
    passed = err <= tol
    report = {"max_relative_error": err, "tol": tol,
              "battery_kmax": kmax, "battery_count": count,
              "verdict": "PASS" if passed else "FAIL"}
    line = f"commutator: max_rel_err={err:.4g} tol={tol:g} verdict={report['verdict']}"
    return report, [["max_relative_error", err]], ["quantity", "value"], line, passed


# experiment -> (runner, required keys, optional keys); every experiment also
# reads _COMMON_KEYS, and no other key
_EXPERIMENTS = {
    "ortho": (_run_ortho, ("symbol", "grid", "j_range"),
              ("params", "tol", "max_iter")),
    "kernel_decay": (_run_kernel_decay, ("symbol", "grid", "j", "ell_range"),
                     ("params", "ell_max", "x_count")),
    "l2_uniformity": (_run_l2_uniformity, ("symbol", "factors", "period", "N_list"),
                      ("params", "tol", "max_iter")),
    "bmo": (_run_bmo, ("symbol", "factors", "period", "N_list"), ("params",)),
    "sharpness": (_run_sharpness,
                  ("rho", "p_list", "m_grid", "N_list", "factors", "period"), ()),
    "commutator": (_run_commutator,
                   ("symbol", "grid", "cube_anchor", "cube_side", "rho"),
                   ("params", "battery_kmax", "battery_count", "tol")),
}
_COMMON_KEYS = ("experiment", "seed", "outdir")
_KNOWN_KEYS = frozenset(_COMMON_KEYS).union(
    *(required + optional for _, required, optional in _EXPERIMENTS.values()))


def cmd_run(args) -> int:
    cfg = parse_config(args.config)
    name = cfg["experiment"]
    with _checked("'seed'"):
        seed = read_number("seed", cfg.get("seed", analysis.SEED), int)
        if seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {seed}")
    outdir = cfg.get("outdir", ".")
    if not isinstance(outdir, str) or not outdir:
        raise ConfigError(f"'outdir' must be a non-empty string, got {outdir!r}")
    report, rows, header, line, passed = _EXPERIMENTS[name][0](cfg, seed)
    _write_report(outdir, name, cfg, seed, report, rows, header)
    print(line)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# selftest


def _identity_errors(N: int) -> dict:
    """name -> error of each exact identity on the N x N unit torus: the DFT
    round trip, identity symbol and multiplier diagonal on a seeded random
    field, and the dyadic, cone and cube partitions of unity at seeded points
    (max abs errors); the whole-torus-mollifier commutator (max relative L2
    error).  Acceptance check c1 is this suite at N = 32."""
    grid = make_grid(1, 1, N, 1.0)
    rng = np.random.default_rng(1)
    f = SampledField(grid, rng.standard_normal(grid.shape)
                     + 1j * rng.standard_normal(grid.shape))
    fh = dft_forward(f)
    bessel = builtin("multiplier_bessel", {"m": -1.0})
    xi = grid.freqs()
    diag = dft_inverse(SampledField(
        grid, fh.values.ravel() * bessel.evaluator(np.zeros_like(xi), xi)))
    gaps = {"fft": dft_inverse(fh).values - f.values,
            "identity": apply(quantize(builtin("constant", {"c": 1.0}), grid),
                              f).values - f.values,
            "diag": apply(quantize(bessel, grid), f).values - diag.values}
    rng = np.random.default_rng(2)
    xi = rng.uniform(-40.0, 40.0, size=(1000, 2))
    gaps["dyadic"] = (sum(phi_j(xi, j) for j in range(8))
                      - varphi(2.0 ** -7 * np.sqrt(sq_norm(xi))))
    xi = rng.uniform(-30.0, 30.0, size=(1000, 2))
    xi[:20, 0] = 0.0
    xi[20:40, 1] = 0.0
    ell_max = default_ell_max(N)
    gaps["cone"] = sum(delta_ell(xi[:, :1], xi[:, 1:], ell, ell_max)
                       for ell in range(-ell_max, ell_max + 1)) - 1.0
    x = rng.uniform(-5.0, 5.0, size=(1000, 2))
    gaps["cube"] = sum(cube_partition(x, np.array([k1, k2]))
                       for k1 in range(-7, 8) for k2 in range(-7, 8)) - 1.0
    errs = {name: float(np.abs(g).max()) for name, g in gaps.items()}
    errs["commutator"] = analysis.commutator_check(
        builtin("multiplier_bessel", {"m": -0.5}), grid, DyadicCube((0, 0), N),
        0.5, N // 4, count=4, seed=9)
    return errs


def cmd_selftest(args) -> int:
    with _checked("--n"):
        make_grid(1, 1, args.n, 1.0)
    errs = _identity_errors(args.n)
    failed = [name for name, err in errs.items() if not err <= 1e-12]
    for name, err in errs.items():
        print(f"selftest: {name} {'FAIL' if name in failed else 'ok'} (err={err:.3e})")
    if failed:
        print(f"selftest: FAILED checks: {', '.join(failed)}")
        return 1
    print(f"selftest: all {len(errs)} checks passed (N={args.n})")
    return 0


# ---------------------------------------------------------------------------
# apply / kernel / list-symbols


def _parse_grid_flag(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError(f"--grid expects n1,n2,N,L, got '{text}'")
    with _checked("--grid"):
        return make_grid(int(parts[0]), int(parts[1]), int(parts[2]),
                         float(parts[3]))


def _symbol_from_flags(args, grid):
    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--params is not valid JSON: {exc}")
    with _checked(f"--symbol {args.symbol!r} or --params"):
        sym = builtin(args.symbol, params, n1=grid.n1, n2=grid.n2)
    if args.ell is not None and args.j is None:
        raise ConfigError("--ell requires --j")
    if args.ellmax is not None and args.ell is None:
        raise ConfigError("--ellmax requires --ell")
    with _checked("--split-scale, --j, --ell or --ellmax"):
        if args.split_scale is not None:
            sym = derived_symbol(sym, DecompositionIndex(r=args.split_scale), "high_r")
        if args.ell is not None:
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
    with _checked("--in, --grid or --params"):
        g = apply(quantize(sym, grid, path=args.path), f)
    write_field(g, args.outfile)
    print(f"apply: wrote {args.outfile} (l2={lp_norm(g, 2):.6g})")
    return 0


def cmd_kernel(args) -> int:
    grid = _parse_grid_flag(args.grid)
    sym = _symbol_from_flags(args, grid)
    try:
        x = [float(t) for t in args.x.split(",")]
    except ValueError:
        raise ConfigError(f"--x expects comma-separated reals, got '{args.x}'")
    with _checked("--x or --params"):
        sl = kernel_slice(quantize(sym, grid), x)
    pts = grid.points()
    vals = sl.values.ravel()
    with open(args.outfile, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"y{a + 1}" for a in range(grid.n)] + ["re", "im"])
        for row, v in zip(pts, vals):
            writer.writerow([repr(float(c)) for c in row]
                            + [repr(float(v.real)), repr(float(v.imag))])
    print(f"kernel: wrote {args.outfile} (l1={lp_norm(sl, 1):.6g})")
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
                       help="cone tail index (needs --ell; default log2 N)")
        p.add_argument("--split-scale", type=float, default=None,
                       dest="split_scale",
                       help="keep only frequencies above 1/r for scale r")

    p_apply = sub.add_parser("apply", help="apply a symbol to a stored field")
    add_symbol_flags(p_apply)
    p_apply.add_argument("--in", dest="infile", required=True,
                         help="input .fld file")
    p_apply.add_argument("--out", dest="outfile", required=True,
                         help="output .fld file")
    p_apply.add_argument("--path", default="separable",
                         choices=("dense", "separable"))
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
