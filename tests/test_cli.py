"""Command line behavior: configs, exit codes, selftest, file round trips."""

import json
import math
import re
import shutil
import subprocess
import textwrap
import warnings

import numpy as np
import pytest

from bipdo import (SampledField, apply, builtin, kernel_slice, make_grid,
                   quantize, read_field, write_field)
from bipdo.cli import _identity_errors, main


def write_cfg(path, text):
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(path)


def ortho_cfg(tmp_path, outdir):
    return write_cfg(tmp_path / "run.cfg", f"""\
        experiment = "ortho"
        symbol = "oscillatory_exotic"
        params = {{"m": 0.0, "rho": 0.5}}
        grid = [1, 1, 32, 1.0]
        j_range = [1, 2, 3, 4]
        max_iter = 2000
        outdir = {json.dumps(str(outdir))}
        """)


# ---------------------------------------------------------------------------
# run


def test_run_writes_report_files(tmp_path, capsys):
    cfg = ortho_cfg(tmp_path, tmp_path)
    assert main(["run", cfg]) == 0
    out = capsys.readouterr().out
    assert "ortho:" in out and "epsilon=" in out

    doc = json.loads((tmp_path / "ortho.json").read_text())
    assert doc["config"]["experiment"] == "ortho"
    assert doc["seed"] == 2026
    assert "report" in doc and "build" in doc

    lines = (tmp_path / "ortho.csv").read_text().strip().splitlines()
    assert lines[0] == "j,k,opnorm"
    assert len(lines) == 1 + 16     # 4x4 j/k pairs


def test_run_is_deterministic(tmp_path):
    cfg = ortho_cfg(tmp_path, tmp_path)
    assert main(["run", cfg]) == 0
    first = (tmp_path / "ortho.json").read_bytes()
    assert main(["run", cfg]) == 0
    assert (tmp_path / "ortho.json").read_bytes() == first


def test_shipped_sample_config(tmp_path, capsys, monkeypatch):
    import pathlib
    shipped = pathlib.Path(__file__).resolve().parents[1] / "configs" / "ortho.cfg"
    monkeypatch.chdir(tmp_path)     # its outdir is ".", keep artifacts here
    assert main(["run", str(shipped)]) == 0
    assert (tmp_path / "ortho.json").exists()
    assert (tmp_path / "ortho.csv").exists()
    assert "converged=True" in capsys.readouterr().out


def test_run_commutator_experiment(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "comm.cfg", f"""\
        experiment = "commutator"
        symbol = "oscillatory_exotic"
        params = {{"m": 0.0, "rho": 0.5}}
        grid = [1, 1, 16, 1.0]
        cube_anchor = [4, 4]
        cube_side = 4
        rho = 0.5
        outdir = {json.dumps(str(tmp_path))}
        """)
    assert main(["run", cfg]) == 0
    assert "verdict=PASS" in capsys.readouterr().out
    doc = json.loads((tmp_path / "commutator.json").read_text())
    assert doc["report"]["max_relative_error"] <= 1e-8


def test_run_exit_one_when_experiment_fails(tmp_path, capsys):
    # a symbol of positive order has operator norm growing with N, so the
    # uniformity sweep must report FAIL and the command must exit 1
    cfg = write_cfg(tmp_path / "grow.cfg", f"""\
        experiment = "l2_uniformity"
        symbol = "multiplier_bessel"
        params = {{"m": 1.0}}
        factors = [1, 1]
        period = 1.0
        N_list = [8, 16]
        outdir = {json.dumps(str(tmp_path))}
        """)
    assert main(["run", cfg]) == 1
    assert "verdict=FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("j_range", [[1, 2], [1, 6]])
def test_run_exit_one_when_the_ortho_fit_is_degenerate(tmp_path, capsys, j_range):
    # fewer than two pairs with |j - k| >= 2 leave nothing to fit: the report
    # is written with its NaN epsilon, and the command exits 1
    cfg = write_cfg(tmp_path / "few.cfg", f"""\
        experiment = "ortho"
        symbol = "oscillatory_exotic"
        params = {{"m": 0.0, "rho": 0.5}}
        grid = [1, 1, 16, 1.0]
        j_range = {json.dumps(j_range)}
        outdir = {json.dumps(str(tmp_path))}
        """)
    assert main(["run", cfg]) == 1
    assert "epsilon=nan A=nan R2=0 converged=True" in capsys.readouterr().out
    doc = json.loads((tmp_path / "ortho.json").read_text())
    assert math.isnan(doc["report"]["fitted_epsilon"]) and doc["report"]["converged"]


def test_run_sweep_line_hides_roundoff_variation(tmp_path, capsys):
    # the three norms are equal in exact arithmetic; their last-bit spread
    # must not reach stdout
    cfg = write_cfg(tmp_path / "flat.cfg", f"""\
        experiment = "l2_uniformity"
        symbol = "modulated_bessel"
        params = {{"m": -0.5}}
        factors = [1, 1]
        period = 1.0
        N_list = [16, 32, 64]
        outdir = {json.dumps(str(tmp_path))}
        """)
    assert main(["run", cfg]) == 0
    assert " variation=0.00% verdict=PASS" in capsys.readouterr().out


# experiment -> (config body, sorted report keys)
_REPORT_RUNS = {
    "ortho": ('symbol = "oscillatory_exotic"\ngrid = [1, 1, 16, 1.0]\nj_range = [1, 2, 3]',
              "converged entries fitted_A fitted_epsilon js min_gap r_squared zero_floor"),
    "kernel_decay": ('symbol = "multiplier_bessel"\ngrid = [1, 1, 16, 1.0]\nj = 2\n'
                     'ell_range = [0, 1, 2]',
                     "ells intercept j r_squared slope target_slope values verdict"),
    "l2_uniformity": ('symbol = "multiplier_bessel"\nfactors = [1, 1]\nperiod = 1.0\n'
                      'N_list = [8, 16]',
                      "battery experiment growth_exponent n_values params ratios seed "
                      "symbol variation verdict"),
    "bmo": ('symbol = "multiplier_bessel"\nfactors = [1, 1]\nperiod = 1.0\n'
            'N_list = [8, 16]',
            "battery experiment growth_exponent n_values params ratios seed symbol "
            "variation verdict"),
    "sharpness": ('rho = 0.5\np_list = [2.0]\nm_grid = [0.0]\nN_list = [8, 16]\n'
                  'factors = [1, 1]\nperiod = 1.0',
                  "cells ms n_values ps rho seed threshold"),
    "commutator": ('symbol = "oscillatory_exotic"\ngrid = [1, 1, 16, 1.0]\n'
                   'cube_anchor = [4, 4]\ncube_side = 4\nrho = 0.5',
                   "battery_count battery_kmax max_relative_error tol verdict"),
}


@pytest.mark.parametrize("experiment", _REPORT_RUNS)
def test_report_keys_per_experiment(tmp_path, experiment):
    # the report schema the README documents and perfbench/workloads.py reads
    body, keys = _REPORT_RUNS[experiment]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f'experiment = "{experiment}"\n{body}\n'
                   f"outdir = {json.dumps(str(tmp_path))}\n", encoding="utf-8")
    assert main(["run", str(cfg)]) in (0, 1)
    report = json.loads((tmp_path / f"{experiment}.json").read_text())["report"]
    assert sorted(report) == keys.split()
    if experiment == "ortho":
        assert [e[:2] for e in report["entries"]] == \
            [[j, k] for j in (1, 2, 3) for k in (1, 2, 3)]
        assert all(len(e) == 3 and isinstance(e[2], float) for e in report["entries"])
    if experiment == "sharpness":
        assert [sorted(c) for c in report["cells"]] == \
            [["exponent", "growing", "m", "p", "ratios"]]


def test_sharpness_run_reports_flip_and_exit_code(tmp_path, capsys):
    # the verdict line and the exit code come from the CLI's flip derivation
    cfg = write_cfg(tmp_path / "run.cfg", f"""\
        experiment = "sharpness"
        rho = 0.5
        p_list = [2.0]
        m_grid = [-0.5, 0.5]
        N_list = [16, 32]
        factors = [1, 1]
        period = 1.0
        outdir = {json.dumps(str(tmp_path))}
        """)
    assert main(["run", cfg]) == 0
    assert "flips={2.0: 0.5} monotone=True" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# config validation


def test_config_unknown_key_names_key_and_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "bad.cfg", """\
        experiment = "ortho"
        bogus = 3
        """)
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "unknown key 'bogus'" in err
    assert ":2:" in err


@pytest.mark.parametrize("body,needle", [
    ("symbol = \"constant\"\n", "missing required key 'experiment'"),
    ("experiment = \"nope\"\n", "unknown experiment 'nope'"),
    ("experiment = \"ortho\"\nseed = {broken\n", "not valid JSON"),
    ("experiment = \"ortho\"\nseed = 1\nseed = 2\n", "duplicate key 'seed'"),
    ("experiment = \"ortho\"\njust a line\n", "expected 'key = JSON value'"),
    ("experiment = \"ortho\"\n", "requires keys"),
])
def test_config_rejections(tmp_path, capsys, body, needle):
    cfg = write_cfg(tmp_path / "bad.cfg", body)
    assert main(["run", cfg]) == 2
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("experiment,keys", [
    ("ortho", "symbol, grid, j_range"),
    ("kernel_decay", "symbol, grid, j, ell_range"),
    ("l2_uniformity", "symbol, factors, period, N_list"),
    ("bmo", "symbol, factors, period, N_list"),
    ("sharpness", "rho, p_list, m_grid, N_list, factors, period"),
    ("commutator", "symbol, grid, cube_anchor, cube_side, rho"),
])
def test_config_names_every_missing_required_key(tmp_path, capsys, experiment,
                                                 keys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path / "bare.cfg", f"""\
        experiment = "{experiment}"
        outdir = {json.dumps(str(out))}
        """)
    assert main(["run", cfg]) == 2
    assert f"experiment '{experiment}' requires keys: {keys}" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("line,key", [
    ("tol = 0", "'tol'"),
    ("tol = -1", "'tol'"),
    ('max_iter = "abc"', "'max_iter'"),
    ("max_iter = 0", "'max_iter'"),
])
def test_solver_settings_are_config_errors(tmp_path, capsys, line, key):
    cfg = write_cfg(tmp_path / "bad.cfg", f"""\
        experiment = "ortho"
        symbol = "multiplier_bessel"
        grid = [1, 1, 8, 1.0]
        j_range = [1, 2]
        {line}
        outdir = {json.dumps(str(tmp_path))}
        """)
    assert main(["run", cfg]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "ortho.json").exists()
    assert not (tmp_path / "ortho.csv").exists()


@pytest.mark.parametrize("experiment,body,key", [
    ("bmo", 'symbol = "multiplier_bessel"\nfactors = [1, 1]\nperiod = 1.0\n'
            'N_list = [8, 16]\nseed = "abc"', "'seed'"),
    ("ortho", 'symbol = "multiplier_bessel"\ngrid = [1, 1, 8, 1.0]\n'
              'j_range = ["x"]', "'j_range'"),
    ("bmo", 'symbol = "multiplier_bessel"\nfactors = [1, "q"]\nperiod = 1.0\n'
            'N_list = [8, 16]', "'factors'"),
    ("ortho", 'symbol = "multiplier_bessel"\ngrid = [1, 1, 16.5, 1.0]\n'
              'j_range = [1, 2]', "'grid'"),
], ids=["seed", "j_range", "factors", "grid"])
def test_config_numbers_are_config_errors(tmp_path, capsys, experiment, body, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f'experiment = "{experiment}"\n{body}\n'
                   f"outdir = {json.dumps(str(tmp_path))}\n", encoding="utf-8")
    assert main(["run", str(cfg)]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / f"{experiment}.json").exists()
    assert not (tmp_path / f"{experiment}.csv").exists()


_SWEEP = 'symbol = "multiplier_bessel"\nfactors = [1, 1]\n'
_KERNEL = ('experiment = "kernel_decay"\nsymbol = "multiplier_bessel"\n'
           'grid = [1, 1, 16, 1.0]\nj = 2\n')
_COMM = ('experiment = "commutator"\nsymbol = "multiplier_bessel"\n'
         'grid = [1, 1, 16, 1.0]\n')
_BMO = f'experiment = "bmo"\n{_SWEEP}period = 1.0\nN_list = [8, 16]\n'
_SHARP = ('experiment = "sharpness"\nrho = 0.5\nN_list = [8, 16]\n'
          'factors = [1, 1]\nperiod = 1.0\n')
# an integer beyond the float range
_BIG = "1" + "0" * 400


@pytest.mark.parametrize("command,body,needle", [
    ("run", f'experiment = "bmo"\n{_SWEEP}period = -1.0\nN_list = [8, 16]',
     "period must be positive"),
    ("run", f'experiment = "l2_uniformity"\n{_SWEEP}period = 1.0\nN_list = [15, 16]',
     "'N_list': points_per_axis must be an even integer >= 4, got 15"),
    ("run", f'experiment = "l2_uniformity"\n{_SWEEP}period = 1.0\nN_list = [16, 8]',
     "'N_list'"),
    ("run", 'experiment = "ortho"\nsymbol = "multiplier_bessel"\n'
            'grid = [1, 1, 8, 1.0]\nj_range = [-1, 2]', "'j_range'"),
    ("run", f'{_KERNEL}ell_range = [0, 7]\nell_max = 6', "'ell_range'"),
    ("run", f'{_KERNEL}ell_range = [0, 1]\nell_max = 0', "'ell_max'"),
    ("run", f'{_KERNEL}ell_range = [0, 1]\nx_count = 0', "'x_count'"),
    ("run", 'experiment = "sharpness"\nrho = 2.0\np_list = [2.0]\nm_grid = [0.0]\n'
            'N_list = [8, 16]\nfactors = [1, 1]\nperiod = 1.0', "'rho'"),
    ("run", f'{_COMM}cube_anchor = [4, 4]\ncube_side = 3\nrho = 0.5', "'cube_side'"),
    ("run", f'{_COMM}cube_anchor = [14, 0]\ncube_side = 4\nrho = 0.5', "'cube_anchor'"),
    ("run", f'{_COMM}cube_anchor = [4, 4]\ncube_side = 4\nrho = 0.5\nbattery_kmax = 99',
     "'battery_kmax'"),
    ("run", f'{_COMM}cube_anchor = [0, 0]\ncube_side = 8\nrho = 0.5', "'rho'"),
    ("run", 'experiment = "sharpness"\nrho = 0.5\np_list = [0.5]\nm_grid = [0.0]\n'
            'N_list = [8, 16]\nfactors = [1, 1]\nperiod = 1.0', "'p_list'"),
    ("run", f'{_COMM}cube_anchor = [0, 0]\ncube_side = 2\nrho = 1.0', "'battery_kmax'"),
    ("run", f'{_COMM}cube_anchor = [4, 4]\ncube_side = 4\nrho = 0.5\nbattery_count = 0',
     "'battery_count'"),
    ("run", 'experiment = "ortho"\nsymbol = "multiplier_bessel"\n'
            'grid = [1, 1, 8, 1.0]\nj_range = []', "'j_range'"),
    ("run", 'experiment = "sharpness"\nrho = 0.5\np_list = []\nm_grid = [0.0]\n'
            'N_list = [8, 16]\nfactors = [1, 1]\nperiod = 1.0', "'p_list'"),
    ("run", f'{_KERNEL}ell_range = []', "'ell_range'"),
    ("run", f'experiment = "bmo"\n{_SWEEP}period = 1.0\nN_list = [8, 16]\n'
            'j_range = [1, 2]\nrho = 0.3',
     ":6: experiment 'bmo' does not read key 'j_range'"),
    ("run", f'{_COMM}cube_anchor = [4, 4]\ncube_side = 4\nrho = 0.5\nmax_iter = 50',
     ":7: experiment 'commutator' does not read key 'max_iter'"),
    ("run", f'experiment = "l2_uniformity"\n{_SWEEP}period = 1.0\nN_list = [8]',
     "'N_list'"),
    ("run", f'experiment = "bmo"\n{_SWEEP}period = 1.0\nN_list = [8, 8]', "'N_list'"),
    ("run", 'experiment = "ortho"\nsymbol = "multiplier_bessel"\n'
            'grid = [1, 1, 8, 1.0]\nj_range = [1, 1, 3]', "'j_range'"),
    ("run", f'{_KERNEL}ell_range = [1, 1, 2, 3]', "'ell_range'"),
    ("run", f'{_SHARP}p_list = [2.0]\nm_grid = [NaN]', "'m_grid'"),
    ("run", f'{_SHARP}p_list = [2.0]\nm_grid = [Infinity]', "'m_grid'"),
    ("run", f'{_SHARP}p_list = [2.0]\nm_grid = [0.0, -1.0]', "'m_grid'"),
    ("run", f'{_SHARP}p_list = [2.0]\nm_grid = [0.0, 0.0]', "'m_grid'"),
    ("run", f'{_SHARP}p_list = [2.0, 2.0]\nm_grid = [0.0]', "'p_list'"),
    ("run", f'{_SHARP}p_list = [2.0]\nm_grid = [0.0, 1000.0]', "'m_grid'"),
    ("apply", ["--j", "-1"], "--j"),
    ("apply", ["--j", "2", "--ell", "9"], "--ell"),
    ("apply", ["--split-scale", "-1"], "--split-scale"),
    ("kernel", ["--x", "nan,0"], "--x"),
    ("run", f'experiment = "bmo"\n{_SWEEP}period = 1.0\nN_list = [8, 16]\nseed = -3',
     "'seed'"),
    ("run", f'{_COMM}cube_anchor = [4, 4]\ncube_side = 4\nrho = 0.5\nseed = -3',
     "'seed'"),
    ("run", 'experiment = "ortho"\nsymbol = "multiplier_bessel"\n'
            'grid = [1, 1, 8, 1.0]\nj_range = [1, 2]\nseed = -3', "'seed'"),
    ("apply", ["--j", "2", "--ellmax", "3"], "--ellmax requires --ell"),
    ("kernel", ["--ellmax", "0"], "--ellmax requires --ell"),
    ("run", f'{_BMO}outdir = 5', "'outdir'"),
    ("run", f'{_BMO}outdir = null', "'outdir'"),
    ("run", f'{_BMO}outdir = ["a"]', "'outdir'"),
    ("run", f'{_BMO}outdir = ""', "'outdir'"),
    ("run", 'experiment = "bmo"\nsymbol = ["x"]\nfactors = [1, 1]\nperiod = 1.0\n'
            'N_list = [8, 16]', "'symbol'"),
    ("run", 'experiment = "bmo"\nsymbol = {"a": 1}\nfactors = [1, 1]\nperiod = 1.0\n'
            'N_list = [8, 16]', "'symbol'"),
    ("apply", ["--grid", "1,1,8"], "--grid expects n1,n2,N,L"),
    ("apply", ["--params", "{bad"], "--params is not valid JSON"),
    ("apply", ["--ell", "1"], "--ell requires --j"),
    ("kernel", ["--x", "a,b"], "--x expects comma-separated reals"),
    ("run", 'experiment = "ortho"\nsymbol = "multiplier_bessel"\n'
            'grid = [1, 1, 8]\nj_range = [1, 2]', "'grid' must be a JSON list"),
    ("run", f'experiment = "bmo"\n{_SWEEP}period = {_BIG}\nN_list = [8, 16]',
     "'period'"),
    ("run", 'experiment = "ortho"\nsymbol = "multiplier_bessel"\n'
            f'grid = [1, 1, 8, {_BIG}]\nj_range = [1, 2]', "'grid'"),
    ("run", f'experiment = "sharpness"\nrho = {_BIG}\np_list = [2.0]\nm_grid = [0.0]\n'
            'N_list = [8, 16]\nfactors = [1, 1]\nperiod = 1.0', "'rho'"),
    ("run", f'{_COMM}cube_anchor = [4, 4]\ncube_side = 4\nrho = {_BIG}', "'rho'"),
    ("run", 'experiment = "ortho"\nsymbol = "multiplier_bessel"\n'
            f'grid = [1, 1, 8, 1.0]\nj_range = [1, 2]\ntol = {_BIG}', "'tol'"),
    ("run", f'{_SHARP}p_list = [{_BIG}]\nm_grid = [0.0]', "'p_list'"),
    ("run", f'{_SHARP}p_list = [2.0]\nm_grid = [{_BIG}]', "'m_grid'"),
    ("run", 'experiment = "ortho"\nsymbol = "multiplier_bessel"\n'
            f'grid = [1, 1, 8, 1.0]\nj_range = [1, {_BIG}]', "'j_range'"),
    ("run", 'experiment = "kernel_decay"\nsymbol = "multiplier_bessel"\n'
            f'grid = [1, 1, 16, 1.0]\nj = {_BIG}\nell_range = [0, 1]', "'j'"),
    ("run", f'{_KERNEL}ell_range = [0, {_BIG}]', "'ell_range'"),
    ("run", f'{_KERNEL}ell_range = [0, 1]\nell_max = {_BIG}', "'ell_max'"),
    ("apply", ["--j", _BIG], "--j"),
    ("kernel", ["--j", "2", "--ell", _BIG], "--ell"),
    ("apply", ["--j", "2", "--ell", "1", "--ellmax", _BIG], "--ellmax"),
    ("run", f'experiment = "bmo"\nsymbol = "multiplier_bessel"\nfactors = [1, {_BIG}]\n'
            'period = 1.0\nN_list = [8, 16]', "'factors'"),
    ("run", f'experiment = "bmo"\n{_SWEEP}period = 1.0\nN_list = [8, {_BIG}]',
     "'N_list'"),
    ("run", 'experiment = "bmo"\nsymbol = "multiplier_bessel"\nfactors = [1, 100]\n'
            'period = 1.0\nN_list = [8, 16]', "'factors'"),
    ("run", f'experiment = "bmo"\n{_SWEEP}period = 1.0\nN_list = [8, {2 ** 62}]',
     f"'N_list': a grid of {2 ** 62}^2 points does not fit an array index"),
    ("run", 'experiment = "l2_uniformity"\nsymbol = "multiplier_bessel"\n'
            'factors = [0, 1]\nperiod = 1.0\nN_list = [8, 16]', "'factors'"),
    ("run", 'experiment = "l2_uniformity"\nsymbol = "multiplier_bessel"\n'
            'factors = [1, -2]\nperiod = 1.0\nN_list = [8, 16]', "'factors'"),
    ("run", 'experiment = "bmo"\nsymbol = "multiplier_bessel"\nfactors = [0, 1]\n'
            'period = 1.0\nN_list = [8, 16]', "'factors'"),
    ("run", 'experiment = "bmo"\nsymbol = "multiplier_bessel"\nfactors = [1, -2]\n'
            'period = 1.0\nN_list = [8, 16]', "'factors'"),
], ids=["period", "N_list-odd", "N_list-decreasing", "j_range", "ell_range",
        "ell_max", "x_count", "sharpness-rho", "cube_side", "cube_anchor",
        "battery_kmax", "mollifier-radius", "p_list", "battery-spectrum",
        "battery_count", "j_range-empty", "p_list-empty", "ell_range-empty",
        "bmo-j_range", "commutator-max_iter", "N_list-single", "N_list-repeated",
        "j_range-repeated", "ell_range-repeated", "m_grid-nan", "m_grid-inf",
        "m_grid-decreasing", "m_grid-repeated", "p_list-repeated", "m_grid-overflow",
        "apply-j",
        "apply-ell", "apply-split-scale", "kernel-x", "bmo-seed", "commutator-seed",
        "ortho-seed", "apply-ellmax", "kernel-ellmax", "outdir-number",
        "outdir-null", "outdir-list", "outdir-empty", "symbol-list", "symbol-map",
        "apply-grid", "apply-params", "apply-ell-without-j", "kernel-x-text",
        "grid-short", "period-big", "grid-period-big", "sharpness-rho-big",
        "commutator-rho-big", "tol-big", "p_list-big", "m_grid-big", "j_range-big",
        "j-big", "ell_range-big", "ell_max-big", "apply-j-big", "kernel-ell-big",
        "apply-ellmax-big", "factors-big", "N_list-big", "factors-grid-size",
        "N_list-grid-size", "l2_uniformity-factors-zero", "l2_uniformity-factors-negative",
        "bmo-factors-zero", "bmo-factors-negative"])
def test_out_of_range_values_are_config_errors(tmp_path, capsys, command, body,
                                               needle):
    out = tmp_path / "out"
    if command == "run":
        cfg = tmp_path / "bad.cfg"
        if "outdir" not in body:
            body += f"\noutdir = {json.dumps(str(out))}"
        cfg.write_text(f"{body}\n", encoding="utf-8")
        argv = ["run", str(cfg)]
    else:
        grid = make_grid(1, 1, 8, 1.0)
        src = tmp_path / "in.fld"
        write_field(SampledField(grid, np.ones(grid.shape, dtype=complex)), str(src))
        where = ["--in", str(src)] if command == "apply" else ["--x", "0.25,0.5"]
        argv = [command, "--symbol", "constant", "--grid", "1,1,8,1.0", *where,
                *body, "--out", str(out)]
    assert main(argv) == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


_M1000 = 'symbol = "multiplier_bessel"\nparams = {"m": 1000}\n'


@pytest.mark.parametrize("command,body,key,name", [
    ("run", f'{_SHARP}p_list = [2.0]\nm_grid = [0.0, 1000.0]', "'m_grid'",
     "exotic[m=1000,"),
    ("run", f'experiment = "ortho"\n{_M1000}grid = [1, 1, 8, 1.0]\nj_range = [1, 2]',
     "'params'", "bessel[1000]"),
    ("run", f'experiment = "kernel_decay"\n{_M1000}grid = [1, 1, 16, 1.0]\nj = 2\n'
            'ell_range = [0, 1, 2]', "'params'", "bessel[1000]"),
    ("run", f'experiment = "l2_uniformity"\n{_M1000}factors = [1, 1]\nperiod = 1.0\n'
            'N_list = [8, 16]', "'params'", "bessel[1000]"),
    ("run", f'experiment = "bmo"\n{_M1000}factors = [1, 1]\nperiod = 1.0\n'
            'N_list = [8, 16]', "'params'", "bessel[1000]"),
    ("run", f'experiment = "commutator"\n{_M1000}grid = [1, 1, 16, 1.0]\n'
            'cube_anchor = [4, 4]\ncube_side = 4\nrho = 0.5', "'params'", "bessel[1000]"),
    ("apply", ["--path", "dense"], "--params", "bessel[1000]"),
    ("apply", ["--path", "separable"], "--params", "bessel[1000]"),
    ("kernel", [], "--params", "bessel[1000]"),
], ids=["sharpness", "ortho", "kernel_decay", "l2_uniformity", "bmo", "commutator",
        "apply-dense", "apply-separable", "kernel"])
def test_overflowing_order_leaves_no_warning_on_stderr(tmp_path, capsys, command, body,
                                                       key, name):
    # the factor tables, dense sums or kernel slices of an order-1000 symbol
    # are not finite: that is a config error naming the key, and numpy's
    # overflow stays silent
    out = tmp_path / "out"
    if command == "run":
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{body}\noutdir = {json.dumps(str(out))}\n", encoding="utf-8")
        argv = ["run", str(cfg)]
    else:
        grid = make_grid(1, 1, 8, 1.0)
        src = tmp_path / "in.fld"
        write_field(SampledField(grid, np.ones(grid.shape, dtype=complex)), str(src))
        where = ["--in", str(src)] if command == "apply" else ["--x", "0.25,0.5"]
        argv = [command, "--symbol", "multiplier_bessel", "--params", '{"m": 1000}',
                "--grid", "1,1,8,1.0", *where, *body, "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert key in err and name in err and "Warning" not in err
    assert [str(w.message) for w in caught] == []
    assert not out.exists()


@pytest.mark.parametrize("params,key", [
    ('{"m": NaN}', "'m'"),
    ('{"m": -Infinity}', "'m'"),
    ('{"mod_freq": 2.5}', "'mod_freq'"),
    ('{"m": true}', "'m'"),
])
def test_apply_bad_builtin_params_are_config_errors(tmp_path, capsys, params, key):
    grid = make_grid(1, 1, 8, 1.0)
    src = tmp_path / "in.fld"
    write_field(SampledField(grid, np.ones(grid.shape, dtype=complex)), str(src))
    out = tmp_path / "out.fld"
    rc = main(["apply", "--symbol", "modulated_bessel", "--params", params,
               "--grid", "1,1,8,1.0", "--in", str(src), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--params" in err and f"parameter {key}" in err
    assert not out.exists()


@pytest.mark.parametrize("symbol,params,key", [
    ("modulated_bessel", '{"m": NaN}', "'m'"),
    ("oscillatory_exotic", '{"mod_freq": 2.5}', "'mod_freq'"),
    ("multiplier_bessel", '{"m": true}', "'m'"),
    ("separable", '{"terms": [{"xfreq": [1, 0.5]}]}', "'terms[0].xfreq'"),
])
def test_run_bad_builtin_params_are_config_errors(tmp_path, capsys, symbol, params,
                                                  key):
    cfg = write_cfg(tmp_path / "bad.cfg", f"""\
        experiment = "ortho"
        symbol = "{symbol}"
        params = {params}
        grid = [1, 1, 8, 1.0]
        j_range = [1, 2]
        outdir = {json.dumps(str(tmp_path))}
        """)
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "'params'" in err and f"parameter {key}" in err
    assert not (tmp_path / "ortho.json").exists()


@pytest.mark.parametrize("symbol,params", [
    ("oscillatory_exotic", {"m": 0.0, "rho": 0.5}),
    ("multiplier_bessel", {"m": 0.0}),
])
def test_run_converges_on_c5_workload(tmp_path, capsys, symbol, params):
    # the acceptance gate's check 5 workload: the CLI must reach the same
    # verdict, with every norm cell converged
    cfg = write_cfg(tmp_path / "c5.cfg", f"""\
        experiment = "ortho"
        symbol = "{symbol}"
        params = {json.dumps(params)}
        grid = [1, 1, 64, 1.0]
        j_range = [1, 2, 3, 4, 5]
        max_iter = 2000
        outdir = {json.dumps(str(tmp_path))}
        """)
    assert main(["run", cfg]) == 0
    assert "converged=True" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# selftest


def test_selftest_passes(capsys):
    assert main(["selftest", "--n", "8"]) == 0
    out = capsys.readouterr().out
    assert "all 7 checks passed" in out
    # one ok line per check of the suite, in its order, with its error
    printed = re.findall(r"^selftest: (\S+) ok \(err=(\S+)\)$", out, re.M)
    assert printed == [(name, f"{err:.3e}")
                       for name, err in _identity_errors(8).items()]


def test_selftest_smallest_supported_grid(capsys):
    assert main(["selftest", "--n", "4"]) == 0
    assert "all 7 checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("n", ["7", "2", "0"])
def test_selftest_rejects_bad_n(capsys, n):
    assert main(["selftest", "--n", n]) == 2
    assert "invalid --n:" in capsys.readouterr().err


def test_selftest_catches_injected_fault(capsys, monkeypatch):
    import bipdo.cli as cli
    true_phi = cli.phi_j
    monkeypatch.setattr(cli, "phi_j", lambda xi, j: 1.01 * true_phi(xi, j))
    assert main(["selftest", "--n", "8"]) == 1
    out = capsys.readouterr().out
    assert "dyadic FAIL" in out
    assert "FAILED checks: dyadic\n" in out


# ---------------------------------------------------------------------------
# apply / kernel


def test_apply_roundtrip_matches_library(tmp_path, capsys):
    grid = make_grid(1, 1, 8, 1.0)
    rng = np.random.default_rng(12)
    vals = (rng.standard_normal(grid.shape)
            + 1j * rng.standard_normal(grid.shape)).astype(np.complex64)
    f = SampledField(grid, vals.astype(complex))
    src = tmp_path / "in.fld"
    dst = tmp_path / "out.fld"
    write_field(f, str(src))

    rc = main(["apply", "--symbol", "multiplier_bessel",
               "--params", "{\"m\": -1.0}", "--grid", "1,1,8,1.0",
               "--in", str(src), "--out", str(dst)])
    assert rc == 0
    assert "apply: wrote" in capsys.readouterr().out

    got = read_field(str(dst))
    want = apply(quantize(builtin("multiplier_bessel", {"m": -1.0}), grid), f)
    top = np.abs(want.values).max()
    assert np.abs(got.values - want.values).max() <= 1e-6 * top


def test_apply_path_is_dense_or_separable(tmp_path, capsys):
    grid = make_grid(1, 1, 8, 1.0)
    src, dst = tmp_path / "in.fld", tmp_path / "out.fld"
    write_field(SampledField(grid, np.ones(grid.shape, dtype=complex)), str(src))
    argv = ["apply", "--symbol", "constant", "--grid", "1,1,8,1.0",
            "--in", str(src), "--out", str(dst), "--path"]
    for path in ("dense", "separable"):
        assert main(argv + [path]) == 0
    with pytest.raises(SystemExit) as exc:
        main(argv + ["auto"])
    assert exc.value.code == 2
    assert "invalid choice: 'auto'" in capsys.readouterr().err


def test_apply_with_annulus_restriction(tmp_path):
    grid = make_grid(1, 1, 8, 1.0)
    f = SampledField(grid, np.ones(grid.shape, dtype=complex))
    src = tmp_path / "in.fld"
    dst = tmp_path / "out.fld"
    write_field(f, str(src))
    rc = main(["apply", "--symbol", "constant", "--grid", "1,1,8,1.0",
               "--j", "2", "--in", str(src), "--out", str(dst)])
    assert rc == 0
    # a constant field lives at frequency zero, outside every annulus j >= 1
    assert np.abs(read_field(str(dst)).values).max() <= 1e-12


def test_apply_grid_mismatch_is_config_error(tmp_path, capsys):
    grid = make_grid(1, 1, 8, 1.0)
    src = tmp_path / "in.fld"
    write_field(SampledField(grid, np.ones(grid.shape, dtype=complex)), str(src))
    rc = main(["apply", "--symbol", "constant", "--grid", "1,1,16,1.0",
               "--in", str(src), "--out", str(tmp_path / "out.fld")])
    assert rc == 2
    assert "does not match" in capsys.readouterr().err


def test_apply_output_overflowing_complex64_writes_no_file(tmp_path, capsys):
    # <xi>^40 reaches ~1e54 at 32^2: finite in memory, inf as complex64
    grid = make_grid(1, 1, 32, 1.0)
    rng = np.random.default_rng(4)
    src = tmp_path / "in.fld"
    dst = tmp_path / "out.fld"
    write_field(SampledField(grid, rng.standard_normal(grid.shape) + 0j), str(src))
    rc = main(["apply", "--symbol", "multiplier_bessel", "--params", '{"m": 40.0}',
               "--grid", "1,1,32,1.0", "--in", str(src), "--out", str(dst)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "complex64" in captured.err
    assert captured.out == ""
    assert not dst.exists()


def test_apply_missing_input_file(tmp_path, capsys):
    rc = main(["apply", "--symbol", "constant", "--grid", "1,1,8,1.0",
               "--in", str(tmp_path / "absent.fld"),
               "--out", str(tmp_path / "out.fld")])
    assert rc == 1
    assert "bipdo: error:" in capsys.readouterr().err


def test_kernel_csv_matches_kernel_slice(tmp_path, capsys):
    grid = make_grid(1, 1, 8, 1.0)
    x = np.array([0.25, 0.5])
    out = tmp_path / "k.csv"
    rc = main(["kernel", "--symbol", "multiplier_bessel",
               "--params", "{\"m\": -0.5}", "--grid", "1,1,8,1.0",
               "--x", "0.25,0.5", "--out", str(out)])
    assert rc == 0
    assert "kernel: wrote" in capsys.readouterr().out

    rows = out.read_text().strip().splitlines()
    assert rows[0] == "y1,y2,re,im"
    got = np.array([[float(c) for c in r.split(",")] for r in rows[1:]])
    sl = kernel_slice(quantize(builtin("multiplier_bessel", {"m": -0.5}), grid), x)
    want = sl.values.ravel()
    pts = grid.points()
    # repr round trip is exact for float64
    assert np.array_equal(got[:, :2], pts)
    assert np.array_equal(got[:, 2] + 1j * got[:, 3], want)


def test_kernel_rejects_bad_x(tmp_path, capsys):
    rc = main(["kernel", "--symbol", "constant", "--grid", "1,1,8,1.0",
               "--x", "0.25", "--out", str(tmp_path / "k.csv")])
    assert rc == 2
    assert ("--x or --params: x must be a point of 2 coordinates or a non-empty list "
            "of them, got shape (1,)") in capsys.readouterr().err


# ---------------------------------------------------------------------------
# list-symbols and console script


def test_list_symbols_prints_all_builtins(capsys):
    from bipdo.symbols import BUILTIN_PARAMS
    assert main(["list-symbols"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    names = [ln.split()[0] for ln in lines]
    assert names == sorted(BUILTIN_PARAMS)
    for ln in lines:
        name, _, defaults = ln.partition(" ")
        assert json.loads(defaults) == BUILTIN_PARAMS[name]


def test_console_script_smoke():
    exe = shutil.which("bipdo")
    assert exe, "console script not installed"
    proc = subprocess.run([exe, "list-symbols"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "multiplier_bessel" in proc.stdout
