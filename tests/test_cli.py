"""Command line behavior: configs, exit codes, selftest, file round trips."""

import json
import shutil
import subprocess
import textwrap

import numpy as np
import pytest

from bipdo import (SampledField, apply, builtin, kernel_slice, make_grid,
                   quantize, read_field, write_field)
from bipdo.cli import main


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


def test_threads_env_must_be_integer(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BIPDO_THREADS", "many")
    cfg = ortho_cfg(tmp_path, tmp_path)
    assert main(["run", cfg]) == 2
    assert "BIPDO_THREADS" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# selftest


def test_selftest_passes(capsys):
    assert main(["selftest", "--n", "8"]) == 0
    out = capsys.readouterr().out
    assert "all 7 checks passed" in out
    assert out.count("ok (err=") == 7


def test_selftest_smallest_supported_grid(capsys):
    assert main(["selftest", "--n", "4"]) == 0
    assert "all 7 checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("n", ["7", "2", "0"])
def test_selftest_rejects_bad_n(capsys, n):
    assert main(["selftest", "--n", n]) == 2
    assert "must be even" in capsys.readouterr().err


def test_selftest_catches_injected_fault(capsys, monkeypatch):
    import bipdo.cli as cli
    true_phi = cli.phi_j
    monkeypatch.setattr(cli, "phi_j", lambda xi, j: 1.01 * true_phi(xi, j))
    assert main(["selftest", "--n", "8"]) == 1
    out = capsys.readouterr().out
    assert "dyadic-partition FAIL" in out
    assert "FAILED checks:" in out


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
    sl = kernel_slice(builtin("multiplier_bessel", {"m": -0.5}), grid, x)
    want = sl.values.ravel()
    pts = grid.points()
    # repr round trip is exact for float64
    assert np.array_equal(got[:, :2], pts)
    assert np.array_equal(got[:, 2] + 1j * got[:, 3], want)


def test_kernel_rejects_bad_x(tmp_path, capsys):
    rc = main(["kernel", "--symbol", "constant", "--grid", "1,1,8,1.0",
               "--x", "0.25", "--out", str(tmp_path / "k.csv")])
    assert rc == 2
    assert "--x needs 2 coordinates" in capsys.readouterr().err


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
