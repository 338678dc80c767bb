"""The benchmark tracer in perfbench/ binds program names by attribute.

Installing it must find every traced function, and uninstalling it must put
every binding back, so that deleting or renaming a traced function in
``src/`` fails here rather than in the benchmark.
"""

import importlib.util
import os

import numpy as np

import bipdo
from bipdo import analysis, cli, decompose, grid, operators, symbols

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def bindings():
    out = {(id(np.fft), "fftn"): np.fft.fftn, (id(np.fft), "ifftn"): np.fft.ifftn,
           (id(grid.SampledField), "__post_init__"): grid.SampledField.__post_init__}
    for mod in (bipdo, analysis, cli, decompose, grid, operators, symbols):
        for attr, value in vars(mod).items():
            if callable(value):
                out[(id(mod), attr)] = value
    return out


def test_tracer_resolves_and_restores_every_binding():
    tracing = load_perfbench("tracing")
    before = bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (mod, fname), span in tracing.FIXED_SPANS.items():
            assert getattr(getattr(mod, fname), "_perfbench_span", None) == span, fname
        for mod, fname in ((analysis, "l2_opnorm"), (operators, "apply"),
                           (operators, "adjoint_apply"), (grid, "bmo_norm"),
                           (grid, "read_field"), (grid, "write_field"),
                           (symbols, "builtin"), (decompose, "derived_symbol"),
                           (bipdo, "apply"), (analysis, "apply")):
            assert hasattr(getattr(mod, fname), "_perfbench_span"), fname
        assert np.fft.fftn is not before[(id(np.fft), "fftn")]
        assert grid.SampledField.__post_init__ is not \
            before[(id(grid.SampledField), "__post_init__")]
    finally:
        tracer.uninstall()
    assert bindings() == before


def test_benchmark_reads_opnorm_estimate_fields():
    # the tracer counts est.iterations and est.converged; run.py's OpnormLog
    # keeps every estimate, whose .value and .converged the ortho64 check reads
    tracing = load_perfbench("tracing")
    run = load_perfbench("run")
    g = grid.make_grid(1, 1, 8, 1.0)
    T = operators.quantize(symbols.builtin("oscillatory_exotic", {"m": 0.0, "rho": 0.5}), g)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        with run.OpnormLog() as log:
            est = analysis.l2_opnorm(T, 1e-8, 3)
    finally:
        tracer.uninstall()
    assert log.current == [est]
    assert isinstance(est.value, float) and isinstance(est.converged, bool)
    metrics = tracer.layer_metrics()
    assert metrics["analysis.l2_opnorm.iterations"] == est.iterations > 0
    assert metrics["analysis.l2_opnorm.unconverged"] == int(not est.converged)


def test_tracer_rebuilds_symbols_without_changing_them():
    # the tracer wraps the evaluator and separable terms of every symbol that
    # builtin and derived_symbol return (dataclasses.replace on the fields)
    tracing = load_perfbench("tracing")
    g = grid.make_grid(1, 1, 8, 1.0)
    rng = np.random.default_rng(3)
    f = grid.SampledField(g, rng.standard_normal(g.shape)
                          + 1j * rng.standard_normal(g.shape))

    def outputs():
        sym = symbols.builtin("oscillatory_exotic", {"m": 0.0, "rho": 0.5})
        piece = decompose.derived_symbol(
            sym, decompose.DecompositionIndex(j=2, ell=1, ell_max=3), "cone_lj")
        return [operators.apply(operators.quantize(s, g, path=path), f).values
                for s in (sym, piece) for path in ("dense", "separable")]

    plain = outputs()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        traced = outputs()
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["symbols.eval.calls"] > 0
    assert metrics["decompose.cutoff.calls"] > 0
    for a, b in zip(plain, traced):
        assert np.array_equal(a, b)


def test_reference_binds_battery_and_kernel_names():
    # reference.py reaches test_battery, derived_symbol and DecompositionIndex
    # fields by name; the stored values pin what they return (the scan
    # workload's 1e-9 relative tolerance)
    reference = load_perfbench("reference")
    stored = reference.load()
    assert reference.battery_digest(16, 1) == stored["bmo_sweep"]["1"]["battery"]["16"]
    got = reference.kernel_reference(64)
    want = stored["scan_kernel"]["64"]
    assert np.allclose(got, want, rtol=1e-9, atol=0.0)
