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
