"""bipdo benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload ortho64 --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--workload all`` runs every workload in turn.
With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it carries the
per-layer metrics, from traced passes that alternate with untraced ones.
Every metric is also printed on its own line with its unit, and a record of
the run goes to ``.bench_build/perfbench/results/``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "perfbench")
SETUP_PROBES = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_environment() -> None:
    """One thread for BLAS (at most nproc); bipdo's own threading stays off."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("BIPDO_THREADS", None)
    sys.path.insert(0, os.path.join(ROOT, "src"))


def _environment() -> dict:
    import numpy as np
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "fft": "numpy.fft (pocketfft, no thread setting)",
        "BIPDO_THREADS": os.environ.get("BIPDO_THREADS", "unset"),
    }


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _probe(args) -> int:
    """Set up as the benchmark does (imports, inputs), say ready, clean up."""
    import bipdo.cli  # noqa: F401  (the import is the measured work)
    import workloads
    workdir = _fresh_dir(os.path.join(BUILD, f"probe-{args.workload}"))
    workloads.WORKLOADS[args.workload].prepare(workdir, args.seed)
    print("ready", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _setup_times(args) -> list:
    """Seconds from spawning a fresh interpreter until it is ready to run."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


class OpnormLog:
    """Keeps the estimate of every ``analysis.l2_opnorm`` call of one CLI call.

    The ortho report carries only one convergence flag per matrix; this gives
    the flag per cell.  It adds one wrapper call per norm (30 per ortho pass).
    """

    def __init__(self):
        self.current = []

    def __enter__(self):
        from bipdo import analysis
        self._orig = analysis.l2_opnorm
        analysis.l2_opnorm = self._record
        return self

    def _record(self, *args, **kwargs):
        est = self._orig(*args, **kwargs)
        self.current.append(est)
        return est

    def __exit__(self, *exc):
        from bipdo import analysis
        analysis.l2_opnorm = self._orig


def _run_pass(calls, tracer=None):
    """One closed-loop pass over the calls; returns (wall seconds, results).
    Each call's output files are deleted before it runs, so every pass is
    judged on the files it wrote itself."""
    from bipdo import cli
    results = []
    wall = 0.0
    gc.collect()
    with OpnormLog() as log:
        for call in calls:
            for path in call.outputs:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
            log.current = []
            out = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    if tracer is None:
                        rc = cli.main(call.argv)
                    else:
                        rc = tracer.call("cli.main", cli.main, call.argv)
            except (Exception, SystemExit) as exc:  # a crash fails the call's cells
                rc = f"raised {type(exc).__name__}: {exc}"
            wall += time.perf_counter() - t0
            results.append({"rc": rc, "stdout": out.getvalue(), "opnorms": log.current})
    return wall, results


def _output_bytes(calls) -> list:
    blobs = []
    for call in calls:
        parts = []
        for path in call.outputs:
            try:
                with open(path, "rb") as fh:
                    parts.append(fh.read())
            except OSError:
                parts.append(b"")
        blobs.append(b"\0".join(parts))
    return blobs


def _report_bytes(calls) -> int:
    return sum(os.path.getsize(p) for c in calls if c.argv[0] == "run"
               for p in c.outputs if os.path.exists(p))


def _code_digest() -> str:
    h = hashlib.sha256()
    for base in (os.path.join(ROOT, "src", "bipdo"), os.path.dirname(os.path.abspath(__file__))):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + fh.read())
    return h.hexdigest()[:16]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _timing_line(name, values, unit):
    q1, q3 = _quartiles(values)
    return (f"{name} median={statistics.median(values):.6g} q1={q1:.6g} q3={q3:.6g} "
            f"n={len(values)} {unit}")


def _measure(calls, seconds, trace):
    """Passes until the next one would end after ``seconds`` (at least one).
    In trace mode each untraced pass is followed by a traced one.  Returns the
    results and output bytes of every pass, traced ones included, in order."""
    from tracing import Tracer
    walls, traced, tracers, passes, outputs = [], [], [], [], []
    start = time.perf_counter()
    while True:
        wall, results = _run_pass(calls)
        walls.append(wall)
        passes.append(results)
        outputs.append(_output_bytes(calls))
        if len(walls) == 1:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            report_bytes = _report_bytes(calls)
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                wall, results = _run_pass(calls, tracer)
            finally:
                tracer.uninstall()
            traced.append(wall)
            tracers.append(tracer)
            passes.append(results)
            outputs.append(_output_bytes(calls))
        next_round = statistics.median(walls) + (statistics.median(traced) if trace else 0.0)
        if time.perf_counter() - start + next_round > seconds:
            return walls, traced, tracers, passes, outputs, rss, report_bytes


def _determinism(calls, passes, outputs, cells, workload, seed):
    """Cells of calls whose exit code or output bytes differ between passes, or
    whose bytes differ from an earlier run of the seed, fail; so do cells of a
    call that exits with an error in any pass."""
    notes = []
    digests = [hashlib.sha256(b).hexdigest() for b in outputs[0]]
    path = os.path.join(BUILD, "digests", f"{workload}-s{seed}-{_code_digest()}.json")
    earlier = None
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            earlier = json.load(fh)
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(digests, fh)
    reasons = {}
    for i, call in enumerate(calls):
        codes = [p[i]["rc"] for p in passes]
        odd = [k for k, rc in enumerate(codes) if rc != codes[0] or rc not in (0, 1)]
        if odd:
            reasons.setdefault(call.key, []).append(
                f"exit {codes[odd[0]]!r} in pass {odd[0] + 1} of {len(codes)} "
                f"(pass 1: {codes[0]!r})")
        if any(o[i] != outputs[0][i] for o in outputs[1:]):
            reasons.setdefault(call.key, []).append("output bytes differ between passes")
        if earlier is not None and earlier[i] != digests[i]:
            reasons.setdefault(call.key, []).append("output bytes differ from an earlier run")
    notes += [f"not repeatable: {key}: {', '.join(r)}" for key, r in reasons.items()]
    for cell in cells:
        cell.reasons += reasons.get(cell.call, [])
    notes.append(f"determinism: {len(outputs)} passes this run"
                 + (" (one pass: no comparison within the run)" if len(outputs) == 1 else "")
                 + (", compared with an earlier run of this seed" if earlier else ""))
    return not reasons, notes


def _run_one(args, spec) -> int:
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    setup = _setup_times(args)
    workdir = _fresh_dir(os.path.join(BUILD, "work", f"{wl.name}-s{args.seed}"))
    calls = wl.prepare(workdir, args.seed)
    walls, traced, tracers, passes, outputs, rss, report_bytes = _measure(
        calls, args.seconds, args.trace)
    # the output files on disk are those of the last pass
    verdict = wl.check(calls, passes[-1], args.seed)
    deterministic, det_notes = _determinism(calls, passes, outputs, verdict.cells,
                                            wl.name, args.seed)
    correct = verdict.correct and deterministic
    failed = [c for c in verdict.cells if c.reasons]

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    env = _environment()
    lines = [f"env: {json.dumps(env, sort_keys=True)}",
             f"workload {wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}: "
             f"{why[wl.name]}"]
    lines += verdict.notes + det_notes
    lines += [f"failed cell {c.call} {c.label}: {', '.join(c.reasons)}" for c in failed]
    e2e = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup),
           "peak_rss_mb": rss}
    lines += [_timing_line("wall_s", walls, "s"), _timing_line("setup_s", setup, "s"),
              f"peak_rss_mb {rss:.6g} {units['peak_rss_mb']}",
              f"fail_frac {len(failed) / len(verdict.cells):.6g} 1 "
              f"({len(failed)} of {len(verdict.cells)} cells)"]
    if args.trace:
        per_pass = [t.layer_metrics() for t in tracers]
        # counts repeat exactly from pass to pass; times are medians over passes
        layers = {k: v if units[k] in ("count", "bytes") else
                  statistics.median(p[k] for p in per_pass) for k, v in per_pass[0].items()}
        layers["cli.report.bytes"] = report_bytes
        layers["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(walls)
        lines.append(_timing_line("traced_wall_s", traced, "s"))
        lines += [f"{k} {v:.6g} {units[k]}" for k, v in layers.items()]
        metrics = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
        tracers[0].dump(os.path.join(BUILD, "results",
                                     f"spans-{wl.name}-s{args.seed}.json"))
    else:
        metrics = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    result = {"correct": correct, "attempted": len(verdict.cells), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    with open(os.path.join(BUILD, "results",
                           f"{wl.name}-s{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump({"env": env, "lines": lines, "walls": walls, "traced_walls": traced,
                   "setup": setup, "result": result}, fh, indent=1)
    shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not os.path.isfile(os.path.join(ROOT, "src", "bipdo", "cli.py")):
        print("perfbench: src/bipdo not found; run from a bipdo checkout", file=sys.stderr)
        return 2
    _pin_environment()
    if args.probe:
        return _probe(args)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        rc = 0
        for name in names:
            sub = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            rc = max(rc, subprocess.run(sub).returncode)
        return rc
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(names)}")
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    return _run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
