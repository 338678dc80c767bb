"""Golden outputs: the bytes of the benchmark's calls and of the shipped configs.

``tests/golden.json`` holds, per call, the exit code and the sha256 of its
stdout (with stderr) and of every output file, for the 17 calls that
``perfbench/workloads.py`` prepares at seed 1 (built with the workloads' own
``prepare``) and for ``bipdo run`` on each ``configs/*.cfg``.  The calls run
in a temporary directory under a fixed relative layout (``work/`` for the
workloads, the directory itself for the configs), so no path in a report or
on stdout depends on where the test runs.  Beside the digests it records the
build they were made on (numpy version, machine, enabled SIMD targets) and
the parsed ``.json`` and ``.csv`` reports.

On the recorded build every byte must match.  FFT and BLAS bits depend on
the build, so on another build the parsed reports are compared instead, to
1e-12 relative (of the larger value, or of the file's largest number for
values near zero), the exit codes must match, and the test prints that it
did so.  A change that moves a number on purpose re-records the file:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import csv
import glob
import hashlib
import io
import json
import math
import os
import platform
import sys

import numpy as np

from bipdo import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden.json")
SEED = 1
RTOL = 1e-12


def build():
    """The numpy version, machine and enabled SIMD dispatch targets."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        simd = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    except ImportError:
        simd = None
    return {"numpy": np.__version__, "machine": platform.machine(), "simd": simd}


def workload_calls():
    """(name, argv, outputs) of every benchmark call at ``SEED``, with the
    workloads' inputs written under ``work/``."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(os.path.join(ROOT, "perfbench"))
    os.makedirs("work", exist_ok=True)
    return [(f"{name}/{call.key}", call.argv, call.outputs)
            for name, wl in workloads.WORKLOADS.items()
            for call in wl.prepare("work", SEED)]


def config_calls():
    out = []
    for path in sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg"))):
        cfg = cli.parse_config(path)
        exp = cfg["experiment"]
        outdir = cfg.get("outdir", ".")
        out.append((f"configs/{os.path.basename(path)}", ["run", path],
                    tuple(os.path.join(outdir, f"{exp}.{ext}") for ext in ("json", "csv"))))
    return out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parse_report(path: str):
    """A ``.json`` report as parsed, a ``.csv`` as rows of numbers where the
    cells are numbers; None for other files."""
    if path.endswith(".json"):
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    if path.endswith(".csv"):
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return [[_number(c) for c in row] for row in csv.reader(fh)]
    return None


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def run_all() -> dict:
    """Run every call in the current directory and record what it left."""
    calls = {}
    for name, argv, outputs in workload_calls() + config_calls():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = cli.main(argv)
        rec = {"exit": rc, "stdout": sha256(out.getvalue().encode()),
               "outputs": {}, "reports": {}}
        for path in outputs:
            with open(path, "rb") as fh:
                rec["outputs"][path] = sha256(fh.read())
            report = parse_report(path)
            if report is not None:
                rec["reports"][path] = report
        calls[name] = rec
    return calls


def _numbers(value):
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return
    if isinstance(value, (int, float)):
        yield float(value)
    elif isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v)


def report_mismatches(got, want, where: str, scale: float) -> list:
    """Where two parsed reports differ: a key, length, string or type, or a
    number by more than RTOL of the larger value or of ``scale``."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{where}: keys differ"]
        return [m for k in want for m in report_mismatches(got[k], want[k], f"{where}.{k}", scale)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: lengths differ"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in report_mismatches(g, w, f"{where}[{i}]", scale)]
    if (isinstance(want, (int, float)) and not isinstance(want, bool)
            and isinstance(got, (int, float)) and not isinstance(got, bool)):
        if math.isnan(want) and math.isnan(got):
            return []
        if got == want or abs(got - want) <= RTOL * max(abs(got), abs(want), scale):
            return []
        return [f"{where}: {got!r} vs {want!r}"]
    return [] if got == want else [f"{where}: {got!r} vs {want!r}"]


def compare(got: dict, want: dict, same_build: bool) -> list:
    """The mismatches of a fresh run against the golden record: exit codes
    and parsed reports on any build, and every byte on the same build."""
    if sorted(got) != sorted(want):
        return [f"calls differ: {sorted(set(got) ^ set(want))}"]
    bad = []
    for name, w in want.items():
        g = got[name]
        if g["exit"] != w["exit"]:
            bad.append(f"{name}: exit {g['exit']} vs {w['exit']}")
        if same_build:
            if g["stdout"] != w["stdout"]:
                bad.append(f"{name}: stdout differs")
            bad += [f"{name}: {path} differs" for path in w["outputs"]
                    if g["outputs"].get(path) != w["outputs"][path]]
        for path, report in w["reports"].items():
            scale = max((abs(v) for v in _numbers(report) if math.isfinite(v)), default=0.0)
            bad += report_mismatches(g["reports"].get(path), report, f"{name}: {path}", scale)
    return bad


def test_golden_outputs(tmp_path, monkeypatch):
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    monkeypatch.chdir(tmp_path)
    got = run_all()
    same_build = build() == golden["build"]
    if not same_build:
        print(f"golden outputs: build {build()} is not the recorded "
              f"{golden['build']}; compared exit codes and parsed reports to "
              f"{RTOL:g} relative, not bytes")
    assert compare(got, golden["calls"], same_build) == []


def test_parsed_comparison_sees_a_moved_number():
    want = {"c": {"exit": 0, "stdout": "", "outputs": {},
                  "reports": {"r.json": {"report": {"values": [1.0, 2.0], "verdict": "ok"}}}}}
    near = {"c": {**want["c"], "reports": {"r.json": {
        "report": {"values": [1.0, 2.0 * (1 + 1e-13)], "verdict": "ok"}}}}}
    moved = {"c": {**want["c"], "reports": {"r.json": {
        "report": {"values": [1.0, 2.0 * (1 + 1e-9)], "verdict": "ok"}}}}}
    relabeled = {"c": {**want["c"], "reports": {"r.json": {
        "report": {"values": [1.0, 2.0], "verdict": "degenerate"}}}}}
    assert compare(near, want, False) == []
    assert compare(moved, want, False) != []
    assert compare(relabeled, want, False) != []
    assert compare({"c": {**want["c"], "exit": 1}}, want, False) != []


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        record = {"build": build(), "seed": SEED, "calls": run_all()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}: {len(record['calls'])} calls")
