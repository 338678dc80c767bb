"""In-memory span tracing of bipdo's public functions, from outside ``src/``.

``Tracer.install()`` rebinds every module-level name that refers to a traced
function (``bipdo.analysis.apply`` as well as ``bipdo.operators.apply`` and
``bipdo.apply``), patches ``SampledField.__post_init__`` and numpy's
``fftn``/``ifftn``, and wraps the callables inside symbols returned by
``builtin`` and ``derived_symbol``.  ``uninstall()`` restores every binding.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 for a root).  Self time is a span's duration minus the
durations of its direct children.  Every ``.s`` layer metric is a self time;
``operators.apply.cold_s`` is inclusive (see ``layer_metrics``).
"""
from __future__ import annotations

import dataclasses
import json
import os
import statistics
import weakref
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import bipdo
from bipdo import analysis, cli, decompose, grid, operators, symbols

MODULES = (bipdo, analysis, cli, decompose, grid, operators, symbols)

# (module, function name) -> span name, for spans whose name is fixed
FIXED_SPANS = {
    (analysis, "test_battery"): "analysis.battery",
    (analysis, "adversarial_battery"): "analysis.battery",
    (analysis, "band_limited_battery"): "analysis.battery",
    (analysis, "ortho_experiment"): "analysis.experiment",
    (analysis, "kernel_decay_experiment"): "analysis.experiment",
    (analysis, "bmo_experiment"): "analysis.experiment",
    (analysis, "sharpness_scan"): "analysis.experiment",
    (analysis, "l2_uniformity_sweep"): "analysis.experiment",
    (analysis, "commutator_check"): "analysis.experiment",
    (analysis, "fit_line"): "analysis.experiment",
    (operators, "quantize"): "operators.quantize",
    (operators, "kernel_slice"): "operators.kernel_slice",
    (operators, "kernel_l1"): "operators.kernel_l1",
    (operators, "apply_at"): "operators.apply_at",
    (grid, "lp_norm"): "grid.lp_norm",
    (grid, "dft_forward"): "grid.dft",
    (grid, "dft_inverse"): "grid.dft",
    (cli, "parse_config"): "cli.parse_config",
    (cli, "cmd_run"): "cli.cmd_run",
    (cli, "cmd_apply"): "cli.cmd_apply",
}

# self-time share groups reported as self_share.<group>
SHARE_GROUPS = {
    "operators.apply_adjoint": ("operators.apply.cold", "operators.apply.warm",
                                "operators.adjoint_apply", "operators.adjoint_apply.cold"),
    "operators.dense_apply": ("operators.dense_apply",),
    "operators.kernel_slice": ("operators.kernel_slice",),
    "grid.bmo_norm": ("grid.bmo_norm.N16", "grid.bmo_norm.N32", "grid.bmo_norm.N64"),
    "grid.SampledField": ("grid.SampledField",),
    "grid.lp_norm": ("grid.lp_norm",),
    "symbols.eval": ("symbols.eval",),
    "decompose.cutoff": ("decompose.cutoff",),
    "analysis.l2_opnorm": ("analysis.l2_opnorm",),
    "analysis.battery": ("analysis.battery",),
    "analysis.experiment": ("analysis.experiment",),
    "cli": ("cli.main", "cli.cmd_run", "cli.cmd_apply", "cli.parse_config"),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self._fft_depth = 0
        self._seen_ops = weakref.WeakSet()
        self._restore = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(idx)

    def _wrap(self, name: str, fn, namer=None, after=None, fft_owner=False):
        def wrapper(*args, **kwargs):
            span = namer(*args) if namer is not None else name
            idx = self._enter(span)
            if fft_owner:
                self._fft_depth += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                if fft_owner:
                    self._fft_depth -= 1
                self._exit(idx)
            if after is not None:
                after(out, *args)
            return out

        wrapper.__wrapped__ = fn
        wrapper._perfbench_span = name
        return wrapper

    # -- dynamic names and counters -------------------------------------------

    def _first_use(self, T) -> bool:
        """True once per operator: on the apply or adjoint that builds its tables."""
        if T in self._seen_ops:
            return False
        self._seen_ops.add(T)
        return True

    def _apply_name(self, T, *rest):
        if T.path == "dense":
            return "operators.dense_apply"
        return "operators.apply.cold" if self._first_use(T) else "operators.apply.warm"

    def _adjoint_name(self, T, *rest):
        cold = T.path != "dense" and self._first_use(T)
        return "operators.adjoint_apply.cold" if cold else "operators.adjoint_apply"

    @staticmethod
    def _bmo_name(f, *rest):
        return f"grid.bmo_norm.N{f.grid.points_per_axis}"

    def _after_opnorm(self, est, *args):
        self.counts["analysis.l2_opnorm.iterations"] += int(est.iterations)
        self.counts["analysis.l2_opnorm.unconverged"] += int(not est.converged)

    def _after_field_io(self, out, *args):
        path = args[1] if len(args) > 1 else args[0]
        self.counts["grid.field_io.bytes"] += os.path.getsize(path)

    def _wrap_symbol(self, sym, name):
        def w(fn):
            return fn if hasattr(fn, "_perfbench_span") else self._wrap(name, fn)
        terms = sym.separable_terms
        if terms is not None:
            terms = tuple((w(a), w(b)) for a, b in terms)
        return dataclasses.replace(sym, evaluator=w(sym.evaluator), separable_terms=terms)

    def _fft(self, fn):
        def wrapper(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            if self._fft_depth:
                self.counts["operators.fft_calls"] += 1
                self.counts["operators.fft_bytes"] += np.asarray(a).nbytes + out.nbytes
            return out
        return wrapper

    # -- install / uninstall ------------------------------------------------

    def _set(self, obj, attr, value):
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        wrappers = {}

        def add(fn, wrapper):
            wrappers[id(fn)] = (fn, wrapper)

        for (mod, fname), span in FIXED_SPANS.items():
            fn = getattr(mod, fname)
            add(fn, self._wrap(span, fn, fft_owner=span == "operators.adjoint_apply"))
        add(analysis.l2_opnorm, self._wrap("analysis.l2_opnorm", analysis.l2_opnorm,
                                           after=self._after_opnorm))
        add(operators.apply, self._wrap("operators.apply", operators.apply,
                                        namer=self._apply_name, fft_owner=True))
        add(operators.adjoint_apply, self._wrap("operators.adjoint_apply",
                                                operators.adjoint_apply,
                                                namer=self._adjoint_name, fft_owner=True))
        add(grid.bmo_norm, self._wrap("grid.bmo_norm", grid.bmo_norm,
                                      namer=self._bmo_name))
        for fname in ("read_field", "write_field"):
            fn = getattr(grid, fname)
            add(fn, self._wrap("grid.field_io", fn, after=self._after_field_io))
        builtin = symbols.builtin
        derived = decompose.derived_symbol
        add(builtin, self._wrap("symbols.builtin", lambda *a, **k: self._wrap_symbol(
            builtin(*a, **k), "symbols.eval")))
        add(derived, self._wrap("decompose.derived_symbol", lambda *a, **k: self._wrap_symbol(
            derived(*a, **k), "decompose.cutoff")))

        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])
        self._set(grid.SampledField, "__post_init__",
                  self._wrap("grid.SampledField", grid.SampledField.__post_init__))
        self._set(np.fft, "fftn", self._fft(np.fft.fftn))
        self._set(np.fft, "ifftn", self._fft(np.fft.ifftn))

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, value = self._restore.pop()
            setattr(obj, attr, value)

    # -- reduction ------------------------------------------------------------

    def self_times(self):
        """Per span name: (call count, total self time, list of self times,
        total inclusive time)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        total = defaultdict(float)
        each = defaultdict(list)
        inclusive = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            t = end - start - child[i]
            calls[name] += 1
            total[name] += t
            each[name].append(t)
            inclusive[name] += end - start
        return calls, total, each, inclusive

    def layer_metrics(self) -> dict:
        calls, st, each, incl = self.self_times()
        c = self.counts
        root = sum(end - start for _, start, end, parent in self.spans if parent < 0)
        warm = each.get("operators.apply.warm")
        m = {
            "analysis.l2_opnorm.calls": calls["analysis.l2_opnorm"],
            "analysis.l2_opnorm.iterations": c["analysis.l2_opnorm.iterations"],
            "analysis.l2_opnorm.unconverged": c["analysis.l2_opnorm.unconverged"],
            "analysis.l2_opnorm.self_s": st["analysis.l2_opnorm"],
            "analysis.battery.s": st["analysis.battery"],
            "analysis.experiment.self_s": st["analysis.experiment"],
            "operators.apply.calls": (calls["operators.apply.cold"]
                                      + calls["operators.apply.warm"]
                                      + calls["operators.dense_apply"]),
            "operators.apply.warm_s": statistics.median(warm) if warm else 0.0,
            # inclusive: the first apply or adjoint on each operator with the
            # symbol and cutoff evaluations of its factor-table build
            "operators.apply.cold_s": (incl["operators.apply.cold"]
                                       + incl["operators.adjoint_apply.cold"]),
            "operators.adjoint_apply.calls": (calls["operators.adjoint_apply"]
                                              + calls["operators.adjoint_apply.cold"]),
            "operators.adjoint_apply.s": (st["operators.adjoint_apply"]
                                          + st["operators.adjoint_apply.cold"]),
            "operators.fft_calls": c["operators.fft_calls"],
            "operators.fft_bytes": c["operators.fft_bytes"],
            "operators.dense_apply.s": st["operators.dense_apply"],
            "operators.kernel_slice.calls": calls["operators.kernel_slice"],
            "operators.kernel_slice.s": st["operators.kernel_slice"],
            "operators.quantize.calls": calls["operators.quantize"],
            "grid.SampledField.count": calls["grid.SampledField"],
            "grid.SampledField.s": st["grid.SampledField"],
            "grid.lp_norm.calls": calls["grid.lp_norm"],
            "grid.lp_norm.s": st["grid.lp_norm"],
            "grid.bmo_norm.calls": sum(calls[f"grid.bmo_norm.N{N}"] for N in (16, 32, 64)),
            "grid.bmo_norm.N16.s": st["grid.bmo_norm.N16"],
            "grid.bmo_norm.N32.s": st["grid.bmo_norm.N32"],
            "grid.bmo_norm.N64.s": st["grid.bmo_norm.N64"],
            "grid.field_io.s": st["grid.field_io"],
            "grid.field_io.bytes": c["grid.field_io.bytes"],
            "symbols.eval.calls": calls["symbols.eval"],
            "symbols.eval.s": st["symbols.eval"],
            "symbols.builtin.s": st["symbols.builtin"],
            "decompose.cutoff.calls": calls["decompose.cutoff"],
            "decompose.cutoff.s": st["decompose.cutoff"],
            "decompose.derived_symbol.calls": calls["decompose.derived_symbol"],
            "cli.parse_config.s": st["cli.parse_config"],
            "cli.overhead_s": st["cli.cmd_run"] + st["cli.cmd_apply"],
            "trace.spans": len(self.spans),
        }
        for group, names in SHARE_GROUPS.items():
            m[f"self_share.{group}"] = (sum(st[n] for n in names) / root) if root else 0.0
        return m

    def dump(self, path: str) -> None:
        """Write the spans as JSON: names once, rows as [name_id, start, end, parent]."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[ids[n], round(s - t0, 9), round(e - t0, 9), p] for n, s, e, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "columns": ["name", "start_s", "end_s", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))
