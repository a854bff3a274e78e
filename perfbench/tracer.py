"""Span tracer that wraps the public functions of the measured modules.

The tracer lives in the benchmark, not in the program: it replaces module
and class attributes with timing wrappers while it is installed and puts
the originals back when it is removed.  Every module attribute bound to
the same function object is replaced, so a call is caught whichever
module it is imported through.

Spans (name, start, end, parent, run id) are kept in memory as compact
integer columns and written once, by ``write``, when the traced run ends.
A few hooks read work counts from call arguments and results at the same
boundaries (ADC conversions, bit-plane MACs, code bits and so on).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

#: Modules whose public functions are wrapped.  ``io``, ``config`` and
#: ``cli`` stay unmeasured (a command-line run spends milliseconds there),
#: as does ``designspace.validate_candidate``.
MEASURED_MODULES = (
    "imcsearch.costmodel",
    "imcsearch.designspace",
    "imcsearch.relax",
    "imcsearch.search",
    "imcsearch.nnsim.crossbar",
    "imcsearch.nnsim.data",
    "imcsearch.nnsim.inference",
    "imcsearch.nnsim.network",
    "imcsearch.nnsim.quantize",
    "imcsearch.nnsim.score",
)
UNMEASURED = ("imcsearch.io", "imcsearch.config", "imcsearch.cli",
              "imcsearch.designspace.validate_candidate")
#: Packages whose ``__all__`` names the classes whose methods are wrapped.
API_PACKAGES = ("imcsearch", "imcsearch.nnsim")
#: Foreign functions the workloads reach and the per-layer metrics need.
FOREIGN = (("numpy.linalg", "slogdet"),)

#: Spans whose self time is the crossbar kernel (the private bit-plane loop).
KERNEL_FRAMES = ("nnsim.inference.noisy_forward", "nnsim.inference.bn_adapt")
ADC_NAMES = ("nnsim.quantize.adc_quantize", "nnsim.quantize.adc_dequantize")


def _program_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "imcsearch" or n.startswith("imcsearch."))]


def module_aliases(original, modules: list | None = None) -> list[tuple[object, str]]:
    """(module, attribute) of every program module attribute bound to ``original``."""
    return [(mod, name) for mod in (_program_modules() if modules is None else modules)
            for name, value in list(vars(mod).items()) if value is original]


def _short(module: str) -> str:
    return module[len("imcsearch."):] if module.startswith("imcsearch.") else module


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Wraps measured callables; records spans and argument-derived counts."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.child = array("q")  # time covered by direct children
        self._stack: list[int] = []
        self.run_id = 0
        #: (run id, counter name) -> value, filled by the hooks
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        #: prepare_cells span index -> quantizable layer (its key's first entry)
        self.span_layer: dict[int, int] = {}
        self._pending_cells: tuple[int, int, int] | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._columns: dict[str, np.ndarray] | None = None
        self._targets = self._discover()

    # -- discovery and patching ------------------------------------------

    @staticmethod
    def _discover() -> list[tuple[str, object, str, object]]:
        """(span name, owner, attribute, original) for every wrapped callable."""
        import importlib

        for mod in MEASURED_MODULES + API_PACKAGES:
            importlib.import_module(mod)
        exported = set()
        for pkg in API_PACKAGES:
            exported.update(getattr(sys.modules[pkg], "__all__", ()))
        targets = []
        for mod_name in MEASURED_MODULES:
            mod = sys.modules[mod_name]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or f"{mod_name}.{attr}" in UNMEASURED:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod_name:
                    targets.append((f"{_short(mod_name)}.{attr}", mod, attr, obj))
                elif (inspect.isclass(obj) and obj.__module__ == mod_name
                      and attr in exported):
                    for meth, raw in vars(obj).items():
                        if meth.startswith("_"):
                            continue
                        if isinstance(raw, (staticmethod, classmethod)) or \
                                inspect.isfunction(raw):
                            targets.append((f"{_short(mod_name)}.{attr}.{meth}",
                                            obj, meth, raw))
        for mod_name, attr in FOREIGN:
            mod = importlib.import_module(mod_name)
            targets.append((f"{mod_name}.{attr}", mod, attr, getattr(mod, attr)))
        return targets

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._columns = None
        scan = _program_modules()
        for span_name, owner, attr, original in self._targets:
            if isinstance(original, (staticmethod, classmethod)):
                wrapped = type(original)(self._wrap(span_name, original.__func__))
                self._patch(owner, attr, wrapped)
                continue
            wrapper = self._wrap(span_name, original)
            self._patch(owner, attr, wrapper)
            if inspect.isclass(owner):
                continue
            for mod, name in module_aliases(original, scan):
                if (mod, name) != (owner, attr):
                    self._patch(mod, name, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- recording --------------------------------------------------------

    def _id(self, span_name: str) -> int:
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        return self._name_ids[span_name]

    def _wrap(self, span_name: str, fn):
        nid = self._id(span_name)
        pre, post = _HOOKS.get(span_name, (None, None))
        perf = time.perf_counter_ns
        stack = self._stack
        name, start, end = self.name, self.start, self.end
        parent, run, child = self.parent, self.run, self.child
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            run.append(tracer.run_id)
            child.append(0)
            end.append(0)
            if pre is not None:
                pre(tracer, idx, args, kwargs)
            stack.append(idx)
            t0 = perf()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                end[idx] = t1
                if stack:
                    child[stack[-1]] += t1 - t0
            if post is not None:
                post(tracer, idx, result)
            return result

        return wrapper

    def count(self, key: str, value: float = 1) -> None:
        self.counts[(self.run_id, key)] += value

    # -- aggregation ------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        """The span columns as arrays, built once per stretch of recording."""
        if self._columns is None:
            self._columns = {
                k: np.frombuffer(getattr(self, k), dtype=np.int64).copy()
                for k in ("name", "start", "end", "parent", "run", "child")}
        return self._columns

    def aggregate(self, runs: list[int]) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ns and self ns over the given runs."""
        cols = self.columns()
        keep = np.isin(cols["run"], runs)
        names = cols["name"][keep]
        dur = (cols["end"] - cols["start"])[keep]
        self_ns = dur - cols["child"][keep]
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        incl = np.bincount(names, weights=dur, minlength=n)
        selfs = np.bincount(names, weights=self_ns, minlength=n)
        return {nm: {"calls": int(calls[i]), "ns": float(incl[i]),
                     "self_ns": float(selfs[i])}
                for i, nm in enumerate(self.names)}

    def run_counts(self, run_id: int) -> dict[str, float]:
        """Every exact count of one run: span calls plus hook counters."""
        cols = self.columns()
        calls = np.bincount(cols["name"][cols["run"] == run_id],
                            minlength=len(self.names))
        out = {f"{nm}.calls": int(calls[i]) for i, nm in enumerate(self.names)}
        out.update({k: v for (r, k), v in self.counts.items() if r == run_id})
        return out

    def layer_split(self, runs: list[int]) -> dict[int, dict[str, float]]:
        """Per quantizable layer: prepare, ADC and kernel-self nanoseconds.

        Inside each kernel frame (noisy_forward, bn_adapt), the span of
        ``prepare_cells`` for layer i opens layer i's segment, which runs
        until the next ``prepare_cells`` or the end of the frame.  ADC
        spans are attributed to the segment they start in; a segment's
        kernel self time is its length minus its direct children.
        """
        cols = self.columns()
        kernel_ids = {self._name_ids[n] for n in KERNEL_FRAMES if n in self._name_ids}
        adc_ids = {self._name_ids[n] for n in ADC_NAMES if n in self._name_ids}
        frames = np.flatnonzero(np.isin(cols["run"], runs)
                                & np.isin(cols["name"], list(kernel_ids)))
        children: dict[int, list[int]] = defaultdict(list)
        parent = cols["parent"]
        for i in np.flatnonzero(np.isin(parent, frames)):
            children[int(parent[i])].append(int(i))
        out: dict[int, dict[str, float]] = defaultdict(
            lambda: {"prepare_ns": 0.0, "adc_ns": 0.0, "kernel_self_ns": 0.0})
        start, end = cols["start"], cols["end"]
        for f in frames:
            layer, seg_start, covered = None, start[f], 0
            for c in children[int(f)]:  # spans are appended in start order
                dur = int(end[c] - start[c])
                if c in self.span_layer:
                    if layer is not None:
                        out[layer]["kernel_self_ns"] += start[c] - seg_start - covered
                    layer, seg_start, covered = self.span_layer[c], start[c], 0
                    out[layer]["prepare_ns"] += dur
                elif layer is not None and cols["name"][c] in adc_ids:
                    out[layer]["adc_ns"] += dur
                covered += dur
            if layer is not None:
                out[layer]["kernel_self_ns"] += end[f] - seg_start - covered
        return dict(out)

    def write(self, path: Path, meta: dict) -> None:
        """Write every span once, as integer columns plus the name table."""
        import json

        path.parent.mkdir(parents=True, exist_ok=True)
        cols = {k: v for k, v in self.columns().items() if k != "child"}
        np.savez_compressed(path, names=np.array(self.names), meta=json.dumps(meta),
                            **cols)


# -- hooks: counts read from arguments and results ---------------------------

def _phase1_steps(tracer, idx, args, kwargs):
    tracer.count("search.phase1.steps", _arg(args, kwargs, 2, "config").n1_steps)


def _pool_record(tracer, idx, is_new):
    tracer.count("search.pool.distinct", int(bool(is_new)))


def _phase2_probes(tracer, idx, args, kwargs):
    space = _arg(args, kwargs, 2, "space")
    config = _arg(args, kwargs, 4, "config")
    tracer.count("search.phase2.probes",
                 config.n2_steps * space.phase2_option_count())


def _hamming(tracer, idx, args, kwargs):
    n, bits = np.shape(_arg(args, kwargs, 0, "codes"))
    tracer.count("nnsim.score.code_bits", bits)
    # two (n x bits) @ (bits x n) products, 2 flops per multiply-add
    tracer.count("nnsim.score.hamming_kernel.flop", 4 * n * n * bits)


def _prepare_cells(tracer, idx, args, kwargs):
    rows, cols = np.shape(_arg(args, kwargs, 0, "weight_matrix"))
    slices = _arg(args, kwargs, 2, "weight_bits") // _arg(args, kwargs, 3, "slice_bits")
    key = args[4] if len(args) > 4 else kwargs.get("key", (0,))
    tracer.span_layer[idx] = int(key[0])
    tracer._pending_cells = (rows, cols, slices)


def _quantize_inputs(tracer, idx, args, kwargs):
    if tracer._pending_cells is None:
        return
    rows, cols, slices = tracer._pending_cells
    tracer._pending_cells = None
    n, in_rows = np.shape(_arg(args, kwargs, 0, "activations"))
    if in_rows != rows:
        raise ValueError(f"quantize_inputs width {in_rows} != cell rows {rows}")
    ip = _arg(args, kwargs, 1, "ip")
    # ip bit planes x weight slices x {pos, neg} cell arrays
    tracer.count("nnsim.inference.plane_macs", ip * slices * 2 * n * rows * cols)


def _adc_quantize(tracer, idx, args, kwargs):
    tracer.count("nnsim.inference.adc_conversions",
                 np.size(_arg(args, kwargs, 0, "column_sum")))


_HOOKS = {
    "search.phase1_run": (_phase1_steps, None),
    "search.CandidatePool.record": (None, _pool_record),
    "search.phase2_run": (_phase2_probes, None),
    "nnsim.score.hamming_kernel": (_hamming, None),
    "nnsim.crossbar.prepare_cells": (_prepare_cells, None),
    "nnsim.quantize.quantize_inputs": (_quantize_inputs, None),
    "nnsim.quantize.adc_quantize": (_adc_quantize, None),
}
