"""Spans and counters around contramod's layers, installed from outside.

The tracer wraps, in place, the public functions of every layer module, the
heavy ``Mat`` methods and the lazy ``Coalgebra.delta`` property, each as a
span: name, start, end, parent span and job id, plus the input shape (rows,
cols, nnz, and the rank for elimination).  Every module binds its imports by
name (``from .linalg import image``), so a function is replaced in every
module that holds it, not only where it is defined.

Calls too frequent for a span only add to counters: ``FieldSpec`` add, sub
and mul (millions per run) are counted, and the echelon engines' methods are
timed in aggregate, their time charged to the enclosing span as child time.
Spans stay in memory and are written out once, by ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("fields", "matrix", "linalg", "coalgebra", "comodule", "contramodule",
          "functors", "towers", "sl2", "io", "cli")

# ``matrix.kron(f, g)`` only calls ``f.kron(g)``, which has its own span.
SKIP = {"matrix.kron"}

# span name -> counter of the entries its output matrix holds
OUT_NNZ = {
    "matrix.kron": "matrix.kron_out_nnz",
    "matrix.matmul": "matrix.matmul_out_nnz",
    "matrix.swap_mat": "matrix.swap_mat_out_nnz",
}

MAT_METHODS = {"__matmul__": "matmul", "kron": "kron", "__sub__": "sub",
               "__add__": "add", "transpose": "transpose"}

ENGINES = {"_EchelonGF2": "linalg.gf2", "_EchelonGeneric": "linalg.generic"}


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, job id, shape, child time]
        self.spans: list = []
        self.stack: list = []
        self.counts = defaultdict(int)
        self.busy = defaultdict(float)
        self.job = None
        self._undo: list = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        nnz_key = OUT_NNZ.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.job, None, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rec[1], rec[2] = start, end
                if parent >= 0:
                    spans[parent][6] += end - start
            rec[5] = _shape(name, args, out)
            if nnz_key is not None:
                counts[nnz_key] += len(out.data)
            return out

        return wrapper

    def _busy(self, key, fn, count_rows=False):
        spans, stack, busy, counts = self.spans, self.stack, self.busy, self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            start = perf_counter()
            out = fn(*args)
            dt = perf_counter() - start
            busy[key] += dt
            if stack:
                spans[stack[-1]][6] += dt
            if count_rows:
                counts["linalg.rows_fed"] += 1
                if out:
                    counts["linalg.pivots"] += 1
            return out

        return wrapper

    def _count(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(field, a, b):
            counts[key] += 1
            return fn(field, a, b)

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- install / uninstall -------------------------------------------------

    def install(self):
        mods = {layer: importlib.import_module(f"contramod.{layer}") for layer in LAYERS}
        everywhere = [m for n, m in sorted(sys.modules.items())
                      if n == "contramod" or n.startswith("contramod.")]

        def replace(orig, wrapped):
            for m in everywhere:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, attr, wrapped)

        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                qual = f"{layer}.{name}"
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or qual in SKIP):
                    continue
                replace(obj, self._span(qual, obj))

        cli = mods["cli"]
        load_json = cli._load_json
        counts = self.counts

        def load_and_count(path):
            out = load_json(path)
            with open(path, "rb") as fh:
                counts["io.load_bytes"] += fh.seek(0, 2)
            return out

        self._set(cli, "_load_json", self._span("io.load_json", load_and_count))
        self._set(cli, "_emit", self._span("cli.emit", cli._emit))

        Mat = mods["matrix"].Mat
        for meth, short in MAT_METHODS.items():
            self._set(Mat, meth, self._span(f"matrix.{short}", Mat.__dict__[meth]))

        FieldSpec = mods["fields"].FieldSpec
        for op in ("add", "sub", "mul"):
            self._set(FieldSpec, op, self._count(f"fields.{op}_calls", FieldSpec.__dict__[op]))

        for cls_name, key in ENGINES.items():
            cls = getattr(mods["linalg"], cls_name)
            for meth in ("add_row", "finalize", "reduce_vector", "row_items"):
                self._set(cls, meth, self._busy(key, cls.__dict__[meth], meth == "add_row"))

        Coalgebra = mods["coalgebra"].Coalgebra
        lazy = Coalgebra.__dict__["delta"].fget
        build = self._span("coalgebra.delta_build", lazy)

        def delta(c):
            if c._delta is None:
                counts["coalgebra.delta_builds"] += 1
                return build(c)
            return lazy(c)

        self._set(Coalgebra, "delta", property(delta))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """Per span name: total self time and number of calls."""
        self_s, calls = defaultdict(float), defaultdict(int)
        for name, start, end, _parent, _job, _shape, child in self.spans:
            self_s[name] += end - start - child
            calls[name] += 1
        return self_s, calls

    def inclusive(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def dump(self, path):
        """Write every span as one JSON line: name, start, end, parent, job, shape."""
        with open(path, "w") as fh:
            for name, start, end, parent, job, shape, _child in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent, job, shape]))
                fh.write("\n")


# elimination spans: their rank, from the input shape and the output
RANK = {
    "linalg.rank": lambda shape, out: out,
    "linalg.image": lambda shape, out: out.dim,
    "linalg.coequalizer": lambda shape, out: out.image_subspace.dim,
    "linalg.kernel": lambda shape, out: shape["cols"] - out.dim,
    "linalg.equalizer": lambda shape, out: shape["cols"] - out.dim,
}


def _shape(name, args, out):
    """rows, cols and nnz of the first matrix argument (else the first
    argument's dim), plus the rank for elimination."""
    for a in args:
        data = getattr(a, "data", None)
        if isinstance(data, dict) and hasattr(a, "rows"):
            shape = {"rows": a.rows, "cols": a.cols, "nnz": len(data)}
            if name in RANK:
                shape["rank"] = RANK[name](shape, out)
            return shape
    for a in args:
        if isinstance(getattr(a, "dim", None), int):
            return {"dim": a.dim}
    return None


def layer_metrics(tracer: Tracer, overhead_s: float, spec: list) -> dict:
    """Values of the per-layer metrics in ``spec`` (BENCHMARK.json's
    ``per_layer``): counters by name, ``<span>_calls`` and ``<span>_s``
    (self time) from the spans, engine time from the aggregate timers."""
    self_s, calls = tracer.self_times()
    values = dict(tracer.counts)
    values["linalg.gf2_s"] = tracer.busy["linalg.gf2"]
    values["linalg.generic_s"] = tracer.busy["linalg.generic"]
    fed = values.get("linalg.rows_fed", 0)
    values["linalg.pivot_yield"] = values.get("linalg.pivots", 0) / fed if fed else 0.0
    values["io.load_s"] = sum(t for n, t in self_s.items() if n.startswith("io."))
    values["trace.overhead_s"] = overhead_s
    out = {}
    for item in spec:
        metric, unit = item["name"], item["unit"]
        if metric in values:
            value = values[metric]
        elif metric.endswith("_calls"):
            value = calls.get(metric[: -len("_calls")], 0)
        elif metric.endswith("_s"):
            value = self_s.get(metric[: -len("_s")], 0.0)
        else:
            value = 0
        out[metric] = {"value": value, "unit": unit}
    return out
