"""Span and counter tracing of dybax from outside the package.

`install(tracer)` wraps public functions and methods of the `src/dybax`
modules and rebinds every name that refers to them in any loaded dybax
module, default arguments included (`solve_dense` lives in `linalg`, `reps`
and `verma`; `cocycle_residual` takes `fusion_exchange_construction` as a
default).  Nothing under `src/` changes; timed passes never call `install`.

Spans are aggregated in memory per (name, parent): calls, outermost calls,
total and self time.  Scalar arithmetic goes through the same wrappers, so
it is counted and timed in aggregate, never one record per operation.
"""

from __future__ import annotations

import gc
import importlib
import sys
import time

MODULES = ("scalars", "linalg", "rootdata", "reps", "verma", "fusion", "catalog",
           "verify", "macdonald", "serialize", "acceptance", "cli")

ARITH = ("scalars.mul", "scalars.add", "scalars.div")

# (module, attribute path, span name, extra counter)
TARGETS = [
    ("dybax.scalars", "Scalar.__mul__", "scalars.mul", "useful"),
    ("dybax.scalars", "Scalar.__add__", "scalars.add", "useful"),
    ("dybax.scalars", "Scalar.__sub__", "scalars.add", "useful"),
    ("dybax.scalars", "Scalar.__rsub__", "scalars.add", "useful"),
    ("dybax.scalars", "Scalar.__truediv__", "scalars.div", "useful"),
    ("dybax.scalars", "Scalar.__rtruediv__", "scalars.div", "useful"),
    ("dybax.scalars", "Scalar.__neg__", "scalars.neg", None),
    ("dybax.scalars", "Scalar.__pow__", "scalars.pow", None),
    ("dybax.scalars", "Scalar.shift_lambda", "scalars.shift_lambda", None),
    ("dybax.scalars", "Scalar.to_text", "scalars.to_text", None),
    ("sympy.polys.rings", "PolyElement.cancel", "scalars.cancel", None),
    ("dybax.linalg", "Mat.__mul__", "linalg.matmul", None),
    ("dybax.linalg", "Mat.inverse", "linalg.elim", "cells"),
    ("dybax.linalg", "solve_dense", "linalg.elim", "cells"),
    ("dybax.linalg", "kernel_basis", "linalg.elim", "cells"),
    ("dybax.linalg", "rank_of", "linalg.elim", "cells"),
    ("dybax.reps", "constant_R", "reps.constant_R", None),
    ("dybax.reps", "vector_rep", "reps.module", None),
    ("dybax.reps", "trivial_rep", "reps.module", None),
    ("dybax.reps", "tensor", "reps.module", None),
    ("dybax.reps", "dual", "reps.module", None),
    ("dybax.reps", "sym_power", "reps.module", None),
    ("dybax.reps", "ext_power", "reps.module", None),
    ("dybax.verma", "verma_slice", "verma.slice", None),
    ("dybax.verma", "shapovalov_gram", "verma.slice", None),
    ("dybax.verma", "VermaSliceC.gram", "verma.slice", None),
    ("dybax.verma", "VermaSliceC.coords", "verma.slice", None),
    ("dybax.verma", "VermaSliceQ.gram", "verma.slice", None),
    ("dybax.verma", "VermaSliceQ.coords", "verma.slice", None),
    ("dybax.verma", "solve_intertwiner", "verma.intertwiner", None),
    ("dybax.fusion", "fusion_exchange_construction", "fusion.construction", None),
    ("dybax.fusion", "abrr_fusion", "fusion.abrr", None),
    ("dybax.fusion", "exchange_matrix", "fusion.exchange", None),
    ("dybax.fusion", "DynOp.shifted", "fusion.shifted", None),
    ("dybax.fusion", "DynOp.shift_all", "fusion.shifted", None),
    ("dybax.fusion", "universal_sl2_fusion", "fusion.universal", None),
    ("dybax.catalog", "basic_rational_r", "catalog.build", None),
    ("dybax.catalog", "basic_trig_r", "catalog.build", None),
    ("dybax.catalog", "classical_r_zero_coupling", "catalog.build", None),
    ("dybax.catalog", "classical_r_trig_X", "catalog.build", None),
    ("dybax.catalog", "appendixA_r", "catalog.build", None),
    ("dybax.catalog", "quantum_R_X", "catalog.build", None),
    ("dybax.catalog", "quantum_R_eps_X", "catalog.build", None),
    ("dybax.catalog", "glN_closed_forms", "catalog.build", None),
    ("dybax.verify", "qdybe_residual", "verify.qdybe", None),
    ("dybax.verify", "cdybe_residual", "verify.cdybe", None),
    ("dybax.verify", "hecke_check", "verify.hecke", None),
    ("dybax.verify", "unitarity_check", "verify.unitarity", None),
    ("dybax.verify", "cocycle_residual", "verify.cocycle", None),
    ("dybax.verify", "dynamical_hecke_rep", "verify.hecke_rep", None),
    ("dybax.verify", "gauge_classical", "verify.gauge", None),
    ("dybax.verify", "gauge_quantum", "verify.gauge", None),
    ("dybax.macdonald", "mr_residual", "macdonald.trace", None),
    ("dybax.macdonald", "symmetry_residuals", "macdonald.trace", None),
    ("dybax.macdonald", "sl2_trace_function", "macdonald.trace", None),
    ("dybax.macdonald", "f_v_series", "macdonald.trace", None),
    ("dybax.macdonald", "transfer_diffop", "macdonald.diffop", None),
    ("dybax.macdonald", "macdonald_operator", "macdonald.diffop", None),
    ("dybax.macdonald", "macdonald_polynomial", "macdonald.diffop", None),
    ("dybax.macdonald", "corollary91_check", "macdonald.diffop", None),
    ("dybax.macdonald", "DiffOp.__mul__", "macdonald.diffop", None),
    ("dybax.serialize", "dumps", "serialize.dumps", "bytes"),
    ("dybax.cli", "main", "cli.main", None),
]

RESIDUAL_SPANS = ("verify.qdybe", "verify.cdybe", "verify.hecke", "verify.unitarity",
                  "verify.cocycle", "verify.hecke_rep")

MARK = "__perfbench_traced__"


def _cells(args):
    """rows x cols of the system an elimination entry point works on."""
    first = args[0]
    if hasattr(first, "nrows"):                       # Mat.inverse(self)
        return first.nrows * first.ncols
    if isinstance(first, list):                       # rank_of(rows, ncols)
        return len(first) * args[1]
    rows = args[1]                                    # solve_dense / kernel_basis
    ncols = args[2] if len(args) > 2 and isinstance(args[2], int) else (
        len(rows[0]) if rows else 0)
    return len(rows) * ncols


class Tracer:
    """Aggregated spans plus gc time; `tables[-1]` receives the records, so a
    caller can divert the benchmark's own work (artifact hashing) aside."""

    def __init__(self):
        self.tables = [{}]
        self.stack = [["<root>", 0.0]]
        self.depth = {}
        self.universal = None     # the lru-cached universal_sl2_fusion
        self._gc_start = None

    # -- spans ----------------------------------------------------------------

    def wrap(self, name, fn, extra=None):
        tables, stack, depth = self.tables, self.stack, self.depth
        clock = time.perf_counter
        depth.setdefault(name, 0)

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            outer = depth[name] == 0
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[name] -= 1
                stack.pop()
                parent[1] += dt
                table = tables[-1]
                key = (name, parent[0])
                rec = table.get(key)
                if rec is None:
                    rec = table[key] = [0, 0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[2] += dt
                rec[3] += dt - frame[1]
                if outer:
                    rec[1] += 1
            if extra == "useful":
                if args[0].f and args[1]:
                    rec[4] += 1
            elif extra == "cells":
                rec[4] += _cells(args)
            elif extra == "bytes":
                rec[4] += len(result.encode("utf-8"))
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__wrapped__ = fn
        setattr(traced, MARK, True)
        return traced

    # -- garbage collector ----------------------------------------------------

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            rec = self.tables[-1].setdefault(("python.gc", "<gc>"), [0, 0, 0.0, 0.0, 0])
            dt = time.perf_counter() - self._gc_start
            rec[0] += 1
            rec[1] += 1
            rec[2] += dt
            rec[3] += dt
            self._gc_start = None

    def start(self):
        gc.callbacks.append(self._on_gc)

    def stop(self):
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- export -----------------------------------------------------------------

    def spans(self):
        """Records of the main table as JSON-ready dicts."""
        return [{"name": name, "parent": parent, "calls": rec[0], "outer_calls": rec[1],
                 "total_s": rec[2], "self_s": rec[3], "counter": rec[4]}
                for (name, parent), rec in sorted(self.tables[0].items())]

    def cache_info(self):
        """hits and misses of the universal sl2 fusion cache."""
        info = self.universal.cache_info()
        return {"hits": info.hits, "misses": info.misses}


def _resolve(modname, path):
    owner = importlib.import_module(modname)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer):
    """Wrap every target and rebind each reference to it in dybax modules."""
    for name in MODULES:
        importlib.import_module("dybax." + name)
    tracer.universal = sys.modules["dybax.fusion"].universal_sl2_fusion
    replaced = {}

    def swap(value):
        hit = replaced.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else value

    for modname, path, span, extra in TARGETS:
        owner, attr = _resolve(modname, path)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if id(original) not in replaced:
            replaced[id(original)] = (original, tracer.wrap(span, original, extra))
        setattr(owner, attr, swap(original))
    for modname, module in list(sys.modules.items()):
        if modname != "dybax" and not modname.startswith("dybax."):
            continue
        for attr, value in list(vars(module).items()):
            setattr(module, attr, swap(value))
            if isinstance(value, type) and value.__module__ == modname:
                for cattr, cvalue in list(vars(value).items()):  # __radd__ = __add__
                    if swap(cvalue) is not cvalue:
                        setattr(value, cattr, swap(cvalue))
            fn = getattr(value, "__func__", value)
            if getattr(fn, "__defaults__", None) and getattr(fn, "__module__", None) == modname:
                fn.__defaults__ = tuple(swap(d) for d in fn.__defaults__)
    return tracer


def wrappers_present():
    """True if any loaded dybax module or class attribute is a wrapper."""
    for modname, module in list(sys.modules.items()):
        if modname != "dybax" and not modname.startswith("dybax."):
            continue
        for value in vars(module).values():
            if getattr(value, MARK, False):
                return True
            if isinstance(value, type) and value.__module__ == modname:
                if any(getattr(v, MARK, False) for v in vars(value).values()):
                    return True
    rings = sys.modules.get("sympy.polys.rings")
    return bool(rings and getattr(rings.PolyElement.__dict__["cancel"], MARK, False))


# -- per-layer metrics ----------------------------------------------------------

def _sum(spans, names, field):
    return sum(s[field] for s in spans if s["name"] in names)


def layer_metrics(spans, cache):
    """Per-layer metric values from aggregated span records (see BENCHMARK.json)."""
    def calls(*names):
        return _sum(spans, names, "calls")

    def self_s(*names):
        return _sum(spans, names, "self_s")

    arith_calls = calls(*ARITH)
    lookups = cache["hits"] + cache["misses"]
    return {
        "scalars.mul.calls": calls("scalars.mul"),
        "scalars.add.calls": calls("scalars.add"),
        "scalars.div.calls": calls("scalars.div"),
        "scalars.arith.self_s": self_s(*ARITH, "scalars.neg", "scalars.pow"),
        "scalars.cancel.calls": calls("scalars.cancel"),
        "scalars.cancel.self_s": self_s("scalars.cancel"),
        "scalars.useful_ratio": (_sum(spans, ARITH, "counter") / arith_calls
                                 if arith_calls else 0.0),
        "scalars.shift_lambda.calls": calls("scalars.shift_lambda"),
        "scalars.shift_lambda.self_s": self_s("scalars.shift_lambda"),
        "scalars.to_text.calls": calls("scalars.to_text"),
        "scalars.to_text.self_s": self_s("scalars.to_text"),
        "linalg.matmul.calls": calls("linalg.matmul"),
        "linalg.matmul.self_s": self_s("linalg.matmul"),
        "linalg.elim.calls": calls("linalg.elim"),
        "linalg.elim.self_s": self_s("linalg.elim"),
        "linalg.elim.cells": _sum(spans, ("linalg.elim",), "counter"),
        "reps.constant_R.calls": _sum(spans, ("reps.constant_R",), "outer_calls"),
        "reps.constant_R.self_s": self_s("reps.constant_R"),
        "reps.module.self_s": self_s("reps.module"),
        "verma.slice.self_s": self_s("verma.slice"),
        "verma.intertwiner.calls": calls("verma.intertwiner"),
        "verma.intertwiner.self_s": self_s("verma.intertwiner"),
        "fusion.construction.self_s": self_s("fusion.construction"),
        "fusion.abrr.calls": calls("fusion.abrr"),
        "fusion.abrr.self_s": self_s("fusion.abrr"),
        "fusion.exchange.self_s": self_s("fusion.exchange"),
        "fusion.shifted.self_s": self_s("fusion.shifted"),
        "fusion.universal_cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "catalog.build.self_s": self_s("catalog.build"),
        "verify.residual.calls": calls(*RESIDUAL_SPANS),
        "verify.residual.self_s": self_s(*RESIDUAL_SPANS),
        "verify.qdybe.self_s": self_s("verify.qdybe"),
        "macdonald.trace.self_s": self_s("macdonald.trace"),
        "macdonald.diffop.self_s": self_s("macdonald.diffop"),
        "serialize.dumps.calls": calls("serialize.dumps"),
        "serialize.dumps.self_s": self_s("serialize.dumps"),
        "serialize.bytes": _sum(spans, ("serialize.dumps",), "counter"),
        "cli.main.self_s": self_s("cli.main"),
        "python.gc.self_s": self_s("python.gc"),
        "python.gc.collections": calls("python.gc"),
    }


def merge_spans(groups):
    """Sum span records of several processes by (name, parent)."""
    out = {}
    for spans in groups:
        for s in spans:
            key = (s["name"], s["parent"])
            if key not in out:
                out[key] = dict(s)
            else:
                for field in ("calls", "outer_calls", "total_s", "self_s", "counter"):
                    out[key][field] += s[field]
    return [out[k] for k in sorted(out)]
