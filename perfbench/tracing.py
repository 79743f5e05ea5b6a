"""Span tracer that measures hcmu_lab's layers from outside the library.

The tracer replaces public functions with timing wrappers wherever the
function object is bound in an ``hcmu_lab`` module (the defining module and
every module that imported it by name), so calls made inside the library are
traced too.  No library source is touched.  A span is
``(id, parent, op, name, start, end, attrs)``; spans are kept in memory and
written as JSON lines when the run ends.  A layer's self time is its span
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

_ID, _PARENT, _OP, _NAME, _START, _END, _ATTRS = range(7)


def _splu_attrs(result, args, kwargs):
    n = args[0].shape[0]
    # The matrix stacks m in {2, 3} unknowns on an n_grid x n_grid grid.
    for m in (2, 3):
        side = math.isqrt(n // m)
        if m * side * side == n:
            return {"n": n, "grid": side, "nnz_lu": int(result.nnz)}
    return {"n": n, "grid": 0, "nnz_lu": int(result.nnz)}


def _path_bytes(index):
    def attrs(result, args, kwargs):
        return {"bytes": os.path.getsize(args[index])}
    return attrs


# (module, attribute, span name, attrs hook).  Dotted attributes name a
# classmethod on a class of that module.
TRACED = (
    ("cli", "main", "cli.main", lambda result, args, kwargs: {"command": args[0][0]}),
    ("algebra", "obstruction_poly", "algebra.obstruction_poly", None),
    ("algebra", "certify_nonvanishing", "algebra.certify_nonvanishing", None),
    ("ratpoly", "isolate_roots", "ratpoly.isolate_roots", None),
    ("ratpoly", "count_roots_between", "ratpoly.count_roots_between", None),
    ("ratpoly", "sturm_sequence", "ratpoly.sturm_sequence", None),
    ("optimize", "optimize_shape_field", "optimize.optimize_shape_field", None),
    ("optimize", "splu", "optimize.splu", _splu_attrs),
    ("fields", "GridDomain.create", "fields.GridDomain.create", None),
    ("profile", "curvature_at", "profile.curvature_at", None),
    ("fields", "holonomy_defect", "fields.holonomy_defect", None),
    ("fields", "transport_ansatz", "fields.transport_ansatz", None),
    ("fields", "write_field_csv", "fields.write_field_csv", _path_bytes(2)),
    ("fields", "read_field_csv", "fields.read_field_csv", _path_bytes(0)),
    ("profile", "solve_curvature_ode", "profile.solve_curvature_ode", None),
    ("realize", "solve_codazzi_family", "realize.solve_codazzi_family", None),
    ("realize", "integrate_frame", "realize.integrate_frame", None),
    ("realize", "family_tables", "realize.family_tables", None),
    ("realize", "integrate_frame_tables", "realize.integrate_frame_tables", None),
    ("realize", "verify_immersion", "realize.verify_immersion", None),
    ("realize", "transport_frame", "realize.transport_frame", None),
    ("realize", "export_mesh", "realize.export_mesh", _path_bytes(1)),
    ("realize", "parse_mesh", "realize.parse_mesh", _path_bytes(0)),
)

# Per-layer metrics, in the order BENCHMARK.json lists them.
SHARE_LAYERS = [name for _, _, name, _ in TRACED if name != "cli.main"]
PER_LAYER = (
    [(f"{name}.share", "frac") for name in SHARE_LAYERS]
    + [
        ("cli.overhead.share", "frac"),
        ("bench.op.share", "frac"),
        ("ratpoly.count_roots_between.calls", "count"),
        ("ratpoly.sturm_sequence.calls", "count"),
        ("profile.curvature_at.calls", "count"),
        ("optimize.splu.calls_32", "count"),
        ("optimize.splu.calls_64", "count"),
        ("optimize.splu.nnz_lu_64", "count"),
        ("optimize.iterations", "count"),
        ("realize.export_mesh.bytes", "B"),
        ("realize.parse_mesh.bytes", "B"),
        ("fields.write_field_csv.bytes", "B"),
        ("fields.read_field_csv.bytes", "B"),
        ("trace.overhead_frac", "frac"),
    ]
)


class Tracer:
    """Collects spans for the calls made while it is installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._next = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def _open(self):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    @contextmanager
    def span(self, name: str):
        sid, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append([sid, parent, self.op, name, t0, t1, None])

    def _wrap(self, fn, name, attrs_hook):
        tracer = self

        def traced(*args, **kwargs):
            sid, parent = tracer._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                record = [sid, parent, tracer.op, name, t0, t1, None]
                tracer.spans.append(record)
            if attrs_hook is not None:
                record[_ATTRS] = attrs_hook(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------------

    def install(self):
        """Wrap every TRACED function wherever an hcmu_lab module binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "hcmu_lab" or n.startswith("hcmu_lab."))
                   and m is not None]
        for mod_name, attr, name, hook in TRACED:
            owner = sys.modules[f"hcmu_lab.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                wrapped = classmethod(self._wrap(original.__func__, name, hook))
                self._undo.append((cls, meth, original))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- output ------------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                rec = {"id": s[_ID], "parent": s[_PARENT], "op": s[_OP],
                       "name": s[_NAME], "start": s[_START], "end": s[_END]}
                if s[_ATTRS]:
                    rec.update(s[_ATTRS])
                fh.write(json.dumps(rec) + "\n")


def self_times(spans):
    """Per span name: (calls, total self seconds)."""
    child = defaultdict(float)
    for s in spans:
        if s[_PARENT] is not None:
            child[s[_PARENT]] += s[_END] - s[_START]
    calls = defaultdict(int)
    selfs = defaultdict(float)
    for s in spans:
        calls[s[_NAME]] += 1
        selfs[s[_NAME]] += s[_END] - s[_START] - child[s[_ID]]
    return calls, selfs


def layer_metrics(spans, n_ops: int, counters: dict, overhead_frac: float):
    """The PER_LAYER values for a traced phase of n_ops ops.

    Op spans are named "op"; shares are self time over the summed op time
    (the CLI's share is its time outside every traced library call), calls
    and counters are per op, and bytes are per file.
    """
    calls, selfs = self_times(spans)
    op_total = sum(s[_END] - s[_START] for s in spans if s[_NAME] == "op")
    out = {f"{name}.share": selfs[name] / op_total for name in SHARE_LAYERS}
    out["cli.overhead.share"] = selfs["cli.main"] / op_total
    out["bench.op.share"] = selfs["op"] / op_total
    for name in ("ratpoly.count_roots_between", "ratpoly.sturm_sequence",
                 "profile.curvature_at"):
        out[f"{name}.calls"] = calls[name] / n_ops
    lu = [s[_ATTRS] for s in spans if s[_NAME] == "optimize.splu"]
    out["optimize.splu.calls_32"] = sum(a["grid"] == 32 for a in lu) / n_ops
    out["optimize.splu.calls_64"] = sum(a["grid"] == 64 for a in lu) / n_ops
    nnz64 = [a["nnz_lu"] for a in lu if a["grid"] == 64]
    out["optimize.splu.nnz_lu_64"] = sum(nnz64) / len(nnz64) if nnz64 else 0
    out["optimize.iterations"] = counters.get("optimize.iterations", 0) / n_ops
    for name in ("realize.export_mesh", "realize.parse_mesh",
                 "fields.write_field_csv", "fields.read_field_csv"):
        sizes = [s[_ATTRS]["bytes"] for s in spans if s[_NAME] == name]
        out[f"{name}.bytes"] = sum(sizes) / len(sizes) if sizes else 0
    out["trace.overhead_frac"] = overhead_frac
    return out


def layer_table(spans, n_ops: int):
    """Rows (name, calls, self ms, inclusive ms), all per op, by self time."""
    calls, selfs = self_times(spans)
    incl = defaultdict(float)
    for s in spans:
        incl[s[_NAME]] += s[_END] - s[_START]
    rows = [(k, calls[k] / n_ops, 1e3 * selfs[k] / n_ops, 1e3 * incl[k] / n_ops)
            for k in selfs]
    return sorted(rows, key=lambda r: -r[2])


def splu_by_grid(spans):
    """Per grid side: (factorizations, mean ms, mean nnz(L+U))."""
    by = defaultdict(list)
    for s in spans:
        if s[_NAME] == "optimize.splu":
            by[s[_ATTRS]["grid"]].append((s[_END] - s[_START], s[_ATTRS]["nnz_lu"]))
    return {g: (len(v), 1e3 * sum(t for t, _ in v) / len(v),
                sum(z for _, z in v) / len(v)) for g, v in sorted(by.items())}
