"""Per-layer spans and counters, recorded from outside the library.

``Tracer.install_spans`` replaces public functions and methods of the
wreathq layers with wrappers.  A module function is replaced where it is
defined and in every wreathq module that bound it on import (for
example ``cubes.kernel_basis`` or ``reflection.solve_in_span``), so no
call escapes through an imported name.  Each call records one span
``(name, start, end, parent, pass)`` in memory; a layer's self time is
the time of its spans less the time of their direct child spans.

``Tracer.install_counts`` instead counts the scalar operations of
``cyclotomic.Scalar``.  There are about 10^6 of them in a pass, so they
are counted in a pass of their own: timing them would distort every
other number.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# (module, function or Class.method, span name); the layer is the first
# component of the span name.  Spans that BENCHMARK.json does not report
# still mark layer boundaries, so their time lands in the right self_s.
# quiver and sra take under 1% of every workload and are left out.
SPANS = (
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "kernel_basis", "linalg.kernel_basis"),
    ("linalg", "solve_in_span", "linalg.solve_in_span"),
    ("linalg", "intersect_kernels", "linalg.intersect_kernels"),
    ("linalg", "kron", "linalg.kron"),
    ("linalg", "hstack", "linalg.stack"),
    ("linalg", "vstack", "linalg.stack"),
    ("linalg", "Mat.__matmul__", "linalg.matmul"),
    ("linalg", "Mat.__add__", "linalg.elementwise"),
    ("linalg", "Mat.__sub__", "linalg.elementwise"),
    ("linalg", "Mat.__neg__", "linalg.elementwise"),
    ("linalg", "Mat.scaled", "linalg.elementwise"),
    ("linalg", "BlockBuilder.add_block", "linalg.add_block"),
    ("symmetric", "seminormal_rep", "symmetric.seminormal_rep"),
    ("symmetric", "induce_rep", "symmetric.induce_rep"),
    ("symmetric", "young_cosets", "symmetric.young_cosets"),
    ("symmetric", "RepMatrices.matrix_of", "symmetric.matrix_of"),
    ("symmetric", "YoungCosetAction.factor", "symmetric.coset_factor"),
    ("modules", "build_induced_zero_e", "modules.build_induced_zero_e"),
    ("modules", "verify_relations", "modules.verify_relations"),
    ("modules", "reorient_module", "modules.reorient_module"),
    ("modules", "WreathModule.perm_matrix", "modules.perm_matrix"),
    ("reflection", "reflection_functor", "reflection.reflection_functor"),
    ("reflection", "SinkCalculus.pi", "reflection.pi"),
    ("reflection", "SinkCalculus.mu", "reflection.mu"),
    ("reflection", "SinkCalculus.theta", "reflection.theta"),
    ("reflection", "SinkCalculus.sigma_adjacent", "reflection.sigma_adjacent"),
    ("reflection", "SinkCalculus.sigma_perm", "reflection.sigma_perm"),
    ("reflection", "SinkCalculus.tau_project", "reflection.tau"),
    ("reflection", "SinkCalculus.tau_include", "reflection.tau"),
    ("reflection", "SinkCalculus.away_edge_action", "reflection.away_edge_action"),
    ("cubes", "module_cube", "cubes.module_cube"),
    ("cubes", "complex_from_cube", "cubes.complex_from_cube"),
    ("cubes", "cohomology", "cubes.cohomology"),
    ("cubes", "module_cohomology", "cubes.module_cohomology"),
    ("cubes", "euler_characteristic", "cubes.euler_characteristic"),
    ("io", "load_json", "io.load_json"),
    ("io", "dump_json", "io.dump_json"),
    ("io", "parse_quiver", "io.parse_quiver"),
    ("io", "parse_params", "io.parse_params"),
    ("io", "parse_module", "io.parse_module"),
    ("io", "dump_module", "io.dump_module"),
    ("cli", "main", "cli.main"),
)

# Scalar methods counted per operation kind.
SCALAR_OPS = {
    "mul": ("__mul__", "__rmul__"),
    "add": ("__add__", "__radd__", "__sub__"),
    "inverse": ("inverse",),
    "bool": ("__bool__",),
}

MAX_METRICS = ("reflection.space.max_dim", "cubes.complex.max_dim")


def _nonzero(mat) -> int:
    # list.count compares by identity first, so the shared zero is cheap
    data = mat.data
    return len(data) - data.count(type(data[0]).zero(mat.order)) if data else 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[int] = []
        self.pass_id = 0
        self.counters: dict[int, Counter] = {}
        self.cur = Counter()
        self._undo: list[tuple] = []

    # -- passes ---------------------------------------------------------
    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.cur = self.counters.setdefault(pass_id, Counter())

    # -- wrappers ---------------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def span(self, name: str, fn, before=None, after=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, tracer = self.spans, self.stack, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer.cur, args)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (nid, t0, t1, stack[-1] if stack else -1, tracer.pass_id)
            if after is not None:
                after(tracer.cur, args, result)
            return result
        return wrapper

    def _counting(self, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count(tracer.cur, args)
            return fn(*args, **kwargs)
        return wrapper

    def install_spans(self) -> None:
        """Wrap every SPANS entry whose module is already imported."""
        mods = [m for k, m in sys.modules.items() if k == "wreathq" or k.startswith("wreathq.")]
        for modname, attr, name in SPANS:
            mod = sys.modules.get("wreathq." + modname)
            if mod is None:
                continue
            before, after = _HOOKS.get(name, (None, None))
            owner, _, meth = attr.rpartition(".")
            if owner:
                cls = getattr(mod, owner)
                self._patch(cls, meth, self.span(name, cls.__dict__[meth], before, after))
                continue
            orig = getattr(mod, attr)
            wrapped = self.span(name, orig, before, after)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, wrapped)

        linalg = importlib.import_module("wreathq.linalg")
        mat = linalg.Mat
        for attr, size in (("zeros", lambda a: a[0] * a[1]), ("identity", lambda a: a[0] * a[0])):
            fn = mat.__dict__[attr].__func__
            self._patch(mat, attr, staticmethod(self._counting(
                fn, lambda cur, a, size=size: cur.update({"linalg.dense_entries_alloc": size(a)}))))
        bb = linalg.BlockBuilder
        self._patch(bb, "__init__", self._counting(
            bb.__dict__["__init__"],
            lambda cur, a: cur.update({"linalg.dense_entries_alloc": a[1] * a[2]})))
        big = importlib.import_module("wreathq.reflection").BigSpace
        self._patch(big, "__post_init__", self._counting(big.__dict__["__post_init__"], _space_gauge))

    def install_counts(self) -> None:
        scalar = importlib.import_module("wreathq.cyclotomic").Scalar
        for kind, attrs in SCALAR_OPS.items():
            for attr in attrs:
                self._patch(scalar, attr, self._tally(scalar.__dict__[attr],
                                                      f"cyclotomic.{kind}.calls"))

    def _tally(self, fn, key: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args):
            tracer.cur[key] += 1
            return fn(*args)
        return wrapper

    # -- results ------------------------------------------------------------
    def export(self) -> dict:
        return {"names": self.names, "spans": self.spans,
                "counters": {str(k): dict(v) for k, v in self.counters.items()}}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.export(), fh)


def _entries_hook(prefix: str):
    def before(cur, args):
        mats = args[:2] if prefix == "linalg.matmul" else args[:1]
        cur[prefix + ".in_entries"] += sum(len(m.data) for m in mats)
        cur[prefix + ".in_nonzero"] += sum(_nonzero(m) for m in mats)
    return before


def _complex_gauge(cur, args, cx):
    top = max(t.total for t in cx.terms)
    if top > cur["cubes.complex.max_dim"]:
        cur["cubes.complex.max_dim"] = top


def _space_gauge(cur, args):
    total = args[0].total
    cur["reflection.space.sum_dim"] += total
    if total > cur["reflection.space.max_dim"]:
        cur["reflection.space.max_dim"] = total


_HOOKS = {
    "linalg.rref": (_entries_hook("linalg.rref"), None),
    "linalg.matmul": (_entries_hook("linalg.matmul"), None),
    "cubes.complex_from_cube": (None, _complex_gauge),
}


def aggregate(export: dict) -> dict[int, Counter]:
    """Per pass: calls and inclusive seconds per span name, self seconds
    per layer, and the recorded counters."""
    names, spans = export["names"], export["spans"]
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[int, Counter] = {}
    for idx, (nid, t0, t1, _, pass_id) in enumerate(spans):
        name = names[nid]
        cur = out.setdefault(pass_id, Counter())
        cur[name + ".calls"] += 1
        cur[name + ".s"] += t1 - t0
        cur[name.split(".")[0] + ".self_s"] += t1 - t0 - child[idx]
    for key, counters in export["counters"].items():
        out.setdefault(int(key), Counter()).update(counters)
    return out


def merge(into: Counter, other: Counter) -> None:
    """Add a child's per-pass numbers into a pass total (maxima stay maxima)."""
    for key, value in other.items():
        if key in MAX_METRICS:
            into[key] = max(into[key], value)
        else:
            into[key] += value
