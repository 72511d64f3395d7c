"""Spans around polyrigid's layer boundaries, recorded from outside the package.

A ``Tracer`` replaces each traced function with a wrapper wherever the
name is looked up: on its class for methods, and in every loaded
``polyrigid`` module that holds it for functions (``from .linalg import
mat_rank`` gives ``framework`` and ``norm`` their own binding).  Each call
records a span (name, start, end, parent) in flat arrays, which stay in
memory and are written once the run ends.  Calls made inside worker
processes are not seen.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from array import array

# (module, attribute, span name); "Class.method" attributes are methods.
TARGETS = (
    ("global_rigidity", "decide_global_rigidity", "global_rigidity.decide"),
    ("linalg", "IncrementalSystem.push", "linalg.push"),
    ("linalg", "IncrementalSystem.solve", "linalg.solve"),
    ("linalg", "mat_rank", "linalg.mat_rank"),
    ("linalg", "solve_affine", "linalg.solve_affine"),
    ("simplex", "feasible_point", "simplex.feasible_point"),
    ("simplex", "maximize", "simplex.maximize"),
    ("norm", "PolytopeNorm.__init__", "norm.init"),
    ("norm", "PolytopeNorm.isometry_group", "norm.isometry_group"),
    ("framework", "is_redundantly_rigid", "framework.is_redundantly_rigid"),
    ("framework", "is_well_positioned", "framework.is_well_positioned"),
    ("sparsity", "pebble_rank", "sparsity.pebble_rank"),
    ("sparsity", "is_Mdd_connected", "sparsity.is_Mdd_connected"),
    ("graph", "is_2_connected", "graph.is_2_connected"),
    ("oracle", "numeric_witness_search", "oracle.numeric_witness_search"),
    ("oracle", "congruence_check", "oracle.congruence_check"),
    ("fileformat", "load_framework", "fileformat.load"),
    ("fileformat", "load_graph_or_framework", "fileformat.load"),
    ("fileformat", "save", "fileformat.save"),
    ("cli", "main", "cli.main"),
)

SEARCH_COUNTS = ("colourings_examined", "leaves", "pruned_subtrees", "lp_runs", "isometric_skipped")

# Per-layer metrics, in the order printed: name -> unit.
PER_LAYER = {
    **{f"global_rigidity.{k}": "count" for k in SEARCH_COUNTS},
    "global_rigidity.prune_ratio": "ratio",
    "global_rigidity.colourings_per_s": "1/s",
    "global_rigidity.decide_s": "s",
    "linalg.push_calls": "count",
    "linalg.push_s": "s",
    "linalg.push_us": "us",
    "linalg.solve_calls": "count",
    "linalg.solve_s": "s",
    "simplex.feasible_point_calls": "count",
    "simplex.feasible_point_s": "s",
    "simplex.feasible_ratio": "ratio",
    "simplex.maximize_calls": "count",
    "simplex.maximize_s": "s",
    "norm.init_s": "s",
    "norm.isometry_group_builds": "count",
    "norm.isometry_group_s": "s",
    "linalg.mat_rank_calls": "count",
    "linalg.mat_rank_s": "s",
    "linalg.solve_affine_calls": "count",
    "linalg.solve_affine_s": "s",
    "framework.is_redundantly_rigid_calls": "count",
    "framework.is_redundantly_rigid_s": "s",
    "framework.is_well_positioned_s": "s",
    "sparsity.pebble_rank_calls": "count",
    "sparsity.pebble_rank_s": "s",
    "sparsity.is_Mdd_connected_s": "s",
    "graph.is_2_connected_s": "s",
    "oracle.restarts": "count",
    "oracle.restart_ms": "ms",
    "oracle.congruence_check_calls": "count",
    "oracle.congruence_check_s": "s",
    "fileformat.load_s": "s",
    "fileformat.save_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self, modules):
        self.modules = modules  # name -> loaded polyrigid submodule
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("H")
        self.stack = []
        self.notes = []  # (span index, span name, value) from the hooks below
        self._restore = []

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn, span, before=None, after=None):
        nid = self._name_id(span)
        start, end, parent, name, stack = self.start, self.end, self.parent, self.name, self.stack
        notes = self.notes
        perf = time.perf_counter

        def traced(*args, **kwargs):
            seen = before(args) if before else None
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            end.append(0.0)
            stack.append(idx)
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                stack.pop()
            if after:
                notes.append((idx, span, after(args, kwargs, result, seen)))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        return traced

    def _hooks(self, span):
        if span == "global_rigidity.decide":
            return None, lambda a, k, r, s: r.certificate
        if span == "simplex.feasible_point":
            return None, lambda a, k, r, s: r is not None
        if span == "norm.isometry_group":
            # the group is cached on the norm; a call finding no cache builds it
            return (lambda a: getattr(a[0], "_group", None) is None), lambda a, k, r, s: s
        if span == "oracle.numeric_witness_search":
            oracle = self.modules["oracle"]
            return None, lambda a, k, r, s: (
                (a[1] if len(a) > 1 else k.get("params", oracle.SearchParams())).restarts
            )
        return None, None

    def install(self):
        loaded = [m for n, m in sys.modules.items() if n == "polyrigid" or n.startswith("polyrigid.")]
        for module_name, attr, span in TARGETS:
            module = self.modules[module_name]
            before, after = self._hooks(span)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(original, span, before, after))
                self._restore.append((cls, method, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, span, before, after)
            for holder in loaded:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        self._restore.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def __len__(self):
        return len(self.start)

    def layer_metrics(self, lo, hi, wall_traced, wall_untraced):
        """Per-layer figures from the spans with index in [lo, hi)."""
        child = {}
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p] = child.get(p, 0.0) + (self.end[i] - self.start[i])
        calls, self_s, incl_s = {}, {}, {}
        for i in range(lo, hi):
            n = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            calls[n] = calls.get(n, 0) + 1
            self_s[n] = self_s.get(n, 0.0) + dur - child.get(i, 0.0)
            incl_s[n] = incl_s.get(n, 0.0) + dur
        notes = [(n, v) for i, n, v in self.notes if lo <= i < hi]

        def c(n):
            return calls.get(n, 0)

        def s(n):
            return self_s.get(n, 0.0)

        def ratio(a, b):
            return a / b if b else 0.0

        certs = [v for n, v in notes if n == "global_rigidity.decide"]
        m = {f"global_rigidity.{k}": sum(cert.get(k, 0) for cert in certs) for k in SEARCH_COUNTS}
        m["global_rigidity.prune_ratio"] = ratio(
            m["global_rigidity.pruned_subtrees"], m["global_rigidity.colourings_examined"])
        m["global_rigidity.colourings_per_s"] = ratio(
            m["global_rigidity.colourings_examined"], incl_s.get("global_rigidity.decide", 0.0))
        m["global_rigidity.decide_s"] = s("global_rigidity.decide")
        m["linalg.push_calls"] = c("linalg.push")
        m["linalg.push_s"] = s("linalg.push")
        m["linalg.push_us"] = 1e6 * ratio(s("linalg.push"), c("linalg.push"))
        m["linalg.solve_calls"] = c("linalg.solve")
        m["linalg.solve_s"] = s("linalg.solve")
        m["simplex.feasible_point_calls"] = c("simplex.feasible_point")
        m["simplex.feasible_point_s"] = s("simplex.feasible_point")
        m["simplex.feasible_ratio"] = ratio(
            sum(1 for n, v in notes if n == "simplex.feasible_point" and v),
            c("simplex.feasible_point"))
        m["simplex.maximize_calls"] = c("simplex.maximize")
        m["simplex.maximize_s"] = s("simplex.maximize")
        m["norm.init_s"] = s("norm.init")
        m["norm.isometry_group_builds"] = sum(1 for n, v in notes if n == "norm.isometry_group" and v)
        m["norm.isometry_group_s"] = s("norm.isometry_group")
        for n in ("mat_rank", "solve_affine"):
            m[f"linalg.{n}_calls"] = c(f"linalg.{n}")
            m[f"linalg.{n}_s"] = s(f"linalg.{n}")
        m["framework.is_redundantly_rigid_calls"] = c("framework.is_redundantly_rigid")
        m["framework.is_redundantly_rigid_s"] = s("framework.is_redundantly_rigid")
        m["framework.is_well_positioned_s"] = s("framework.is_well_positioned")
        m["sparsity.pebble_rank_calls"] = c("sparsity.pebble_rank")
        m["sparsity.pebble_rank_s"] = s("sparsity.pebble_rank")
        m["sparsity.is_Mdd_connected_s"] = s("sparsity.is_Mdd_connected")
        m["graph.is_2_connected_s"] = s("graph.is_2_connected")
        restarts = sum(v for n, v in notes if n == "oracle.numeric_witness_search")
        m["oracle.restarts"] = restarts
        m["oracle.restart_ms"] = 1e3 * ratio(incl_s.get("oracle.numeric_witness_search", 0.0), restarts)
        m["oracle.congruence_check_calls"] = c("oracle.congruence_check")
        m["oracle.congruence_check_s"] = s("oracle.congruence_check")
        m["fileformat.load_s"] = s("fileformat.load")
        m["fileformat.save_s"] = s("fileformat.save")
        m["cli.overhead_s"] = s("cli.main")
        m["trace.overhead_s"] = wall_traced - wall_untraced
        return m

    def write(self, path):
        """One JSON header line, then the start, end, parent and name arrays."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [["start", "d"], ["end", "d"], ["parent", "i"], ["name", "H"]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.start, self.end, self.parent, self.name):
                arr.tofile(fh)


def read_spans(path):
    """The spans written by Tracer.write, as (name, start, end, parent) tuples."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = []
        for _, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            columns.append(arr)
    start, end, parent, name = columns
    return [(header["names"][name[i]], start[i], end[i], parent[i]) for i in range(header["count"])]


def median_metrics(per_pass):
    """Each metric's median over the traced passes (the lower middle value)."""
    return {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
