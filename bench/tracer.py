"""Span tracing of reglab's layers, installed from outside the package.

``Tracer.install`` wraps the public functions of each layer module (plus the
module-level helpers that the ROADMAP names) and rebinds every module-level
name that refers to a wrapped function, because several modules import
``setmaps`` functions by name.  Each call records one span (name, start, end,
parent, op id) into flat arrays; ``self_times`` derives each span's self time
afterwards, and ``layer_metrics`` turns the spans and a few result counters
into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import time
from array import array

import numpy as np

#: layer modules, in the order their names appear in metric names
LAYERS = ("setmaps", "moduli", "certify", "covering", "newton", "cli", "expr", "acceptance", "geometry")

#: private helpers wrapped in addition to each layer's public functions
HELPERS = {
    "setmaps": (
        "_bisect_root",
        "_project_polyhedron",
        "_coordinate_polish",
        "_preimage_1d_branches",
        "_preimage_1d_epigraph",
        "_local_minima_indices",
        "_batch_fast_path",
        "_eval_vectorized",
    ),
    "moduli": ("_bridged_structure_1d",),
    "newton": ("_solve_box_vi",),
}

#: span names whose label depends on an argument: (argument index, label)
_LABELS = {
    "setmaps.dist_to_value_set": (1, lambda F: type(F).__name__),
    "setmaps.dist_to_value_set_batch": (1, lambda F: type(F).__name__),
    "moduli.estimate_modulus": (0, str),
}

MAP_KINDS = ("SingleValued", "FiniteValued", "Epigraph", "PolyhedralGraph", "SumMap")
MODULUS_KINDS = ("sur", "reg", "lip", "lopen", "semireg", "subreg", "psopen", "calm", "displacement")


def self_times(dur: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Self time of each span: its duration minus its children's durations.

    ``parent[i]`` is the index of span i's parent, or -1 for a root span.
    """
    dur = np.asarray(dur, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=dur.size)
    return dur - child[: dur.size]


class Tracer:
    """Records spans around wrapped reglab functions; see module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.counts: dict[str, float] = {}
        self._stack = [-1]
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the body of a ``with`` block as one span named ``name``."""
        idx = self._enter(self._name_id(name))
        try:
            yield
        finally:
            self._exit(idx)

    def _enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def wrap(self, qualname: str, fn):
        """Return ``fn`` wrapped so that each call records a span."""
        label = _LABELS.get(qualname)
        observe = _OBSERVERS.get(qualname)
        nid = self._name_id(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = nid if label is None else self._name_id(f"{qualname}.{label[1](args[label[0]])}")
            idx = self._enter(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if observe is not None:
                result = observe(self, result, args, kwargs)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function and rebind all references to it."""
        modules = {name: importlib.import_module(f"reglab.{name}") for name in LAYERS}
        namespaces = [importlib.import_module("reglab"), *modules.values()]
        namespaces += [importlib.import_module(f"reglab.{name}") for name in ("corpus", "rng")]
        for layer, mod in modules.items():
            wanted = [
                n for n, obj in vars(mod).items()
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not n.startswith("_")
            ]
            wanted += [n for n in HELPERS.get(layer, ()) if hasattr(mod, n)]
            for fname in wanted:
                orig = getattr(mod, fname)
                traced = self.wrap(f"{layer}.{fname}", orig)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is orig:
                            setattr(ns, attr, traced)
                            self._restore.append((ns, attr, orig))
                        elif isinstance(val, list):
                            for i, item in enumerate(val):
                                if item is orig:
                                    val[i] = traced
                                    self._restore.append((val, i, orig))

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._restore):
            if isinstance(target, list):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32).astype(np.int64)
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        return name, start, end, parent

    def save(self, path) -> None:
        """Write every span (name, start, end, parent, op id) to an .npz file."""
        name, start, end, parent = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, start=start, end=end,
                            parent=parent, op=np.frombuffer(self.op, dtype=np.int32))

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        name, start, end, parent = self.arrays()
        dur = end - start
        own = self_times(dur, parent)
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        selfs = np.bincount(name, weights=own, minlength=k)
        return {
            n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(selfs[i])}
            for i, n in enumerate(self.names)
        }

    def preimage_paths(self) -> dict[str, int]:
        """Classify each preimage_search span by the helpers it reached."""
        name, _, _, parent = self.arrays()
        keys = ("preimage_search", "_preimage_1d_branches", "_preimage_1d_epigraph",
                "dist_to_value_set_batch", "_local_minima_indices")
        # labelled spans ("dist_to_value_set_batch.<MapKind>") count as their function
        ids = {key: [i for i, n in enumerate(self.names)
                     if n == f"setmaps.{key}" or n.startswith(f"setmaps.{key}.")] for key in keys}
        searches = np.nonzero(np.isin(name, ids["preimage_search"]))[0]
        children = np.nonzero(np.isin(parent, searches))[0]
        owner = np.searchsorted(searches, parent[children])
        reached = {}
        for key in keys:
            reached[key] = np.zeros(searches.size, dtype=bool)
            reached[key][owner[np.isin(name[children], ids[key])]] = True
        grid = reached["dist_to_value_set_batch"]
        restored = grid & reached["_local_minima_indices"]
        branch = ~grid & reached["_preimage_1d_branches"]
        epi = ~grid & ~branch & reached["_preimage_1d_epigraph"]
        return {
            "analytic": int(np.sum(~grid & ~branch & ~epi)),
            "branch1d": int(np.sum(branch)),
            "epigraph1d": int(np.sum(epi)),
            "grid_feasible": int(np.sum(grid & ~restored)),
            "grid_restored": int(np.sum(restored)),
        }


# ---------------------------------------------------------------------------
# result observers: counters that need a call's arguments or result


def _obs_preimage(tr, result, args, kwargs):
    if result[0] == math.inf:
        tr.count("preimage_search.miss")
    return result


def _obs_batch_fast(tr, result, args, kwargs):
    if result is None:
        tr.count("batch_fast_path.fallback")
    return result


def _obs_graph_sample(tr, result, args, kwargs):
    count = kwargs["count"] if "count" in kwargs else args[3]
    tr.count("graph_sample.requested", count)
    tr.count("graph_sample.returned", len(result))
    return result


def _obs_picard(tr, result, args, kwargs):
    tr.count("picard.solves")
    if result.method == "picard":
        tr.count("picard.success")
    return result


def _obs_run_newton(tr, result, args, kwargs):
    tr.count("newton.iterations", result.iterations)
    if result.termination == "converged":
        tr.count("newton.converged")
    return result


def _obs_box_vi(tr, result, args, kwargs):
    tr.count("newton.patterns", 3 ** args[3].n)
    return result


def _obs_compile(tr, fn, args, kwargs):
    """Wrap the callable that compile_expression returns as ``expr.eval``."""
    traced = tr.wrap("expr.eval", fn)
    n_vars = int(kwargs.get("n_vars", args[1] if len(args) > 1 else 1))
    point_ndim = 0 if n_vars == 1 else 1

    def evaluate(point):
        if np.ndim(point) <= point_ndim or (n_vars == 1 and np.size(point) == 1):
            tr.count("expr.eval.scalar")
        return traced(point)

    evaluate.expression = fn.expression  # type: ignore[attr-defined]
    return evaluate


_OBSERVERS = {
    "setmaps.preimage_search": _obs_preimage,
    "setmaps._batch_fast_path": _obs_batch_fast,
    "setmaps.graph_sample": _obs_graph_sample,
    "covering.solve_preimage_picard": _obs_picard,
    "newton.run_newton": _obs_run_newton,
    "newton._solve_box_vi": _obs_box_vi,
    "expr.compile_expression": _obs_compile,
}


_UNITS = {"calls": "count", "calls_per_s": "1/s", "patterns": "count", "patterns_per_s": "1/s",
          "iterations": "count", "digest_match": "count"}


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, from its last name component."""
    stat = name.rsplit(".", 1)[-1]
    return _UNITS.get(stat, "s" if stat.endswith("_s") else "ratio")


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics: ``<layer>.<function>.<stat>`` plus ratios."""
    agg = tracer.aggregate()
    c = tracer.counts

    def get(name, stat):
        return agg.get(name, {}).get(stat, 0)

    out: dict[str, float] = {}
    for i in range(1, 13):
        out[f"acceptance.criterion_{i:02d}_s"] = get(f"acceptance.criterion_{i}", "total_s")
    for fn in ("setmaps.preimage_search", "setmaps._bisect_root", "setmaps._project_polyhedron",
               "setmaps._coordinate_polish", "setmaps.graph_sample", "moduli.largest_covered_c",
               "covering.solve_preimage_picard", "newton.run_newton", "newton.solve_subproblem",
               "newton._solve_box_vi", "expr.eval", "cli.write_report", "geometry.as_vector"):
        out[f"{fn}.calls"] = get(fn, "calls")
        out[f"{fn}.self_s"] = get(fn, "self_s")
    for fn in ("moduli.slope_sandwich", "certify.verify_sum_semiregularity",
               "certify.check_descent_certificate", "covering.rosl_check",
               "covering.covering_check_kaluza", "cli.main"):
        out[f"{fn}.self_s"] = get(fn, "self_s")
    searches = get("setmaps.preimage_search", "calls")
    out["setmaps.preimage_search.miss_ratio"] = _ratio(c.get("preimage_search.miss", 0), searches)
    for path, n in tracer.preimage_paths().items():
        out[f"setmaps.preimage_search.{path}.calls"] = n
    for fn in ("setmaps.dist_to_value_set", "setmaps.dist_to_value_set_batch"):
        for kind in MAP_KINDS:
            name = f"{fn}.{kind}"
            out[f"{name}.calls_per_s"] = _ratio(get(name, "calls"), get(name, "self_s"))
    out["setmaps.dist_to_value_set_batch.fallback_ratio"] = _ratio(
        c.get("batch_fast_path.fallback", 0), get("setmaps._batch_fast_path", "calls"))
    out["setmaps.graph_sample.yield_ratio"] = _ratio(
        c.get("graph_sample.returned", 0), c.get("graph_sample.requested", 0))
    for kind in MODULUS_KINDS:
        out[f"moduli.estimate_modulus.{kind}.self_s"] = get(f"moduli.estimate_modulus.{kind}", "self_s")
    out["covering.picard_success_ratio"] = _ratio(c.get("picard.success", 0), c.get("picard.solves", 0))
    out["newton.iterations"] = c.get("newton.iterations", 0)
    out["newton.converged_ratio"] = _ratio(c.get("newton.converged", 0), get("newton.run_newton", "calls"))
    out["newton._solve_box_vi.patterns"] = c.get("newton.patterns", 0)
    out["newton._solve_box_vi.patterns_per_s"] = _ratio(
        c.get("newton.patterns", 0), get("newton._solve_box_vi", "self_s"))
    out["expr.eval.scalar_ratio"] = _ratio(c.get("expr.eval.scalar", 0), get("expr.eval", "calls"))
    return out
