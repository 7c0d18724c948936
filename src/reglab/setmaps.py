"""Set-valued map representations and the distance oracles built on them.

A :class:`SetMap` is a tagged representation of F: R^n =: R^m.  Querying it
at a point yields a :class:`ValueSet` descriptor that supports exact distance
and membership tests (finite point sets, boxes, affine sets, unions of convex
polyhedra).  On top of the descriptors sit the three work-horse oracles:

* ``dist_to_value_set(y, F, x)``   distance from y to F(x);
  ``dist_to_value_set_batch(y, F, X)`` for the rows of X, with one target
  y for all rows or a (k, m) y of one target per row
* ``preimage_search_many(x0, F, ys)``   the preimage oracle: (distance, point)
  from x0 to F^{-1}(y) for many targets that share x0 and the search region,
  or with ``preimage_search_many(X0, F, ys, regions)`` (a (k, n) X0 and a
  list of regions) each from its own x0 over its own region; analytic where
  possible, else a 1D map's branches evaluated once on the grid that the
  targets with an equal x0 and region share, with every root bisected in
  lockstep, else honest grid search with local refinement, all grid-stage
  starts of the call polished in lockstep.  ``preimage_search(x0, F, y)``
  is its one-query call and ``dist_to_preimage(x0, F, y)`` the distance of
  that call
* ``graph_sample(F, center, r)``   seeded, feasibility-checked graph points

The oracles, and the moduli built on them, name no map class: each kind
decides its own paths through the hooks on :class:`SetMap`, so a new map
kind is one class.  The batch, 1D and closed-form preimage hooks, the
covering rate ``covered_c``, the half-space pieces ``graph_pieces`` and the
cone interval ``normal_cone_interval`` return ``None`` for "no special
path"; the analytic inverse and the graph sampler raise UnsupportedOperation.

All operations are pure; nothing here keeps mutable state.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .expr import compile_expression
from .geometry import (
    TOL_FEAS,
    Ball,
    DimensionMismatch,
    DomainError,
    GraphPoint,
    _real,
    as_vector,
    vec_dist,
    vec_norm,
)
from .rng import SplitMix64, derive_seed, shell_points_1d, sphere_directions

INF = float("inf")

#: quotients above this cap count as infinite
QUOTIENT_CAP = 1e6


class UnsupportedOperation(ValueError):
    pass


class UnsupportedDimension(UnsupportedOperation):
    pass


# ---------------------------------------------------------------------------
# value-set descriptors


def _project_polyhedron_rows(P: np.ndarray, A: np.ndarray, B: np.ndarray):
    """Euclidean projections of the rows of P onto the polyhedra {z: Az <= B[i]},
    row i onto polyhedron i.

    Active-subset enumeration, exact for small systems (the only ones we
    build), run once for all rows of B whose polyhedron does not contain its
    point.  Returns (found, dist, Z) per row: whether a projection was found
    (not found: the polyhedron is empty), its distance and the projection
    (inf and NaN where none was found).  Each row equals its own one-row call
    bit for bit: the products are per-row ``matmul``s, and a multi-column
    ``lstsq`` solves each column as a one-column call does.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    rows = len(B)
    # max(1, |B[i]|_inf, |P[i]|_inf) as Python's max takes it: a NaN loses
    scale = np.fmax(np.abs(B).max(axis=1, initial=0.0), np.fmax(1.0, np.abs(P).max(axis=1, initial=0.0)))
    inside = np.matmul(A, P[..., None])[..., 0] <= B + 1e-12 * scale[:, None]
    if A.size == 0 or inside.all():
        return np.ones(rows, dtype=bool), np.zeros(rows), P.copy()
    out = ~inside.all(axis=1)
    every = out.all()
    Bo, so = (B, scale) if every else (B[out], scale[out])
    Po = P if every else P[out]
    tol_eq, upper = 1e-8 * so, Bo + 1e-9 * so[:, None]
    k, d = A.shape
    hit = np.zeros(len(Bo), dtype=bool)
    best = np.full(len(Bo), INF)
    best_z = np.full((len(Bo), d), np.nan)
    for size in range(1, min(k, d) + 1):
        for idx in itertools.combinations(range(k), size):
            sel = list(idx)
            Ak, bk = A[sel], Bo[:, sel]
            lam, *_ = np.linalg.lstsq(Ak @ Ak.T, (np.matmul(Ak, Po[..., None])[..., 0] - bk).T, rcond=None)
            z = Po - np.matmul(Ak.T, lam.T[..., None])[..., 0]
            ok = ~(np.abs(np.matmul(Ak, z[..., None])[..., 0] - bk).max(axis=1) > tol_eq)
            ok &= (np.matmul(A, z[..., None])[..., 0] <= upper).all(axis=1)
            dist = _vec_dists(z, Po, "euclidean")
            take = ok & (~hit | (dist < best))
            hit |= take
            np.copyto(best, dist, where=take)
            np.copyto(best_z, z, where=take[:, None])
    if every:
        return hit, best, best_z
    Z = P.copy()
    found, dists = np.ones(rows, dtype=bool), np.zeros(rows)
    found[out], dists[out], Z[out] = hit, best, best_z
    return found, dists, Z


def _project_polyhedron(point: np.ndarray, A: np.ndarray, b: np.ndarray):
    """Euclidean projection onto {z: Az <= b}: the one-row call of
    ``_project_polyhedron_rows``.  Returns (z, dist) or None when the
    polyhedron is empty.
    """
    found, dist, Z = _project_polyhedron_rows(np.asarray(point, dtype=float)[None], A, np.asarray(b, dtype=float)[None])
    return (Z[0], float(dist[0])) if found[0] else None


def _chebyshev_to_polyhedron(point: np.ndarray, A: np.ndarray, b: np.ndarray, A_eq=None, b_eq=None):
    """(nearest, max-norm distance) to {z: Az <= b, A_eq z = b_eq} via a small LP."""
    from scipy.optimize import linprog

    point = np.asarray(point, dtype=float)
    d = point.size
    A = np.atleast_2d(A)
    eye = np.eye(d)
    ones = np.ones((d, 1))
    A_ub = np.vstack(
        [
            np.hstack([eye, -ones]),
            np.hstack([-eye, -ones]),
            np.hstack([A, np.zeros((A.shape[0], 1))]),
        ]
    )
    b_ub = np.concatenate([point, -point, b])
    if A_eq is not None:
        A_eq = np.hstack([A_eq, np.zeros((A_eq.shape[0], 1))])
    c = np.zeros(d + 1)
    c[-1] = 1.0
    res = linprog(
        c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=[(None, None)] * d + [(0, None)], method="highs"
    )
    if not res.success:
        return None, INF
    return res.x[:d], float(res.x[-1])


class ValueSet:
    """Abstract descriptor of F(x) supporting distance/membership queries."""

    dim: int

    def dist(self, y, norm: str = "euclidean") -> float:
        raise NotImplementedError

    def nearest(self, y, norm: str = "euclidean"):
        """(point, dist) of a nearest member; (None, inf) when empty."""
        raise UnsupportedOperation(f"{type(self).__name__} has no nearest-point query")

    def is_empty(self) -> bool:
        return False

    def translate(self, v) -> "ValueSet":
        raise UnsupportedOperation(f"{type(self).__name__} cannot be translated")

    def members_near(self, center, radius, count, rng: SplitMix64, norm="euclidean") -> list[np.ndarray]:
        """A few representative members within ``radius`` of ``center``."""
        raise UnsupportedOperation(f"{type(self).__name__} cannot be sampled")

    def support(self, d: np.ndarray, maximize: bool) -> float:
        """sup (or inf) of <d, y> over the set; +-inf for unbounded sets."""
        raise UnsupportedOperation(f"support function unavailable for {type(self).__name__}")

    def interval_structure_1d(self):
        """(points, intervals) decomposition for 1D value sets."""
        raise UnsupportedOperation(f"{type(self).__name__} has no 1D structure")


class EmptySet(ValueSet):
    def __init__(self, dim: int):
        self.dim = dim

    def dist(self, y, norm="euclidean"):
        return INF

    def nearest(self, y, norm="euclidean"):
        return None, INF

    def is_empty(self):
        return True

    def translate(self, v):
        return self

    def members_near(self, center, radius, count, rng, norm="euclidean"):
        return []

    def interval_structure_1d(self):
        return [], []


class FinitePoints(ValueSet):
    def __init__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[0] == 0:
            raise ValueError("FinitePoints requires at least one point")
        self.points = pts
        self.dim = pts.shape[1]

    def dist(self, y, norm="euclidean"):
        y = as_vector(y, self.dim)
        diff = self.points - y
        if norm == "euclidean":
            return float(np.sqrt((diff**2).sum(axis=1)).min())
        return float(np.abs(diff).max(axis=1).min())

    def nearest(self, y, norm="euclidean"):
        y = as_vector(y, self.dim)
        diff = self.points - y
        d = np.sqrt((diff**2).sum(axis=1)) if norm == "euclidean" else np.abs(diff).max(axis=1)
        i = int(d.argmin())
        return self.points[i].copy(), float(d[i])

    def translate(self, v):
        return FinitePoints(self.points + as_vector(v, self.dim))

    def members_near(self, center, radius, count, rng, norm="euclidean"):
        center = as_vector(center, self.dim)
        out = [p for p in self.points if vec_dist(p, center, norm) <= radius]
        return out[:count]

    def support(self, d, maximize):
        vals = self.points @ d
        return float(vals.max() if maximize else vals.min())

    def interval_structure_1d(self):
        if self.dim != 1:
            raise UnsupportedOperation("not one-dimensional")
        return list(self.points[:, 0]), []


class BoxSet(ValueSet):
    """Axis-aligned box, possibly unbounded (entries may be ±inf)."""

    def __init__(self, lo, hi):
        self.lo = np.atleast_1d(np.asarray(lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if self.lo.shape != self.hi.shape:
            raise DimensionMismatch("box bounds must share a shape")
        if np.any(self.lo > self.hi):
            raise ValueError("box lower bounds exceed upper bounds")
        self.dim = self.lo.size

    def dist(self, y, norm="euclidean"):
        y = as_vector(y, self.dim)
        resid = np.maximum(self.lo - y, 0.0) + np.maximum(y - self.hi, 0.0)
        return vec_norm(resid, norm)

    def nearest(self, y, norm="euclidean"):
        y = as_vector(y, self.dim)
        p = np.clip(y, self.lo, self.hi)
        return p, vec_dist(p, y, norm)

    def translate(self, v):
        v = as_vector(v, self.dim)
        return BoxSet(self.lo + v, self.hi + v)

    def members_near(self, center, radius, count, rng, norm="euclidean"):
        center = as_vector(center, self.dim)
        lo = np.maximum(self.lo, center - radius)
        hi = np.minimum(self.hi, center + radius)
        if np.any(lo > hi):
            return []
        out = [np.clip(center, lo, hi)]
        for _ in range(count - 1):
            out.append(np.array([rng.uniform(float(a), float(b)) for a, b in zip(lo, hi)]))
        return out

    def support(self, d, maximize):
        sign = 1.0 if maximize else -1.0
        total = 0.0
        for di, lo, hi in zip(d, self.lo, self.hi):
            pick = hi if di * sign > 0 else lo
            if di == 0:
                continue
            if not np.isfinite(pick):
                return sign * INF
            total += di * pick
        return total

    def interval_structure_1d(self):
        if self.dim != 1:
            raise UnsupportedOperation("not one-dimensional")
        return [], [(float(self.lo[0]), float(self.hi[0]))]


class AffineSet(ValueSet):
    """Solution set {z: Az = rhs}; empty when rhs is outside the range of A."""

    def __init__(self, A, rhs):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        self.dim = self.A.shape[1]
        z, *_ = np.linalg.lstsq(self.A, self.rhs, rcond=None)
        self._particular = z
        scale = max(1.0, float(np.abs(self.rhs).max(initial=0.0)))
        self._feasible = bool(np.linalg.norm(self.A @ z - self.rhs) <= 1e-9 * scale)

    def is_empty(self):
        return not self._feasible

    def dist(self, y, norm="euclidean"):
        return self.nearest(y, norm)[1]

    def nearest(self, y, norm="euclidean"):
        if not self._feasible:
            return None, INF
        y = as_vector(y, self.dim)
        if norm == "euclidean":
            corr, *_ = np.linalg.lstsq(self.A, self.rhs - self.A @ y, rcond=None)
            return y + corr, float(np.linalg.norm(corr))
        return _chebyshev_to_polyhedron(y, np.zeros((0, self.dim)), np.zeros(0), self.A, self.rhs)

    def translate(self, v):
        v = as_vector(v, self.dim)
        return AffineSet(self.A, self.rhs + self.A @ v)

    def members_near(self, center, radius, count, rng, norm="euclidean"):
        if not self._feasible:
            return []
        center = as_vector(center, self.dim)
        corr, *_ = np.linalg.lstsq(self.A, self.rhs - self.A @ center, rcond=None)
        base = center + corr
        out = [base]
        # jitter within the null space
        _, s, vt = np.linalg.svd(self.A)
        rank = int((s > 1e-12 * max(1.0, s.max(initial=0.0))).sum())
        null = vt[rank:]
        for _ in range(count - 1):
            if null.shape[0] == 0:
                break
            coef = np.array([rng.uniform(-radius, radius) for _ in range(null.shape[0])])
            out.append(base + null.T @ coef)
        return [p for p in out if vec_dist(p, center, norm) <= radius + 1e-12]

    def interval_structure_1d(self):
        if self.dim != 1:
            raise UnsupportedOperation("not one-dimensional")
        if not self._feasible:
            return [], []
        if np.abs(self.A).max() <= 1e-14:
            return [], [(-INF, INF)]
        return [float(self._particular[0])], []


class PolyhedralSet(ValueSet):
    """Finite union of convex polyhedra {z: Az <= b} in half-space form."""

    def __init__(self, pieces, dim: int):
        self.pieces = [
            (np.atleast_2d(np.asarray(A, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float)))
            for A, b in pieces
        ]
        self.dim = dim
        self._empty = None

    def dist(self, y, norm="euclidean"):
        return self.nearest(y, norm)[1]

    def nearest(self, y, norm="euclidean"):
        y = as_vector(y, self.dim)
        best: tuple = (None, INF)
        for A, b in self.pieces:
            if norm == "euclidean":
                proj = _project_polyhedron(y, A, b)
                if proj is not None and proj[1] < best[1]:
                    best = proj
            else:
                pt, d = _chebyshev_to_polyhedron(y, A, b)
                if d < best[1]:
                    best = (pt, d)
        return best

    def is_empty(self):
        # the pieces never change, so the verdict is computed once
        if self._empty is None:
            self._empty = all(_project_polyhedron(np.zeros(self.dim), A, b) is None for A, b in self.pieces)
        return self._empty

    def translate(self, v):
        v = as_vector(v, self.dim)
        return PolyhedralSet([(A, b + A @ v) for A, b in self.pieces], self.dim)

    def members_near(self, center, radius, count, rng, norm="euclidean"):
        center = as_vector(center, self.dim)
        out = []
        for A, b in self.pieces:
            proj = _project_polyhedron(center, A, b)
            if proj is not None and vec_dist(proj[0], center, norm) <= radius + 1e-12:
                out.append(proj[0])
        k = 0
        while len(out) < count and k < 4 * count:
            p = rng.in_ball(center, radius, norm)
            for A, b in self.pieces:
                proj = _project_polyhedron(p, A, b)
                if proj is not None and vec_dist(proj[0], center, norm) <= radius + 1e-12:
                    out.append(proj[0])
                    break
            k += 1
        return out[:count]

    def support(self, d, maximize):
        if self.dim == 1:
            pts, ivs = self.interval_structure_1d()
            cands = list(pts) + [b for iv in ivs for b in iv]
            vals = [d[0] * c for c in cands if np.isfinite(c)]
            if any(not np.isfinite(c) for iv in ivs for c in iv):
                # a ray: unbounded on the side the ray opens toward
                for lo, hi in ivs:
                    if maximize and ((d[0] > 0 and hi == INF) or (d[0] < 0 and lo == -INF)):
                        return INF
                    if not maximize and ((d[0] > 0 and lo == -INF) or (d[0] < 0 and hi == INF)):
                        return -INF
            return max(vals) if maximize else min(vals)
        from scipy.optimize import linprog

        sign = 1.0 if maximize else -1.0
        best = -sign * INF
        for A, b in self.pieces:
            res = linprog(-sign * d, A_ub=A, b_ub=b, bounds=[(None, None)] * self.dim, method="highs")
            if res.status == 3:  # unbounded
                return sign * INF
            if res.success:
                val = float(d @ res.x)
                best = max(best, val) if maximize else min(best, val)
        return best

    def interval_structure_1d(self):
        if self.dim != 1:
            raise UnsupportedOperation("not one-dimensional")
        points, intervals = [], []
        for A, b in self.pieces:
            lo, hi = -INF, INF
            empty = False
            for coef, off in zip(A[:, 0], b):
                if abs(coef) <= 1e-14:
                    if off < -1e-12:
                        empty = True
                        break
                elif coef > 0:
                    hi = min(hi, off / coef)
                else:
                    lo = max(lo, off / coef)
            if empty or lo > hi + 1e-12:
                continue
            if abs(hi - lo) <= 1e-14:
                points.append(lo)
            else:
                intervals.append((lo, hi))
        return points, intervals


class UnionSet(ValueSet):
    def __init__(self, parts: list[ValueSet]):
        parts = [p for p in parts if not p.is_empty()]
        if not parts:
            raise ValueError("use EmptySet for an empty union")
        self.parts = parts
        self.dim = parts[0].dim

    def dist(self, y, norm="euclidean"):
        return min(p.dist(y, norm) for p in self.parts)

    def nearest(self, y, norm="euclidean"):
        best: tuple = (None, INF)
        for p in self.parts:
            cand = p.nearest(y, norm)
            if cand[1] < best[1]:
                best = cand
        return best

    def translate(self, v):
        return UnionSet([p.translate(v) for p in self.parts])

    def members_near(self, center, radius, count, rng, norm="euclidean"):
        out = []
        for p in self.parts:
            out.extend(p.members_near(center, radius, max(1, count // len(self.parts)), rng, norm))
        return out[:count]

    def support(self, d, maximize):
        vals = [p.support(d, maximize) for p in self.parts]
        return max(vals) if maximize else min(vals)

    def interval_structure_1d(self):
        points, intervals = [], []
        for p in self.parts:
            pp, ii = p.interval_structure_1d()
            points.extend(pp)
            intervals.extend(ii)
        return points, intervals


# ---------------------------------------------------------------------------
# set-valued map variants


def _row_dist(diff: np.ndarray, norm: str) -> np.ndarray:
    return np.linalg.norm(diff, axis=1) if norm == "euclidean" else np.abs(diff).max(axis=1)


def _vec_dists(X: np.ndarray, x0: np.ndarray, norm: str) -> np.ndarray:
    """``vec_dist(row, x0, norm)`` for every row of X, bit for bit: ``vecdot``
    takes the dot product that ``linalg.norm`` takes on one vector."""
    diff = X - x0
    if norm == "euclidean":
        return np.sqrt(np.vecdot(diff, diff))
    if norm == "max":
        return np.abs(diff).max(axis=1)
    raise ValueError(f"unknown norm kind {norm!r}")


class SetMap:
    """Base class; subclasses fix domain dim ``n`` and range dim ``m``.

    A kind defines ``_value_set`` and overrides the per-kind hooks where it
    has a special path.  Here ``batch_values``, ``branch_values``,
    ``batch_dist``, ``scalar_branches``, ``analytic_preimage``,
    ``preimage_1d``, ``covered_c``, ``graph_pieces`` and
    ``normal_cone_interval`` return ``None`` (no vectorized images, branch
    values or distances, no 1D branches, no closed-form preimage: search a
    grid; no closed-form covering rate: sample it; no half-space description
    of the graph; not the normal cone of an interval); ``inverse_value_set``
    and ``sample_graph`` raise UnsupportedOperation.  ``LinearOp``,
    ``NormalConeBox``, ``PolyhedralGraph`` and ``InverseView`` have a
    closed-form preimage; 1D maps with vectorized branches, epigraphs and
    1D sums of one branch and a box normal cone have a 1D path.
    ``value_dist(y, x)`` is ``value_set(x).dist(y)``; ``PolyhedralGraph``
    answers it from ``batch_dist``.
    ``branch_values(X)`` gives one ``(k, m)`` array per branch, F(X[i]) =
    {out_j[i]} (by default the batch values as one branch); the base
    ``batch_dist`` is the minimum over branches of their row distances, and a
    kind without branch values may give its own (``PolyhedralGraph``
    projects all rows at once).  The values of a user callable come from
    ``_eval_rows``; with ``finite`` (the default) a non-finite value raises
    there, and a search grid passes ``finite=False`` to get NaN or infinite
    distances instead.
    ``preimage_1d(x0, ys, grid, ...)`` takes an array of targets and gives a
    list with one entry per target: its (distance, point), or ``None`` where
    the 1D path cannot answer that target and the grid search must.
    """

    n: int
    m: int

    def _value_set(self, x: np.ndarray) -> ValueSet:
        raise NotImplementedError

    def value_set(self, x) -> ValueSet:
        return self._value_set(as_vector(x, self.n))

    def describe(self) -> str:
        return type(self).__name__

    def batch_values(self, X: np.ndarray, finite: bool = True):
        return None

    def branch_values(self, X: np.ndarray, finite: bool = True):
        vals = self.batch_values(X, finite)
        return None if vals is None else [vals]

    def batch_dist(self, y: np.ndarray, X: np.ndarray, norm: str, finite: bool = True):
        outs = self.branch_values(X, finite)
        return None if outs is None else np.min([_row_dist(out - y, norm) for out in outs], axis=0)

    def value_dist(self, y, x, norm: str) -> float:
        """Distance from y to F(x)."""
        return self.value_set(x).dist(as_vector(y, self.m), norm)

    def scalar_branches(self):
        return None

    def analytic_preimage(self, x0: np.ndarray, y: np.ndarray, norm: str, tol_feas: float):
        return None

    def normal_cone_interval(self):
        """(lo, hi) when the map is the normal cone to the interval [lo, hi] of R."""
        return None

    def preimage_1d(self, x0: np.ndarray, ys: np.ndarray, grid: np.ndarray, norm: str, tol_feas: float):
        branches = scalar_branches(self)
        return None if branches is None else _preimage_1d_branches(x0, branches, ys, grid, norm, tol_feas)

    def inverse_value_set(self, y: np.ndarray) -> ValueSet:
        raise UnsupportedOperation(f"no analytic inverse for {self.describe()}")

    def sample_graph(self, s: "_GraphSampler") -> list[GraphPoint]:
        raise UnsupportedOperation(f"graph sampling not supported for {self.describe()}")

    def covered_c(self, X: np.ndarray, Y: np.ndarray, T: np.ndarray, norm: str, directions: int, resolution: int,
                  seed: int):
        """sup{c >= 0 : B[Y[i], c T[i]] subset F(B[X[i], T[i]])} for each of the
        k queries (rows of X and Y, entries of T), uncapped: a list of k rates
        where the kind has its own answer, else None."""
        return None

    def graph_pieces(self):
        """The graph as a union of convex polyhedra: a list of (A, b) with A z <= b."""
        return None


class SingleValued(SetMap):
    def __init__(self, fn, n: int = 1, m: int = 1, vectorized: bool = True):
        self.fn = fn
        self.n = n
        self.m = m
        self.vectorized = vectorized

    def __call__(self, x):
        return as_vector(self.fn(as_vector(x, self.n)), self.m)

    @property
    def branches(self):
        return [self.fn]

    def _value_set(self, x):
        return FinitePoints([self(x)])

    def batch_values(self, X, finite=True):
        return _eval_vectorized(self.fn, X, self.n, self.m, finite) if self.vectorized else None

    def branch_values(self, X, finite=True):
        return FiniteValued.branch_values(self, X, finite)

    def scalar_branches(self):
        return [self.fn] if self.vectorized else None

    def sample_graph(self, s):
        for x in s.domain():
            s.push(x, self(x))
            if len(s.out) >= s.count:
                break
        return s.out


class FiniteValued(SetMap):
    """Finitely many branch values per point; branches are callables."""

    def __init__(self, branches, n: int = 1, m: int = 1, vectorized: bool = True, branch_inverses=None):
        if not branches:
            raise ValueError("need at least one branch")
        self.branches = list(branches)
        self.n = n
        self.m = m
        self.vectorized = vectorized
        self.branch_inverses = branch_inverses

    def _value_set(self, x):
        return FinitePoints([as_vector(b(x), self.m) for b in self.branches])

    def branch_values(self, X, finite=True):
        # a callable that is not vectorized takes one point per call
        parts = [X] if self.vectorized else X[:, None]
        return [np.array([_eval_rows(b, Z, self.n, self.m, finite)[0] for Z in parts]).reshape(len(X), self.m)
                for b in self.branches]

    def scalar_branches(self):
        return list(self.branches) if self.vectorized else None

    def analytic_preimage(self, x0, y, norm, tol_feas):
        if self.branch_inverses is None:
            return None
        best, arg = INF, None
        for inv in self.branch_inverses:
            try:
                cand = as_vector(inv(y), self.n)
            except (DomainError, ValueError):
                continue
            if dist_to_value_set(y, self, cand, norm) <= tol_feas:
                d = vec_dist(cand, x0, norm)
                if d < best:
                    best, arg = d, cand
        return best, arg

    def sample_graph(self, s):
        for x in s.domain():
            for y in self._value_set(x).points:
                s.push(x, y)
            if len(s.out) >= s.count:
                break
        return s.out


class Epigraph(SetMap):
    """x -> {y in R : y >= f(x)} for a scalar function f."""

    def __init__(self, f, n: int = 1, vectorized: bool = True):
        self.f = f
        self.n = n
        self.m = 1
        self.vectorized = vectorized

    def _value_set(self, x):
        return BoxSet(_eval_rows(self.f, x[None], self.n, 1, finite=False)[0][0], [INF])

    def batch_dist(self, y, X, norm, finite=True):
        out = _eval_vectorized(self.f, X, self.n, 1, finite) if self.vectorized else None
        return None if out is None else np.maximum(out[:, 0] - y[..., 0], 0.0)

    def preimage_1d(self, x0, ys, grid, norm, tol_feas):
        return _preimage_1d_epigraph(x0, self, ys, grid, tol_feas) if self.vectorized else None

    def covered_c(self, X, Y, T, norm, directions, resolution, seed):
        # interval arithmetic: F(B[x, t]) = [inf of f over the ball, +inf); in
        # 1D the intervals of all queries are polished in lockstep
        if self.n == 1:
            from .intervals import _inf_on_intervals

            lo_f = _inf_on_intervals(self.f, X[:, 0] - T, X[:, 0] + T, resolution)
        else:
            grids = [_ball_grid(x, t, 41 if self.n == 2 else 11, norm) for x, t in zip(X, T)]
            # a callable that is not vectorized takes one point per call
            lo_f = [float(np.min([_eval_rows(self.f, Z, self.n, 1, finite=False)[0]
                                  for Z in ([grid] if self.vectorized else grid[:, None])])) for grid in grids]
        return [max(0.0, (y - lo) / t) for y, lo, t in zip(Y[:, 0].tolist(), lo_f, T.tolist())]

    def sample_graph(self, s):
        for j, x in enumerate(s.domain()):
            fx = float(self._value_set(x).lo[0])
            if abs(fx - s.cy[0]) <= s.radius:
                s.push(x, np.array([fx]))  # boundary sample
            if j % 2 == 0:
                lo = max(fx, s.cy[0] - s.radius)
                hi = s.cy[0] + s.radius
                if lo <= hi:
                    s.push(x, np.array([s.rng.uniform(lo, hi)]))
            if len(s.out) >= s.count:
                break
        return s.out


class LinearOp(SetMap):
    def __init__(self, matrix):
        self.A = np.atleast_2d(np.asarray(matrix, dtype=float))
        self.m, self.n = self.A.shape

    def __call__(self, x):
        return self.A @ as_vector(x, self.n)

    def _value_set(self, x):
        return FinitePoints([self.A @ x])

    def batch_values(self, X, finite=True):
        # one product per row, as __call__ takes it: a single gemm may round differently
        return np.matmul(self.A, X[..., None])[..., 0]

    def scalar_branches(self):
        a = float(self.A[0, 0])
        return [lambda x, a=a: a * np.asarray(x, dtype=float)]

    def analytic_preimage(self, x0, y, norm, tol_feas):
        return self.inverse_value_set(y).nearest(x0, norm)[::-1]

    def inverse_value_set(self, y):
        return AffineSet(self.A, y)

    sample_graph = SingleValued.sample_graph

    def covered_c(self, X, Y, T, norm, directions, resolution, seed):
        # point- and scale-independent for linear maps
        return [_linear_cover_rate(self.A.tobytes(), self.A.shape, norm, directions, seed)] * len(T)


class NormalConeBox(SetMap):
    """x -> normal cone to the box [lo, hi] at x (empty outside the box); lo may be -inf and hi +inf."""

    def __init__(self, lo, hi, atol: float = 1e-9):
        self.lo = np.atleast_1d(np.asarray(lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(hi, dtype=float))
        # as_vector's checks, with the open-side infinities let through
        as_vector(np.where(self.lo == -INF, 0.0, self.lo))
        as_vector(np.where(self.hi == INF, 0.0, self.hi), self.lo.size)
        if np.any(self.lo > self.hi):
            raise ValueError("box lower bounds exceed upper bounds")
        self.n = self.m = self.lo.size
        self.atol = atol

    def _value_set(self, x):
        if np.any(x < self.lo - self.atol) or np.any(x > self.hi + self.atol):
            return EmptySet(self.m)
        lo = np.zeros(self.m)
        hi = np.zeros(self.m)
        for i in range(self.m):
            at_lo = x[i] <= self.lo[i] + self.atol
            at_hi = x[i] >= self.hi[i] - self.atol
            if at_lo and at_hi:
                lo[i], hi[i] = -INF, INF
            elif at_lo:
                lo[i], hi[i] = -INF, 0.0
            elif at_hi:
                lo[i], hi[i] = 0.0, INF
            else:
                lo[i] = hi[i] = 0.0
        return BoxSet(lo, hi)

    analytic_preimage = LinearOp.analytic_preimage

    def normal_cone_interval(self):
        return (float(self.lo[0]), float(self.hi[0])) if self.n == 1 else None

    def inverse_value_set(self, y):
        lo = np.empty(self.n)
        hi = np.empty(self.n)
        for i in range(self.n):
            if y[i] > self.atol:
                lo[i] = hi[i] = self.hi[i]
            elif y[i] < -self.atol:
                lo[i] = hi[i] = self.lo[i]
            else:
                lo[i], hi[i] = self.lo[i], self.hi[i]
        if np.any(np.isinf(lo[lo == hi])):
            return EmptySet(self.n)  # y_i != 0 pins x_i to an infinite bound, which no x attains
        return BoxSet(lo, hi)

    def sample_graph(self, s):
        return s.near_members()


class PolyhedralGraph(SetMap):
    """Graph given as a finite union of convex polyhedra in R^{n+m}.

    F(x) is the union of the slices {y: A_y y <= b - A_x x}, empty when no
    slice holds a projection of 0.  ``batch_dist`` answers the euclidean
    distances of many rows, and ``value_dist`` of one, with one stacked
    projection per piece: of 0 for the emptiness test and of y for the
    distance, equal to ``value_set(x).dist(y)`` bit for bit; under the max
    norm each row keeps its LP.
    """

    def __init__(self, pieces, n: int, m: int):
        self.pieces = [
            (np.atleast_2d(np.asarray(A, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float)))
            for A, b in pieces
        ]
        self.n = n
        self.m = m
        for A, b in self.pieces:
            if A.shape[1] != n + m:
                raise DimensionMismatch("piece half-spaces must live in R^{n+m}")
            if _project_polyhedron(np.zeros(n + m), A, b) is None:
                raise ValueError("empty polyhedral piece")

    def _value_set(self, x):
        ps = PolyhedralSet([(A[:, self.n:], b - A[:, : self.n] @ x) for A, b in self.pieces], self.m)
        return ps if not ps.is_empty() else EmptySet(self.m)

    def batch_dist(self, y, X, norm, finite=True):
        # every row's slice {z: A_y z <= b - A_x x} shares A_y, so each piece
        # is one stacked projection of 0 (rows 0..k-1) and of y (rows k..2k-1);
        # rows that value_set rejects go the per-row way, which raises as before
        if norm != "euclidean" or X.shape[1] != self.n or not np.isfinite(X).all():
            return None
        k = len(X)
        points = np.concatenate([np.zeros((k, self.m)), np.broadcast_to(y, (k, self.m))])
        nonempty = np.zeros(k, dtype=bool)
        best = np.full(k, INF)
        for A, b in self.pieces:
            C = b - np.matmul(A[:, : self.n], X[..., None])[..., 0]
            found, dist, _ = _project_polyhedron_rows(points, A[:, self.n:], np.concatenate([C, C]))
            nonempty |= found[:k]
            best = np.where(found[k:] & (dist[k:] < best), dist[k:], best)
        return np.where(nonempty, best, INF)

    def value_dist(self, y, x, norm):
        X = as_vector(x, self.n)[None]
        out = self.batch_dist(as_vector(y, self.m), X, norm)
        return super().value_dist(y, x, norm) if out is None else float(out[0])

    analytic_preimage = LinearOp.analytic_preimage

    def inverse_value_set(self, y):
        ps = PolyhedralSet([(A[:, : self.n], b - A[:, self.n:] @ y) for A, b in self.pieces], self.n)
        return ps if not ps.is_empty() else EmptySet(self.n)

    def graph_pieces(self):
        return self.pieces

    def sample_graph(self, s):
        s.near_members()
        if len(s.out) < s.count:
            # direct projections of ambient samples onto the graph pieces
            for _ in range(3 * s.count):
                z = np.concatenate([s.rng.in_ball(s.cx, s.radius, s.norm), s.rng.in_ball(s.cy, s.radius, s.norm)])
                for A, b in self.pieces:
                    proj = _project_polyhedron(z, A, b)
                    if proj is not None:
                        s.push(proj[0][: self.n], proj[0][self.n:])
                if len(s.out) >= s.count:
                    break
        return s.out


class SumMap(SetMap):
    def __init__(self, F: SetMap, G: SetMap):
        if F.n != G.n or F.m != G.m:
            raise DimensionMismatch("summands need matching domain/range dimensions")
        self.F = F
        self.G = G
        self.n, self.m = F.n, F.m

    def _value_set(self, x):
        return self._minkowski(self.F._value_set(x), self.G._value_set(x))

    def _minkowski(self, vf: ValueSet, vg: ValueSet) -> ValueSet:
        if vf.is_empty() or vg.is_empty():
            return EmptySet(self.m)
        if isinstance(vf, FinitePoints) and isinstance(vg, FinitePoints):
            pts = (vf.points[:, None, :] + vg.points[None, :, :]).reshape(-1, self.m)
            return FinitePoints(pts)
        if isinstance(vf, FinitePoints):
            return UnionSet([vg.translate(p) for p in vf.points])
        if isinstance(vg, FinitePoints):
            return UnionSet([vf.translate(p) for p in vg.points])
        if isinstance(vf, BoxSet) and isinstance(vg, BoxSet):
            return BoxSet(vf.lo + vg.lo, vf.hi + vg.hi)
        raise UnsupportedOperation("Minkowski sum needs a finite operand or two boxes")

    def batch_dist(self, y, X, norm, finite=True):
        # fast only when one side is single-valued and vectorizable; each row
        # then sums the sets that value_set sums, so it gives the same distance.
        # A non-finite summand value raises in that sum, so ``finite`` is moot
        shift = self.F.batch_values(X)
        if shift is not None:
            sets = (self._minkowski(FinitePoints(s), self.G.value_set(row)) for row, s in zip(X, shift))
        elif (shift := self.G.batch_values(X)) is not None:
            sets = (self._minkowski(self.F.value_set(row), FinitePoints(s)) for row, s in zip(X, shift))
        else:
            return None
        return np.array([vs.dist(yr, norm) for vs, yr in zip(sets, np.broadcast_to(y, (len(X), self.m)))])

    def scalar_branches(self):
        bf = scalar_branches(self.F)
        bg = scalar_branches(self.G)
        if bf is None or bg is None:
            return None
        return [lambda x, f=f, g=g: _real(f(x)) + _real(g(x)) for f in bf for g in bg]

    def preimage_1d(self, x0, ys, grid, norm, tol_feas):
        # f + N_[lo, hi] with one scalar branch f: F^{-1}(y) is the roots of
        # f = y in [lo, hi], plus lo where y <= f(lo) and hi where y >= f(hi)
        for f, cone in ((self.F, self.G), (self.G, self.F)):
            box, branches = cone.normal_cone_interval(), scalar_branches(f)
            if box is None or branches is None or len(branches) != 1:
                continue
            ends = [e for e in box if grid[0, 0] <= e <= grid[-1, 0]]
            out = []
            for y0, found in zip(ys, _preimage_1d_branches(x0, branches, ys, grid, norm, tol_feas, bounds=box)):
                y = np.array([y0])
                if found is not None and found[1] is not None and not dist_to_value_set(y, self, found[1], norm) <= tol_feas:
                    found = None  # a false root, at a jump of f: the grid search decides
                for e in ends if found is not None else ():
                    d = abs(e - float(x0[0]))
                    if d < found[0] and dist_to_value_set(y, self, [e], norm) <= tol_feas:
                        found = (d, np.array([e]))
                out.append(found)
            return out
        return super().preimage_1d(x0, ys, grid, norm, tol_feas)

    def sample_graph(self, s):
        return s.near_members()


class InverseView(SetMap):
    """The inverse map y -> F^{-1}(y), sharing the graph of the base map."""

    def __init__(self, base: SetMap):
        self.base = base
        self.n, self.m = base.m, base.n

    def _value_set(self, y):
        return self.base.inverse_value_set(y)

    def inverse_value_set(self, y):
        return self.base._value_set(y)

    # preimage of the inverse is the forward value set of the base
    analytic_preimage = LinearOp.analytic_preimage

    def sample_graph(self, s):
        inner = graph_sample(self.base, GraphPoint(s.cy, s.cx), s.radius, s.count, s.seed, s.norm, s.tol_feas)
        return [GraphPoint(p.y, p.x) for p in inner]


# ---------------------------------------------------------------------------
# oracles


def values(F: SetMap, x) -> ValueSet:
    """Value set F(x); raises DomainError when x is outside the domain."""
    vs = F.value_set(x)
    if vs.is_empty():
        raise DomainError("point outside the domain of the map")
    return vs


def require_single_valued(F: SetMap) -> SetMap:
    """``F`` itself when it is single-valued (a callable x -> F(x))."""
    if not callable(F):
        raise ValueError("expected a single-valued map")
    return F


def _minus_linear(f: SetMap, A: np.ndarray) -> SingleValued:
    """x -> f(x) - A x for a single-valued f, one point at a time."""
    return SingleValued(lambda x: f(x) - A @ as_vector(x, f.n), f.n, f.m, vectorized=False)


def dist_to_value_set(y, F: SetMap, x, norm: str = "euclidean") -> float:
    """Distance from y to F(x); +inf when F(x) is empty."""
    return F.value_dist(y, x, norm)


def dist_to_value_set_batch(y, F: SetMap, X: np.ndarray, norm: str = "euclidean", finite: bool = True) -> np.ndarray:
    """Vectorized dist_to_value_set over rows of X (shape (k, n)): row i is
    ``dist_to_value_set(y, F, X[i])``, or with a (k, m) y, one target per row,
    ``dist_to_value_set(y[i], F, X[i])``, bit for bit.

    It raises where dist_to_value_set raises (see ``_eval_rows``), except that
    ``finite=False`` keeps non-finite values as NaN or infinite distances: a
    search grid that crosses a hole of the domain (sqrt(x), 1/x) counts such
    a row as infeasible.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = _targets(y, F.m, len(X)) if np.ndim(y) == 2 else as_vector(y, F.m)
    fast = _batch_fast_path(y, F, X, norm, finite)
    if fast is not None:
        return fast
    return np.array([dist_to_value_set(yr, F, row, norm) for yr, row in zip(np.broadcast_to(y, (len(X), F.m)), X)])


def _targets(Y, m: int, k: int) -> np.ndarray:
    """Y as k targets of R^m, one per row: a (k, m) float array whose rows pass
    ``as_vector``; a bad row raises as ``as_vector`` does."""
    Y = np.asarray(Y)
    if Y.dtype != np.float64 or Y.shape[1:] != (m,) or not np.isfinite(Y).all():
        Y = np.array([as_vector(row, m) for row in Y]).reshape(-1, m)
    if len(Y) != k:
        raise DimensionMismatch(f"expected one target per row: {k} rows, got {len(Y)} targets")
    return Y


def _eval_vectorized(fn, X: np.ndarray, n: int, m: int, finite: bool = True):
    """A callable on a batch of points, in one call: its (k, m) values, or None
    where the call raises, gives the wrong shape (for m = 1, k values as (k,)
    or (k, 1); else (k, m) or (m, k)), a complex value or, with ``finite``, a
    non-finite one.  A batch of k = m >= 2 points gives None: its values may
    be either way round, so only one point per call tells."""
    try:
        out = _real(fn(X[:, 0] if n == 1 else X))
    except Exception:
        return None
    k = X.shape[0]
    if m == 1 and out.size == k and out.ndim < 2:
        out = out.reshape(k, 1)
    elif m != 1 and out.shape == (m, k):
        if k == m:
            return None
        out = out.T
    return out if out.shape == (k, m) and (not finite or np.isfinite(out).all()) else None


def _eval_rows(fn, X: np.ndarray, n: int, m: int, finite: bool = True, skip: bool = False):
    """The values of a user callable fn: R^n -> R^m at the points X and the
    points it answered: the one place that decides how such a callable is
    evaluated.

    X is (k, n); a (1,) array is one point of R, which fn takes as a 0-d
    array.  A callable marked ``constant`` (a compiled expression that names no
    variable) is called at the first point and its value tiled.  Otherwise
    k >= 2 points take one call (``_eval_vectorized``); where that call
    fails, and for a single point, each point takes its own call, whose value
    must pass the checks of ``as_vector`` (real, m entries and, with
    ``finite``, finite) or raises as it does.  A call that raises raises,
    or with ``skip`` leaves its point unanswered.  Returns the (k, m) values
    (NaN where unanswered) and the (k,) mask of answered points.
    """
    k = len(X)
    const = k > 1 and getattr(fn, "constant", False)
    out = None if const or k < 2 else _eval_vectorized(fn, X, n, m, finite)
    if out is not None:
        return out, np.ones(k, dtype=bool)
    rows = X[:1] if const else X
    vals, answered = np.full((len(rows), m), np.nan), np.zeros(len(rows), dtype=bool)
    for i in range(len(rows)):
        try:
            v = fn(rows[i, ...])
        except Exception:
            if skip:
                continue
            raise
        v = _real(v)
        if v.size != m or v.ndim > 1 or (finite and not np.isfinite(v).all()):
            as_vector(v if finite else np.nan_to_num(v), m)  # raises as as_vector does
        vals[i], answered[i] = v.reshape(m), True
    return (np.tile(vals, (k, 1)), np.tile(answered, k)) if const else (vals, answered)


def _batch_fast_path(y, F, X, norm, finite=True):
    return F.batch_dist(y, X, norm, finite)


def _grid_axes(center: np.ndarray, radius: float, resolution: int) -> np.ndarray:
    axes = [np.linspace(c - radius, c + radius, resolution) for c in center]
    if center.size == 1:
        return axes[0].reshape(-1, 1)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _ball_grid(center: np.ndarray, radius: float, per_axis: int, norm: str) -> np.ndarray:
    grid = _grid_axes(center, radius, per_axis)
    if norm == "euclidean" and center.size > 1:
        keep = np.linalg.norm(grid - center, axis=1) <= radius + 1e-12
        grid = grid[keep]
    return grid


def _cone_cover_rates(F: SetMap, vs, norm: str) -> list[float]:
    """1/dist(0, F^{-1}(v)) for each direction v of a map whose graph is a cone:
    0 for an empty preimage, inf for d = 0.  A closed form is global and final;
    a search starts on the unit ball and grows x4 while it finds nothing,
    until the rate would fall below 1/QUOTIENT_CAP; each round searches all
    directions still empty in one call."""
    origin = np.zeros(F.n)
    ds = [d for d, _ in preimage_search_many(origin, F, vs, Ball(origin, 1.0), norm=norm)]
    empty = [i for i, d in enumerate(ds) if d == INF and F.analytic_preimage(origin, vs[i], norm, TOL_FEAS) is None]
    radius = 1.0
    while empty and radius < QUOTIENT_CAP:
        radius *= 4.0
        for i, (d, _) in zip(empty, preimage_search_many(origin, F, [vs[i] for i in empty], Ball(origin, radius), norm=norm)):
            ds[i] = d
        empty = [i for i in empty if ds[i] == INF]
    return [0.0 if d == INF else (1.0 / float(d) if d > 0 else INF) for d in ds]


@functools.lru_cache(maxsize=256)
def _linear_cover_rate(a_bytes: bytes, shape: tuple, norm: str, directions: int, seed: int) -> float:
    dirs = sphere_directions(shape[0], directions, derive_seed(seed, "cover-dirs"), norm)
    return min(_cone_cover_rates(LinearOp(np.frombuffer(a_bytes).reshape(shape)), dirs, norm), default=INF)


def _bisect_threshold(pred, good: float, bad: float, iters: int) -> float:
    """Bisect ``iters`` times between ``good`` (pred holds) and ``bad``; the last good point."""
    for _ in range(iters):
        mid = 0.5 * (good + bad)
        if pred(mid):
            good = mid
        else:
            bad = mid
    return good


def scalar_branches(F: SetMap):
    """Vectorized scalar branch callables for 1D->1D maps, or None."""
    if F.n != 1 or F.m != 1:
        return None
    return F.scalar_branches()


def _bisect_root(fn, a, b, fa, iters: int = 60) -> np.ndarray:
    """Roots of a continuous function bracketed by the cells [a[i], b[i]], with
    fa = fn(a): all cells halve in lockstep, one call of ``fn`` on the array of
    midpoints per halving.  Stops once every midpoint equals an end of its cell;
    from there on no halving moves a cell, so the midpoints are the roots."""
    a, b, fa = (np.array(v, dtype=float).reshape(-1) for v in (a, b, fa))
    for _ in range(iters):
        with np.errstate(all="ignore"):
            mid = 0.5 * (a + b)
        if np.all((mid == a) | (mid == b)):
            return mid
        fm = fn(mid)
        with np.errstate(all="ignore"):
            left = fa * fm <= 0
        b = np.where(left, mid, b)
        a, fa = np.where(left, a, mid), np.where(left, fa, fm)
    with np.errstate(all="ignore"):
        return 0.5 * (a + b)


def _preimage_1d_branches(x0, branches, ys, grid: np.ndarray, norm: str, tol_feas: float, bounds=None) -> list:
    """Exact-ish preimages (dist, point) of the targets ``ys`` for a 1D map with
    continuous branches, one entry per target.

    Each branch is evaluated once on the grid, and the sign-change cells of all
    targets are bisected in lockstep; then each target takes its grid hits, its
    roots in cell order and, for a branch without either, a tangential polish.
    With ``bounds`` (lo, hi), only points of [lo, hi] count: the grid keeps
    its points inside and gains the bounds that lie in its span, and the polish
    keeps the grid's step but stays in [lo, hi].  An entry is None when a
    branch fails as one call on the grid (``_eval_vectorized``: a constant
    branch's bare literal too), or gives a non-finite value for that target.
    """
    xs = grid[:, 0]
    h = float(xs[1] - xs[0]) if xs.size > 1 else 1.0
    clamp = {}
    if bounds is not None:
        lo, hi = bounds
        ends = [e for e in dict.fromkeys(bounds) if xs[0] <= e <= xs[-1]]
        xs = np.sort(np.concatenate([xs[(xs > lo) & (xs < hi)], ends]))  # np.unique would import numpy.ma
        clamp = {"lo": [lo], "hi": [hi]}
    ys = np.asarray(ys, dtype=float).reshape(-1)
    curves = []
    for b in branches:
        vals = _eval_vectorized(b, xs[:, None], 1, 1, finite=False)
        if vals is None:
            return [None] * ys.size
        curves.append(vals.T - ys[:, None])
    finite = np.all([np.isfinite(v).all(axis=1) for v in curves], axis=0)
    roots = []  # per branch: each target's roots, in cell order
    for b, vals in zip(branches, curves):
        target, cell = np.nonzero((vals[:, :-1] * vals[:, 1:] < 0) & finite[:, None])
        cell_roots = _bisect_root(
            lambda x, b=b, y0=ys[target]: _eval_rows(b, x[:, None], 1, 1, finite=False)[0][:, 0] - y0,
            xs[cell], xs[cell + 1], vals[target, cell],
        ) if cell.size else cell
        roots.append(np.split(cell_roots, np.searchsorted(target, np.arange(1, ys.size))))

    out = []
    for t, y0 in enumerate(ys.tolist()):
        if not finite[t]:
            out.append(None)
            continue
        best = INF
        arg = None
        found = False
        for b, curve, branch_roots in zip(branches, curves, roots):
            vals = curve[t]
            branch_found = False
            hit = np.abs(vals) <= tol_feas
            if np.any(hit):
                found = branch_found = True
                i = int(np.abs(xs[np.nonzero(hit)[0]] - x0[0]).argmin())
                cand = float(xs[np.nonzero(hit)[0][i]])
                if abs(cand - x0[0]) < best:
                    best, arg = abs(cand - x0[0]), np.array([cand])
            for root in branch_roots[t]:
                found = branch_found = True
                if abs(root - float(x0[0])) < best:
                    best, arg = abs(root - float(x0[0])), np.array([root])
            if not branch_found:
                # tangential roots never change sign: descend on |b - y| from the
                # flattest grid points, but only where the local variation makes
                # an in-cell root plausible
                for i in np.argsort(np.abs(vals))[:2]:
                    local_delta = max(
                        abs(vals[i] - vals[max(i - 1, 0)]),
                        abs(vals[min(i + 1, vals.size - 1)] - vals[i]),
                    )
                    if abs(float(vals[i])) > 2.0 * local_delta + tol_feas:
                        continue
                    Z, fx = _coordinate_polish(
                        lambda Z, _, b=b: np.abs(_eval_rows(b, Z[:, 0], 1, 1, finite=False)[0][:, 0] - y0),
                        None, [xs[i]], h, 60, target=tol_feas / 4, **clamp,
                    )
                    if fx[0] <= tol_feas:
                        found = True
                        x = float(Z[0, 0])
                        if abs(x - float(x0[0])) < best:
                            best, arg = abs(x - float(x0[0])), np.array([x])
        out.append((best, arg) if found else (INF, None))
    return out


def _preimage_1d_epigraph(x0, F, ys, grid: np.ndarray, tol_feas: float) -> list:
    """Preimages (dist, point) of the targets ``ys`` for an epigraph map, one
    entry per target: the nearest x with f(x) <= y0.

    f is evaluated once on the grid, and the cells where a target's
    feasibility changes sign are bisected in lockstep, each toward its own
    target, as in ``_preimage_1d_branches``.  Where the grid's batch fails,
    each grid point and each midpoint takes its own call, as the lone
    interval of ``intervals._inf_on_intervals`` does.
    """
    xs = grid[:, 0]
    ys = np.asarray(ys, dtype=float).reshape(-1)
    batch = _eval_vectorized(F.f, grid, 1, 1, finite=False)
    each = batch is None and not getattr(F.f, "constant", False)  # _eval_rows tiles a constant f

    def f_rows(X):
        return np.concatenate([_eval_rows(F.f, p, 1, 1, finite=False)[0] for p in (X[:, None] if each else [X])])

    vals = (f_rows(grid) if batch is None else batch).T - ys[:, None]
    feas = vals <= tol_feas
    # sharpen across feasibility boundaries adjacent to the best grid points
    target, cell = np.nonzero((feas[:, :-1] != feas[:, 1:]) & (vals[:, :-1] * vals[:, 1:] < 0))
    roots = _bisect_root(
        lambda x, y0=ys[target]: f_rows(x[:, None])[:, 0] - y0,
        xs[cell], xs[cell + 1], vals[target, cell],
    ) if cell.size else cell
    roots = np.split(roots, np.searchsorted(target, np.arange(1, ys.size)))
    out = []
    for hits, target_roots in zip(feas, roots):
        if not np.any(hits):
            out.append((INF, None))
            continue
        i = int(np.abs(xs[np.nonzero(hits)[0]] - x0[0]).argmin())
        arg = np.array([xs[np.nonzero(hits)[0][i]]])
        best = float(abs(arg[0] - x0[0]))
        for root in target_roots:
            if abs(root - float(x0[0])) < best:
                best, arg = abs(root - float(x0[0])), np.array([root])
        out.append((best, arg))
    return out


def _coordinate_polish(objective, accept, X0, step0, steps: int, lo=None, hi=None, target=None):
    """Greedy coordinate descent with halving steps from every row of X0
    (k, n), all starts in lockstep: the polished rows and their values.

    ``objective(Z, lanes)`` gives the values of the rows of Z, candidates of
    the starts ``lanes``; ``accept(Z, lanes)`` (None: all) gates the rows
    whose value is strictly better.  A round tries +step, then -step, on each
    coordinate in turn, clamped to [lo[i], hi[i]], with one objective call
    over the live starts per move.  Each start keeps its own step
    (``step0``: one for all, or one per start), halves it after a round in
    which it did not move, and stops once its value is at most ``target``,
    so it takes the path it would take alone.
    """
    X = np.array(X0, dtype=float, ndmin=2)
    k, n = X.shape
    fx = np.asarray(objective(X, np.arange(k)), dtype=float)
    # the live starts: their lanes, points, values and steps
    lanes, x, f, s = np.arange(k), X.copy(), fx.copy(), np.broadcast_to(np.asarray(step0, dtype=float), (k,))
    # x + D moves coordinate i by column i of D: adding -0.0 leaves every
    # other coordinate as it is, signed zeros included
    D = np.full(X.shape, -0.0)
    for _ in range(steps):
        if target is not None and (done := f <= target).any():
            X[lanes[done]], fx[lanes[done]] = x[done], f[done]
            lanes, x, f, s, D = lanes[~done], x[~done], f[~done], s[~done], D[~done]
            if not lanes.size:
                return X, fx
        moved = np.zeros(lanes.size, dtype=bool)
        for i in range(n):
            for delta in (s, -s):
                D[:, i] = delta
                Z = x + D
                if lo is not None:
                    # min(max(z, lo), hi) as Python takes it
                    col = Z[:, i]
                    np.copyto(col, lo[i], where=lo[i] > col)
                    np.copyto(col, hi[i], where=hi[i] < col)
                fz = np.asarray(objective(Z, lanes), dtype=float)
                better = fz < f
                if better.any():
                    if accept is not None:
                        idx = np.nonzero(better)[0]
                        better[idx] = accept(Z[idx], lanes[idx])
                    x[better], f[better] = Z[better], fz[better]
                    moved |= better
            D[:, i] = -0.0
        s = np.where(moved, s, 0.5 * s)
    X[lanes], fx[lanes] = x, f
    return X, fx


def preimage_search(
    x0,
    F: SetMap,
    y,
    region: Ball | None = None,
    tol_feas: float = TOL_FEAS,
    norm: str = "euclidean",
    resolution: int = 401,
    refine_steps: int = 25,
):
    """(distance, point) from x0 to F^{-1}(y) = {x: y in F(x)}: the one-query
    call of :func:`preimage_search_many`, which says how each kind is answered."""
    return _preimage_searches(x0, F, [y], region, tol_feas, norm, resolution, refine_steps)[0]


def preimage_search_many(
    x0,
    F: SetMap,
    ys,
    region: Ball | None | list = None,
    tol_feas: float = TOL_FEAS,
    norm: str = "euclidean",
    resolution: int = 401,
    refine_steps: int = 25,
) -> list:
    """(distance, point) from x0 to F^{-1}(y) = {x: y in F(x)} for each target
    y of ``ys``, searched over ``region`` (by default the unit ball around
    x0); (+inf, None) where no feasible point is found.  A (k, n) x0 with a
    list of k regions (None entries allowed) gives query i its own x0[i] and
    region[i].

    Each target tries the closed form of its kind first
    (``SetMap.analytic_preimage``, a global answer: linear maps, box normal
    cones, polyhedral graphs and inverse views).  For a 1D map the targets
    left that share x0 and the region go to the 1D path of its kind
    (``SetMap.preimage_1d``: bisected branch roots, epigraph boundaries, or
    the roots and bounds of f + N_[lo,hi]) in one call on their grid over
    the region.  The targets still unanswered go to the grid stage together:
    a grid search over each region with feasibility restoration and a polish
    pass toward x0 (n <= 2), all starts of all targets polished in lockstep.

    The region bounds the 1D paths, but it is only a hint for the grid
    search: from its grid point the restoration polish takes up to
    ``refine_steps + 35`` steps of at most one grid spacing per coordinate,
    and the polish toward x0 up to ``refine_steps`` more, so it can return a
    preimage outside the region.  A grid point where F has a non-finite
    value (sqrt(x) or 1/x on a grid that crosses the edge of the domain) is
    infeasible.
    """
    return _preimage_searches(x0, F, ys, region, tol_feas, norm, resolution, refine_steps)


def _preimage_searches(x0, F: SetMap, ys, region, tol_feas, norm, resolution, refine_steps) -> list:
    """The body of :func:`preimage_search_many`, the one place that orders the
    paths.  ``preimage_search`` calls it directly, so that a traced search
    keeps the path helpers as its children (``bench/tracer.py`` reads them)."""
    per_query = np.ndim(x0) == 2
    x0s = [as_vector(x, F.n) for x in x0] if per_query else as_vector(x0, F.n)
    ys = [as_vector(y, F.m) for y in ys]
    x0s = x0s if per_query else [x0s] * len(ys)
    regions = list(region) if isinstance(region, (list, tuple)) else [region] * len(ys)
    if len(x0s) != len(ys) or len(regions) != len(ys):
        raise DimensionMismatch(f"{len(ys)} targets need as many x0 rows and regions")
    out = [F.analytic_preimage(x, y, norm, tol_feas) for x, y in zip(x0s, ys)]
    todo = [i for i, found in enumerate(out) if found is None]
    if not todo:
        return out
    if F.n > 2:
        raise UnsupportedDimension(
            "grid preimage search supports n <= 2; higher dimensions need an analytic variant"
        )
    per_axis = resolution if F.n == 1 else max(21, int(math.sqrt(resolution)) * 2 + 1)
    # targets that share x0 and the region share one grid and one 1D call
    groups: dict = {}
    for i in todo:
        ball = Ball(x0s[i], 1.0) if regions[i] is None else regions[i]
        groups.setdefault((x0s[i].tobytes(), ball.center.tobytes(), ball.radius), (ball, []))[1].append(i)
    grids = {}
    for ball, members in groups.values():
        grid = _grid_axes(as_vector(ball.center, F.n), ball.radius, per_axis)
        h = 2.0 * ball.radius / max(per_axis - 1, 1)
        if F.n == 1 and F.m == 1:
            found = F.preimage_1d(x0s[members[0]], np.array([ys[i][0] for i in members]), grid, norm, tol_feas)
            for i, hit in zip(members, found or ()):
                out[i] = hit
        grids.update((i, (grid, h)) for i in members)
    left = [i for i in todo if out[i] is None]
    if left:
        stage = _preimage_on_grid(F, [x0s[i] for i in left], [ys[i] for i in left],
                                  [grids[i] for i in left], per_axis, tol_feas, norm, refine_steps)
        for i, found in zip(left, stage):
            out[i] = found
    return out


def _preimage_on_grid(F: SetMap, x0s, ys, grids, per_axis: int, tol_feas, norm, refine_steps) -> list:
    """The grid stage for every target left: target t searches the grid
    ``grids[t]`` = (points, spacing) from ``x0s[t]``.  Its starts are the
    nearest feasible grid points, or else the local minima of infeasibility;
    all restorations of all targets run as one lockstep polish, then all
    feasible starts are polished toward their own x0 as another, and each
    target keeps the first nearest of its starts."""
    starts, owner, restoring = [], [], []
    for t, (x0, y, (grid, _)) in enumerate(zip(x0s, ys, grids)):
        feas = dist_to_value_set_batch(y, F, grid, norm, finite=False)
        dists = _vec_dists(grid, x0, norm)
        feasible = feas <= tol_feas
        restore = not np.any(feasible)
        if restore:
            picked = _local_minima_indices(feas, per_axis, F.n, limit=4 if F.n == 1 else 8)
        else:
            picked = [i for i in np.argsort(np.where(feasible, dists, INF))[:4] if feasible[i]]
        starts += [grid[i] for i in picked]
        owner += [t] * len(picked)
        restoring += [restore] * len(picked)
    out = [(INF, None)] * len(ys)
    if not starts:
        return out
    X, owner = np.array(starts), np.array(owner)
    Y, X0, H = np.array(ys)[owner], np.array(x0s)[owner], np.array([h for _, h in grids])[owner]
    keep = ~np.array(restoring)
    if not keep.all():
        # no grid point of these targets is feasible: restore feasibility first
        r = np.nonzero(~keep)[0]
        Yr = Y[r]
        X[r], resid = _coordinate_polish(
            lambda Z, sub: dist_to_value_set_batch(Yr[sub], F, Z, norm),
            None, X[r], H[r], refine_steps + 35, target=tol_feas / 4,
        )
        keep[r] = resid <= tol_feas
    lanes = np.nonzero(keep)[0]
    if not lanes.size:
        return out
    Xp, Yp, X0p = X[lanes], Y[lanes], X0[lanes]
    Xp, d = _coordinate_polish(
        lambda Z, sub: _vec_dists(Z, X0p[sub], norm),
        lambda Z, sub: dist_to_value_set_batch(Yp[sub], F, Z, norm) <= tol_feas,
        Xp, H[lanes], refine_steps,
    )
    for x, t, dist in zip(Xp, owner[lanes].tolist(), d.tolist()):
        if dist < out[t][0]:
            out[t] = (dist, x)
    return out


def _local_minima_indices(feas: np.ndarray, per_axis: int, n: int, limit: int) -> list[int]:
    """The ``limit`` most promising restoration starts on a grid of
    infeasibilities, lowest first (ties in index order): in 1D the local
    minima, plateaus included, else the 4 * limit lowest points."""
    if n == 1:
        low = np.ones(feas.size, dtype=bool)
        low[1:] &= feas[1:] <= feas[:-1]
        low[:-1] &= feas[:-1] <= feas[1:]
        idx = np.nonzero(low)[0]
    else:
        idx = np.argsort(feas)[: 4 * limit]
    return idx[np.argsort(feas[idx], kind="stable")][:limit].tolist()


def dist_to_preimage(
    x0,
    F: SetMap,
    y,
    region: Ball | None = None,
    tol_feas: float = TOL_FEAS,
    norm: str = "euclidean",
    resolution: int = 401,
    refine_steps: int = 25,
) -> float:
    """Distance from x0 to F^{-1}(y): the distance of :func:`preimage_search`."""
    return preimage_search(x0, F, y, region, tol_feas, norm, resolution, refine_steps)[0]


# ---------------------------------------------------------------------------
# graph sampling


def _value_candidates(F: SetMap, x, center_y, radius, rng, count, norm) -> list[np.ndarray]:
    """Up to ``count`` members of F(x) within ``radius`` of ``center_y``."""
    vs = F.value_set(x)
    if vs.is_empty():
        return []
    try:
        return vs.members_near(center_y, radius, count, rng, norm)
    except UnsupportedOperation:
        return []


class _GraphSampler:
    """One :func:`graph_sample` call: its seeded stream and the points kept."""

    def __init__(self, F: SetMap, center: GraphPoint, radius: float, count: int, seed: int, norm: str, tol_feas: float):
        self.F, self.radius, self.count, self.seed, self.norm, self.tol_feas = F, radius, count, seed, norm, tol_feas
        self.rng = SplitMix64(derive_seed(seed, "graph_sample"))
        self.cx, self.cy = as_vector(center.x, F.n), as_vector(center.y, F.m)
        self.out: list[GraphPoint] = []

    def domain(self) -> list[np.ndarray]:
        if self.cx.size == 1:
            pts = shell_points_1d(float(self.cx[0]), 0.0, self.radius, 3 * self.count)
            return [np.array([p]) for p in pts]
        return [self.rng.in_ball(self.cx, self.radius, "max") for _ in range(3 * self.count)]

    def push(self, x, y) -> None:
        """Keep (x, y) when it lies in the product ball and on the graph."""
        if vec_dist(x, self.cx, self.norm) <= self.radius + 1e-12 and vec_dist(y, self.cy, self.norm) <= self.radius + 1e-12:
            if dist_to_value_set(y, self.F, x, self.norm) <= self.tol_feas:
                self.out.append(GraphPoint(x, y))

    def near_members(self) -> list[GraphPoint]:
        """The generic sampler: up to two members of each sampled F(x) near the centre."""
        for x in self.domain():
            for y in _value_candidates(self.F, x, self.cy, self.radius, self.rng, 2, self.norm):
                self.push(x, y)
            if len(self.out) >= self.count:
                break
        return self.out


def graph_sample(
    F: SetMap,
    center: GraphPoint,
    radius: float,
    count: int,
    seed: int = 42,
    norm: str = "euclidean",
    tol_feas: float = TOL_FEAS,
) -> list[GraphPoint]:
    """Seeded graph points within the product ball of ``radius`` around ``center``.

    Every returned point is feasibility-checked; an empty list means the graph
    was not seen in the region (which is not an error).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if count < 1:
        raise ValueError("count must be >= 1")
    return F.sample_graph(_GraphSampler(F, center, radius, count, seed, norm, tol_feas))[:count]


# ---------------------------------------------------------------------------
# JSON construction


def _compile_branch(entry, n: int, m: int):
    exprs = [entry] if isinstance(entry, str) else list(entry)
    if len(exprs) != m:
        raise ValueError(f"branch needs {m} coordinate expressions, got {len(exprs)}")
    fns = [compile_expression(e, n) for e in exprs]
    if m == 1:
        return fns[0]

    def branch(x):
        x = np.asarray(x, dtype=float)
        return np.array([f(x) for f in fns])

    return branch


def build_setmap(desc: dict) -> SetMap:
    """Construct a SetMap from its JSON description (strict keys)."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ValueError("set map description needs a 'kind' tag")
    kind = desc["kind"]
    known = {
        "single": {"kind", "expr", "n", "m"},
        "finite": {"kind", "branches", "n", "m"},
        "epigraph": {"kind", "expr", "n"},
        "linear": {"kind", "matrix"},
        "normal_cone_box": {"kind", "lo", "hi"},
        "polyhedral_graph": {"kind", "pieces", "n", "m"},
        "sum": {"kind", "f", "g"},
        "inverse": {"kind", "base"},
    }
    if kind not in known:
        raise ValueError(f"unknown set map kind {kind!r}")
    extra = set(desc) - known[kind]
    if extra:
        raise ValueError(f"unknown keys for kind {kind!r}: {sorted(extra)}")
    if kind == "single":
        n, m = int(desc.get("n", 1)), int(desc.get("m", 1))
        return SingleValued(_compile_branch(desc["expr"], n, m), n, m)
    if kind == "finite":
        n, m = int(desc.get("n", 1)), int(desc.get("m", 1))
        branches = [_compile_branch(b, n, m) for b in desc["branches"]]
        return FiniteValued(branches, n, m)
    if kind == "epigraph":
        n = int(desc.get("n", 1))
        return Epigraph(compile_expression(desc["expr"], n), n)
    if kind == "linear":
        return LinearOp(np.asarray(desc["matrix"], dtype=float))
    if kind == "normal_cone_box":
        return NormalConeBox(desc["lo"], desc["hi"])
    if kind == "polyhedral_graph":
        pieces = [(p["normals"], p["offsets"]) for p in desc["pieces"]]
        return PolyhedralGraph(pieces, int(desc["n"]), int(desc["m"]))
    if kind == "sum":
        return SumMap(build_setmap(desc["f"]), build_setmap(desc["g"]))
    return InverseView(build_setmap(desc["base"]))
