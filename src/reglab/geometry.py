"""Vectors, norms, balls and graph points in R^n, and the JSON encoding.

The product metric on X × Y is the coordinatewise max of the component
distances throughout the package.

Every report is written through ``jsonable``: dataclasses become dicts of
their fields, arrays and tuples become lists, numpy scalars become floats,
and non-finite floats become the strings "inf", "-inf" and "nan", so report
files are strict JSON.  Report dataclasses inherit ``JsonReport``, whose
``to_json_dict`` is ``jsonable(self)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

#: absolute feasibility tolerance for graph membership
TOL_FEAS = 1e-8
#: slack used when testing strict inequalities from theorem premises
STRICT_SLACK = 1e-12

NORM_KINDS = ("euclidean", "max")


class DimensionMismatch(ValueError):
    pass


class DomainError(ValueError):
    pass


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Validate and coerce to a finite 1D float array of dimension >= 1 (a float64 1D array as it is)."""
    v = x if type(x) is np.ndarray and x.dtype == np.float64 else np.asarray(x)
    if v.dtype != np.float64:
        if np.iscomplexobj(v):
            raise ValueError("vector entries must be real")
        v = v.astype(float)
    v = v.reshape(1) if v.ndim == 0 else v
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatch(f"expected a 1D vector, got shape {v.shape}")
    if not (math.isfinite(v[0]) if v.size == 1 else np.isfinite(v).all()):
        raise ValueError("vector entries must be finite")
    if dim is not None and v.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {v.size}")
    return v


def _real(vals) -> np.ndarray:
    """Function values as a float array; a complex one raises ValueError, as ``as_vector`` does."""
    vals = np.asarray(vals)
    if np.iscomplexobj(vals):
        raise ValueError("vector entries must be real")
    return np.asarray(vals, dtype=float)


def vec_norm(v: np.ndarray, norm: str = "euclidean") -> float:
    if norm == "euclidean":
        return float(np.linalg.norm(v))
    if norm == "max":
        return float(np.max(np.abs(v))) if v.size else 0.0
    raise ValueError(f"unknown norm kind {norm!r}")


def vec_dist(a, b, norm: str = "euclidean") -> float:
    return vec_norm(np.asarray(a, dtype=float) - np.asarray(b, dtype=float), norm)


@dataclass(frozen=True)
class Ball:
    """Closed (default) or open ball."""

    center: np.ndarray
    radius: float
    closed: bool = True

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")

    def contains(self, x, norm: str = "euclidean", tol: float = 0.0) -> bool:
        d = vec_dist(x, self.center, norm)
        return d <= self.radius + tol if self.closed else d < self.radius - tol


@dataclass(frozen=True)
class GraphPoint:
    """A pair (x, y) intended to lie on the graph of a set-valued map."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", as_vector(self.x))
        object.__setattr__(self, "y", as_vector(self.y))


def jsonable(obj):
    """``obj`` as plain JSON data: dict, list, str, int, finite float, bool or None."""
    if isinstance(obj, (float, np.floating)):
        obj = float(obj)
        return obj if math.isfinite(obj) else str(obj)
    if obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, list) and all(type(v) is float and math.isfinite(v) for v in obj):
        return list(obj)  # already JSON: skip the call per scalar
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        arr = obj.astype(float) if obj.dtype.kind in "iu" else obj
        # float64 and narrower list as Python floats; finite ones need no encoding
        if arr.dtype.kind == "f" and arr.dtype.itemsize <= 8 and np.isfinite(arr).all():
            return arr.tolist()
        return jsonable(arr.tolist())
    if isinstance(obj, np.integer):
        return float(obj)
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in fields(obj)}
    return obj


class JsonReport:
    """Mixin for report dataclasses: the JSON form is every field, encoded."""

    def to_json_dict(self) -> dict:
        return jsonable(self)
