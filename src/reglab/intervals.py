"""The infimum of a scalar function over intervals of R, many at a time.

This is the interval arithmetic behind the covering rate of a 1D epigraph
(``Epigraph.covered_c``): F(B[x, t]) = [inf of f over [x - t, x + t], +inf).
Each infimum is the least of a grid of values, polished by probes at x + s
and then x - s with a halving step s.  ``_inf_on_intervals`` runs the polish
of all intervals of a ``sur`` shell in lockstep: one call of f per block of
grid points, and one per probe of a round, on that probe of every interval.
"""

from __future__ import annotations

import numpy as np

from .setmaps import _eval_rows

#: grid points per call of f in ``_inf_on_intervals`` (whole intervals, at
#: least one), which bounds the arrays f makes
_GRID_BLOCK = 8192


def _clamp(v, lo, hi):
    """min(max(v, lo), hi) elementwise, with the picks of Python's min and max
    (a tie keeps v, so -0.0 and 0.0 stay apart)."""
    v = np.where(lo > v, lo, v)
    return np.where(hi < v, hi, v)


def _linspace_rows(lo: np.ndarray, hi: np.ndarray, num: int) -> np.ndarray:
    """np.linspace(lo[i], hi[i], num) as row i, bit for bit: a zero step in one
    row switches np.linspace to another formula for every row, so the rows with
    a zero step take their own call."""
    out = np.empty((lo.size, num))
    with np.errstate(all="ignore"):
        zero = (hi - lo) / max(num - 1, 1) == 0
    for rows in (~zero, zero):
        if rows.any():
            out[rows] = np.linspace(lo[rows], hi[rows], num, axis=1)
    return out


def _inf_on_intervals(f, lo, hi, resolution: int = 1601, polish: int = 30, vectorized: bool = True) -> list[float]:
    """inf of f over each [lo[i], hi[i]]: the least of ``resolution`` grid
    values, then ``polish`` rounds of probes at x + s and x - s with a halving
    step s, each kept on a strict decrease, all intervals in lockstep.

    f is called on the stacked grids in blocks of about ``_GRID_BLOCK``
    points; a block whose call fails takes one call per point, which raises
    where f raises.  Each probe of a round is then one call at that probe of
    every interval; where it fails, each probe takes its own 0-d call, and a
    probe that raises is skipped.  This assumes that f gives the same values
    on an array as on each point.  With ``vectorized`` False every call of f
    gets one point.
    """
    lo, hi = (np.asarray(v, dtype=float).reshape(-1) for v in (lo, hi))
    if not lo.size:
        return []
    x, best = np.empty(lo.size), np.empty(lo.size)
    block = max(1, _GRID_BLOCK // resolution)
    for start in range(0, lo.size, block):
        rows = slice(start, start + block)
        xs = _linspace_rows(lo[rows], hi[rows], resolution)
        vals = _eval_rows(f, xs.reshape(-1, 1), 1, 1, finite=False, vectorized=vectorized)[0]
        x[rows], best[rows] = _grid_min(xs, vals.reshape(xs.shape))
    step = (hi - lo) / (resolution - 1)
    # not _coordinate_polish: the step halves every round, moved or not, and
    # moves clamp to [lo, hi]
    for _ in range(polish):
        for s in (step, -step):
            z = _clamp(x + s, lo, hi)
            fz = _eval_rows(f, z, 1, 1, finite=False, skip=True, vectorized=vectorized)[0][:, 0]
            better = fz < best
            x, best = np.where(better, z, x), np.where(better, fz, best)
        step = step * 0.5
    return best.tolist()


def _grid_min(xs: np.ndarray, vals: np.ndarray):
    """The first least value of each row of vals and its grid point."""
    rows = np.arange(len(xs))
    i = np.argmin(vals, axis=1)
    return xs[rows, i], vals[rows, i]
