"""The infimum of a scalar function over intervals of R, many at a time.

This is the interval arithmetic behind the covering rate of a 1D epigraph
(``Epigraph.covered_c``): F(B[x, t]) = [inf of f over [x - t, x + t], +inf).
Each infimum is the least of a grid of values, polished by probes at x + s
and x - s with a halving step s; ``_inf_on_intervals`` runs the polish of
all intervals of a ``sur`` shell in lockstep, with one call of f per block
of grid points and one per block of polish rounds.
"""

from __future__ import annotations

import numpy as np

from .setmaps import _eval_rows, _eval_vectorized


#: polish rounds whose probes ``_inf_on_intervals`` evaluates in one call.  k
#: rounds may probe 4^k - 1 points per interval.  On the 68 intervals of a sur
#: shell (2-core VM, two runs of 21, medians) k = 1, 2 and 3 took 4.1/4.5,
#: 3.9/5.0 and 4.6/5.1 ms on the staircase epigraph and 2.9/3.5, 2.8/3.5 and
#: 3.2/3.8 ms on abs(x): k = 1 and 2 tie within the run-to-run spread, and
#: k = 2 calls f half as often
_PROBE_ROUNDS = 2

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


def _probe_points(x, step, rounds: int, lo, hi) -> np.ndarray:
    """Every point the next ``rounds`` polish rounds of ``_inf_on_intervals``
    may probe from x: a (..., 4^rounds - 1) array shaped like x plus one axis.

    The nodes of the probe tree are numbered breadth first: node i at p
    probes clamp(p + s) (kind 1), then clamp(p1 - s) (kind 2) when the first
    probe moved p to p1, else clamp(p - s) (kind 3), which sit at
    3 i + kind - 1; its children 4 i + 1 + outcome sit at p, p1, p1 - s and
    p - s (outcomes 0 to 3).  Entries are keyed by tree position, so equal
    floats of different nodes (0.0 and -0.0 too) never share one.
    """
    x, step, lo, hi = (np.asarray(v, dtype=float)[..., None] for v in np.broadcast_arrays(x, step, lo, hi))
    levels, frontier = [], x  # frontier[..., i]: the i-th node of a level
    for _ in range(rounds):
        p1 = _clamp(frontier + step, lo, hi)
        probes = np.stack([p1, _clamp(p1 - step, lo, hi), _clamp(frontier - step, lo, hi)], axis=-1)
        levels.append(probes.reshape(*probes.shape[:-2], -1))
        frontier = np.concatenate([frontier[..., None], probes], axis=-1).reshape(*probes.shape[:-2], -1)
        step = step * 0.5
    return np.concatenate(levels, axis=-1)


def _polish_block(f, x, best, step, rounds: int, lo, hi, batched: bool):
    """``rounds`` polish rounds of every interval in lockstep: probes at x + s
    and then x - s, clamped to [lo, hi], each kept on a strict decrease, with s
    halving every round.  The probes are read off the probe tree
    (``_probe_points``) and their values from one call on it; where that call
    fails, each interval of the block takes its own call, and a lone interval
    without one (or whose grid was evaluated point by point) makes one 0-d
    call per probe, NaN (never a decrease) where it raises.  Returns the new
    (x, best, step)."""
    pts = _probe_points(x, step, rounds, lo, hi)
    table = _eval_vectorized(f, pts.reshape(-1, 1), 1, 1, finite=False) if batched else None
    if table is None and batched and x.size > 1:
        parts = [_polish_block(f, x[j:j + 1], best[j:j + 1], step[j:j + 1], rounds, lo[j:j + 1], hi[j:j + 1], True)
                 for j in range(x.size)]
        return tuple(np.concatenate(p) for p in zip(*parts))
    table = None if table is None else table.reshape(pts.shape)
    rows = np.arange(x.size)
    node = np.zeros(x.size, dtype=np.intp)
    for _ in range(rounds):
        outcome = np.zeros(x.size, dtype=np.intp)
        for first in (True, False):
            kind = 1 if first else np.where(outcome > 0, 2, 3)
            at = 3 * node + kind - 1
            z = pts[rows, at]
            fz = table[rows, at] if table is not None else _eval_rows(f, z, 1, 1, finite=False, skip=True)[0][:, 0]
            better = fz < best
            x, best = np.where(better, z, x), np.where(better, fz, best)
            outcome = np.where(better, kind, outcome)
        node = 4 * node + 1 + outcome
        step = step * 0.5
    return x, best, step


def _inf_on_intervals(f, lo, hi, resolution: int = 1601, polish: int = 30) -> list[float]:
    """inf of f over each [lo[i], hi[i]]: the least of ``resolution`` grid
    values, then ``polish`` rounds of probes at x + s and x - s with a halving
    step s, all intervals in lockstep.

    f is called on the stacked grids in blocks of about ``_GRID_BLOCK``
    points, then once per block of ``_PROBE_ROUNDS`` rounds on the probe
    table of every interval, which assumes that f gives the same values on an
    array as on each 0-d point.  The intervals of a grid block on which f
    raises or gives the wrong shape are answered alone; a lone interval whose
    grid fails takes its grid point by point and each probe as its own 0-d
    call, skipping a probe that raises.
    """
    lo, hi = (np.asarray(v, dtype=float).reshape(-1) for v in (lo, hi))
    if not lo.size:
        return []
    x, best = np.empty(lo.size), np.empty(lo.size)
    batched = np.ones(lo.size, dtype=bool)
    block = max(1, _GRID_BLOCK // resolution)
    for start in range(0, lo.size, block):
        rows = slice(start, start + block)
        xs = _linspace_rows(lo[rows], hi[rows], resolution)
        vals = _eval_vectorized(f, xs.reshape(-1, 1), 1, 1, finite=False)
        batched[rows] = vals is not None
        if vals is not None:
            x[rows], best[rows] = _grid_min(xs, vals.reshape(xs.shape))
    if batched.all():
        return _polish(f, x, best, lo, hi, resolution, polish, True).tolist()
    if lo.size == 1:
        xs = _linspace_rows(lo, hi, resolution)
        # its batch failed above: one call per point, not that batch again
        vals = [_eval_rows(f, p, 1, 1, finite=False)[0] for p in xs.reshape(-1, 1, 1)]
        x, best = _grid_min(xs, np.concatenate(vals).T)
        return _polish(f, x, best, lo, hi, resolution, polish, False).tolist()
    out = np.empty(lo.size)
    for i in np.flatnonzero(~batched).tolist():
        out[i] = _inf_on_intervals(f, lo[i:i + 1], hi[i:i + 1], resolution, polish)[0]
    if batched.any():
        out[batched] = _polish(f, x[batched], best[batched], lo[batched], hi[batched], resolution, polish, True)
    return out.tolist()


def _grid_min(xs: np.ndarray, vals: np.ndarray):
    """The first least value of each row of vals and its grid point."""
    rows = np.arange(len(xs))
    i = np.argmin(vals, axis=1)
    return xs[rows, i], vals[rows, i]


def _polish(f, x, best, lo, hi, resolution: int, polish: int, batched: bool) -> np.ndarray:
    """The polish of ``_inf_on_intervals`` from the grid minima (x, best)."""
    step = (hi - lo) / (resolution - 1)
    # not _coordinate_polish: the step halves every round, moved or not, and
    # moves clamp to [lo, hi]
    for start in range(0, polish, _PROBE_ROUNDS):
        x, best, step = _polish_block(f, x, best, step, min(_PROBE_ROUNDS, polish - start), lo, hi, batched)
    return best


def _inf_on_interval(f, lo: float, hi: float, resolution: int = 1601, polish: int = 30) -> float:
    """inf of f over [lo, hi]: the one-interval call of :func:`_inf_on_intervals`."""
    return _inf_on_intervals(f, [lo], [hi], resolution, polish)[0]
