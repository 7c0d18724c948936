"""Sampled estimation of regularity moduli, plus linear/conic closed forms.

Every modulus is estimated by evaluating its defining quotient on geometric
shells around the reference point: radii r_j = r0·rho^j, a per-shell infimum
or supremum depending on the modulus, the last shell as the reported value,
and the spread of the last three shells as a convergence bracket.  This is an
honest finite surrogate for the limes-inferior definitions; all sampling is
seeded and recorded.

Closed forms: singular values for linear operators, the primal covering
formula for convex processes, star-shaped-graph lower bounds, the slope
sandwich, and polyhedral Fréchet coderivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import TOL_FEAS, Ball, DimensionMismatch, GraphPoint, JsonReport, as_vector, jsonable, vec_dist
from .intervals import _linspace_rows
from .rng import SplitMix64, derive_seed, shell_points, sphere_directions
from .setmaps import (
    INF,
    QUOTIENT_CAP,
    SetMap,
    UnsupportedOperation,
    _ball_grid,
    _bisect_threshold,
    _cone_cover_rates,
    _coordinate_polish,
    _eval_rows,
    _eval_vectorized,
    _value_candidates,
    dist_to_preimage,
    dist_to_value_set,
    dist_to_value_set_batch,
    graph_sample,
    preimage_search_many,
    scalar_branches,
)

MODULUS_KINDS = ("sur", "reg", "lip", "lopen", "semireg", "subreg", "psopen", "calm", "displacement")

#: which shell statistic each modulus uses
_INF_KINDS = {"sur", "lopen", "psopen", "displacement"}


class NotOnGraph(ValueError):
    pass


class NotEvaluable(ValueError):
    """The map raises, or gives a non-finite value, at the reference point."""


@dataclass(frozen=True)
class LiminfSchedule:
    """Geometric shell schedule r_j = r0 * rho^j."""

    r0: float = 0.1
    rho: float = 0.5
    shells: int = 8
    samples_per_shell: int = 64

    def __post_init__(self):
        if self.r0 <= 0 or not (0 < self.rho < 1) or self.shells < 3:
            raise ValueError("need r0 > 0, rho in (0,1), shells >= 3")

    def radii(self) -> list[float]:
        return [self.r0 * self.rho**j for j in range(self.shells)]


@dataclass
class ModulusEstimate(JsonReport):
    kind: str
    point: GraphPoint
    value: float
    bracket: tuple[float, float]
    shell_infima: list[float]
    schedule: LiminfSchedule
    seed: int
    norm: str
    samples_used: int = 0
    notes: list[str] = field(default_factory=list)


def _assemble(kind, point, shell_stats, schedule, seed, norm, samples, notes) -> ModulusEstimate:
    stats = [s if s is not None else (INF if kind in _INF_KINDS else 0.0) for s in shell_stats]
    capped = [INF if s > QUOTIENT_CAP else s for s in stats]
    value = capped[-1]
    tail = capped[-3:]
    bracket = (min(tail), max(tail))
    return ModulusEstimate(
        kind=kind,
        point=point,
        value=value,
        bracket=bracket,
        shell_infima=capped,
        schedule=schedule,
        seed=seed,
        norm=norm,
        samples_used=samples,
        notes=notes,
    )


def check_on_graph(F: SetMap, point: GraphPoint, tol: float = TOL_FEAS, norm: str = "euclidean") -> None:
    try:
        d = dist_to_value_set(point.y, F, point.x, norm)
    except (DimensionMismatch, UnsupportedOperation):
        raise
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise NotEvaluable(f"the map cannot be evaluated at the reference point: {type(exc).__name__}: {exc}") from exc
    if math.isnan(d):
        raise NotEvaluable("the map cannot be evaluated at the reference point: its distance there is NaN")
    if d > tol:
        raise NotOnGraph(f"reference point is {d:.3g} away from the graph (tol {tol:g})")


# ---------------------------------------------------------------------------
# covering rate at a single graph point: sup{c : B[y, c t] subset F(B[x, t])}


def _bridged_structure_1d(curves: list[np.ndarray]):
    """Points/intervals attained by continuous-looking branch polylines.

    Consecutive branch values are bridged into an interval only when the jump
    is consistent with a locally Lipschitz branch; larger jumps split the
    polyline so discontinuities are never bridged over.
    """
    points: list[float] = []
    intervals: list[tuple[float, float]] = []

    def emit(segment: np.ndarray):
        lo, hi = float(segment.min()), float(segment.max())
        if hi - lo > 1e-14:
            intervals.append((lo, hi))
        else:
            points.append(lo)

    for vals in curves:
        if vals.size == 1:
            points.append(float(vals[0]))
            continue
        gaps = np.abs(np.diff(vals))
        positive = gaps[gaps > 1e-14]
        typical = float(np.median(positive)) if positive.size else 0.0
        cut = max(8.0 * typical, 1e-12)
        start = 0
        for i in np.flatnonzero(gaps > cut):
            emit(vals[start : i + 1])
            start = i + 1
        emit(vals[start:])
    return points, intervals


def _bridged_structure_rows(curves: list[np.ndarray], rows: np.ndarray):
    """``_bridged_structure_1d`` of each row of the (k, L) branch curves, flat
    as (point rows, points, interval rows, intervals), labelled with ``rows``
    and in the order that function lists them per row.

    A row whose curves need no cut gives one segment per branch, from one
    min and max over all such rows; rows with the same number of positive
    gaps share one np.partition median (np.median of the same numbers, bit
    for bit).  A row with a cut takes the per-row function.
    """
    k = curves[0].shape[0]
    cut = np.zeros(k, dtype=bool)
    for vals in curves:
        gaps = np.abs(np.diff(vals, axis=1))
        positive = gaps > 1e-14
        count = positive.sum(axis=1)
        typical = np.zeros(k)
        for c in np.unique(count[count > 0]).tolist():
            same = count == c
            h = c // 2
            part = np.partition(gaps[same][positive[same]].reshape(-1, c), [h - 1, h] if c % 2 == 0 else h, axis=1)
            typical[same] = part[:, h] if c % 2 else (part[:, h - 1] + part[:, h]) / 2.0
        cut |= (gaps > np.maximum(8.0 * typical, 1e-12)[:, None]).any(axis=1)
    pieces = []  # (point rows, points, interval rows, intervals)
    whole = ~cut
    for vals in curves:
        lo, hi = vals[whole].min(axis=1), vals[whole].max(axis=1)
        wide = hi - lo > 1e-14
        pieces.append((rows[whole][~wide], lo[~wide], rows[whole][wide], np.stack([lo[wide], hi[wide]], axis=1)))
    for i in np.flatnonzero(cut).tolist():
        pp, ii = _bridged_structure_1d([vals[i] for vals in curves])
        pieces.append(([rows[i]] * len(pp), pp, [rows[i]] * len(ii), ii))
    return _stack_structures(pieces)


def _stack_structures(pieces):
    """One flat structure (point rows, points, interval rows, intervals) from flat pieces."""
    return tuple(
        np.concatenate([np.asarray(p[j], dtype=dtype).reshape(shape) for p in pieces])
        for j, dtype, shape in ((0, np.intp, -1), (1, float, -1), (2, np.intp, -1), (3, float, (-1, 2)))
    )


def _ray_coverage_rows(origin: np.ndarray, direction: float, gap_tol: np.ndarray, structure) -> np.ndarray:
    """``_ray_coverage_1d`` of each row of a flat structure (point rows, points,
    interval rows, intervals), with one origin and gap_tol per row.

    The segments go into a (k, L) array padded with lo = hi = +inf, which
    also takes the segments that end before -gap_tol.  A pad comes after
    every real segment and stops the sweep where the unpadded sweep ends (a
    cover that reached +inf stays +inf).  Each row is sorted by lo alone:
    among equal lo only the first can stop the sweep, and the cover after
    them is the max of their hi in any order.
    """
    pt_row, pts, iv_row, ivs = structure
    k = origin.size
    s = (pts - origin[pt_row]) * direction
    iv = (ivs - origin[iv_row, None]) * direction
    a, b = iv[:, 0], iv[:, 1]
    row = np.concatenate([pt_row, iv_row])
    by_row = np.argsort(row, kind="stable")
    row = row[by_row]
    counts = np.bincount(row, minlength=k)
    width = int(counts.max(initial=0)) + 1  # at least one pad per row
    at = row * width + np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)
    LO, HI = np.full(k * width, INF), np.full(k * width, INF)
    LO[at] = np.concatenate([s - gap_tol[pt_row], np.where(b < a, b, a)])[by_row]
    HI[at] = np.concatenate([s + gap_tol[pt_row], np.where(b > a, b, a)])[by_row]
    LO, HI = LO.reshape(k, width), HI.reshape(k, width)
    behind = ~(HI >= -gap_tol[:, None])
    LO[behind] = HI[behind] = INF
    order = (np.argsort(LO, axis=1, kind="stable") + np.arange(0, k * width, width)[:, None]).ravel()
    LO, HI = LO.ravel()[order].reshape(k, width), HI.ravel()[order].reshape(k, width)
    cur = np.maximum.accumulate(np.hstack([np.zeros((k, 1)), HI]), axis=1)  # cur[:, i]: covered end before segment i
    stop = LO > cur[:, :-1] + gap_tol[:, None]
    end = np.where(stop.any(axis=1), stop.argmax(axis=1), width)
    return np.maximum(cur[np.arange(k), end], 0.0) + 0.0  # + 0.0: never -0.0


def _ray_coverage_1d(origin: float, direction: float, points, intervals, gap_tol: float) -> float:
    """Largest rho with [origin, origin + rho*direction] covered contiguously:
    a sweep of the segments in lo order, exact since sorting and max do no
    rounding.  The one-row call of :func:`_ray_coverage_rows`."""
    pts = np.asarray(points, dtype=float).reshape(-1)
    ivs = np.asarray(intervals, dtype=float).reshape(-1, 2)
    structure = (np.zeros(pts.size, dtype=np.intp), pts, np.zeros(len(ivs), dtype=np.intp), ivs)
    return float(_ray_coverage_rows(np.array([origin], dtype=float), direction, np.array([gap_tol]), structure)[0])


#: grid points per batch of balls on the 1D ray coverage path, which bounds
#: the stacked grids, branch curves and sweep arrays
_COVER_BLOCK = 8192


def largest_covered_c(
    F: SetMap,
    x,
    y,
    t: float,
    norm: str = "euclidean",
    directions: int = 32,
    resolution: int = 801,
    cap: float = QUOTIENT_CAP,
    seed: int = 42,
) -> float:
    """sup{c >= 0 : B[y, c t] subset F(B[x, t])}, sampled: the one-query call
    of :func:`largest_covered_c_many`, which says how each kind is answered."""
    return largest_covered_c_many(F, [x], [y], [t], norm, directions, resolution, cap, seed)[0]


def largest_covered_c_many(
    F: SetMap,
    X,
    Y,
    T,
    norm: str = "euclidean",
    directions: int = 32,
    resolution: int = 801,
    cap: float = QUOTIENT_CAP,
    seed: int = 42,
) -> list[float]:
    """sup{c >= 0 : B[Y[i], c T[i]] subset F(B[X[i], T[i]])} for each query i, capped.

    The map kind's own answer where it has one (``SetMap.covered_c``: exact
    for linear operators; interval arithmetic for epigraphs, whose 1D
    interval infima are polished in lockstep); otherwise ray coverage of the
    attained value structure for one-dimensional ranges, with the branch
    curves of all balls evaluated together, and sampled target grids, one
    query at a time, elsewhere.  Sampling can overestimate coverage when
    failures are sparse, which is documented behavior.
    """
    X = np.array([as_vector(x, F.n) for x in X]).reshape(-1, F.n)
    Y = np.array([as_vector(y, F.m) for y in Y]).reshape(-1, F.m)
    T = np.asarray(T, dtype=float).reshape(-1)
    if not T.size:
        return []

    closed = F.covered_c(X, Y, T, norm, directions, resolution, seed)
    if closed is not None:
        return [min(c, cap) for c in closed]

    if F.m == 1:
        rates = []
        block = max(1, _COVER_BLOCK // resolution)
        for i in range(0, T.size, block):
            rows = slice(i, i + block)
            structure = _attained_structures_1d(F, X[rows], T[rows], resolution, norm)
            gap_tol = np.array([max(1e-9, 1e-9 * t) for t in T[rows].tolist()])
            up, down = (_ray_coverage_rows(Y[rows, 0], v, gap_tol, structure).tolist() for v in (1.0, -1.0))
            rates += [min(INF, a / t, b / t, cap) for a, b, t in zip(up, down, T[rows].tolist())]
        return rates

    return [_covered_c_nd(F, x, y, t, norm, directions, seed, cap) for x, y, t in zip(X, Y, T)]


def _attained_structures_1d(F: SetMap, X: np.ndarray, T: np.ndarray, resolution: int, norm: str):
    """Attained points and intervals of F over each ball B[X[i], T[i]] for 1D
    ranges, flat as in ``_bridged_structure_rows``.

    For n = 1 the balls' grids are stacked: each scalar branch is evaluated
    once on all of them (a ball whose branch fails there is tried alone), the
    balls whose branches all pass are bridged together, and the rest take
    ``_descriptor_structure`` on their stacked grids.  For n >= 2 each ball
    takes ``_descriptor_structure`` on its own grid.
    """
    rows = np.arange(T.size)
    if F.n != 1:
        return _stack_structures([_descriptor_structure(F, [i], _ball_grid(x, t, 41, norm))
                                  for i, (x, t) in enumerate(zip(X, T))])
    xs = _linspace_rows(X[:, 0] - T, X[:, 0] + T, resolution)
    # a ball's grid is one point of the branch's curve, answered by one call
    # of the branch (where that call fails, reshaping None raises and the
    # ball stays unanswered): every ball in one call, else each ball alone.
    # A NaN or infinite value stays in the curve (the ball may leave the domain)
    curves = [_eval_rows(lambda Z, b=b: _eval_vectorized(b, Z.reshape(-1, 1), 1, 1, finite=False).reshape(Z.shape),
                         xs, resolution, resolution, finite=False, skip=True) for b in scalar_branches(F) or []]
    ok = np.all([c[1] for c in curves], axis=0) if curves else np.zeros(T.size, dtype=bool)
    pieces = []
    if ok.any():
        pieces.append(_bridged_structure_rows([c[0][ok] for c in curves], rows[ok]))
    if not ok.all():
        pieces.append(_descriptor_structure(F, rows[~ok], xs[~ok].reshape(-1, 1)))
    return _stack_structures(pieces)


def _attained_structure_1d(F: SetMap, x: np.ndarray, t: float, resolution: int, norm: str):
    """Attained (points, intervals, gap_tol) of F over B[x, t] for 1D ranges:
    the one-ball call of :func:`_attained_structures_1d`."""
    _, pts, _, ivs = _attained_structures_1d(F, x[None, :], np.array([t], dtype=float), resolution, norm)
    return pts.tolist(), [tuple(iv) for iv in ivs.tolist()], max(1e-9, 1e-9 * t)


def _descriptor_structure(F: SetMap, rows, grid: np.ndarray):
    """Attained structure of F over the stacked grids (of equal length) of the
    balls ``rows``, from its values: the branch values where the kind has
    them (listed row-major, as value_set lists them; several branches give
    points only), else one value set per grid point."""
    rows = np.asarray(rows, dtype=np.intp)
    outs = F.branch_values(grid)
    if outs is not None:
        vals = np.stack([o.reshape(rows.size, -1) for o in outs], axis=2).reshape(rows.size, -1)
        for v in vals:
            as_vector(v)  # non-finite values raise, as in value_set
        if len(outs) > 1:
            return np.repeat(rows, vals.shape[1]), vals.ravel(), [], []
        return _bridged_structure_rows([vals], rows)
    pieces = []
    for i, ball in zip(rows.tolist(), np.split(grid, rows.size)):
        points: list[float] = []
        intervals: list[tuple[float, float]] = []
        single_pts: list[float] = []
        for row in ball:
            vs = F.value_set(row)
            if vs.is_empty():
                single_pts.append(math.nan)
                continue
            try:
                pp, ii = vs.interval_structure_1d()
            except UnsupportedOperation:
                pp, ii = [], []
            if len(pp) == 1 and not ii:
                single_pts.append(pp[0])
            else:
                points.extend(pp)
                intervals.extend(ii)
                single_pts.append(math.nan)
        vals = np.array([p for p in single_pts if not math.isnan(p)])
        if vals.size:
            pp, ii = _bridged_structure_1d([vals])
            points.extend(pp)
            intervals.extend(ii)
        pieces.append(([i] * len(points), points, [i] * len(intervals), intervals))
    return _stack_structures(pieces)


def _covered_c_nd(F, x, y, t, norm, directions, seed, cap, c_levels: int = 16):
    """Target-grid inclusion check for ranges of dimension >= 2."""
    grid = _ball_grid(x, t, 41 if F.n == 2 else 11, norm)
    h = 2.0 * t / (grid.shape[0] ** (1.0 / F.n))
    descriptors = [F.value_set(row) for row in grid]
    descriptors = [d for d in descriptors if not d.is_empty()]
    if not descriptors:
        return 0.0

    def attained(target, tol):
        return any(d.dist(target, norm) <= tol for d in descriptors)

    # attainment tolerance keyed to the grid resolution and local variation
    probe = [d.dist(y, norm) for d in descriptors[: min(16, len(descriptors))]]
    att_tol = max(TOL_FEAS, 1.5 * h * max(1.0, float(np.median(probe)) / max(t, 1e-12)))
    dirs = sphere_directions(F.m, directions, derive_seed(seed, "cover-dirs-nd"), norm)
    best = INF
    for v in dirs:
        lo_ok = 0.0
        for level in range(1, c_levels + 1):
            rho = t * level / c_levels
            if attained(y + rho * v, att_tol):
                lo_ok = rho
            else:
                break
        best = min(best, lo_ok / t)
    return min(best, cap)


# ---------------------------------------------------------------------------
# the sampled modulus estimator


def _shell_answers(F, xbar, xs, ys, reach, norm, resolution) -> list:
    """(dist(yv, F(xv)), dist(xv, F^{-1}(yv))) for each drawn pair (xv, yv)
    of ``xs`` and ``ys`` with yv not in F(xv), in draw order: the value
    distances in one batch, the preimages in one call, where query i
    searches the ball around xbar of radius ``reach`` + |xv - xbar|."""
    if not xs:
        return []
    dvals = dist_to_value_set_batch(np.array(ys), F, np.array(xs), norm).tolist()
    kept = [i for i, dval in enumerate(dvals) if not dval <= TOL_FEAS]
    if not kept:
        return []
    regions = [Ball(xbar, reach + vec_dist(xs[i], xbar, norm)) for i in kept]
    found = preimage_search_many(np.array([xs[i] for i in kept]), F, [ys[i] for i in kept], regions,
                                 norm=norm, resolution=resolution)
    return [(dvals[i], dpre) for i, (dpre, _) in zip(kept, found)]


def estimate_modulus(
    kind: str,
    F: SetMap,
    point: GraphPoint,
    schedule: LiminfSchedule | None = None,
    norm: str = "euclidean",
    seed: int = 42,
    preimage_resolution: int = 401,
    region_factor: float = 8.0,
    sur_graph_points: int = 16,
    sur_t_fractions: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0),
) -> ModulusEstimate:
    """Estimate one regularity modulus by sampling its defining quotient.

    Infimum-type moduli (sur, lopen, psopen, displacement) report per-shell
    infima; supremum-type ones (reg, lip, calm, semireg, subreg) per-shell
    suprema.  A shell with no admissible samples keeps the empty-set
    convention (inf = +inf, sup = 0).
    """
    if kind not in MODULUS_KINDS:
        raise ValueError(f"unknown modulus kind {kind!r}")
    schedule = schedule or LiminfSchedule()
    check_on_graph(F, point, norm=norm)
    xbar, ybar = point.x, point.y
    radii = schedule.radii()
    spc = schedule.samples_per_shell
    notes: list[str] = []
    shell_stats: list[float | None] = []
    total = 0

    for j, r in enumerate(radii):
        r_in = r * schedule.rho
        sj = derive_seed(seed, f"{kind}-shell{j}")
        rng = SplitMix64(sj)
        quotients: list[float] = []

        if kind in ("lopen", "semireg"):
            # y in F(xbar) is not admissible for the liminf; a NaN distance is (not <=)
            ys = [yv for yv in shell_points(ybar, r_in, r, spc, sj)
                  if not dist_to_value_set(yv, F, xbar, norm) <= TOL_FEAS]
            found = preimage_search_many(
                xbar, F, ys, Ball(xbar, region_factor * r), norm=norm, resolution=preimage_resolution
            )
            for yv, (dpre, _) in zip(ys, found):
                rho_y = vec_dist(yv, ybar, norm)
                if kind == "lopen":
                    quotients.append(0.0 if dpre == INF else (rho_y / dpre if dpre > 0 else QUOTIENT_CAP * 2))
                else:
                    quotients.append(INF if dpre == INF else dpre / rho_y)
        elif kind == "sur":
            # draw the shell, answer it in one covering call, reduce in draw order
            gps = [point] + graph_sample(F, point, r, sur_graph_points, derive_seed(sj, "gp"), norm)
            queries = [(gp, frac * r) for gp in gps for frac in sur_t_fractions]
            quotients = largest_covered_c_many(
                F, [gp.x for gp, _ in queries], [gp.y for gp, _ in queries], [t for _, t in queries],
                norm=norm, seed=derive_seed(sj, "c"),
            )
        elif kind == "reg":
            # draw every pair, answer the shell in one batch and one preimage
            # call, reduce in draw order
            pairs = [(rng.in_ball(xbar, r, norm), rng.in_ball(ybar, r, norm)) for _ in range(spc)]
            for dval, dpre in _shell_answers(F, xbar, [xv for xv, _ in pairs], [yv for _, yv in pairs],
                                             region_factor * r, norm, preimage_resolution):
                quotients.append(INF if dpre == INF else dpre / dval)
        elif kind == "lip":
            for _ in range(spc):
                xv = rng.in_ball(xbar, r, norm)
                xw = rng.in_ball(xbar, r, norm)
                d_xx = vec_dist(xv, xw, norm)
                if d_xx <= 1e-12:
                    continue
                for yv in _value_candidates(F, xw, ybar, r, rng, 2, norm):
                    quotients.append(dist_to_value_set(yv, F, xv, norm) / d_xx)
        elif kind in ("psopen", "subreg"):
            # draw the shell around xbar and answer it as reg does; x in
            # F^{-1}(ybar) is not admissible
            xs = shell_points(xbar, r_in, r, spc, sj)
            for dval, dpre in _shell_answers(F, xbar, xs, [ybar] * len(xs), region_factor * r, norm,
                                             preimage_resolution):
                if kind == "psopen":
                    quotients.append(0.0 if dpre == INF else (dval / dpre if dpre > 0 else QUOTIENT_CAP * 2))
                else:
                    quotients.append(INF if dpre == INF else dpre / dval)
        elif kind == "calm":
            # product neighborhood: x from the ball, y in F(x) near ybar
            for _ in range(spc):
                xv = rng.in_ball(xbar, r, norm)
                d_x = vec_dist(xv, xbar, norm)
                if d_x <= 1e-12:
                    continue
                for yv in _value_candidates(F, xv, ybar, r, rng, 2, norm):
                    quotients.append(dist_to_value_set(yv, F, xbar, norm) / d_x)
        elif kind == "displacement":
            # draw the shell, answer it in one batch, reduce in draw order
            kept = [(xv, d_x) for xv in shell_points(xbar, r_in, r, spc, sj)
                    if not (d_x := vec_dist(xv, xbar, norm)) <= 1e-12]
            if kept:
                dvals = dist_to_value_set_batch(ybar, F, np.array([xv for xv, _ in kept]), norm)
                for (_, d_x), dval in zip(kept, dvals.tolist()):
                    quotients.append(INF if dval == INF else dval / d_x)

        total += len(quotients)
        if not quotients:
            shell_stats.append(None)
        elif kind in _INF_KINDS:
            shell_stats.append(min(quotients))
        else:
            shell_stats.append(max(quotients))

    if kind in ("lopen", "semireg") and shell_stats[-1] is None:
        notes.append("all samples in the smallest shell were values of F(xbar): internal-point convention")
    if kind in ("psopen", "subreg") and shell_stats[-1] is None:
        notes.append("all samples in the smallest shell lay in the preimage: internal-point convention")
    return _assemble(kind, point, shell_stats, schedule, seed, norm, total, notes)


# ---------------------------------------------------------------------------
# linear closed forms


@dataclass(frozen=True)
class LinearModuli(JsonReport):
    sur: float
    reg: float
    semireg: float
    subreg_strong: float
    injective: bool
    surjective: bool


def linear_moduli(A) -> LinearModuli:
    """Exact moduli of a linear map from its singular values."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    svals = np.linalg.svd(A, compute_uv=False)
    tol = max(m, n) * (svals.max(initial=0.0)) * np.finfo(float).eps
    rank = int((svals > tol).sum())
    surjective = rank == m
    injective = rank == n
    sur = float(svals[m - 1]) if surjective and svals.size >= m else 0.0
    kappa = float(svals[n - 1]) if injective and svals.size >= n else 0.0
    reg = (1.0 / sur) if sur > 0 else INF
    subreg_strong = (1.0 / kappa) if kappa > 0 else INF
    return LinearModuli(sur, reg, reg, subreg_strong, injective, surjective)


# ---------------------------------------------------------------------------
# convex processes


def convex_process_sur(
    F: SetMap,
    directions: int = 32,
    seed: int = 42,
    norm: str = "euclidean",
    homogeneity_samples: int = 24,
) -> ModulusEstimate:
    """Covering rate sup{rho > 0: F(B_X) contains rho B_Y} of a convex process.

    The graph must be a cone: every polyhedral piece contains the origin and
    sampled positive homogeneity holds.  Then F^{-1}(s v) = s F^{-1}(v), so
    the rate is the minimum over unit directions v of 1/dist(0, F^{-1}(v)),
    with each distance from the preimage oracle (``setmaps._cone_cover_rates``:
    the closed form where the map kind has one, else a search over the unit
    ball, grown x4 while nothing is found; n <= 2).  Rates above
    QUOTIENT_CAP count as infinite.  Directions follow ``norm``.
    """
    origin = GraphPoint(np.zeros(F.n), np.zeros(F.m))
    for A, b in F.graph_pieces() or ():
        if np.any(A @ np.zeros(F.n + F.m) > b + 1e-12):
            raise ValueError("polyhedral piece does not contain the origin: graph is not a cone")
    check_on_graph(F, origin, norm=norm)
    pts = graph_sample(F, origin, 1.0, homogeneity_samples, derive_seed(seed, "cone"), norm)
    for gp in pts:
        for tau in (0.25, 0.5, 2.0):
            if dist_to_value_set(tau * gp.y, F, tau * gp.x, norm) > 1e-6 * max(1.0, tau):
                raise ValueError(
                    f"sampled positive-homogeneity check failed at (x,y)=({gp.x},{gp.y}), tau={tau}"
                )

    dirs = sphere_directions(F.m, directions, derive_seed(seed, "cp-dirs"), norm)
    rhos = [INF if s > QUOTIENT_CAP else s for s in _cone_cover_rates(F, dirs, norm)]
    value = min(rhos) if rhos else 0.0
    schedule = LiminfSchedule(r0=1.0, rho=0.5, shells=3, samples_per_shell=directions)
    return ModulusEstimate(
        kind="sur",
        point=origin,
        value=value,
        bracket=(value, value),
        shell_infima=rhos,
        schedule=schedule,
        seed=seed,
        norm=norm,
        samples_used=len(rhos),
        notes=["convex process covering formula"],
    )


# ---------------------------------------------------------------------------
# star-shaped graphs


@dataclass
class StarShapeResult:
    passed: bool
    bound: float | None
    witness: dict | None
    checked_samples: int


def starshape_bound(
    F: SetMap,
    point: GraphPoint,
    alpha: float,
    beta: float,
    a: float = 1.0,
    samples: int = 64,
    seed: int = 42,
    norm: str = "euclidean",
    tol: float = 1e-7,
) -> StarShapeResult:
    """Lower bound beta/alpha on the openness rate from a star-shaped graph.

    Verifies (by sampling) that (1-t)(xbar,ybar) + t·gph F stays inside the
    graph for t in [0, a], and that B[ybar, beta] is covered by F(B[xbar,
    alpha]).  Returns a rejection witness when either sampled hypothesis
    fails.
    """
    if alpha <= 0 or beta <= 0 or not (0 < a <= 1):
        raise ValueError("need alpha, beta > 0 and a in (0, 1]")
    check_on_graph(F, point, norm=norm)
    radius = 2.0 * max(alpha, beta)
    pts = graph_sample(F, point, radius, samples, derive_seed(seed, "star"), norm)
    checked = 0
    for gp in pts:
        for t in np.linspace(0.0, a, 9):
            zx = (1 - t) * point.x + t * gp.x
            zy = (1 - t) * point.y + t * gp.y
            d = dist_to_value_set(zy, F, zx, norm)
            checked += 1
            if d > tol:
                return StarShapeResult(
                    False,
                    None,
                    {
                        "reason": "graph not star-shaped",
                        "t": float(t),
                        "graph_point": {"x": list(gp.x), "y": list(gp.y)},
                        "combined_point": {"x": list(zx), "y": list(zy)},
                        "graph_distance": d,
                    },
                    checked,
                )
    # ball inclusion B[ybar, beta] subset F(B[xbar, alpha])
    rng = SplitMix64(derive_seed(seed, "star-targets"))
    dirs = sphere_directions(F.m, 16, derive_seed(seed, "star-dirs"), norm)
    targets = [point.y + frac * beta * np.asarray(v) for v in dirs for frac in (0.25, 0.5, 0.75, 1.0)]
    for _ in range(8):
        targets.append(rng.in_ball(point.y, beta, norm))
    for target in targets:
        dpre = dist_to_preimage(point.x, F, target, Ball(point.x, 1.05 * alpha), norm=norm)
        checked += 1
        if dpre > alpha + tol:
            return StarShapeResult(
                False,
                None,
                {
                    "reason": "ball inclusion failed",
                    "target": list(target),
                    "preimage_distance": dpre,
                    "alpha": alpha,
                },
                checked,
            )
    return StarShapeResult(True, beta / alpha, None, checked)


# ---------------------------------------------------------------------------
# slope sandwich


@dataclass
class SlopeProfile:
    phi_samples: list[dict]
    S_estimate: float
    lopen_estimate: float
    shell_infima: list[float]
    sandwich_lower_ok: bool
    sandwich_upper_ok: bool
    seed: int
    norm: str

    def to_json_dict(self) -> dict:
        # the samples themselves stay in memory; the report gives their count
        return jsonable({
            "S_estimate": self.S_estimate,
            "lopen_estimate": self.lopen_estimate,
            "shell_infima": self.shell_infima,
            "sandwich_lower_ok": self.sandwich_lower_ok,
            "sandwich_upper_ok": self.sandwich_upper_ok,
            "samples": len(self.phi_samples),
            "seed": self.seed,
            "norm": self.norm,
        })


def slope_sandwich(
    F: SetMap,
    point: GraphPoint,
    schedule: LiminfSchedule | None = None,
    norm: str = "euclidean",
    seed: int = 42,
    tol: float = 0.1,
) -> SlopeProfile:
    """Estimate the slope quantity S and verify 0.5·S <= lopen <= S.

    phi(y) = dist(y, ybar)/dist(xbar, F^{-1}(y)) with phi = 0 at ybar and for
    empty preimages; the inner supremum runs over the sampled shell set plus
    ybar, so S is reported as a lower bound and the sandwich flags use
    one-sided tolerances.
    """
    schedule = schedule or LiminfSchedule()
    check_on_graph(F, point, norm=norm)
    xbar, ybar = point.x, point.y
    radii = schedule.radii()
    samples: list[dict] = []
    for j, r in enumerate(radii):
        sj = derive_seed(seed, f"slope-shell{j}")
        ys = shell_points(ybar, r * schedule.rho, r, schedule.samples_per_shell, sj)
        for yv, (dpre, _) in zip(ys, preimage_search_many(xbar, F, ys, Ball(xbar, 8.0 * r), norm=norm)):
            member = dist_to_value_set(yv, F, xbar, norm) <= TOL_FEAS
            rho_y = vec_dist(yv, ybar, norm)
            if member:
                phi = INF  # y in F(xbar)\{ybar}: excluded from the outer liminf
            else:
                phi = 0.0 if dpre == INF else (rho_y / dpre if dpre > 0 else INF)
            samples.append({"y": yv, "rho": rho_y, "phi": phi, "member": member, "shell": j})

    ys = np.array([s["y"] for s in samples])
    phis = np.array([s["phi"] for s in samples])
    finite = np.isfinite(phis)
    shell_ids = np.array([s["shell"] for s in samples])
    shell_stats: list[float | None] = []
    lopen_stats: list[float | None] = []
    for j in range(schedule.shells):
        qs: list[float] = []
        ls: list[float] = []
        for i in np.nonzero(shell_ids == j)[0]:
            if samples[i]["member"] or not np.isfinite(phis[i]):
                continue
            # inner sup over sampled v != y with finite phi, plus ybar (phi = 0)
            mask = finite.copy()
            mask[i] = False
            sup = phis[i] / samples[i]["rho"]  # v = ybar term
            if np.any(mask):
                dists = np.linalg.norm(ys[mask] - ys[i], axis=1) if norm == "euclidean" else np.abs(
                    ys[mask] - ys[i]
                ).max(axis=1)
                good = dists > 1e-14
                if np.any(good):
                    sup = max(sup, float(((phis[i] - phis[mask][good]) / dists[good]).max()))
            qs.append(samples[i]["rho"] * sup)
            ls.append(phis[i])
        shell_stats.append(min(qs) if qs else None)
        lopen_stats.append(min(ls) if ls else None)

    S, lopen_est = (INF if stats[-1] is None else stats[-1] for stats in (shell_stats, lopen_stats))
    lower_ok = 0.5 * S <= lopen_est * (1 + tol) or (S == INF and lopen_est == INF)
    upper_ok = lopen_est <= S * (1 + tol)
    return SlopeProfile(
        phi_samples=[
            {"y": list(s["y"]), "phi": ("inf" if s["phi"] == INF else s["phi"]), "member": s["member"]}
            for s in samples
        ],
        S_estimate=S,
        lopen_estimate=lopen_est,
        shell_infima=[s if s is not None else INF for s in shell_stats],
        sandwich_lower_ok=bool(lower_ok),
        sandwich_upper_ok=bool(upper_ok),
        seed=seed,
        norm=norm,
    )


# ---------------------------------------------------------------------------
# polyhedral Fréchet coderivative bound


@dataclass
class CoderivativeBound(JsonReport):
    bound: float
    per_direction: list[float]
    inverse_coderivative_trivial: bool


def _cone_residual(w: np.ndarray, generators: np.ndarray) -> float:
    """Distance from w to the cone generated by the rows of ``generators``."""
    if generators.shape[0] == 0:
        return float(np.linalg.norm(w))
    from scipy.optimize import nnls

    _, resid = nnls(generators.T, w)
    return float(resid)


def frechet_coderivative_bound(
    F: SetMap,
    point: GraphPoint,
    sphere_samples: int = 32,
    seed: int = 42,
    radius_cap: float = 1e3,
    tol: float = 1e-10,
) -> CoderivativeBound:
    """inf over unit y* of min{||x*||: (x*, -y*) in the graph normal cone}.

    The Fréchet normal cone of the union of polyhedral pieces is the
    intersection, over pieces containing the point, of each piece's active
    normal cone.  Also reports whether the inverse coderivative at 0 is
    trivial (a necessary condition for openness with a linear rate).
    """
    pieces = F.graph_pieces()
    if pieces is None:
        raise UnsupportedOperation("coderivative bound requires a polyhedral graph")
    check_on_graph(F, point)
    z = np.concatenate([point.x, point.y])
    scale = max(1.0, float(np.abs(z).max()))
    containing = []
    for A, b in pieces:
        if np.all(A @ z <= b + 1e-9 * scale):
            active = np.abs(A @ z - b) <= 1e-9 * scale
            containing.append(A[active])
    if not containing:
        raise NotOnGraph("point lies in no polyhedral piece")

    def residual(w):
        return max(_cone_residual(w, G) for G in containing)

    n, m = F.n, F.m

    def min_norm_xstar(ystar):
        def g_at(xstar):
            return residual(np.concatenate([np.atleast_1d(xstar), -ystar]))

        if n == 1:
            # convex 1D residual: ternary search for a feasible point
            lo, hi = -radius_cap, radius_cap
            for _ in range(200):
                m1 = lo + (hi - lo) / 3
                m2 = hi - (hi - lo) / 3
                if g_at(np.array([m1])) <= g_at(np.array([m2])):
                    hi = m2
                else:
                    lo = m1
            xf = 0.5 * (lo + hi)
            if g_at(np.array([xf])) > tol:
                return INF
            if g_at(np.array([0.0])) <= tol:
                return 0.0
            return abs(_bisect_threshold(lambda s: g_at(np.array([s])) <= tol, xf, 0.0, 80))
        # n == 2: coordinate descent to a feasible point, then radial shrink
        best = INF
        rng = SplitMix64(derive_seed(seed, "coder-starts"))
        starts = [np.zeros(n)] + [rng.uniform_vector(n, -1.0, 1.0) for _ in range(4)]
        for x0 in starts:
            X, fx = _coordinate_polish(lambda Z, _: [g_at(z) for z in Z], None, x0, 1.0, 120)
            x = X[0]
            if fx[0] > tol:
                continue
            if g_at(np.zeros(n)) <= tol:
                return 0.0
            shrink = _bisect_threshold(lambda s: g_at(s * x) <= tol, 1.0, 0.0, 60)
            best = min(best, float(np.linalg.norm(shrink * x)))
        return best

    per_direction = []
    for ystar in sphere_directions(m, sphere_samples, derive_seed(seed, "coder-dirs")):
        per_direction.append(min_norm_xstar(np.asarray(ystar)))
    bound = min(per_direction) if per_direction else INF

    trivial = True
    for ystar in sphere_directions(m, sphere_samples, derive_seed(seed, "coder-inv")):
        if residual(np.concatenate([np.zeros(n), np.asarray(ystar)])) <= tol:
            trivial = False
            break
    return CoderivativeBound(bound, per_direction, trivial)
