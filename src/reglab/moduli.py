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


def _ray_coverage_1d(origin: float, direction: float, points, intervals, gap_tol: float) -> float:
    """Largest rho with [origin, origin + rho*direction] covered contiguously:
    a sweep of the segments in (lo, hi) order, exact since sorting and max do no rounding."""
    s = (np.asarray(points, dtype=float) - origin) * direction
    iv = (np.asarray(intervals, dtype=float).reshape(-1, 2) - origin) * direction
    a, b = iv[:, 0], iv[:, 1]
    lo = np.concatenate([s - gap_tol, np.where(b < a, b, a)])
    hi = np.concatenate([s + gap_tol, np.where(b > a, b, a)])
    keep = hi >= -gap_tol
    order = np.lexsort((hi[keep], lo[keep]))
    lo, hi = lo[keep][order], hi[keep][order]
    cur = np.maximum.accumulate(np.concatenate([[0.0], hi]))  # cur[i]: covered end before segment i
    stop = np.flatnonzero(lo > cur[:-1] + gap_tol)
    return max(float(cur[stop[0] if stop.size else -1]), 0.0) + 0.0  # + 0.0: never -0.0


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
    """sup{c >= 0 : B[y, c t] subset F(B[x, t])}, sampled.

    The map kind's closed form where it has one (``SetMap.covered_c``: exact
    for linear operators, interval arithmetic for epigraphs); otherwise ray
    coverage of the attained value structure for one-dimensional ranges and
    sampled target grids elsewhere.  Sampling can overestimate coverage when
    failures are sparse, which is documented behavior.
    """
    x = as_vector(x, F.n)
    y = as_vector(y, F.m)

    closed = F.covered_c(x, y, t, norm, directions, resolution, seed)
    if closed is not None:
        return min(closed, cap)

    if F.m == 1:
        pts, ivs, gap_tol = _attained_structure_1d(F, x, t, resolution, norm)
        best = INF
        for v in (1.0, -1.0):
            rho = _ray_coverage_1d(float(y[0]), v, pts, ivs, gap_tol)
            best = min(best, rho / t)
        return min(best, cap)

    return _covered_c_nd(F, x, y, t, norm, directions, seed, cap)


def _attained_structure_1d(F: SetMap, x: np.ndarray, t: float, resolution: int, norm: str):
    """Attained (points, intervals) of F over B[x, t] for 1D ranges."""
    grid = _ball_grid(x, t, resolution if F.n == 1 else 41, norm)
    gap_tol = max(1e-9, 1e-9 * t)
    # a curve may leave the domain inside the ball (sqrt(x) near 0): its NaN
    # or infinite values there go into the polyline, not into an error
    curves = [_eval_vectorized(b, grid, 1, 1, finite=False) for b in scalar_branches(F) or []]
    if curves and all(c is not None for c in curves):
        pts, ivs = _bridged_structure_1d([c[:, 0] for c in curves])
        return pts, ivs, gap_tol
    # descriptor path: per-grid-point structure, from the branch values where
    # the kind has them (listed row-major, as value_set lists them)
    outs = F.branch_values(grid)
    if outs is not None:
        vals = as_vector(np.hstack(outs).ravel())  # non-finite values raise, as in value_set
        if len(outs) > 1:
            return vals.tolist(), [], gap_tol
        pts, ivs = _bridged_structure_1d([vals])
        return pts, ivs, gap_tol
    points: list[float] = []
    intervals: list[tuple[float, float]] = []
    single_pts: list[float] = []
    for row in grid:
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
    return points, intervals, gap_tol


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
            pts = graph_sample(F, point, r, sur_graph_points, derive_seed(sj, "gp"), norm)
            for gp in [point] + pts:
                for frac in sur_t_fractions:
                    t = frac * r
                    quotients.append(
                        largest_covered_c(F, gp.x, gp.y, t, norm=norm, seed=derive_seed(sj, "c"))
                    )
        elif kind == "reg":
            for _ in range(spc):
                xv = rng.in_ball(xbar, r, norm)
                yv = rng.in_ball(ybar, r, norm)
                dval = dist_to_value_set(yv, F, xv, norm)
                if dval <= TOL_FEAS:
                    continue
                dpre = dist_to_preimage(
                    xv, F, yv, Ball(xbar, region_factor * r + vec_dist(xv, xbar, norm)),
                    norm=norm, resolution=preimage_resolution,
                )
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
            for xv in shell_points(xbar, r_in, r, spc, sj):
                dval = dist_to_value_set(ybar, F, xv, norm)
                if dval <= TOL_FEAS:
                    continue  # x in F^{-1}(ybar)
                dpre = dist_to_preimage(
                    xv, F, ybar, Ball(xbar, region_factor * r + vec_dist(xv, xbar, norm)),
                    norm=norm, resolution=preimage_resolution,
                )
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
            x, fx = _coordinate_polish(g_at, lambda _z: True, x0, 1.0, 120)
            if fx > tol:
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
