"""Constructive covering machinery.

The Picard solver iterates u -> B(A(tu) - f(xbar + tu) + y)/t from u = 0,
the fixed-point construction that witnesses covering for approximately
linear maps; a fixed point yields f(xbar + tu) = y with the solution inside
the prescribed ball.  Existence is guaranteed under the covering hypotheses
but Picard convergence is not, so every check falls back to the preimage
oracle (``preimage_search`` over the ball, n <= 2) and keeps explicit
failure accounting.

Also here: calm selections of f^{-1} built from the same solver, and the
relaxed one-sided Lipschitz (ROSL) covering checks for set-valued maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import STRICT_SLACK, TOL_FEAS, Ball, GraphPoint, JsonReport, as_vector
from .moduli import LiminfSchedule, _value_dists, check_on_graph, estimate_modulus, linear_moduli
from .rng import SplitMix64, derive_seed, sphere_directions
from .setmaps import (
    INF,
    SetMap,
    _minus_linear,
    graph_sample,
    preimage_search,
    preimage_search_many,
    require_single_valued,
)

#: covering conclusions pass within this relative plus absolute tolerance
COVER_RTOL = 0.02
COVER_ATOL = 1e-7


@dataclass(frozen=True)
class PseudoInverse:
    """Right inverse B = A^T (A A^T)^{-1} of a surjective matrix A."""

    A: np.ndarray
    B: np.ndarray
    sur_A: float

    @property
    def norm(self) -> float:
        return float(np.linalg.svd(self.B, compute_uv=False)[0])


def pseudo_inverse(A) -> PseudoInverse:
    """Construct A^T (A A^T)^{-1}; raises for rank-deficient A."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    svals = np.linalg.svd(A, compute_uv=False)
    if m > n or svals[m - 1] <= max(m, n) * svals[0] * np.finfo(float).eps:
        raise ValueError("matrix is not surjective (rank < m)")
    B = np.linalg.solve(A @ A.T, A).T
    pinv = PseudoInverse(A, B, float(svals[m - 1]))
    resid = np.abs(A @ B - np.eye(m)).max()
    if resid > 1e-10:
        raise ValueError(f"A B deviates from the identity by {resid:.2e}")
    if abs(pinv.norm * pinv.sur_A - 1.0) > 1e-9 * max(1.0, pinv.norm):
        raise ValueError("reciprocal singular-value invariant violated")
    return pinv


@dataclass
class PicardResult(JsonReport):
    x: np.ndarray | None
    converged: bool
    method: str  # picard | grid | failed
    iterations: int
    residual: float


def solve_preimage_picard(
    f: SetMap,
    A,
    xbar,
    y,
    t: float,
    max_iter: int = 200,
    tol: float = 1e-9,
) -> PicardResult:
    """Solve f(x) = y with x in B[xbar, t] by Picard iteration on the
    corrected fixed-point map, falling back to the preimage oracle over the
    ball for n <= 2 (method "grid").  The oracle returns only points it has
    checked at tol_feas = tol, but its grid stage may leave the ball, so its
    answer counts only inside the ball and at residual <= tol.

    Success requires the residual test and the ball constraint; both are
    asserted on every successful return.
    """
    fn, n, m = require_single_valued(f), f.n, f.m
    pinv = pseudo_inverse(A)
    xbar = as_vector(xbar, n)
    y = as_vector(y, m)
    fx = fn(xbar)
    u = np.zeros(n)
    iterations = 0
    best_resid = INF
    for iterations in range(1, max_iter + 1):
        x = xbar + t * u
        fx_k = fn(x)
        resid = float(np.linalg.norm(fx_k - y))
        best_resid = min(best_resid, resid)
        if resid <= tol and np.linalg.norm(u) <= 1.0 + 1e-9:
            result = PicardResult(x, True, "picard", iterations, resid)
            _assert_feasible(result, fn, y, xbar, t, tol)
            return result
        u = pinv.B @ (pinv.A @ (t * u) - (fx_k - fx) + (y - fx)) / t
        if np.linalg.norm(u) > 4.0:
            break
    if n <= 2:
        # the oracle checks its points at tol_feas = tol, and its grid stage
        # may leave the ball: the answer counts only inside the ball and at
        # residual <= tol, the solver's own contract
        d, x = preimage_search(xbar, f, y, Ball(xbar, t), tol_feas=tol)
        resid = INF if x is None else float(np.linalg.norm(fn(x) - y))
        if d <= t and resid <= tol:
            result = PicardResult(x, True, "grid", iterations, resid)
            _assert_feasible(result, fn, y, xbar, t, tol)
            return result
    return PicardResult(None, False, "failed", iterations, best_resid)


def _calm_of_difference(f, A: np.ndarray, xbar: np.ndarray, r0: float, seed: int) -> float:
    """Sampled calm(f - A) at xbar, the margin both covering bounds need."""
    return estimate_modulus(
        "calm", _minus_linear(f, A), GraphPoint(xbar, f(xbar) - A @ xbar),
        LiminfSchedule(r0=r0, rho=0.5, shells=6, samples_per_shell=32),
        seed=derive_seed(seed, "calm"),
    ).value


def _assert_feasible(result: PicardResult, fn, y, xbar, t, tol):
    assert result.x is not None
    assert np.linalg.norm(fn(result.x) - y) <= tol * (1 + 1e-6), "solver returned an infeasible point"
    assert np.linalg.norm(result.x - xbar) <= t * (1 + 1e-9) + 1e-15, "solver left the prescribed ball"


@dataclass
class CoveringReport(JsonReport):
    check: str
    constants: dict
    t_grid: list[float]
    attained: list[dict] = field(default_factory=list)
    unattained: list[dict] = field(default_factory=list)
    condition_violations: list[dict] = field(default_factory=list)
    verdict: str = "pass"
    seed: int = 42
    notes: list[str] = field(default_factory=list)

    def finalize(self) -> "CoveringReport":
        if self.verdict == "rejected":
            return self
        self.verdict = "pass" if not (self.unattained or self.condition_violations) else "fail"
        return self

    @property
    def picard_success_rate(self) -> float:
        solved = [a for a in self.attained if a.get("method") in ("picard", "grid")]
        if not solved:
            return 0.0
        return sum(1 for a in solved if a["method"] == "picard") / len(solved)


def covering_check_kaluza(
    f: SetMap,
    A,
    xbar,
    c: float,
    r: float,
    samples: int = 48,
    seed: int = 42,
    t_grid: list[float] | None = None,
    calm_override: float | None = None,
) -> CoveringReport:
    """Check B[f(xbar), c t] subset f(B[xbar, t]) constructively.

    Rejected (not failed) when c is not below sur A minus the estimated
    calmness of f - A at xbar, since the covering guarantee needs that
    margin.  Each sampled target records its solver provenance.
    """
    fn, n, m = require_single_valued(f), f.n, f.m
    A = np.atleast_2d(np.asarray(A, dtype=float))
    xbar = as_vector(xbar, n)
    sur_A = linear_moduli(A).sur
    calm_est = calm_override if calm_override is not None else _calm_of_difference(fn, A, xbar, min(0.1, r), seed)
    report = CoveringReport(
        check="covering_kaluza",
        constants={"c": c, "r": r, "sur_A": sur_A, "calm_diff": calm_est},
        t_grid=list(t_grid) if t_grid else [r * k / 4 for k in range(1, 5)],
        seed=seed,
    )
    if c >= sur_A - calm_est:
        report.verdict = "rejected"
        report.notes.append(
            f"precondition c < sur A - calm(f-A) violated: c={c:.6g}, sur A={sur_A:.6g}, calm={calm_est:.6g}"
        )
        return report
    fx = fn(xbar)
    rng = SplitMix64(derive_seed(seed, "targets"))
    per_t = max(1, samples // len(report.t_grid))
    for t in report.t_grid:
        targets = []
        dirs = sphere_directions(m, max(4, per_t // 3), derive_seed(seed, f"dirs{t}"))
        fracs = (0.35, 0.7, 1.0)
        for v in dirs:
            for frac in fracs:
                targets.append(fx + frac * c * t * np.asarray(v))
        while len(targets) < per_t:
            targets.append(rng.in_ball(fx, c * t, "euclidean"))
        for target in targets[:per_t]:
            res = solve_preimage_picard(f, A, xbar, target, t)
            entry = {
                "t": t,
                "target": [float(v) for v in target],
                "method": res.method,
                "iterations": res.iterations,
                "residual": res.residual,
            }
            (report.attained if res.converged else report.unattained).append(entry)
    return report.finalize()


@dataclass
class SelectionTrace(JsonReport):
    pairs: list[dict]
    calm_ratio_max: float
    corrected_ratio_max: float
    calm_bound: float
    corrected_bound: float
    failures: int
    bounds_ok: bool
    seed: int


def build_selection(
    f: SetMap,
    A,
    xbar,
    radius: float,
    samples: int = 48,
    seed: int = 42,
    calm_override: float | None = None,
    tol: float = 0.05,
) -> SelectionTrace:
    """Construct a calm selection sigma of f^{-1} near f(xbar) via Picard.

    Reports the worst calm ratio ||sigma(y) - xbar||/||y - ybar|| and the
    B-corrected ratio ||sigma(y) - xbar - B(y - ybar)||/||y - ybar||, checked
    against 1/(sur A - calm(f-A)) and calm/(sur A (sur A - calm(f-A))).
    """
    fn, n, m = require_single_valued(f), f.n, f.m
    A = np.atleast_2d(np.asarray(A, dtype=float))
    xbar = as_vector(xbar, n)
    ybar = fn(xbar)
    pinv = pseudo_inverse(A)
    sur_A = pinv.sur_A
    calm_est = calm_override if calm_override is not None else _calm_of_difference(fn, A, xbar, radius, seed)
    if calm_est >= sur_A:
        raise ValueError("selection bounds need calm(f-A) < sur A")
    c = 0.95 * (sur_A - calm_est)
    rng = SplitMix64(derive_seed(seed, "selection"))
    pairs = []
    failures = 0
    r1_max = 0.0
    r2_max = 0.0
    dirs = sphere_directions(m, max(4, samples // 4), derive_seed(seed, "sel-dirs"))
    targets = [ybar + frac * radius * np.asarray(v) for v in dirs for frac in (0.25, 0.5, 1.0)]
    while len(targets) < samples:
        targets.append(rng.in_ball(ybar, radius, "euclidean"))
    for y in targets[:samples]:
        dy = float(np.linalg.norm(y - ybar))
        if dy <= 1e-14:
            continue
        t = dy / c
        res = solve_preimage_picard(f, A, xbar, y, t)
        if not res.converged:
            failures += 1
            continue
        sigma = res.x
        r1 = float(np.linalg.norm(sigma - xbar)) / dy
        r2 = float(np.linalg.norm(sigma - xbar - pinv.B @ (y - ybar))) / dy
        r1_max = max(r1_max, r1)
        r2_max = max(r2_max, r2)
        pairs.append({"y": [float(v) for v in y], "sigma": [float(v) for v in sigma], "calm_ratio": r1, "corrected_ratio": r2})
    calm_bound = 1.0 / (sur_A - calm_est)
    corrected_bound = calm_est / (sur_A * (sur_A - calm_est))
    ok = r1_max <= calm_bound + tol and r2_max <= corrected_bound + tol
    return SelectionTrace(pairs, r1_max, r2_max, calm_bound, corrected_bound, failures, bool(ok), seed)


# ---------------------------------------------------------------------------
# ROSL / strong-monotonicity covering checks


ROSL_CONDITIONS = ("C1", "C2", "ROSLw", "ROSL")


def rosl_check(
    F: SetMap,
    xbar,
    ybar,
    ell: float,
    r: float,
    condition: str = "C2",
    samples: int = 200,
    seed: int = 42,
    t_grid: list[float] | None = None,
) -> CoveringReport:
    """Verify a one-sided inner-product condition and its covering conclusion.

    C1/C2 certify B[ybar, ell t] subset F(B[xbar, t]) for t in (0, r];
    ROSLw certifies the distance bound ||x - xbar|| <= dist(y, F(xbar))/ell;
    ROSL certifies uniform covering around nearby graph points.  The inner
    existential over F(x) is solved by support-function extremization
    (closed form for finite sets and boxes, LP for polyhedral values).
    """
    if condition not in ROSL_CONDITIONS:
        raise ValueError(f"condition must be one of {ROSL_CONDITIONS}")
    if ell <= 0 or r <= 0:
        raise ValueError("need ell, r > 0")
    xbar = as_vector(xbar, F.n)
    ybar = as_vector(ybar, F.m)
    check_on_graph(F, GraphPoint(xbar, ybar))
    report = CoveringReport(
        check=f"rosl:{condition}",
        constants={"ell": ell, "r": r},
        t_grid=list(t_grid) if t_grid else [r * k / 3 for k in range(1, 4)],
        seed=seed,
    )
    rng = SplitMix64(derive_seed(seed, "rosl"))
    region = 2 * r if condition == "ROSL" else r

    def exists_inner(x, anchor, d, need):
        """max over y in F(x) of <anchor - y, d> >= need, via support inf."""
        vs = F.value_set(x)
        if vs.is_empty():
            return False, INF
        inner_min = vs.support(d, maximize=False)
        val = float(anchor @ d) - inner_min
        return val >= need - STRICT_SLACK, val

    for _ in range(samples):
        xv = rng.in_ball(xbar, region, "euclidean")
        d = xv - xbar
        nd2 = float(d @ d)
        if condition == "C1":
            vs = F.value_set(xv)
            if vs.is_empty():
                report.condition_violations.append({"x": list(xv), "reason": "empty value"})
                continue
            val = vs.support(d, maximize=True) - float(ybar @ d)
            if val < ell * nd2 - STRICT_SLACK:
                report.condition_violations.append({"x": list(xv), "lhs": val, "rhs": ell * nd2})
        elif condition == "C2":
            ok, val = exists_inner(xv, ybar, d, ell * nd2)
            if not ok:
                report.condition_violations.append({"x": list(xv), "lhs": val, "rhs": ell * nd2})
        elif condition == "ROSLw":
            for yb in F.value_set(xbar).members_near(ybar, 4 * r, 2, rng):
                ok, val = exists_inner(xv, yb, d, ell * nd2)
                if not ok:
                    report.condition_violations.append(
                        {"x": list(xv), "ybar_prime": list(yb), "lhs": val, "rhs": ell * nd2}
                    )
        else:  # ROSL
            xw = rng.in_ball(xbar, region, "euclidean")
            dp = xw - xv
            nd2p = float(dp @ dp)
            for yv in F.value_set(xv).members_near(ybar, 4 * r, 2, rng):
                ok, val = exists_inner(xw, yv, dp, ell * nd2p)
                if not ok:
                    report.condition_violations.append(
                        {"x": list(xv), "x_prime": list(xw), "y": list(yv), "lhs": val, "rhs": ell * nd2p}
                    )
    if report.condition_violations:
        report.notes.append("condition violated: conclusion not tested")
        return report.finalize()

    def attained(center_x, targets, t):
        """(ok, dist) per target: one preimage call for all targets of one center and t."""
        found = preimage_search_many(center_x, F, targets, Ball(center_x, 1.02 * t + 1e-9))
        return [(dpre <= t * (1 + COVER_RTOL) + COVER_ATOL, dpre) for dpre, _ in found]

    if condition in ("C1", "C2"):
        for t in report.t_grid:
            dirs = sphere_directions(F.m, 8, derive_seed(seed, f"rosl-dirs{t}"))
            targets = [ybar + frac * ell * t * np.asarray(v) for v in dirs for frac in (0.5, 1.0)]
            for target, (ok, dpre) in zip(targets, attained(xbar, targets, t)):
                entry = {"t": t, "target": [float(u) for u in target], "preimage_distance": dpre}
                (report.attained if ok else report.unattained).append(entry)
    elif condition == "ROSLw":
        # draw every target, answer them in one batch and one preimage call
        ys = [rng.in_ball(ybar, r * ell, "euclidean") for _ in range(min(samples, 64))]
        dys = _value_dists(F, [xbar] * len(ys), ys, "euclidean")
        kept = [(yv, dy / ell) for yv, dy in zip(ys, dys) if not (dy > r * ell or dy <= TOL_FEAS)]
        found = preimage_search_many(xbar, F, [yv for yv, _ in kept],
                                     [Ball(xbar, 1.05 * bound + 1e-9) for _, bound in kept])
        for (yv, bound), (dpre, _) in zip(kept, found):
            ok = dpre <= bound * (1 + COVER_RTOL) + COVER_ATOL
            entry = {"y": [float(u) for u in yv], "bound": bound, "preimage_distance": dpre}
            (report.attained if ok else report.unattained).append(entry)
    else:  # ROSL: uniform covering around nearby graph points
        pts = graph_sample(F, GraphPoint(xbar, ybar), r, 8, derive_seed(seed, "rosl-gp"))
        for gp in [GraphPoint(xbar, ybar)] + pts:
            for t in report.t_grid:
                dirs = sphere_directions(F.m, 4, derive_seed(seed, f"rosl-a{t}"))
                targets = [gp.y + ell * t * np.asarray(v) for v in dirs]
                for target, (ok, dpre) in zip(targets, attained(gp.x, targets, t)):
                    entry = {
                        "x": [float(u) for u in gp.x],
                        "t": t,
                        "target": [float(u) for u in target],
                        "preimage_distance": dpre,
                    }
                    (report.attained if ok else report.unattained).append(entry)
    return report.finalize()
