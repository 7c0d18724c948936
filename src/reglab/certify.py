"""Sampled verification of descent criteria and perturbation/sum estimates.

Each check samples premise-satisfying tuples on geometric shells around the
reference data, evaluates the required strict-decrease or covering
inequality, and reports violations as replayable witnesses (all inputs plus
the seed).  A report with fewer than 5 premise samples is marked vacuous
rather than passed: strict-inequality premises can be empty near the
reference point and a vacuous pass must be distinguishable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import STRICT_SLACK, TOL_FEAS, Ball, GraphPoint, JsonReport, as_vector, vec_dist
from .moduli import LiminfSchedule, check_on_graph, estimate_modulus, linear_moduli
from .rng import SplitMix64, derive_seed, shell_points, sphere_directions
from .setmaps import (
    INF,
    SetMap,
    SumMap,
    _minus_linear,
    dist_to_preimage,
    dist_to_value_set,
    graph_sample,
    preimage_search,
    preimage_search_many,
    require_single_valued,
)

#: conclusion inequalities pass within this relative plus absolute tolerance
CONCLUSION_RTOL = 0.05
CONCLUSION_ATOL = 1e-6

DESCENT_FORMS = ("regularity", "subregularity", "semireg_single", "semireg_set")
MIN_PREMISE_SAMPLES = 5
#: a descent check short of its premise target draws shells up to this many times its schedule's
SHELL_CAP_FACTOR = 2


@dataclass(frozen=True)
class DescentForm:
    tag: str
    direction: str = "sufficient"

    def __post_init__(self):
        if self.tag not in DESCENT_FORMS:
            raise ValueError(f"unknown descent form {self.tag!r}")
        if self.direction not in ("sufficient", "necessary"):
            raise ValueError("direction must be 'sufficient' or 'necessary'")


@dataclass
class CertificateReport(JsonReport):
    check: str
    constants: dict
    premise_samples: int
    violations: list[dict] = field(default_factory=list)
    conclusion: dict | None = None
    verdict: str = "pass"
    seed: int = 42
    norm: str = "euclidean"
    notes: list[str] = field(default_factory=list)
    values: dict = field(default_factory=dict)
    shells: int | None = None

    def finalize(self) -> "CertificateReport":
        if self.verdict == "rejected":
            return self
        if self.violations or (self.conclusion and not self.conclusion.get("passed", True)):
            self.verdict = "fail"
        elif self.premise_samples < MIN_PREMISE_SAMPLES and self.check.startswith("descent"):
            self.verdict = "vacuous"
        else:
            self.verdict = "pass"
        return self


class OracleError(ValueError):
    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


def _as_pair(result, n, m):
    if isinstance(result, tuple) and len(result) == 2:
        return as_vector(result[0], n), as_vector(result[1], m)
    return as_vector(result, n), None


def _conclusion_tol(scale: float) -> float:
    return CONCLUSION_RTOL * abs(scale) + CONCLUSION_ATOL


def _covering_conclusion(F, point, c, r, seed, norm, t_count=4, n_targets=12):
    """Sampled check of F(B(xbar, t)) >= B(ybar, c t) on a grid of t in (0, r),
    with one preimage call per t."""
    witnesses = []
    ts = [r * k / (t_count + 1) for k in range(1, t_count + 1)]
    rng = SplitMix64(derive_seed(seed, "cover-conclusion"))
    for t in ts:
        targets = []
        for v in sphere_directions(F.m, max(2, n_targets // 3), derive_seed(seed, "cc-dirs"), norm):
            for frac in (0.5, 0.99):
                targets.append(point.y + frac * c * t * np.asarray(v))
        for _ in range(2):
            targets.append(rng.in_ball(point.y, c * t, norm))
        found = preimage_search_many(point.x, F, targets, Ball(point.x, 1.05 * t), norm=norm)
        for target, (dpre, _) in zip(targets, found):
            if dpre > t * (1 + CONCLUSION_RTOL) + CONCLUSION_ATOL:
                witnesses.append(
                    {"t": t, "target": [float(v) for v in target], "preimage_distance": dpre}
                )
    return {"checked": True, "t_grid": ts, "passed": not witnesses, "witnesses": witnesses}


def check_descent_certificate(
    form: DescentForm,
    F: SetMap,
    point: GraphPoint,
    constants: dict,
    oracle=None,
    samples: int = 64,
    seed: int = 42,
    norm: str = "euclidean",
    schedule: LiminfSchedule | None = None,
    premise_target: int = 0,
) -> CertificateReport:
    """Verify a descent-type criterion on sampled premise tuples.

    ``constants`` must contain ``c`` and ``r``; set-valued forms need
    ``alpha`` with alpha*c < 1; the necessary direction uses ``c_prime``
    (default 0.9*c).  The oracle maps a premise-satisfying (x, v, y) to a
    candidate descent pair (x', v') lying on the graph; for the necessary
    direction a built-in preimage-search oracle is used when none is given.
    After the schedule's shells, a check with fewer than ``premise_target``
    premise samples keeps drawing shells r0 * rho^j from the same seeded
    stream, up to ``SHELL_CAP_FACTOR`` times the schedule's count;
    ``report.shells`` is the number of shells drawn.
    """
    c = float(constants["c"])
    r = float(constants["r"])
    if c <= 0 or r <= 0:
        raise ValueError("constants c and r must be positive")
    alpha = float(constants.get("alpha", 0.0))
    # single-valued maps are callables; set-valued regularity uses the
    # graphical form below
    gv = F if callable(F) else None
    if form.tag == "semireg_set" or (form.tag == "regularity" and gv is None):
        if not constants.get("alpha"):
            raise ValueError("set-valued forms need a positive alpha")
    if alpha and alpha * c >= 1:
        raise ValueError("need alpha * c < 1")
    cprime = float(constants.get("c_prime", 0.9 * c))
    check_on_graph(F, point, norm=norm)
    schedule = schedule or LiminfSchedule(r0=0.8 * r, rho=0.6, shells=5, samples_per_shell=samples)
    report = CertificateReport(
        check=f"descent:{form.tag}:{form.direction}",
        constants={"c": c, "r": r, "alpha": alpha or None, "c_prime": cprime},
        premise_samples=0,
        seed=seed,
        norm=norm,
    )
    report.notes.append(
        "completeness_note: graph-localization completeness is not sample-verifiable; "
        "only closedness of sampled graph limits was observed"
    )
    xbar, ybar = point.x, point.y

    def on_graph(x, v):
        return dist_to_value_set(v, F, x, norm) <= 10 * TOL_FEAS

    def run_oracle(x, v, y, cc):
        if oracle is not None:
            xp, vp = _as_pair(oracle(x, v, y, dict(report.constants)), F.n, F.m)
        else:
            # built-in: head toward a preimage point of y (the construction
            # used in the necessity proofs)
            d, xp = preimage_search(x, F, y, Ball(xbar, max(r, 2 * vec_dist(y, ybar, norm) / cc)), norm=norm)
            vp = y if xp is not None else None
        if xp is None:
            return None, None
        if vp is None:
            vp = as_vector(F.value_set(xp).nearest(y, norm)[0], F.m)
        if not on_graph(xp, vp):
            raise OracleError(
                "oracle returned an off-graph pair",
                {"x": list(x), "y": list(y), "x_prime": list(xp), "v_prime": list(vp)},
            )
        return xp, vp

    if form.tag == "semireg_single" and gv is None:
        raise ValueError("semireg_single requires a single-valued map")

    rng = SplitMix64(derive_seed(seed, "descent"))
    j = 0
    while j < schedule.shells or (
        report.premise_samples < premise_target and j < SHELL_CAP_FACTOR * schedule.shells
    ):
        rad = schedule.r0 * schedule.rho**j
        sj = derive_seed(seed, f"descent-shell{j}")
        if form.tag == "semireg_single" or (form.tag == "regularity" and gv is not None):
            lim = 0.999 * ((c if form.direction == "sufficient" else cprime) * r)
            if form.tag == "regularity":
                lim = 0.999 * r
            for _ in range(schedule.samples_per_shell):
                xv = rng.in_ball(xbar, min(rad, 0.999 * r), norm)
                yv = rng.in_ball(gv(xbar), lim, norm)
                _eval_single_premise(
                    report, form, F, gv, xbar, xv, yv, c, cprime, r, run_oracle, norm
                )
        elif form.tag == "semireg_set" or form.tag == "regularity":
            pts = graph_sample(F, point, min(rad, 0.999 * (r / alpha if alpha else r)), schedule.samples_per_shell // 4 + 1, sj, norm)
            for gp in pts:
                for _ in range(3):
                    lim = c * r if form.direction == "sufficient" else cprime * r
                    yv = rng.in_ball(ybar, 0.999 * lim, norm)
                    _eval_set_premise(report, form, F, point, gp, yv, c, cprime, r, alpha, run_oracle, norm)
        elif form.tag == "subregularity":
            pts = graph_sample(F, point, min(rad, 0.999 * r), schedule.samples_per_shell // 2 + 1, sj, norm)
            for gp in pts:
                _eval_subreg_premise(report, F, point, gp, c, cprime, r, form, run_oracle, norm)
        j += 1
    report.shells = j

    if form.direction == "sufficient":
        if form.tag == "semireg_single" or form.tag == "semireg_set":
            report.conclusion = _covering_conclusion(F, point, c, r, seed, norm)
        elif form.tag == "regularity":
            # around-point covering: reference plus nearby graph points
            concl = _covering_conclusion(F, point, c, r / 2, seed, norm)
            for gp in graph_sample(F, point, r / 4, 3, derive_seed(seed, "around"), norm):
                sub = _covering_conclusion(F, gp, c, r / 4, seed, norm)
                concl["witnesses"].extend(sub["witnesses"])
                concl["passed"] = concl["passed"] and sub["passed"]
            report.conclusion = concl
        elif form.tag == "subregularity":
            witnesses = []
            for xv in shell_points(xbar, 0.0, r / 2, 24, derive_seed(seed, "subreg-concl")):
                dval = dist_to_value_set(ybar, F, xv, norm)
                if dval <= TOL_FEAS:
                    continue
                dpre = dist_to_preimage(xv, F, ybar, Ball(xbar, 2 * r), norm=norm)
                bound = dval / c
                if dpre > bound * (1 + CONCLUSION_RTOL) + CONCLUSION_ATOL:
                    witnesses.append({"x": list(xv), "preimage_distance": dpre, "bound": bound})
            report.conclusion = {"checked": True, "passed": not witnesses, "witnesses": witnesses}
    return report.finalize()


def _eval_single_premise(report, form, F, gv, xbar, xv, yv, c, cprime, r, run_oracle, norm):
    gx = gv(xv)
    gxbar = gv(xbar)
    rho_gx_y = vec_dist(gx, yv, norm)
    rho_gxbar_y = vec_dist(gxbar, yv, norm)
    d_x_xbar = vec_dist(xv, xbar, norm)
    if form.tag == "regularity":
        # around-point criterion: premise is only y != g(x)
        ok = rho_gx_y > STRICT_SLACK
        cc = c if form.direction == "sufficient" else cprime
    elif form.direction == "sufficient":
        ok = rho_gx_y > STRICT_SLACK and rho_gx_y <= rho_gxbar_y - c * d_x_xbar + STRICT_SLACK
        cc = c
    else:
        ok = rho_gxbar_y > STRICT_SLACK and rho_gxbar_y <= rho_gx_y - cprime * d_x_xbar + STRICT_SLACK
        cc = cprime
    if not ok:
        return
    report.premise_samples += 1
    try:
        xp, _vp = run_oracle(xv, gx, yv, cc)
    except OracleError as exc:
        report.violations.append({"kind": "oracle", **exc.witness})
        return
    if xp is None:
        report.violations.append({"kind": "no-descent-point", "x": list(xv), "y": list(yv)})
        return
    lhs = vec_dist(gv(xp), yv, norm)
    rhs = rho_gx_y - cc * vec_dist(xv, xp, norm)
    if not (lhs < rhs - STRICT_SLACK):
        report.violations.append(
            {"kind": "decrease", "x": list(xv), "y": list(yv), "x_prime": list(xp), "lhs": lhs, "rhs": rhs}
        )


def _eval_set_premise(report, form, F, point, gp, yv, c, cprime, r, alpha, run_oracle, norm):
    xbar, ybar = point.x, point.y
    xv, vv = gp.x, gp.y
    if alpha and vec_dist(vv, ybar, norm) >= r / alpha:
        return
    rho_v_y = vec_dist(vv, yv, norm)
    rho_ybar_y = vec_dist(ybar, yv, norm)
    guard = max(vec_dist(xv, xbar, norm), alpha * vec_dist(vv, ybar, norm)) if alpha else vec_dist(xv, xbar, norm)
    if form.tag == "regularity":
        # around-point criterion: premise is only y != v
        ok = rho_v_y > STRICT_SLACK
        cc = c if form.direction == "sufficient" else cprime
    elif form.direction == "sufficient":
        ok = rho_v_y > STRICT_SLACK and rho_v_y <= rho_ybar_y - c * guard + STRICT_SLACK
        cc = c
    else:
        ok = rho_ybar_y > STRICT_SLACK and rho_ybar_y <= rho_v_y - cprime * guard + STRICT_SLACK
        cc = cprime
    if not ok:
        return
    report.premise_samples += 1
    try:
        xp, vp = run_oracle(xv, vv, yv, cc)
    except OracleError as exc:
        report.violations.append({"kind": "oracle", **exc.witness})
        return
    if xp is None:
        report.violations.append({"kind": "no-descent-pair", "x": list(xv), "v": list(vv), "y": list(yv)})
        return
    lhs = vec_dist(vp, yv, norm)
    step = max(vec_dist(xv, xp, norm), alpha * vec_dist(vv, vp, norm)) if alpha else vec_dist(xv, xp, norm)
    rhs = rho_v_y - cc * step
    if not (lhs < rhs - STRICT_SLACK):
        report.violations.append(
            {
                "kind": "decrease",
                "x": list(xv),
                "v": list(vv),
                "y": list(yv),
                "x_prime": list(xp),
                "v_prime": list(vp),
                "lhs": lhs,
                "rhs": rhs,
            }
        )


def _eval_subreg_premise(report, F, point, gp, c, cprime, r, form, run_oracle, norm):
    xbar, ybar = point.x, point.y
    xv, yv = gp.x, gp.y
    if dist_to_value_set(ybar, F, xv, norm) <= TOL_FEAS:
        return  # x in F^{-1}(ybar)
    if vec_dist(xv, xbar, norm) >= r or vec_dist(yv, ybar, norm) >= r:
        return
    report.premise_samples += 1
    cc = c if form.direction == "sufficient" else cprime
    try:
        up, vp = run_oracle(xv, yv, ybar, cc)
    except OracleError as exc:
        report.violations.append({"kind": "oracle", **exc.witness})
        return
    if up is None:
        report.violations.append({"kind": "no-descent-pair", "x": list(xv), "y": list(yv)})
        return
    if vec_dist(up, xv, norm) <= STRICT_SLACK and vec_dist(vp, yv, norm) <= STRICT_SLACK:
        report.violations.append({"kind": "degenerate-pair", "x": list(xv), "y": list(yv)})
        return
    lhs = cc * max(vec_dist(up, xv, norm), r * vec_dist(vp, yv, norm))
    rhs = vec_dist(yv, ybar, norm) - vec_dist(vp, ybar, norm)
    if not (lhs < rhs - STRICT_SLACK):
        report.violations.append(
            {
                "kind": "decrease",
                "x": list(xv),
                "y": list(yv),
                "u": list(up),
                "v": list(vp),
                "lhs": lhs,
                "rhs": rhs,
            }
        )


# ---------------------------------------------------------------------------
# perturbation estimates


def verify_linear_perturbation(
    f: SetMap,
    A,
    x0,
    schedule: LiminfSchedule | None = None,
    seed: int = 42,
    norm: str = "euclidean",
) -> CertificateReport:
    """Check sur f >= sur A - lip(f-A) and psopen f >= psopen A - calm(f-A).

    The linear moduli are closed forms; lip/calm of the difference and
    sur/psopen of f are sampled estimates at x0.
    """
    fsv = require_single_valued(f)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    x0 = as_vector(x0, fsv.n)
    fx0 = fsv(x0)
    lm = linear_moduli(A)
    diff = _minus_linear(fsv, A)
    dpt = GraphPoint(x0, fsv(x0) - A @ x0)
    schedule = schedule or LiminfSchedule()
    lip_est = estimate_modulus("lip", diff, dpt, schedule, norm, derive_seed(seed, "lip")).value
    calm_est = estimate_modulus("calm", diff, dpt, schedule, norm, derive_seed(seed, "calm")).value
    pt = GraphPoint(x0, fx0)
    sur_est = estimate_modulus("sur", f, pt, schedule, norm, derive_seed(seed, "sur")).value
    psopen_A = 0.0 if lm.subreg_strong == INF else 1.0 / lm.subreg_strong
    report = CertificateReport(
        check="linear_perturbation",
        constants={"sur_A": lm.sur, "psopen_A": psopen_A},
        premise_samples=0,
        seed=seed,
        norm=norm,
    )
    report.values = {"lip_diff": lip_est, "calm_diff": calm_est, "sur_f": sur_est}
    target = lm.sur - lip_est
    ok_sur = sur_est >= target - _conclusion_tol(max(lm.sur, sur_est))
    witnesses = []
    if not ok_sur:
        witnesses.append({"inequality": "sur", "estimate": sur_est, "lower_bound": target})
    if psopen_A > 0:
        psopen_est = estimate_modulus("psopen", f, pt, schedule, norm, derive_seed(seed, "pso")).value
        report.values["psopen_f"] = psopen_est
        t2 = psopen_A - calm_est
        if psopen_est < t2 - _conclusion_tol(max(psopen_A, 1.0)):
            witnesses.append({"inequality": "psopen", "estimate": psopen_est, "lower_bound": t2})
    else:
        report.notes.append("A is not strongly subregular: psopen branch not applicable")
    report.conclusion = {"checked": True, "passed": not witnesses, "witnesses": witnesses}
    return report.finalize()


def verify_setvalued_perturbation(
    F: SetMap,
    g: SetMap,
    point: GraphPoint,
    schedule: LiminfSchedule | None = None,
    seed: int = 42,
    norm: str = "euclidean",
) -> CertificateReport:
    """Check sur(g+F) >= sur F - lip g at the shifted reference point."""
    gsv = require_single_valued(g)
    check_on_graph(F, point, norm=norm)
    schedule = schedule or LiminfSchedule()
    sur_F = estimate_modulus("sur", F, point, schedule, norm, derive_seed(seed, "surF")).value
    gpt = GraphPoint(point.x, gsv(point.x))
    lip_g = estimate_modulus("lip", gsv, gpt, schedule, norm, derive_seed(seed, "lipg")).value
    shifted = GraphPoint(point.x, gsv(point.x) + point.y)
    total = SumMap(gsv, F)
    sur_sum = estimate_modulus("sur", total, shifted, schedule, norm, derive_seed(seed, "surS")).value
    target = sur_F - lip_g
    passed = sur_sum >= target - _conclusion_tol(max(sur_F, 1.0))
    report = CertificateReport(
        check="setvalued_perturbation",
        constants={},
        premise_samples=0,
        seed=seed,
        norm=norm,
    )
    report.values = {"sur_F": sur_F, "lip_g": lip_g, "sur_sum": sur_sum, "lower_bound": target}
    report.conclusion = {
        "checked": True,
        "passed": bool(passed),
        "witnesses": [] if passed else [{"estimate": sur_sum, "lower_bound": target}],
    }
    return report.finalize()


def verify_sum_semiregularity(
    F: SetMap,
    G: SetMap,
    point: tuple,
    schedule: LiminfSchedule | None = None,
    seed: int = 42,
    norm: str = "euclidean",
) -> CertificateReport:
    """Check lopen(F+G) >= sur F - lip G; also report sur(F+G).

    The extra sur(F+G) value documents that openness at the point cannot be
    upgraded to openness around it for sums.
    """
    xbar, ybar, zbar = (as_vector(v) for v in point)
    check_on_graph(F, GraphPoint(xbar, ybar), norm=norm)
    check_on_graph(G, GraphPoint(xbar, zbar), norm=norm)
    schedule = schedule or LiminfSchedule()
    sur_F = estimate_modulus("sur", F, GraphPoint(xbar, ybar), schedule, norm, derive_seed(seed, "surF")).value
    lip_G = estimate_modulus("lip", G, GraphPoint(xbar, zbar), schedule, norm, derive_seed(seed, "lipG")).value
    total = SumMap(F, G)
    spt = GraphPoint(xbar, ybar + zbar)
    lopen_sum = estimate_modulus("lopen", total, spt, schedule, norm, derive_seed(seed, "lopenS")).value
    sur_sum = estimate_modulus("sur", total, spt, schedule, norm, derive_seed(seed, "surS")).value
    target = sur_F - lip_G
    passed = lopen_sum >= target - _conclusion_tol(max(sur_F, 1.0))
    report = CertificateReport(
        check="sum_semiregularity",
        constants={},
        premise_samples=0,
        seed=seed,
        norm=norm,
    )
    report.values = {
        "sur_F": sur_F,
        "lip_G": lip_G,
        "lopen_sum": lopen_sum,
        "sur_sum": sur_sum,
        "lower_bound": target,
    }
    report.conclusion = {
        "checked": True,
        "passed": bool(passed),
        "witnesses": [] if passed else [{"estimate": lopen_sum, "lower_bound": target}],
    }
    return report.finalize()


def verify_sum_distance_bound(
    F: SetMap,
    G: SetMap,
    point: tuple,
    kappa: float,
    ell: float,
    beta: float,
    samples: int = 100,
    seed: int = 42,
    norm: str = "euclidean",
) -> CertificateReport:
    """Check dist(xbar, (F+G)^{-1}(y)) <= kappa/(1-kappa*ell) dist(y, F(xbar)+zbar).

    The metric-regularity premise for F (constant kappa) and the Aubin
    premise for G (constant ell) are sampled first; a premise violation
    aborts with a witness and the conclusion is not tested.
    """
    if kappa <= 0 or ell < 0 or kappa * ell >= 1:
        raise ValueError("need kappa > 0, ell >= 0 and kappa*ell < 1")
    xbar, ybar, zbar = (as_vector(v) for v in point)
    check_on_graph(F, GraphPoint(xbar, ybar), norm=norm)
    check_on_graph(G, GraphPoint(xbar, zbar), norm=norm)
    a = 2.2 * beta * max(1.0, kappa) / (1 - kappa * ell)
    rng = SplitMix64(derive_seed(seed, "sumdist"))
    report = CertificateReport(
        check="sum_distance_bound",
        constants={"kappa": kappa, "ell": ell, "beta": beta, "region": a},
        premise_samples=0,
        seed=seed,
        norm=norm,
    )
    # premise: metric regularity of F on B(xbar,a) x B(ybar,a)
    for _ in range(samples // 2):
        xv = rng.in_ball(xbar, a, norm)
        yv = rng.in_ball(ybar, a, norm)
        dval = dist_to_value_set(yv, F, xv, norm)
        if dval == INF or dval <= TOL_FEAS:
            continue
        report.premise_samples += 1
        dpre = dist_to_preimage(xv, F, yv, Ball(xbar, 3 * a), norm=norm)
        if dpre > kappa * dval + _conclusion_tol(kappa * dval):
            report.verdict = "rejected"
            report.violations.append(
                {"premise": "metric_regularity", "x": list(xv), "y": list(yv), "lhs": dpre, "rhs": kappa * dval}
            )
            return report
    # premise: Aubin property of G with constant ell
    for _ in range(samples // 2):
        xv = rng.in_ball(xbar, a, norm)
        xw = rng.in_ball(xbar, a, norm)
        vs = G.value_set(xv)
        if vs.is_empty():
            continue
        for yv in vs.members_near(zbar, a, 2, rng, norm):
            report.premise_samples += 1
            lhs = dist_to_value_set(yv, G, xw, norm)
            rhs = ell * vec_dist(xv, xw, norm)
            if lhs > rhs + _conclusion_tol(max(rhs, 1.0)):
                report.verdict = "rejected"
                report.violations.append(
                    {"premise": "aubin", "x": list(xv), "x_prime": list(xw), "y": list(yv), "lhs": lhs, "rhs": rhs}
                )
                return report
    # conclusion
    factor = kappa / (1 - kappa * ell)
    total = SumMap(F, G)
    base_vs = F.value_set(xbar).translate(zbar)
    witnesses = []
    ys = [rng.in_ball(ybar + zbar, beta, norm) for _ in range(samples)]
    found = preimage_search_many(xbar, total, ys, Ball(xbar, max(2 * a, 4 * factor * beta)), norm=norm)
    for yv, (dpre, _) in zip(ys, found):
        rhs = factor * base_vs.dist(yv, norm)
        if dpre > rhs + _conclusion_tol(max(rhs, beta)):
            witnesses.append({"y": list(yv), "preimage_distance": dpre, "bound": rhs})
    report.conclusion = {"checked": True, "passed": not witnesses, "witnesses": witnesses, "factor": factor}
    return report.finalize()
