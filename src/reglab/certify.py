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
from typing import Callable, NamedTuple

import numpy as np

from .geometry import STRICT_SLACK, TOL_FEAS, Ball, GraphPoint, JsonReport, as_vector, vec_dist
from .moduli import LiminfSchedule, _shell_answers, _value_dists, check_on_graph, estimate_modulus, linear_moduli
from .rng import SplitMix64, derive_seed, shell_points, sphere_directions
from .setmaps import (
    INF,
    SetMap,
    SumMap,
    _minus_linear,
    graph_sample,
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


class OracleNoAnswer(ValueError):
    """A user descent oracle returned None, or a pair with a None entry."""


def _as_pair(result, n, m):
    """A user oracle's answer as (x', v'), with v' None where it gave x' alone."""
    pair = isinstance(result, tuple) and len(result) == 2
    if result is None or (pair and any(v is None for v in result)):
        raise OracleNoAnswer(f"the descent oracle gave no answer: it returned {result!r}")
    if pair:
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
    A user oracle that returns None, or a pair with a None entry, raises
    ``OracleNoAnswer``.  After the schedule's shells, a check with fewer
    than ``premise_target`` premise samples keeps drawing shells r0 * rho^j
    from the same seeded stream, up to ``SHELL_CAP_FACTOR`` times the
    schedule's count; ``report.shells`` is the number of shells drawn.
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

    def answer(premises):
        """The oracle's answer to each premise tuple, in draw order: its
        (x', v'), with x' None where it found nothing, or the witness of an
        off-graph pair.  A user oracle is called once per tuple; the
        built-in one heads toward a preimage point of y (the construction
        used in the necessity proofs), all tuples in one preimage call.
        Every pair found is checked on the graph in one batch."""
        if not premises:
            return []
        if oracle is not None:
            pairs = [_as_pair(oracle(p.x, p.v, p.y, dict(report.constants)), F.n, F.m) for p in premises]
        else:
            regions = [Ball(xbar, max(r, 2 * vec_dist(p.y, ybar, norm) / p.cc)) for p in premises]
            found = preimage_search_many(np.array([p.x for p in premises]), F, [p.y for p in premises], regions,
                                         norm=norm)
            pairs = [(xp, None if xp is None else p.y) for p, (_, xp) in zip(premises, found)]
        out = []
        for p, (xp, vp) in zip(premises, pairs):
            if xp is not None and vp is None:  # x' alone: the member of F(x') nearest y
                vp = as_vector(F.value_set(xp).nearest(p.y, norm)[0], F.m)
            out.append((xp, vp))
        hits = [i for i, (xp, _) in enumerate(out) if xp is not None]
        for i, d in zip(hits, _value_dists(F, [out[i][0] for i in hits], [out[i][1] for i in hits], norm)):
            if not d <= 10 * TOL_FEAS:
                (xp, vp), p = out[i], premises[i]
                out[i] = {"kind": "oracle", "x": list(p.x), "y": list(p.y), "x_prime": list(xp), "v_prime": list(vp)}
        return out

    if form.tag == "semireg_single" and gv is None:
        raise ValueError("semireg_single requires a single-valued map")

    gxbar = gv(xbar) if gv is not None else None
    rng = SplitMix64(derive_seed(seed, "descent"))
    j = 0
    while j < schedule.shells or (
        report.premise_samples < premise_target and j < SHELL_CAP_FACTOR * schedule.shells
    ):
        # draw the shell and test each tuple's premise, answer the tuples
        # that meet it, record their witnesses in draw order
        rad = schedule.r0 * schedule.rho**j
        sj = derive_seed(seed, f"descent-shell{j}")
        if form.tag == "semireg_single" or (form.tag == "regularity" and gv is not None):
            lim = 0.999 * ((c if form.direction == "sufficient" else cprime) * r)
            if form.tag == "regularity":
                lim = 0.999 * r
            draws = [(rng.in_ball(xbar, min(rad, 0.999 * r), norm), rng.in_ball(gxbar, lim, norm))
                     for _ in range(schedule.samples_per_shell)]
            premises = [_single_premise(form, gv, xbar, gxbar, xv, yv, c, cprime, norm) for xv, yv in draws]
        elif form.tag == "semireg_set" or form.tag == "regularity":
            pts = graph_sample(F, point, min(rad, 0.999 * (r / alpha if alpha else r)), schedule.samples_per_shell // 4 + 1, sj, norm)
            lim = c * r if form.direction == "sufficient" else cprime * r
            premises = [_set_premise(form, point, gp, rng.in_ball(ybar, 0.999 * lim, norm), c, cprime, r, alpha, norm)
                        for gp in pts for _ in range(3)]
        else:  # subregularity
            pts = graph_sample(F, point, min(rad, 0.999 * r), schedule.samples_per_shell // 2 + 1, sj, norm)
            dvals = _value_dists(F, [gp.x for gp in pts], [ybar] * len(pts), norm)
            premises = [_subreg_premise(form, point, gp, dval, c, cprime, r, norm) for gp, dval in zip(pts, dvals)]
        premises = [p for p in premises if p is not None]
        report.premise_samples += len(premises)
        for p, found in zip(premises, answer(premises)):
            if isinstance(found, dict):
                report.violations.append(found)
            elif found[0] is None:
                report.violations.append({"kind": p.miss, **p.names})
            elif (violation := p.decrease(*found)) is not None:
                report.violations.append(violation)
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
            xs = shell_points(xbar, 0.0, r / 2, 24, derive_seed(seed, "subreg-concl"))
            for i, dval, dpre in _shell_answers(F, xs, [ybar] * len(xs), [Ball(xbar, 2 * r)] * len(xs), norm):
                bound = dval / c
                if dpre > bound * (1 + CONCLUSION_RTOL) + CONCLUSION_ATOL:
                    witnesses.append({"x": list(xs[i]), "preimage_distance": dpre, "bound": bound})
            report.conclusion = {"checked": True, "passed": not witnesses, "witnesses": witnesses}
    return report.finalize()


class _Premise(NamedTuple):
    """A tuple that meets its form's premise: the oracle's query (x, v, y)
    and rate cc, the tuple as its witnesses name it, the witness kind of a
    missing answer, and the test of an answer (x', v'), which gives its
    violation or None."""

    x: np.ndarray
    v: np.ndarray
    y: np.ndarray
    cc: float
    names: dict
    miss: str
    decrease: Callable


def _single_premise(form, gv, xbar, gxbar, xv, yv, c, cprime, norm):
    gx = gv(xv)
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
        return None
    names = {"x": list(xv), "y": list(yv)}

    def decrease(xp, _vp):
        lhs = vec_dist(gv(xp), yv, norm)
        rhs = rho_gx_y - cc * vec_dist(xv, xp, norm)
        if not (lhs < rhs - STRICT_SLACK):
            return {"kind": "decrease", **names, "x_prime": list(xp), "lhs": lhs, "rhs": rhs}
        return None

    return _Premise(xv, gx, yv, cc, names, "no-descent-point", decrease)


def _set_premise(form, point, gp, yv, c, cprime, r, alpha, norm):
    xbar, ybar = point.x, point.y
    xv, vv = gp.x, gp.y
    if alpha and vec_dist(vv, ybar, norm) >= r / alpha:
        return None
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
        return None
    names = {"x": list(xv), "v": list(vv), "y": list(yv)}

    def decrease(xp, vp):
        lhs = vec_dist(vp, yv, norm)
        step = max(vec_dist(xv, xp, norm), alpha * vec_dist(vv, vp, norm)) if alpha else vec_dist(xv, xp, norm)
        rhs = rho_v_y - cc * step
        if not (lhs < rhs - STRICT_SLACK):
            return {"kind": "decrease", **names, "x_prime": list(xp), "v_prime": list(vp), "lhs": lhs, "rhs": rhs}
        return None

    return _Premise(xv, vv, yv, cc, names, "no-descent-pair", decrease)


def _subreg_premise(form, point, gp, dval, c, cprime, r, norm):
    """``dval`` is dist(ybar, F(x)) at the graph point (x, y)."""
    xbar, ybar = point.x, point.y
    xv, yv = gp.x, gp.y
    if dval <= TOL_FEAS:
        return None  # x in F^{-1}(ybar)
    if vec_dist(xv, xbar, norm) >= r or vec_dist(yv, ybar, norm) >= r:
        return None
    cc = c if form.direction == "sufficient" else cprime
    names = {"x": list(xv), "y": list(yv)}

    def decrease(up, vp):
        if vec_dist(up, xv, norm) <= STRICT_SLACK and vec_dist(vp, yv, norm) <= STRICT_SLACK:
            return {"kind": "degenerate-pair", **names}
        lhs = cc * max(vec_dist(up, xv, norm), r * vec_dist(vp, yv, norm))
        rhs = vec_dist(yv, ybar, norm) - vec_dist(vp, ybar, norm)
        if not (lhs < rhs - STRICT_SLACK):
            return {"kind": "decrease", **names, "u": list(up), "v": list(vp), "lhs": lhs, "rhs": rhs}
        return None

    return _Premise(xv, yv, ybar, cc, names, "no-descent-pair", decrease)


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
    # premise: metric regularity of F on B(xbar,a) x B(ybar,a), all pairs
    # drawn, then the pairs with TOL_FEAS < dist(y, F(x)) < inf answered in
    # one call; the first violation in draw order ends it
    pairs = [(rng.in_ball(xbar, a, norm), rng.in_ball(ybar, a, norm)) for _ in range(samples // 2)]
    xs, ys = [xv for xv, _ in pairs], [yv for _, yv in pairs]
    dvals = _value_dists(F, xs, ys, norm)
    kept = [i for i, dval in enumerate(dvals) if TOL_FEAS < dval < INF]
    found = preimage_search_many(np.array([xs[i] for i in kept]), F, [ys[i] for i in kept],
                                 Ball(xbar, 3 * a), norm=norm) if kept else []
    for i, (dpre, _) in zip(kept, found):
        dval = dvals[i]
        report.premise_samples += 1
        if dpre > kappa * dval + _conclusion_tol(kappa * dval):
            report.verdict = "rejected"
            report.violations.append(
                {"premise": "metric_regularity", "x": list(xs[i]), "y": list(ys[i]), "lhs": dpre, "rhs": kappa * dval}
            )
            return report
    # premise: Aubin property of G with constant ell, drawn (the members come
    # from the same stream) and answered in one batch
    drawn = []
    for _ in range(samples // 2):
        xv = rng.in_ball(xbar, a, norm)
        xw = rng.in_ball(xbar, a, norm)
        vs = G.value_set(xv)
        if not vs.is_empty():
            drawn += [(xv, xw, yv) for yv in vs.members_near(zbar, a, 2, rng, norm)]
    for (xv, xw, yv), lhs in zip(drawn, _value_dists(G, [xw for _, xw, _ in drawn], [yv for *_, yv in drawn], norm)):
        report.premise_samples += 1
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
