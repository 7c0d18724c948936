import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import asdict

from reglab import certify
from reglab.certify import (
    CONCLUSION_ATOL,
    DESCENT_FORMS,
    CONCLUSION_RTOL,
    SHELL_CAP_FACTOR,
    CertificateReport,
    DescentForm,
    OracleNoAnswer,
    _as_pair,
    _conclusion_tol,
    _covering_conclusion,
    check_descent_certificate,
    verify_linear_perturbation,
    verify_setvalued_perturbation,
    verify_sum_distance_bound,
    verify_sum_semiregularity,
)
from reglab.corpus import load_example
from reglab.geometry import STRICT_SLACK, TOL_FEAS, Ball, GraphPoint, as_vector, vec_dist
from reglab.moduli import LiminfSchedule, check_on_graph
from reglab.rng import SplitMix64, derive_seed, shell_points
from reglab.setmaps import (
    INF,
    FiniteValued,
    LinearOp,
    NormalConeBox,
    SetMap,
    SingleValued,
    SumMap,
    dist_to_preimage,
    dist_to_value_set,
    graph_sample,
    preimage_search,
)

arr = lambda x: np.asarray(x, dtype=float)
ORIGIN = GraphPoint([0.0], [0.0])


def test_descent_semireg_set_two_branch_with_explicit_pair():
    entry = load_example("two_branch")
    rep = check_descent_certificate(
        DescentForm("semireg_set", "sufficient"),
        entry.objects["setmap"],
        entry.objects["point"],
        {"c": 0.9, "r": 0.5, "alpha": 0.5},
        oracle=lambda x, v, y, consts: (y, y),
    )
    assert rep.verdict == "pass"
    assert rep.premise_samples >= 50
    assert rep.conclusion["passed"] and len(rep.conclusion["t_grid"]) == 4


def _two_branch_descent(seed, **kwargs):
    entry = load_example("two_branch")
    return check_descent_certificate(
        DescentForm("semireg_set", "sufficient"), entry.objects["setmap"], entry.objects["point"],
        {"c": 0.9, "r": 0.5, "alpha": 0.5}, oracle=lambda x, v, y, consts: (y, y), seed=seed, **kwargs,
    )


def test_descent_premise_target_draws_more_shells_from_the_same_stream():
    short = _two_branch_descent(203)
    assert short.shells == 5 and short.premise_samples == 46
    more = _two_branch_descent(203, premise_target=50)
    assert more.shells == 6 and more.premise_samples >= 50
    assert more.verdict == "pass" and more.conclusion == short.conclusion
    # a seed that meets the target on its schedule draws no extra shell
    assert _two_branch_descent(42, premise_target=50).to_json_dict() == _two_branch_descent(42).to_json_dict()


def test_descent_premise_target_stops_at_the_shell_cap():
    g = SingleValued(lambda x: 2.0 * arr(x))
    rep = check_descent_certificate(
        DescentForm("semireg_single", "sufficient"), g, ORIGIN, {"c": 2.5, "r": 0.5},
        oracle=lambda x, v, y, consts: arr(y) / 2.0, premise_target=10**6,
    )
    assert rep.shells == SHELL_CAP_FACTOR * 5 and rep.premise_samples < 10**6


def test_descent_semireg_single_identity():
    I = SingleValued(lambda x: arr(x))
    rep = check_descent_certificate(
        DescentForm("semireg_single", "sufficient"), I, ORIGIN, {"c": 0.99, "r": 0.5},
        oracle=lambda x, v, y, consts: y,
    )
    assert rep.verdict == "pass" and not rep.violations


def test_descent_double_slope_passes_then_premise_dries_up():
    g = SingleValued(lambda x: 2.0 * arr(x))
    ok = check_descent_certificate(
        DescentForm("semireg_single", "sufficient"), g, ORIGIN, {"c": 1.5, "r": 0.5},
        oracle=lambda x, v, y, consts: arr(y) / 2.0,
    )
    assert ok.verdict == "pass" and ok.premise_samples >= 5
    over = check_descent_certificate(
        DescentForm("semireg_single", "sufficient"), g, ORIGIN, {"c": 2.5, "r": 0.5},
        oracle=lambda x, v, y, consts: arr(y) / 2.0,
    )
    # beyond the true rate: either no premise tuples (vacuous) or a witness
    assert over.verdict in ("fail", "vacuous")
    assert over.premise_samples < 5 or over.violations or not over.conclusion["passed"]


def test_descent_necessary_zero_violations_on_linear():
    for F in (SingleValued(lambda x: arr(x)), SingleValued(lambda x: 2.0 * arr(x))):
        c = 1.0 if F.fn(np.array([1.0]))[0] == 1.0 else 2.0
        rep = check_descent_certificate(
            DescentForm("semireg_single", "necessary"), F, ORIGIN,
            {"c": c, "r": 0.4, "c_prime": 0.9 * c},
        )
        assert rep.violations == []
        assert rep.premise_samples >= 5


def test_descent_oracle_error_reported():
    off_graph = lambda x, v, y, consts: (y, arr(y) + 5.0)
    entry = load_example("two_branch")
    rep = check_descent_certificate(
        DescentForm("semireg_set", "sufficient"),
        entry.objects["setmap"],
        entry.objects["point"],
        {"c": 0.9, "r": 0.5, "alpha": 0.5},
        oracle=off_graph,
    )
    assert rep.verdict == "fail"
    assert any(v["kind"] == "oracle" for v in rep.violations)


def test_descent_regularity_form_single_valued():
    I = SingleValued(lambda x: arr(x))
    rep = check_descent_certificate(
        DescentForm("regularity", "sufficient"), I, ORIGIN, {"c": 0.9, "r": 0.3},
        oracle=lambda x, v, y, consts: y,
    )
    assert rep.verdict == "pass"
    assert rep.conclusion["passed"]


def test_descent_regularity_form_set_valued_needs_alpha():
    entry = load_example("two_branch")
    with pytest.raises(ValueError):
        check_descent_certificate(
            DescentForm("regularity", "sufficient"),
            entry.objects["setmap"],
            entry.objects["point"],
            {"c": 0.9, "r": 0.3},
        )


def test_descent_subregularity_identity():
    rep = check_descent_certificate(
        DescentForm("subregularity", "sufficient"), SingleValued(lambda x: arr(x)), ORIGIN,
        {"c": 0.9, "r": 0.3},
    )
    assert rep.verdict in ("pass", "vacuous")
    if rep.conclusion:
        assert rep.conclusion["passed"]


def test_violation_witnesses_replay():
    # a deliberately bad oracle produces decrease violations whose recorded
    # sides replay through the distance oracles
    g = SingleValued(lambda x: arr(x))
    bad = lambda x, v, y, consts: arr(x)  # no progress at all
    rep = check_descent_certificate(
        DescentForm("semireg_single", "sufficient"), g, ORIGIN, {"c": 0.9, "r": 0.4}, oracle=bad
    )
    assert rep.violations
    for w in rep.violations[:10]:
        assert w["kind"] == "decrease"
        lhs = dist_to_value_set(w["y"], g, w["x_prime"])
        rhs = dist_to_value_set(w["y"], g, w["x"]) - 0.9 * abs(w["x"][0] - w["x_prime"][0])
        assert lhs == pytest.approx(w["lhs"], abs=1e-12)
        assert not (lhs < rhs - 1e-12)


def test_sufficient_pass_implies_conclusion_pass():
    entry = load_example("two_branch")
    rep = check_descent_certificate(
        DescentForm("semireg_set", "sufficient"),
        entry.objects["setmap"],
        entry.objects["point"],
        {"c": 0.5, "r": 0.4, "alpha": 0.5},
        oracle=lambda x, v, y, consts: (y, y),
    )
    if rep.verdict == "pass":
        assert rep.conclusion["passed"]


# ---------------------------------------------------------------------------
# perturbation checks


def test_linear_perturbation_sine():
    f = SingleValued(lambda x: arr(x) + 0.1 * np.sin(arr(x)))
    rep = verify_linear_perturbation(f, [[1.0]], [0.0])
    assert rep.verdict == "pass"
    assert rep.values["sur_f"] >= 0.9 - 0.06
    assert rep.values["lip_diff"] == pytest.approx(0.1, abs=0.01)


def test_linear_perturbation_exact_linear():
    rep = verify_linear_perturbation(LinearOp([[2.0]]), [[2.0]], [0.0])
    assert rep.verdict == "pass"
    assert rep.values["lip_diff"] == 0.0
    assert rep.values["sur_f"] == pytest.approx(2.0, rel=1e-6)


def test_linear_perturbation_quadratic_correction():
    f = SingleValued(lambda x: arr(x) + arr(x) ** 2)
    rep = verify_linear_perturbation(f, [[1.0]], [0.0])
    assert rep.verdict == "pass"
    assert rep.values["sur_f"] == pytest.approx(1.0, abs=0.05)
    assert rep.values["lip_diff"] <= 0.01


def test_setvalued_perturbation():
    g = SingleValued(lambda x: 0.2 * np.sin(arr(x)))
    rep = verify_setvalued_perturbation(LinearOp([[1.0]]), g, ORIGIN)
    assert rep.verdict == "pass"
    assert rep.values["sur_sum"] >= 0.8 - 0.05
    zero = SingleValued(lambda x: 0.0 * arr(x))
    rep = verify_setvalued_perturbation(LinearOp([[1.0]]), zero, ORIGIN)
    assert rep.values["sur_sum"] == pytest.approx(rep.values["sur_F"], rel=0.05)


def test_sum_semiregularity_remark_values():
    entry = load_example("sum_remark")
    rep = verify_sum_semiregularity(entry.objects["F"], entry.objects["G"], entry.objects["point"])
    v = rep.values
    assert rep.verdict == "pass"
    assert v["lopen_sum"] >= 0.9 and v["sur_sum"] <= 0.1
    assert v["sur_F"] == pytest.approx(1.0, abs=0.1) and v["lip_G"] <= 0.05


def test_sum_semiregularity_trivial_addend():
    F = FiniteValued([lambda x: arr(x), lambda x: 0.0 * arr(x)])
    G = SingleValued(lambda x: 0.0 * arr(x))
    rep = verify_sum_semiregularity(F, G, ([0.0], [0.0], [0.0]))
    assert rep.values["lopen_sum"] == pytest.approx(1.0, abs=0.1)


def test_sum_distance_bound_cases():
    G = SingleValued(lambda x: 0.5 * np.sin(arr(x)))
    rep = verify_sum_distance_bound(LinearOp([[1.0]]), G, ([0.0], [0.0], [0.0]), 1.0, 0.5, 0.1, samples=120)
    assert rep.verdict == "pass" and rep.conclusion["factor"] == pytest.approx(2.0)
    rep = verify_sum_distance_bound(
        LinearOp([[2.0]]), SingleValued(lambda x: 0.5 * arr(x)), ([0.0], [0.0], [0.0]), 0.5, 0.5, 0.1, samples=80
    )
    assert rep.verdict == "pass" and rep.conclusion["factor"] == pytest.approx(2.0 / 3.0)


def test_sum_distance_bound_rejects_bad_premise():
    # kappa = 0.25 understates the metric regularity constant of 2x (true 0.5)
    rep = verify_sum_distance_bound(
        LinearOp([[2.0]]), SingleValued(lambda x: 0.0 * arr(x)), ([0.0], [0.0], [0.0]), 0.25, 1e-6, 0.1, samples=60
    )
    assert rep.verdict == "rejected"
    assert rep.violations and rep.violations[0]["premise"] == "metric_regularity"
    assert rep.conclusion is None


def test_sum_distance_bound_validates_constants():
    with pytest.raises(ValueError):
        verify_sum_distance_bound(LinearOp([[1.0]]), LinearOp([[1.0]]), ([0.0], [0.0], [0.0]), 1.0, 1.0, 0.1)


# ---------------------------------------------------------------------------
# the covering conclusions make one preimage call per t, and answer as the
# per-target loops of before did, bit for bit


def _bits(obj):
    if isinstance(obj, dict):
        return {k: _bits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_bits(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    return obj


def _count_oracle_calls(monkeypatch):
    """The number of targets of each ``preimage_search_many`` call that certify makes."""
    calls = []
    many = certify.preimage_search_many

    def counted(x0, F, ys, *args, **kwargs):
        calls.append(len(ys))
        return many(x0, F, ys, *args, **kwargs)

    monkeypatch.setattr(certify, "preimage_search_many", counted)
    return calls


def _reference_covering_conclusion(F, point, c, r, seed, norm, t_count=4, n_targets=12):
    """The per-target loop of ``_covering_conclusion`` (kept verbatim as the oracle)."""
    from reglab.rng import sphere_directions

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
        for target in targets:
            dpre = dist_to_preimage(point.x, F, target, Ball(point.x, 1.05 * t), norm=norm)
            if dpre > t * (1 + CONCLUSION_RTOL) + CONCLUSION_ATOL:
                witnesses.append(
                    {"t": t, "target": [float(v) for v in target], "preimage_distance": dpre}
                )
    return {"checked": True, "t_grid": ts, "passed": not witnesses, "witnesses": witnesses}


_TWO_BRANCH = {
    # the 1D branch path answers every target
    "two_branch": load_example("two_branch").objects["setmap"],
    # not vectorized: every target goes to the grid stage
    "two_branch_grid": FiniteValued([lambda x: arr(x), lambda x: 0.0 * arr(x)], vectorized=False),
}
_CONCLUSION_CASES = [
    (name, point, c, r, norm)
    for name in _TWO_BRANCH
    for point, c, r in [
        (ORIGIN, 0.9, 0.5),
        # on the branch y = 0 away from the origin: not open, so witnesses
        (GraphPoint([0.2], [0.0]), 0.9, 0.3),
        (GraphPoint([-0.3], [-0.3]), 1.5, 0.4),
    ]
    for norm in ["euclidean", "max"]
    if name == "two_branch" or (norm == "euclidean" and point.x[0] == 0.2)
]


@pytest.mark.parametrize("name, point, c, r, norm", _CONCLUSION_CASES)
def test_covering_conclusion_makes_one_call_per_t(monkeypatch, name, point, c, r, norm):
    F = _TWO_BRANCH[name]
    ref = _reference_covering_conclusion(F, point, c, r, 7, norm)
    calls = _count_oracle_calls(monkeypatch)
    got = _covering_conclusion(F, point, c, r, 7, norm)
    assert _bits(got) == _bits(ref)
    # in 1D the 4 directions are +1 and -1, two targets each, plus 2 drawn targets
    assert len(calls) == len(got["t_grid"]) == 4 and set(calls) == {6}
    if point.x[0] == 0.2:
        assert ref["witnesses"]


def _reference_sum_distance_bound(F, G, point, kappa, ell, beta, samples=100, seed=42, norm="euclidean"):
    """``verify_sum_distance_bound`` with its per-sample premise loops and its
    per-target conclusion loop (kept verbatim as the oracle)."""
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
    for _ in range(samples):
        yv = rng.in_ball(ybar + zbar, beta, norm)
        rhs = factor * base_vs.dist(yv, norm)
        dpre = dist_to_preimage(xbar, total, yv, Ball(xbar, max(2 * a, 4 * factor * beta)), norm=norm)
        if dpre > rhs + _conclusion_tol(max(rhs, beta)):
            witnesses.append({"y": list(yv), "preimage_distance": dpre, "bound": rhs})
    report.conclusion = {"checked": True, "passed": not witnesses, "witnesses": witnesses, "factor": factor}
    return report.finalize()


_SINE = SingleValued(lambda x: 0.5 * np.sin(arr(x)))
#: F, G, kappa, ell, beta, samples, seed, norm and the verdict
_SUM_CASES = {
    # F + G has no closed form: the 1D branch path answers the conclusion
    "sine": (LinearOp([[1.0]]), _SINE, 1.0, 0.5, 0.1, 40, 5, "euclidean", "pass"),
    # G not vectorized: every conclusion target goes to the grid stage
    "sine_grid": (LinearOp([[1.0]]), SingleValued(_SINE.fn, vectorized=False), 1.0, 0.5, 0.1, 20, 5, "euclidean",
                  "pass"),
    "linear": (LinearOp([[2.0]]), SingleValued(lambda x: 0.5 * arr(x)), 0.5, 0.5, 0.1, 30, 5, "max", "pass"),
    # F skips the values of (-0.015, 0.015) but 0: no premise sample falls in
    # the gap, and the conclusion targets that do have no preimage
    "gap": (SingleValued(lambda x: np.where(np.abs(arr(x)) < 0.015, 0.0, arr(x))), SingleValued(lambda x: 0.0 * arr(x)),
            1.0, 0.0, 0.1, 40, 7, "euclidean", "fail"),
    # F is metrically regular with constant about 0.5, not 0.2: the first
    # pair of the metric-regularity premise rejects
    "metreg_fails": (SingleValued(lambda x: 2.0 * arr(x) + 0.1 * np.sin(arr(x))), SingleValued(lambda x: 0.0 * arr(x)),
                     0.2, 0.0, 0.1, 30, 5, "euclidean", "rejected"),
    # F(x) is empty off [-1, 1], so the first pair is no premise sample; the
    # second rejects, since F^{-1}(y) = {-1} for y < 0
    "box_cone": (NormalConeBox([-1.0], [1.0]), SingleValued(lambda x: 0.0 * arr(x)), 1.0, 0.0, 1.0, 30, 3, "euclidean",
                 "rejected"),
    # G is 2.4-Lipschitz, not 1.9: the Aubin premise rejects, and no conclusion is searched
    "aubin_fails": (LinearOp([[2.0]]), SingleValued(lambda x: -1.9 * arr(x) + 0.5 * np.sin(arr(x))), 0.5, 1.9, 0.2, 30,
                    5, "euclidean", "rejected"),
}


@pytest.mark.parametrize("name", sorted(_SUM_CASES))
def test_sum_distance_bound_makes_one_conclusion_call(monkeypatch, name):
    F, G, kappa, ell, beta, samples, seed, norm, verdict = _SUM_CASES[name]
    point = ([0.0], [0.0], [0.0])
    ref = _reference_sum_distance_bound(F, G, point, kappa, ell, beta, samples, seed, norm)
    calls = _count_oracle_calls(monkeypatch)
    got = verify_sum_distance_bound(F, G, point, kappa, ell, beta, samples, seed, norm)
    assert _bits(asdict(got)) == _bits(asdict(ref))
    # one premise call, then one conclusion call if the premises hold
    assert got.verdict == verdict and calls[1:] == ([samples] if ref.conclusion else [])
    assert 0 < calls[0] <= samples // 2
    if name == "box_cone":
        # the premise searches only the 4 of its 15 pairs with y off F(x) != {}
        assert calls[0] == 4
    if name in ("metreg_fails", "box_cone"):
        assert got.premise_samples == 1 and got.violations[0]["premise"] == "metric_regularity"
    if verdict == "fail":
        assert len(got.conclusion["witnesses"]) > 1


# ---------------------------------------------------------------------------
# the descent check answers each shell's premise tuples together (the
# built-in oracle in one preimage call) and reports as the per-tuple loop of
# before did, bit for bit


class _ReferenceOracleError(ValueError):
    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


def _reference_check_descent_certificate(
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
    """``check_descent_certificate`` of before, verbatim: each premise tuple
    calls the oracle alone, the built-in one with its own preimage search,
    and checks its pair on the graph alone; the subregularity conclusion
    takes one value and one preimage distance per shell point."""
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
            raise _ReferenceOracleError(
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
                _reference_eval_single_premise(
                    report, form, F, gv, xbar, xv, yv, c, cprime, r, run_oracle, norm
                )
        elif form.tag == "semireg_set" or form.tag == "regularity":
            pts = graph_sample(F, point, min(rad, 0.999 * (r / alpha if alpha else r)), schedule.samples_per_shell // 4 + 1, sj, norm)
            for gp in pts:
                for _ in range(3):
                    lim = c * r if form.direction == "sufficient" else cprime * r
                    yv = rng.in_ball(ybar, 0.999 * lim, norm)
                    _reference_eval_set_premise(report, form, F, point, gp, yv, c, cprime, r, alpha, run_oracle, norm)
        elif form.tag == "subregularity":
            pts = graph_sample(F, point, min(rad, 0.999 * r), schedule.samples_per_shell // 2 + 1, sj, norm)
            for gp in pts:
                _reference_eval_subreg_premise(report, F, point, gp, c, cprime, r, form, run_oracle, norm)
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


def _reference_eval_single_premise(report, form, F, gv, xbar, xv, yv, c, cprime, r, run_oracle, norm):
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
    except _ReferenceOracleError as exc:
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


def _reference_eval_set_premise(report, form, F, point, gp, yv, c, cprime, r, alpha, run_oracle, norm):
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
    except _ReferenceOracleError as exc:
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


def _reference_eval_subreg_premise(report, F, point, gp, c, cprime, r, form, run_oracle, norm):
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
    except _ReferenceOracleError as exc:
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


_DESCENT_MAPS = {
    "single": (SingleValued(lambda x: arr(x) + 0.3 * arr(x) ** 2), ORIGIN),
    "two_branch": (load_example("two_branch").objects["setmap"], load_example("two_branch").objects["point"]),
    # y < 0 has no preimage: the built-in oracle misses
    "square": (SingleValued(lambda x: arr(x) ** 2), ORIGIN),
}
_DESCENT_ORACLES = {
    "builtin": None,
    # x' alone: v' is the member of F(x') nearest y
    "user": lambda x, v, y, consts: arr(x) + 0.5 * (arr(y) - arr(v)),
    "off_graph": lambda x, v, y, consts: (arr(x), arr(v) + 5.0),
    "none": lambda x, v, y, consts: None,
    # no move at all: degenerate pairs and failed decreases
    "stay": lambda x, v, y, consts: (arr(x), arr(v)),
}


def _outcome(run):
    """A report as its JSON text (floats round-trip, so equal text is equal
    bits), or the type and message of what it raised."""
    try:
        return json.dumps(run().to_json_dict())
    except Exception as exc:  # noqa: BLE001 - the outcome is what is compared
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("oracle", sorted(_DESCENT_ORACLES))
@pytest.mark.parametrize("direction", ["sufficient", "necessary"])
@pytest.mark.parametrize("tag", DESCENT_FORMS)
@pytest.mark.parametrize("name", sorted(_DESCENT_MAPS))
@settings(derandomize=True, max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_descent_check_equals_the_per_tuple_loop_of_before(name, tag, direction, oracle, seed):
    F, point = _DESCENT_MAPS[name]
    args = (DescentForm(tag, direction), F, point, {"c": 0.9, "r": 0.3, "alpha": 0.5}, _DESCENT_ORACLES[oracle])
    kwargs = dict(seed=seed, schedule=LiminfSchedule(r0=0.24, rho=0.6, shells=3, samples_per_shell=12))
    got = _outcome(lambda: check_descent_certificate(*args, **kwargs))
    assert got == _outcome(lambda: _reference_check_descent_certificate(*args, **kwargs))
    if oracle == "none":  # the oracle's missing answer is named as such, not as a non-finite vector
        assert "must be finite" not in str(got)


@pytest.mark.parametrize("answer", [None, (None, [0.0]), ([0.0], None)])
def test_user_oracle_without_an_answer_raises_a_typed_error(answer):
    F, point = _DESCENT_MAPS["single"]
    with pytest.raises(OracleNoAnswer, match="gave no answer"):
        check_descent_certificate(DescentForm("semireg_single", "necessary"), F, point, {"c": 0.9, "r": 0.3},
                                  lambda x, v, y, consts: answer, seed=3,
                                  schedule=LiminfSchedule(r0=0.24, rho=0.6, shells=3, samples_per_shell=12))
    assert _as_pair(([0.5], [1.0]), 1, 1)[1] == [1.0] and _as_pair([0.5], 1, 1)[1] is None


@pytest.mark.parametrize("tag", ["semireg_single", "semireg_set", "subregularity"])
def test_builtin_descent_oracle_makes_one_call_per_shell(monkeypatch, tag):
    F, point = _DESCENT_MAPS["single"]
    calls = _count_oracle_calls(monkeypatch)
    rep = check_descent_certificate(DescentForm(tag, "necessary"), F, point, {"c": 0.9, "r": 0.3, "alpha": 0.5},
                                    seed=3, schedule=LiminfSchedule(r0=0.24, rho=0.6, shells=3, samples_per_shell=12))
    # the necessary direction tests no conclusion: every call answers one shell
    assert rep.premise_samples > 0 and sum(calls) == rep.premise_samples and len(calls) <= 3
