import numpy as np
import pytest

from reglab.certify import (
    SHELL_CAP_FACTOR,
    DescentForm,
    check_descent_certificate,
    verify_linear_perturbation,
    verify_setvalued_perturbation,
    verify_sum_distance_bound,
    verify_sum_semiregularity,
)
from reglab.corpus import load_example
from reglab.geometry import GraphPoint
from reglab.setmaps import FiniteValued, LinearOp, SingleValued, dist_to_value_set

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
