"""Acceptance gate: every documented criterion at its stated tolerance.

Each test prints one pass/fail line; run with ``pytest -s`` to see them.
"""

from reglab import acceptance


def _run(fn):
    res = fn(seed=42)
    status = "PASS" if res["passed"] else "FAIL"
    print(f"criterion {res['criterion']:2d}: {status}  {res['details']}")
    return res


def test_criterion_01_linear_closed_forms():
    res = _run(acceptance.criterion_1)
    assert res["passed"]
    assert res["details"]["closed_form_max_abs_err"] <= 1e-9
    assert res["details"]["sampled_max_rel_err"] <= 0.15


def test_criterion_02_two_branch_moduli():
    res = _run(acceptance.criterion_2)
    assert res["passed"]
    assert 0.9 <= res["details"]["lopen"] <= 1.1
    assert res["details"]["sur"] <= 0.1
    assert 0.98 <= res["details"]["product"] <= 1.02


def test_criterion_03_oscillating_kinks():
    res = _run(acceptance.criterion_3)
    assert res["passed"]
    assert 0.85 <= res["details"]["lopen_at_zero"] <= 1.15
    assert res["details"]["pointwise_quotient_min"] <= 0.1


def test_criterion_04_staircase_covering():
    res = _run(acceptance.criterion_4)
    assert res["passed"]
    for n, rate in res["details"]["rates"].items():
        assert abs(rate - 1.0 / int(n)) <= 0.1 / int(n)
    assert res["details"]["sur"] <= 0.1


def test_criterion_05_sum_openness():
    res = _run(acceptance.criterion_5)
    assert res["passed"]
    assert 0.9 <= res["details"]["lopen_sum"] <= 1.1
    assert res["details"]["sur_sum"] <= 0.1


def test_criterion_06_slope_sandwich():
    res = _run(acceptance.criterion_6)
    assert res["passed"]
    for name, rec in res["details"].items():
        assert 0.5 * rec["S"] <= rec["lopen"] <= 1.1 * rec["S"]


def test_criterion_07_coderivative_bounds():
    res = _run(acceptance.criterion_7)
    assert res["passed"]
    assert res["details"]["two_branch"] == "inf"
    assert abs(res["details"]["diagonal"] - 1.0) <= 1e-9
    assert res["details"]["constant"] == 0.0


def test_criterion_08_constructive_covering():
    res = _run(acceptance.criterion_8)
    assert res["passed"]
    assert res["details"]["attained"] == 200
    assert res["details"]["unattained"] == 0
    assert res["details"]["picard_success_rate"] >= 0.95


def test_criterion_09_selection_bounds():
    res = _run(acceptance.criterion_9)
    assert res["passed"]
    assert res["details"]["calm_ratio_max"] <= 1.0 / 0.9 + 0.05
    assert res["details"]["corrected_ratio_max"] <= 0.1 / 0.9 + 0.05


def test_criterion_10_rosl_covering():
    res = _run(acceptance.criterion_10)
    assert res["passed"]
    assert res["details"]["condition_violations"] == 0
    assert res["details"]["unattained"] == 0


def test_criterion_11_newton_rates():
    res = _run(acceptance.criterion_11)
    assert res["passed"]
    assert res["details"]["abs_one_step"]
    assert res["details"]["quadratic_superlinear"]
    assert res["details"]["boxvi_eta03_t_hat"] <= 0.5
    assert res["details"]["boxvi_exact_superlinear"]


def test_criterion_12_descent_certificate():
    res = _run(acceptance.criterion_12)
    assert res["passed"]
    assert res["details"]["premise_samples"] >= 50
    assert res["details"]["conclusion_t_values"] == 4


def test_criterion_12_at_a_seed_short_of_premise_samples_on_its_schedule():
    # seed 203 gets 46 premise samples from the 5 scheduled shells; a sixth
    # shell from the same stream brings it past 50
    res = acceptance.criterion_12(seed=203)
    assert res["passed"] and res["details"]["premise_samples"] >= 50


def test_full_suite_runtime_budget():
    import time

    t0 = time.perf_counter()
    results = acceptance.run_acceptance(quiet=True)
    elapsed = time.perf_counter() - t0
    assert all(r["passed"] for r in results)
    assert elapsed < 120.0
