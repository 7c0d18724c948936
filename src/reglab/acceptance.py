"""The acceptance suite: every documented guarantee as a pass/fail check.

Each criterion function returns a dict with the fields ``criterion``,
``passed`` and ``details`` so the CLI can emit one JSON report per check;
``run_acceptance`` executes all of them and prints one line per criterion.
Expected values are either analytic or frozen from independent oracles
(enumeration, bisection, eigensolves); tolerances are fixed here, not
calibrated post hoc.
"""

from __future__ import annotations

import time

import numpy as np

from .certify import DescentForm, check_descent_certificate, verify_sum_semiregularity
from .corpus import load_example
from .covering import build_selection, covering_check_kaluza, rosl_check
from .geometry import GraphPoint
from .moduli import (
    LiminfSchedule,
    estimate_modulus,
    frechet_coderivative_bound,
    largest_covered_c,
    linear_moduli,
    slope_sandwich,
)
from .newton import ExactJacobian, GEProblem, InexactnessModel, rate_report, run_newton
from .rng import SplitMix64, derive_seed
from .setmaps import LinearOp, PolyhedralGraph, SingleValued


def _seeded_surjective(rng: SplitMix64, max_dim: int = 6, min_sigma: float = 1e-3):
    while True:
        m = 1 + rng.randint(max_dim)
        n = m + rng.randint(max_dim - m + 1)
        A = np.array([[rng.uniform(-2, 2) for _ in range(n)] for _ in range(m)])
        if np.linalg.svd(A, compute_uv=False)[m - 1] >= min_sigma:
            return A


def criterion_1(seed: int = 42) -> dict:
    """Linear closed forms match an independent eigenvalue oracle; the
    sampled covering estimate agrees for 2x2 operators."""
    rng = SplitMix64(derive_seed(seed, "criterion1"))
    worst = 0.0
    for _ in range(50):
        A = _seeded_surjective(rng)
        # independent oracle: sqrt of the smallest eigenvalue of A A^T
        oracle = float(np.sqrt(np.linalg.eigvalsh(A @ A.T).min()))
        worst = max(worst, abs(linear_moduli(A).sur - oracle))
    sampled_ok = True
    worst_rel = 0.0
    for k in range(10):
        while True:
            A = np.array([[rng.uniform(-2, 2) for _ in range(2)] for _ in range(2)])
            if np.linalg.svd(A, compute_uv=False)[-1] >= 0.3:
                break
        est = estimate_modulus(
            "sur", LinearOp(A), GraphPoint([0.0, 0.0], [0.0, 0.0]),
            LiminfSchedule(r0=0.1, rho=0.5, shells=4, samples_per_shell=8),
            seed=derive_seed(seed, f"c1-{k}"),
        ).value
        rel = abs(est - linear_moduli(A).sur) / linear_moduli(A).sur
        worst_rel = max(worst_rel, rel)
        sampled_ok = sampled_ok and rel <= 0.15
    passed = worst <= 1e-9 and sampled_ok
    return {
        "criterion": 1,
        "passed": bool(passed),
        "details": {"closed_form_max_abs_err": worst, "sampled_max_rel_err": worst_rel},
    }


def criterion_2(seed: int = 42) -> dict:
    """Two-branch map: openness rate 1 at the point, 0 around it, and the
    reciprocal product identity."""
    entry = load_example("two_branch")
    F, pt = entry.objects["setmap"], entry.objects["point"]
    lopen = estimate_modulus("lopen", F, pt, seed=seed).value
    sur = estimate_modulus("sur", F, pt, seed=seed).value
    semireg = estimate_modulus("semireg", F, pt, seed=derive_seed(seed, "semireg")).value
    product = lopen * semireg
    passed = 0.9 <= lopen <= 1.1 and sur <= 0.1 and 0.98 <= product <= 1.02
    return {
        "criterion": 2,
        "passed": bool(passed),
        "details": {"lopen": lopen, "sur": sur, "product": product},
    }


def criterion_3(seed: int = 42) -> dict:
    """Oscillating-kink map: unit openness at 0, vanishing pointwise rates."""
    entry = load_example("sinkink")
    f, pt = entry.objects["setmap"], entry.objects["point"]
    lopen = estimate_modulus("lopen", f, pt, seed=seed).value
    lo, hi = entry.references["sweep_window"]["value"]
    xs = np.exp(np.linspace(np.log(lo), np.log(hi), 200))
    sweep_min = np.inf
    for x in xs:
        x = float(x)
        sched = LiminfSchedule(r0=0.4 * x * x, rho=0.5, shells=4, samples_per_shell=16)
        fx = float(np.asarray(f.fn(np.array([x]))).reshape(-1)[0])
        q = estimate_modulus("displacement", f, GraphPoint([x], [fx]), sched, seed=seed).value
        sweep_min = min(sweep_min, q)
    passed = 0.85 <= lopen <= 1.15 and sweep_min <= 0.1
    return {
        "criterion": 3,
        "passed": bool(passed),
        "details": {"lopen_at_zero": lopen, "pointwise_quotient_min": float(sweep_min)},
    }


def criterion_4(seed: int = 42) -> dict:
    """Staircase epigraph: covering rate 1/n at x_n = 1/n + 1/n^2 with
    t_n = 1/n, and no covering around the origin."""
    entry = load_example("staircase")
    F, pt = entry.objects["setmap"], entry.objects["point"]
    fn = entry.objects["boundary_fn"]
    rates = {}
    ok = True
    for n, target in entry.references["covering_rate"]["value"].items():
        xn = entry.references["covering_rate"]["at"][n]["x"]
        tn = entry.references["covering_rate"]["at"][n]["t"]
        yn = float(np.asarray(fn(np.array([xn]))).reshape(-1)[0])
        c = largest_covered_c(F, [xn], [yn], tn, seed=seed)
        rates[n] = c
        ok = ok and abs(c - target) <= 0.1 * target
    sur = estimate_modulus("sur", F, pt, seed=seed).value
    passed = ok and sur <= 0.1
    return {
        "criterion": 4,
        "passed": bool(passed),
        "details": {"rates": {str(k): v for k, v in rates.items()}, "sur": sur},
    }


def criterion_5(seed: int = 42) -> dict:
    """Two-branch sum: openness survives at the point (rate 1), covering
    around the point fails, and the sum estimate holds."""
    entry = load_example("sum_remark")
    rep = verify_sum_semiregularity(entry.objects["F"], entry.objects["G"], entry.objects["point"], seed=seed)
    v = rep.values
    passed = (
        0.9 <= v["lopen_sum"] <= 1.1
        and v["sur_sum"] <= 0.1
        and v["lopen_sum"] >= v["sur_F"] - v["lip_G"] - 0.05
    )
    return {"criterion": 5, "passed": bool(passed), "details": v}


def criterion_6(seed: int = 42) -> dict:
    """Slope sandwich 0.5 S <= lopen <= 1.1 S on two corpus maps."""
    out = {}
    passed = True
    for name in ("two_branch", "sinkink"):
        entry = load_example(name)
        F, pt = entry.objects["setmap"], entry.objects["point"]
        prof = slope_sandwich(F, pt, seed=seed)
        lopen = estimate_modulus("lopen", F, pt, seed=derive_seed(seed, f"c6-{name}")).value
        ok = 0.5 * prof.S_estimate <= lopen <= 1.1 * prof.S_estimate
        out[name] = {"S": prof.S_estimate, "lopen": lopen, "ok": bool(ok)}
        passed = passed and ok
    return {"criterion": 6, "passed": bool(passed), "details": out}


def criterion_7(seed: int = 42) -> dict:
    """Polyhedral coderivative bounds: empty dual set for the two-branch
    graph, exactly 1 for the diagonal, 0 for the constant map."""
    entry = load_example("two_branch")
    pt = entry.objects["point"]
    cb_two = frechet_coderivative_bound(entry.objects["setmap_polyhedral"], pt, seed=seed)
    diag = PolyhedralGraph([([[1, -1], [-1, 1]], [0, 0])], 1, 1)
    cb_diag = frechet_coderivative_bound(diag, pt, seed=seed)
    const = PolyhedralGraph([([[0, 1], [0, -1]], [0, 0])], 1, 1)
    cb_const = frechet_coderivative_bound(const, pt, seed=seed)
    passed = (
        cb_two.bound == float("inf")
        and cb_two.inverse_coderivative_trivial
        and abs(cb_diag.bound - 1.0) <= 1e-9
        and abs(cb_const.bound) <= 1e-12
        and not cb_const.inverse_coderivative_trivial
    )
    return {
        "criterion": 7,
        "passed": bool(passed),
        "details": {
            "two_branch": "inf" if cb_two.bound == float("inf") else cb_two.bound,
            "diagonal": cb_diag.bound,
            "constant": cb_const.bound,
        },
    }


def criterion_8(seed: int = 42) -> dict:
    """Constructive covering for a perturbed surjective 2x3 operator: 200
    targets across two scales, all attained, Picard success >= 95%."""
    entry = load_example("linear_random", seed=7)
    A, f = entry.objects["A"], entry.objects["f"]
    sigma = entry.references["sigma_min"]["value"]
    rep = covering_check_kaluza(
        f, A, entry.objects["xbar"], c=0.7 * sigma, r=1e-2,
        samples=200, seed=seed, t_grid=[1e-3, 1e-2],
    )
    rate = rep.picard_success_rate
    passed = rep.verdict == "pass" and not rep.unattained and rate >= 0.95
    return {
        "criterion": 8,
        "passed": bool(passed),
        "details": {
            "verdict": rep.verdict,
            "attained": len(rep.attained),
            "unattained": len(rep.unattained),
            "picard_success_rate": rate,
            "sigma_min": sigma,
        },
    }


def criterion_9(seed: int = 42) -> dict:
    """Calm selection bounds for x + 0.1 sin x against the unit operator."""
    f = SingleValued(lambda x: np.asarray(x, dtype=float) + 0.1 * np.sin(np.asarray(x, dtype=float)))
    tr = build_selection(f, [[1.0]], [0.0], radius=0.2, samples=48, seed=seed)
    ok1 = tr.calm_ratio_max <= 1.0 / 0.9 + 0.05
    ok2 = tr.corrected_ratio_max <= 0.1 / 0.9 + 0.05
    passed = ok1 and ok2 and tr.failures == 0
    return {
        "criterion": 9,
        "passed": bool(passed),
        "details": {
            "calm_ratio_max": tr.calm_ratio_max,
            "calm_bound": 1.0 / 0.9 + 0.05,
            "corrected_ratio_max": tr.corrected_ratio_max,
            "corrected_bound": 0.1 / 0.9 + 0.05,
            "failures": tr.failures,
        },
    }


def criterion_10(seed: int = 42) -> dict:
    """Interval-valued strongly monotone map: one-sided condition with
    rate 2 on 500 samples plus exact covering at radii {0.05, 0.1, 0.2}."""
    F = PolyhedralGraph([([[2.0, 1.0], [-2.0, -1.0]], [0.1, 0.1])], 1, 1)
    rep = rosl_check(F, [0.0], [0.0], ell=2.0, r=0.2, condition="C2", samples=500, seed=seed, t_grid=[0.05, 0.1, 0.2])
    passed = rep.verdict == "pass" and not rep.condition_violations and not rep.unattained
    return {
        "criterion": 10,
        "passed": bool(passed),
        "details": {
            "verdict": rep.verdict,
            "condition_violations": len(rep.condition_violations),
            "unattained": len(rep.unattained),
            "attained": len(rep.attained),
        },
    }


def criterion_11(seed: int = 42) -> dict:
    """Newton-type iteration: one-step |x| solves, superlinear smooth 1D,
    and the 2D box problem contracting within budget under inexactness."""
    details = {}
    entry = load_example("abs_newton")
    prob, H = entry.objects["problem"], entry.objects["H"]
    abs_ok = True
    for x0 in entry.objects["starts"]:
        tr = run_newton(prob, H, x0=[x0], seed=seed)
        abs_ok = abs_ok and tr.termination == "converged" and tr.iterations == 1
    details["abs_one_step"] = bool(abs_ok)

    f2 = SingleValued(lambda x: np.asarray(x, dtype=float) ** 2 - 1.0)
    prob2 = GEProblem(f2, None, known_solution=[1.0])
    tr = run_newton(prob2, ExactJacobian(lambda x: [[2.0 * float(x[0])]]), x0=[2.0], seed=seed)
    rep2 = rate_report(tr)
    details["quadratic_superlinear"] = bool(rep2.superlinear)

    entry = load_example("smooth2d_boxvi")
    prob3, H3, x0 = entry.objects["problem"], entry.objects["H"], entry.objects["x0"]
    tr_inexact = run_newton(prob3, H3, InexactnessModel(0.3, adversarial=True), x0=x0, max_iter=30, seed=seed)
    rep_inexact = rate_report(tr_inexact)
    details["boxvi_eta03_t_hat"] = rep_inexact.t_hat
    tr_exact = run_newton(prob3, H3, InexactnessModel(0.0), x0=x0, max_iter=30, seed=seed)
    rep_exact = rate_report(tr_exact)
    details["boxvi_exact_superlinear"] = bool(rep_exact.superlinear)
    passed = (
        abs_ok
        and rep2.superlinear
        and tr_inexact.termination == "converged"
        and rep_inexact.t_hat <= 0.5
        and rep_exact.superlinear
    )
    return {"criterion": 11, "passed": bool(passed), "details": details}


def criterion_12(seed: int = 42) -> dict:
    """Descent certificate for the two-branch map with the explicit
    (x', v') = (y, y) construction at c = 0.9, alpha = 0.5."""
    entry = load_example("two_branch")
    F, pt = entry.objects["setmap"], entry.objects["point"]
    min_samples = 50
    rep = check_descent_certificate(
        DescentForm("semireg_set", "sufficient"),
        F,
        pt,
        {"c": 0.9, "r": 0.5, "alpha": 0.5},
        oracle=lambda x, v, y, consts: (y, y),
        seed=seed,
        premise_target=min_samples,
    )
    concl = rep.conclusion or {}
    passed = (
        rep.verdict == "pass"
        and rep.premise_samples >= min_samples
        and not rep.violations
        and concl.get("passed", False)
        and len(concl.get("t_grid", [])) == 4
    )
    return {
        "criterion": 12,
        "passed": bool(passed),
        "details": {
            "verdict": rep.verdict,
            "premise_samples": rep.premise_samples,
            "violations": len(rep.violations),
            "conclusion_t_values": len(concl.get("t_grid", [])),
        },
    }


ALL_CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
]


def run_acceptance(seed: int = 42, quiet: bool = False) -> list[dict]:
    """Run every acceptance criterion, printing one pass/fail line each."""
    results = []
    for fn in ALL_CRITERIA:
        t0 = time.perf_counter()
        res = fn(seed=seed)
        res["runtime_ms"] = int(1000 * (time.perf_counter() - t0))
        results.append(res)
        if not quiet:
            status = "PASS" if res["passed"] else "FAIL"
            print(f"criterion {res['criterion']:2d}: {status}  ({res['runtime_ms']} ms)")
    return results
