import numpy as np
import pytest

from reglab import covering
from reglab.corpus import load_example
from reglab.covering import (
    COVER_ATOL,
    COVER_RTOL,
    build_selection,
    covering_check_kaluza,
    pseudo_inverse,
    rosl_check,
    solve_preimage_picard,
)
from reglab.geometry import TOL_FEAS, Ball, GraphPoint, as_vector
from reglab.rng import SplitMix64, derive_seed, sphere_directions
from reglab.setmaps import LinearOp, PolyhedralGraph, SingleValued, dist_to_value_set, graph_sample, preimage_search

arr = lambda x: np.asarray(x, dtype=float)

# frozen from a 60-step bisection on x^3 + x = 0.05
CUBIC_ROOT = 0.049875928231106065


def test_pseudo_inverse_examples():
    pi = pseudo_inverse([[1.0, 0.0]])
    assert np.allclose(pi.B, [[1.0], [0.0]])
    assert np.allclose(pi.A @ pi.B, [[1.0]])
    pi = pseudo_inverse(np.eye(3))
    assert np.allclose(pi.B, np.eye(3))
    pi = pseudo_inverse(np.diag([2.0, 4.0]))
    assert np.allclose(np.diag(pi.B), [0.5, 0.25])
    assert pi.norm == pytest.approx(0.5)


def test_pseudo_inverse_rejects_rank_deficient():
    with pytest.raises(ValueError):
        pseudo_inverse([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        pseudo_inverse([[1.0], [0.0]])  # tall: not surjective


def test_pseudo_inverse_reciprocal_invariant_seeded():
    rng = SplitMix64(2024)
    checked = 0
    while checked < 100:
        m = 1 + rng.randint(6)
        n = m + rng.randint(6 - m + 1)
        A = np.array([[rng.uniform(-2, 2) for _ in range(n)] for _ in range(m)])
        if np.linalg.svd(A, compute_uv=False)[m - 1] < 5e-2:
            continue
        pi = pseudo_inverse(A)
        assert abs(pi.norm * pi.sur_A - 1.0) <= 1e-8
        checked += 1


def test_picard_cubic_matches_bisection_oracle():
    f = SingleValued(lambda x: arr(x) ** 3 + arr(x))
    res = solve_preimage_picard(f, [[1.0]], [0.0], [0.05], 0.1)
    assert res.converged and res.method == "picard"
    assert res.x[0] == pytest.approx(CUBIC_ROOT, abs=1e-9)


def test_picard_evaluates_f_once_per_iteration():
    # f(xbar), one value per iteration (its residual and its update), and the
    # feasibility assertion on return: k + 2 calls for k iterations
    calls = []

    def cubic(x):
        calls.append(1)
        return arr(x) ** 3 + arr(x)

    res = solve_preimage_picard(SingleValued(cubic), [[1.0]], [0.0], [0.05], 0.1)
    assert res.converged and res.method == "picard" and res.iterations > 2
    assert len(calls) == res.iterations + 2


def test_picard_linear_is_immediate():
    res = solve_preimage_picard(LinearOp([[2.0]]), [[2.0]], [0.0], [0.1], 0.1)
    assert res.converged and res.iterations <= 2
    assert res.x[0] == pytest.approx(0.05)


def test_picard_absolute_value_negative_target_fails():
    f = SingleValued(lambda x: np.abs(arr(x)))
    res = solve_preimage_picard(f, [[1.0]], [0.0], [-0.05], 0.1)
    assert not res.converged and res.x is None and res.method == "failed"


def test_covering_precondition_boundary():
    A = np.array([[1.5, 0.2], [0.0, 0.8]])
    smin = float(np.linalg.svd(A, compute_uv=False)[-1])
    ok = covering_check_kaluza(LinearOp(A), A, [0.0, 0.0], c=0.99 * smin, r=0.1, samples=24, calm_override=0.0)
    assert ok.verdict == "pass" and not ok.unattained
    bad = covering_check_kaluza(LinearOp(A), A, [0.0, 0.0], c=1.01 * smin, r=0.1, samples=8, calm_override=0.0)
    assert bad.verdict == "rejected"


def test_covering_perturbed_wide_operator():
    entry = load_example("linear_random", seed=7)
    sigma = entry.references["sigma_min"]["value"]
    rep = covering_check_kaluza(
        entry.objects["f"], entry.objects["A"], entry.objects["xbar"],
        c=0.7 * sigma, r=1e-2, samples=60, t_grid=[1e-3, 1e-2],
    )
    assert rep.verdict == "pass"
    assert rep.picard_success_rate >= 0.95


def test_covering_sine_perturbation():
    f = SingleValued(lambda x: arr(x) + 0.1 * np.sin(arr(x)))
    rep = covering_check_kaluza(f, [[1.0]], [0.0], c=0.85, r=0.5, samples=24)
    assert rep.verdict == "pass" and not rep.unattained


def test_covering_more_variables_than_targets():
    # n = 2 > m = 1: covering holds without any injectivity
    f = SingleValued(lambda x: np.array([float(x[0]) + 0.1 * float(x[1]) ** 2]), 2, 1, vectorized=False)
    rep = covering_check_kaluza(f, [[1.0, 0.0]], [0.0, 0.0], c=0.8, r=0.2, samples=16, calm_override=0.05)
    assert rep.verdict == "pass" and not rep.unattained


def test_selection_bounds_sine():
    f = SingleValued(lambda x: arr(x) + 0.1 * np.sin(arr(x)))
    tr = build_selection(f, [[1.0]], [0.0], radius=0.2, samples=32)
    assert tr.bounds_ok and tr.failures == 0
    assert tr.calm_ratio_max <= 1.0 / 0.9 + 0.05
    assert tr.corrected_ratio_max <= 0.1 / 0.9 + 0.05


def test_selection_linear_ratios():
    tr = build_selection(LinearOp([[2.0]]), [[2.0]], [0.0], radius=0.2, samples=16, calm_override=0.0)
    assert tr.calm_ratio_max == pytest.approx(0.5, abs=1e-9)
    assert tr.corrected_ratio_max <= 1e-9


def test_selection_correction_vanishes_with_radius():
    f = SingleValued(lambda x: arr(x) + arr(x) ** 2)
    big = build_selection(f, [[1.0]], [0.0], radius=0.2, samples=16)
    small = build_selection(f, [[1.0]], [0.0], radius=0.02, samples=16)
    assert small.corrected_ratio_max < big.corrected_ratio_max


def interval_map():
    # x -> -2x + [-0.1, 0.1] as a single polyhedral graph piece
    return PolyhedralGraph([([[2.0, 1.0], [-2.0, -1.0]], [0.1, 0.1])], 1, 1)


def interval_map_identity():
    # x -> x + [-0.1, 0.1]
    return PolyhedralGraph([([[-1.0, 1.0], [1.0, -1.0]], [0.1, 0.1])], 1, 1)


def test_rosl_conditions_and_covering():
    rep = rosl_check(LinearOp([[-2.0]]), [0.0], [0.0], ell=2.0, r=0.2, condition="C2", samples=100)
    assert rep.verdict == "pass"
    rep = rosl_check(LinearOp([[1.0]]), [0.0], [0.0], ell=1.0, r=0.2, condition="C1", samples=100)
    assert rep.verdict == "pass"
    rep = rosl_check(interval_map_identity(), [0.0], [0.0], ell=1.0, r=0.2, condition="C1", samples=100)
    assert rep.verdict == "pass"


def test_rosl_boundary_targets_exactly_attained():
    # linear instance: the covering radius ell*t is attained on the boundary
    rep = rosl_check(LinearOp([[-2.0]]), [0.0], [0.0], ell=2.0, r=0.2, condition="C2", samples=50, t_grid=[0.1, 0.2])
    assert not rep.unattained
    boundary = [a for a in rep.attained if abs(abs(a["target"][0]) - 2.0 * a["t"]) < 1e-12]
    assert boundary
    for a in boundary:
        assert a["preimage_distance"] <= a["t"] * 1.02 + 1e-7


def test_rosl_violation_reported_with_wrong_rate():
    rep = rosl_check(LinearOp([[-2.0]]), [0.0], [0.0], ell=2.5, r=0.2, condition="C2", samples=100)
    assert rep.verdict == "fail"
    assert rep.condition_violations
    w = rep.condition_violations[0]
    assert w["lhs"] < w["rhs"]


def test_rosl_roslw_distance_bound():
    rep = rosl_check(interval_map(), [0.0], [0.0], ell=2.0, r=0.2, condition="ROSLw", samples=80)
    assert rep.verdict == "pass"
    for a in rep.attained:
        assert a["preimage_distance"] <= a["bound"] * 1.02 + 1e-7


def test_rosl_around_graph_points():
    rep = rosl_check(interval_map(), [0.0], [0.0], ell=2.0, r=0.15, condition="ROSL", samples=60)
    assert rep.verdict == "pass"


def _reference_rosl_conclusion(F, xbar, ybar, ell, t_grid, r, seed, condition, samples=None):
    """The per-target conclusion loops of ``rosl_check`` for C1/C2, ROSLw and
    ROSL (kept verbatim as the oracle): (attained, unattained, centers x t).
    ROSLw replays the draws of its condition check (``samples`` of them)
    from the shared stream first."""
    xbar, ybar = as_vector(xbar, F.n), as_vector(ybar, F.m)
    attained_, unattained, pairs = [], [], 0

    def attained(center_x, target, t):
        dpre, _ = preimage_search(center_x, F, target, Ball(center_x, 1.02 * t + 1e-9))
        return dpre <= t * (1 + COVER_RTOL) + COVER_ATOL, dpre

    if condition in ("C1", "C2"):
        for t in t_grid:
            pairs += 1
            for v in sphere_directions(F.m, 8, derive_seed(seed, f"rosl-dirs{t}")):
                for frac in (0.5, 1.0):
                    target = ybar + frac * ell * t * np.asarray(v)
                    ok, dpre = attained(xbar, target, t)
                    entry = {"t": t, "target": [float(u) for u in target], "preimage_distance": dpre}
                    (attained_ if ok else unattained).append(entry)
    elif condition == "ROSLw":
        rng = SplitMix64(derive_seed(seed, "rosl"))
        for _ in range(samples):
            rng.in_ball(xbar, r, "euclidean")
            F.value_set(xbar).members_near(ybar, 4 * r, 2, rng)
        for _ in range(min(samples, 64)):
            yv = rng.in_ball(ybar, r * ell, "euclidean")
            dy = dist_to_value_set(yv, F, xbar)
            if dy > r * ell or dy <= TOL_FEAS:
                continue
            pairs += 1
            bound = dy / ell
            dpre, _ = preimage_search(xbar, F, yv, Ball(xbar, 1.05 * bound + 1e-9))
            ok = dpre <= bound * (1 + COVER_RTOL) + COVER_ATOL
            entry = {"y": [float(u) for u in yv], "bound": bound, "preimage_distance": dpre}
            (attained_ if ok else unattained).append(entry)
    else:  # ROSL: uniform covering around nearby graph points
        pts = graph_sample(F, GraphPoint(xbar, ybar), r, 8, derive_seed(seed, "rosl-gp"))
        for gp in [GraphPoint(xbar, ybar)] + pts:
            for t in t_grid:
                pairs += 1
                for v in sphere_directions(F.m, 4, derive_seed(seed, f"rosl-a{t}")):
                    target = gp.y + ell * t * np.asarray(v)
                    ok, dpre = attained(gp.x, target, t)
                    entry = {
                        "x": [float(u) for u in gp.x],
                        "t": t,
                        "target": [float(u) for u in target],
                        "preimage_distance": dpre,
                    }
                    (attained_ if ok else unattained).append(entry)
    return attained_, unattained, pairs


def _bits(entries):
    return [{k: [float(u).hex() for u in v] if isinstance(v, list) else float(v).hex() for k, v in e.items()}
            for e in entries]


#: decreasing 1D maps with no closed form, so C2 and ROSL hold at rate 1.5
_ROSL_MAPS = {
    # the 1D branch path answers every target
    "branch1d": SingleValued(lambda x: -2.0 * arr(x) - 0.1 * np.sin(arr(x))),
    # a map that is not vectorized leaves every target to the grid stage
    "grid": SingleValued(lambda x: -2.0 * arr(x) - 0.1 * np.sin(arr(x)), vectorized=False),
}


@pytest.mark.parametrize("condition", ["C2", "ROSL"])
@pytest.mark.parametrize("name", sorted(_ROSL_MAPS))
def test_rosl_conclusions_make_one_call_per_center_and_t(monkeypatch, name, condition):
    F = _ROSL_MAPS[name]
    xbar, ybar, ell, r, seed = [0.1], F([0.1]), 1.5, 0.2, 3
    calls = []
    many = covering.preimage_search_many

    def counted(x0, F, ys, *args, **kwargs):
        calls.append(len(ys))
        return many(x0, F, ys, *args, **kwargs)

    monkeypatch.setattr(covering, "preimage_search_many", counted)
    rep = rosl_check(F, xbar, ybar, ell=ell, r=r, condition=condition, samples=40, seed=seed)
    assert rep.verdict == "pass" and not rep.condition_violations
    att, unatt, pairs = _reference_rosl_conclusion(F, xbar, ybar, ell, rep.t_grid, r, seed, condition)
    assert _bits(rep.attained) == _bits(att) and _bits(rep.unattained) == _bits(unatt)
    # in 1D the directions are +1 and -1: 4 targets per t for C2, 2 per graph point and t for ROSL
    assert len(calls) == pairs and set(calls) == {4 if condition == "C2" else 2}
    if condition == "ROSL":
        assert pairs > len(rep.t_grid)


@pytest.mark.parametrize("name", sorted(_ROSL_MAPS))
def test_roslw_conclusion_makes_one_call(monkeypatch, name):
    F = _ROSL_MAPS[name]
    xbar, ybar, ell, r, seed, samples = [0.1], F([0.1]), 1.5, 0.2, 3, 40
    calls = []
    many = covering.preimage_search_many

    def counted(x0, F, ys, *args, **kwargs):
        calls.append(len(ys))
        return many(x0, F, ys, *args, **kwargs)

    monkeypatch.setattr(covering, "preimage_search_many", counted)
    rep = rosl_check(F, xbar, ybar, ell=ell, r=r, condition="ROSLw", samples=samples, seed=seed)
    assert rep.verdict == "pass" and not rep.condition_violations
    att, unatt, pairs = _reference_rosl_conclusion(F, xbar, ybar, ell, rep.t_grid, r, seed, "ROSLw", samples)
    assert _bits(rep.attained) == _bits(att) and _bits(rep.unattained) == _bits(unatt)
    assert calls == [pairs] and pairs == samples


# ---------------------------------------------------------------------------
# where Picard fails and n <= 2, the preimage oracle over the ball answers


def _tripled(n):
    # with A = I the corrected map is u -> -2u + y/t: Picard diverges
    return SingleValued(lambda x: 3.0 * arr(x), n, n)


@pytest.mark.parametrize("n", [1, 2])
def test_picard_falls_back_to_the_preimage_oracle(n):
    f, xbar, y, t = _tripled(n), np.zeros(n), np.full(n, 0.1), 0.1
    res = solve_preimage_picard(f, np.eye(n), xbar, y, t)
    assert res.converged and res.method == "grid"
    covering._assert_feasible(res, f, y, xbar, t, 1e-9)
    np.testing.assert_allclose(res.x, y / 3.0, atol=1e-8)


def test_picard_fallback_takes_no_preimage_outside_the_ball():
    # the preimage 0.5/3 lies outside B[0, 0.1]
    res = solve_preimage_picard(_tripled(1), [[1.0]], [0.0], [0.5], 0.1)
    assert not res.converged and res.x is None and res.method == "failed"


def test_picard_fallback_takes_no_bracketed_jump_for_a_preimage():
    # x + 0.1 sign(x) jumps across y = 0.05 at 0: Picard cycles, and the
    # oracle's bracketed root in the ball has residual about 0.05
    f = SingleValued(lambda x: arr(x) + 0.1 * np.sign(arr(x)))
    res = solve_preimage_picard(f, [[1.0]], [0.0], [0.05], 0.5)
    assert not res.converged and res.x is None and res.method == "failed"


def test_picard_without_fallback_above_two_dimensions():
    res = solve_preimage_picard(_tripled(3), np.eye(3), np.zeros(3), np.full(3, 0.1), 0.1)
    assert not res.converged and res.x is None and res.method == "failed"
