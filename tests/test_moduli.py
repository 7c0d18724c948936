import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reglab.corpus import load_example, sinkink_fn, staircase_fn
from reglab.geometry import GraphPoint, vec_dist
from reglab.moduli import (
    LiminfSchedule,
    _attained_structure_1d,
    _bridged_structure_1d,
    _ray_coverage_1d,
    NotEvaluable,
    NotOnGraph,
    _assemble,
    check_on_graph,
    convex_process_sur,
    estimate_modulus,
    frechet_coderivative_bound,
    largest_covered_c,
    linear_moduli,
    slope_sandwich,
    starshape_bound,
)
from reglab.rng import SplitMix64, derive_seed, shell_points
from reglab.setmaps import (
    Epigraph,
    FiniteValued,
    InverseView,
    LinearOp,
    NormalConeBox,
    PolyhedralGraph,
    SingleValued,
    SumMap,
    UnsupportedOperation,
    _ball_grid,
    build_setmap,
    dist_to_value_set,
)

arr = lambda x: np.asarray(x, dtype=float)
ORIGIN = GraphPoint([0.0], [0.0])
FAST = LiminfSchedule(r0=0.1, rho=0.5, shells=5, samples_per_shell=32)


def two_branch():
    return FiniteValued([lambda x: arr(x), lambda x: 0.0 * arr(x)])


# ---------------------------------------------------------------------------
# estimate_modulus


def test_lopen_two_branch_is_one():
    est = estimate_modulus("lopen", two_branch(), ORIGIN)
    assert 0.9 <= est.value <= 1.1
    assert est.bracket[0] <= est.value <= est.bracket[1]


def test_sur_two_branch_is_zero():
    assert estimate_modulus("sur", two_branch(), ORIGIN).value <= 0.1


def test_lopen_identity():
    assert estimate_modulus("lopen", LinearOp([[1.0]]), ORIGIN, FAST).value == pytest.approx(1.0, rel=1e-6)


def test_lopen_sinkink_at_zero():
    est = estimate_modulus("lopen", SingleValued(sinkink_fn), ORIGIN, FAST)
    assert 0.85 <= est.value <= 1.15


def test_displacement_linear_scaling():
    f = SingleValued(lambda x: 2.0 * arr(x))
    assert estimate_modulus("displacement", f, ORIGIN, FAST).value == pytest.approx(2.0, rel=1e-9)


def test_calm_lip_reg_on_expanding_map():
    f = SingleValued(lambda x: 2.0 * arr(x))
    assert estimate_modulus("calm", f, ORIGIN, FAST).value == pytest.approx(2.0, rel=0.05)
    assert estimate_modulus("lip", f, ORIGIN, FAST).value == pytest.approx(2.0, rel=0.05)
    assert estimate_modulus("reg", f, ORIGIN, FAST).value == pytest.approx(0.5, rel=0.05)


def test_rejects_off_graph_reference():
    with pytest.raises(NotOnGraph):
        estimate_modulus("lopen", LinearOp([[1.0]]), GraphPoint([0.0], [0.5]), FAST)


@pytest.mark.parametrize(
    "F",
    [
        pytest.param(SingleValued(lambda x: arr(x) + 0 * (1 / 0)), id="raises"),
        pytest.param(SingleValued(lambda x: arr(x) + 0 * np.sqrt(-1 - arr(x) ** 2)), id="nan_value"),
        pytest.param(Epigraph(lambda x: arr(x) * np.nan), id="nan_distance"),
    ],
)
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_rejects_a_map_that_cannot_be_evaluated_at_the_reference(F):
    with pytest.raises(NotEvaluable, match="cannot be evaluated at the reference point"):
        estimate_modulus("lopen", F, ORIGIN, FAST)


def test_internal_point_convention():
    # F(x) = [x, inf): the target 0 is interior to F(-1), so openness there is inf
    E = Epigraph(lambda x: arr(x))
    est = estimate_modulus("lopen", E, GraphPoint([-1.0], [0.0]), FAST)
    assert est.value == np.inf
    assert any("internal-point" in n for n in est.notes)


def test_product_identities_on_finite_cases():
    for F in (LinearOp([[1.0]]), SingleValued(lambda x: 2.0 * arr(x)), two_branch()):
        lo = estimate_modulus("lopen", F, ORIGIN, FAST, seed=11).value
        se = estimate_modulus("semireg", F, ORIGIN, FAST, seed=12).value
        assert 0.98 <= lo * se <= 1.02


def test_reciprocal_pair_degenerate_convention():
    # psopen = inf and subreg = 0 on the two-branch map (preimage of 0 is all of R)
    ps = estimate_modulus("psopen", two_branch(), ORIGIN, FAST)
    sb = estimate_modulus("subreg", two_branch(), ORIGIN, FAST)
    assert ps.value == np.inf
    assert sb.value == 0.0


def test_chain_inequality_lopen_geq_sur():
    for F in (two_branch(), LinearOp([[1.0]]), SingleValued(sinkink_fn)):
        lo = estimate_modulus("lopen", F, ORIGIN, FAST, seed=5).value
        su = estimate_modulus("sur", F, ORIGIN, FAST, seed=6).value
        assert lo >= su - 0.05


def test_sampled_sur_matches_linear_closed_form_2d():
    rng = SplitMix64(99)
    for _ in range(3):
        while True:
            A = np.array([[rng.uniform(-2, 2) for _ in range(2)] for _ in range(2)])
            if np.linalg.svd(A, compute_uv=False)[-1] >= 0.3:
                break
        pt = GraphPoint([0.0, 0.0], [0.0, 0.0])
        est = estimate_modulus("sur", LinearOp(A), pt, LiminfSchedule(0.1, 0.5, 4, 8)).value
        assert est == pytest.approx(linear_moduli(A).sur, rel=0.15)


def test_displacement_positive_iff_strong_subregularity():
    rng = SplitMix64(7)
    for F, positive in ((LinearOp([[1.0]]), True), (SingleValued(lambda x: 2 * arr(x)), True), (two_branch(), False)):
        d = estimate_modulus("displacement", F, ORIGIN, FAST).value
        assert (d > 0.05) == positive
        if positive:
            # sampled strong subregularity: d(x, xbar) <= (1/d) dist(ybar, F(x))
            from reglab.setmaps import dist_to_value_set

            for _ in range(50):
                xv = rng.in_ball(np.zeros(1), 0.05)
                lhs = abs(float(xv[0]))
                rhs = (1.0 / d + 0.05) * dist_to_value_set([0.0], F, xv)
                assert lhs <= rhs + 1e-9


# ---------------------------------------------------------------------------
# linear closed forms


def test_linear_moduli_diagonal():
    lm = linear_moduli(np.diag([3.0, 0.5]))
    assert lm.sur == pytest.approx(0.5) and lm.reg == pytest.approx(2.0)
    assert lm.semireg == lm.reg and lm.injective and lm.surjective


def test_linear_moduli_wide_and_zero():
    lm = linear_moduli([[1.0, 0.0]])
    assert lm.sur == 1.0 and lm.surjective and not lm.injective and lm.subreg_strong == np.inf
    lm0 = linear_moduli([[0.0]])
    assert lm0.sur == 0.0 and lm0.semireg == np.inf and not lm0.surjective


# ---------------------------------------------------------------------------
# convex processes


def test_convex_process_identity_and_diag():
    assert convex_process_sur(LinearOp([[1.0]])).value == pytest.approx(1.0, abs=1e-6)
    est = convex_process_sur(LinearOp(np.diag([2.0, 1.0])))
    assert est.value == 1.0


def test_convex_process_uses_closed_form_preimages():
    # F^{-1} of diag(2, 1) maps the unit ball onto an ellipse with semi-axes 1/2 and 1
    assert convex_process_sur(InverseView(LinearOp(np.diag([2.0, 1.0])))).value == pytest.approx(0.5, abs=1e-9)
    # no grid in 3D: the closed form answers (sampled directions only overestimate)
    value = convex_process_sur(InverseView(LinearOp(np.diag([2.0, 1.0, 1.0])))).value
    assert 0.5 - 1e-9 <= value <= 1.0


def test_convex_process_max_norm_directions():
    # the 45-degree rotation maps the unit square onto |u| + |v| <= sqrt(2),
    # which holds the max-norm ball of radius 1/sqrt(2)
    c = np.cos(np.pi / 4)
    rot = LinearOp([[c, -c], [c, c]])
    assert convex_process_sur(rot, norm="max").value == pytest.approx(1 / np.sqrt(2), abs=1e-9)
    assert largest_covered_c(rot, [0.0, 0.0], [0.0, 0.0], 1.0, norm="max") == pytest.approx(1 / np.sqrt(2), abs=1e-9)


def test_convex_process_halfspace_graph():
    P = PolyhedralGraph([([[1, -1]], [0.0])], 1, 1)  # graph {(x,y): y >= x}
    assert convex_process_sur(P).value == pytest.approx(1.0, rel=0.05)


def _matrix_map(M):
    """x -> M x as a single-valued map without a closed-form preimage."""
    M = np.asarray(M, dtype=float)
    return SingleValued(lambda x: arr(x) @ M.T, M.shape[1], M.shape[0])


@pytest.mark.parametrize("M", [np.diag([2.0, 1.0]), [[2.0, 0.3], [0.1, 1.5]]], ids=["diag", "coupled"])
def test_convex_process_single_valued_matches_the_closed_form(M):
    # the grid path used to need a value within 1e-9 of each target and read 0.0
    est = convex_process_sur(_matrix_map(M))
    exact = convex_process_sur(LinearOp(M))
    assert est.value == pytest.approx(exact.value, abs=1e-6)
    assert np.allclose(est.shell_infima, exact.shell_infima, atol=1e-6)


def test_convex_process_1d_rates_are_exact_python_floats():
    est = convex_process_sur(SingleValued(lambda x: 3.0 * arr(x)))
    assert est.value == pytest.approx(3.0, abs=1e-9)
    assert type(est.value) is float
    assert [type(s) for s in est.shell_infima] == [float, float]


@pytest.mark.parametrize(
    "F",
    [
        pytest.param(LinearOp([[1.0, 2.0], [2.0, 4.0]]), id="rank_deficient"),
        pytest.param(NormalConeBox([0.0], [np.inf]), id="cone_closed_form"),
        pytest.param(Epigraph(lambda x: np.abs(arr(x))), id="epigraph_search"),
    ],
)
def test_convex_process_empty_direction_gives_zero(F):
    # some direction has no preimage at all: the rate is exactly 0
    est = convex_process_sur(F)
    assert est.value == 0.0 and 0.0 in est.shell_infima


def test_convex_process_direction_in_the_value_at_zero_is_infinite():
    # v = +1 lies in F(0) = [0, inf): dist(0, F^{-1}(v)) = 0
    est = convex_process_sur(Epigraph(lambda x: np.abs(arr(x))))
    assert est.shell_infima[0] == np.inf
    # rates above the quotient cap count as infinite, as in every estimate
    assert convex_process_sur(SingleValued(lambda x: 1e7 * arr(x))).value == np.inf


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.floats(0.25, 4.0))
def test_convex_process_scales_with_the_map(a):
    # sur(aF) = a sur(F), on the closed form and on the 1D search, which
    # grows its region past the unit ball when a < 1/3
    B = np.array([[2.0, 0.3], [0.1, 1.5]])
    base = convex_process_sur(LinearOp(B)).value
    assert convex_process_sur(LinearOp(a * B)).value == pytest.approx(a * base, rel=1e-9)
    assert convex_process_sur(SingleValued(lambda x: 3.0 * a * arr(x))).value == pytest.approx(3.0 * a, rel=1e-9)


def test_convex_process_needs_a_closed_form_above_two_dimensions():
    with pytest.raises(UnsupportedOperation):
        convex_process_sur(SingleValued(lambda x: 2.0 * arr(x), 3, 3))


def test_convex_process_rejects_non_cone():
    shifted = PolyhedralGraph([([[1, -1], [-1, 1]], [1.0, -1.0])], 1, 1)  # y = x + 1
    with pytest.raises(ValueError):
        convex_process_sur(shifted)


# ---------------------------------------------------------------------------
# star-shaped graphs


def test_starshape_identity_and_halfspace():
    assert starshape_bound(LinearOp([[1.0]]), ORIGIN, 1.0, 1.0).bound == pytest.approx(1.0)
    P = PolyhedralGraph([([[1, -1]], [0.0])], 1, 1)
    res = starshape_bound(P, ORIGIN, 1.0, 1.0)
    assert res.passed and res.bound == pytest.approx(1.0)


def test_starshape_rejects_shifted_branch():
    # {x, -1}: the segment from (0,0) to (1,-1) leaves the graph at t = 1/2
    F = FiniteValued([lambda x: arr(x), lambda x: 0.0 * arr(x) - 1.0])
    res = starshape_bound(F, ORIGIN, 1.0, 1.0)
    assert not res.passed
    assert res.witness["reason"] == "graph not star-shaped"
    assert 0 < res.witness["t"] < 1


def test_starshape_cone_union_passes():
    # {x, 0}: both branches pass through the origin, so the graph is a cone
    res = starshape_bound(two_branch(), ORIGIN, 1.0, 1.0)
    assert res.passed and res.bound == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# slope sandwich


def test_slope_profile_values():
    prof = slope_sandwich(two_branch(), ORIGIN, FAST)
    assert prof.S_estimate == pytest.approx(1.0, rel=1e-6)
    assert prof.sandwich_lower_ok and prof.sandwich_upper_ok
    prof = slope_sandwich(LinearOp([[1.0]]), ORIGIN, FAST)
    assert prof.S_estimate == pytest.approx(1.0, rel=1e-6)
    prof = slope_sandwich(SingleValued(lambda x: 2.0 * arr(x)), ORIGIN, FAST)
    assert prof.S_estimate == pytest.approx(2.0, rel=1e-6)
    assert prof.lopen_estimate == pytest.approx(2.0, rel=1e-6)


# ---------------------------------------------------------------------------
# coderivative bounds


def test_coderivative_two_branch_unbounded():
    entry = load_example("two_branch")
    cb = frechet_coderivative_bound(entry.objects["setmap_polyhedral"], ORIGIN)
    assert cb.bound == np.inf
    assert cb.inverse_coderivative_trivial


def test_coderivative_diagonal_and_constant():
    diag = PolyhedralGraph([([[1, -1], [-1, 1]], [0, 0])], 1, 1)
    assert frechet_coderivative_bound(diag, ORIGIN).bound == pytest.approx(1.0, abs=1e-9)
    const = PolyhedralGraph([([[0, 1], [0, -1]], [0, 0])], 1, 1)
    cb = frechet_coderivative_bound(const, ORIGIN)
    assert cb.bound == pytest.approx(0.0, abs=1e-12)
    assert not cb.inverse_coderivative_trivial


# ---------------------------------------------------------------------------
# corpus covering rates


def test_staircase_covering_rates():
    for n in (5, 8, 10):
        xn = 1.0 / n + 1.0 / n**2
        yn = float(np.asarray(staircase_fn(np.array([xn]))).reshape(-1)[0])
        assert yn == pytest.approx(1.0 / n**2)
        c = largest_covered_c(Epigraph(staircase_fn), [xn], [yn], 1.0 / n)
        assert c == pytest.approx(1.0 / n, rel=0.1)


def test_sum_map_openness_at_point():
    F = FiniteValued([lambda x: arr(x), lambda x: 0.0 * arr(x) - 1.0])
    G = FiniteValued([lambda x: 0.0 * arr(x), lambda x: 0.0 * arr(x) + 1.0])
    total = SumMap(F, G)
    assert 0.9 <= estimate_modulus("lopen", total, ORIGIN, FAST).value <= 1.1
    assert estimate_modulus("sur", total, ORIGIN, FAST).value <= 0.1


def test_estimate_serialization_roundtrip():
    est = estimate_modulus("lopen", LinearOp([[1.0]]), ORIGIN, FAST)
    d = est.to_json_dict()
    assert d["kind"] == "lopen" and d["norm"] == "euclidean"
    assert isinstance(d["shell_infima"], list) and len(d["shell_infima"]) == FAST.shells


# ---------------------------------------------------------------------------
# the attained value structure of sur, against the loops it replaced


def _reference_descriptor_structure(F, grid, t):
    """The per-row descriptor loop of ``_attained_structure_1d`` that branch
    values replaced (kept verbatim as the oracle)."""
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
    return points, intervals, max(1e-9, 1e-9 * t)


def _reference_ray_coverage(origin, direction, points, intervals, gap_tol):
    """The tuple loop of ``_ray_coverage_1d`` before the sorted sweep (kept
    verbatim as the oracle)."""
    segs = []
    for p in points:
        s = (p - origin) * direction
        segs.append((s - gap_tol, s + gap_tol))
    for lo, hi in intervals:
        a, b = (lo - origin) * direction, (hi - origin) * direction
        segs.append((min(a, b), max(a, b)))
    segs = [s for s in segs if s[1] >= -gap_tol]
    segs.sort()
    cur = 0.0
    for lo, hi in segs:
        if lo > cur + gap_tol:
            break
        cur = max(cur, hi)
    return max(cur, 0.0)


_STRUCTURE_MAPS = {
    # the inline map whose constant branch fails the batch shape check
    "finite_x0": (build_setmap({"kind": "finite", "branches": ["x", "0"]}), [0.0], [0.1, 0.025, 0.7]),
    "single_not_vectorized": (SingleValued(lambda x: np.abs(arr(x)) - arr(x) ** 2, vectorized=False), [0.2], [0.5]),
    "single_2d": (build_setmap({"kind": "single", "expr": "x1*x2 + x1", "n": 2, "m": 1}), [0.1, -0.3], [0.4]),
}


@pytest.mark.parametrize("name", sorted(_STRUCTURE_MAPS))
def test_attained_structure_matches_per_row_loop_bitwise(name):
    F, x, radii = _STRUCTURE_MAPS[name]
    x = arr(x)
    for t in radii:
        for norm in ("euclidean", "max"):
            got = _attained_structure_1d(F, x, t, 801, norm)
            ref = _reference_descriptor_structure(F, _ball_grid(x, t, 801 if F.n == 1 else 41, norm), t)
            assert len(got[0]) == len(ref[0]) and len(got[1]) == len(ref[1])
            assert np.array_equal(np.array(got[0]), np.array(ref[0]))
            assert np.array_equal(np.array(got[1]).reshape(-1, 2), np.array(ref[1]).reshape(-1, 2))
            assert got[2] == ref[2]


_ends = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, -0.0, 0.25, 0.5, 1.0]), st.floats(-3.0, 3.0))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    origin=st.one_of(st.sampled_from([0.0, 0.5]), st.floats(-1.0, 1.0)),
    direction=st.sampled_from([1.0, -1.0]),
    points=st.lists(_ends, max_size=12),
    intervals=st.lists(st.tuples(_ends, st.one_of(_ends, st.sampled_from([-np.inf, np.inf]))), max_size=8),
    gap_tol=st.sampled_from([1e-9, 0.05, 0.3]),
)
def test_ray_coverage_matches_tuple_loop_bitwise(origin, direction, points, intervals, gap_tol):
    got = _ray_coverage_1d(origin, direction, points, intervals, gap_tol)
    ref = _reference_ray_coverage(origin, direction, points, intervals, gap_tol)
    assert float(got).hex() == float(ref).hex()


def test_ray_coverage_edge_cases():
    assert _ray_coverage_1d(0.0, 1.0, [], [], 1e-9) == 0.0
    # tied lower ends, a negative direction and a gap that stops the cover
    pts, ivs = [0.0, -0.1], [(-0.5, 0.0), (-0.5, -0.3), (-0.3, -0.2), (-2.0, -1.0)]
    for direction in (1.0, -1.0):
        got = _ray_coverage_1d(0.0, direction, pts, ivs, 0.05)
        assert got == _reference_ray_coverage(0.0, direction, pts, ivs, 0.05)
    assert _ray_coverage_1d(0.0, -1.0, pts, ivs, 0.05) == 0.5
    # a gap of exactly gap_tol is bridged
    assert _ray_coverage_1d(0.0, 1.0, [], [(0.0, 1.0), (1.5, 2.0)], 0.5) == 2.0
    # a degenerate interval that maps to -0.0 leaves the cover at +0.0
    assert _ray_coverage_1d(0.0, -1.0, [], [(0.0, 0.0)], 1e-9).hex() == (0.0).hex()


def _reference_bridged_structure_1d(curves):
    """The gap loop of ``_bridged_structure_1d`` before it visited only the
    gaps above the cut (kept verbatim as the oracle)."""
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
        for i, g in enumerate(gaps):
            if g > cut:
                emit(vals[start : i + 1])
                start = i + 1
        emit(vals[start:])
    return points, intervals


_step = st.one_of(st.sampled_from([0.0, 1.0, 8.0, 8.5, 7.5, 1e-15, -1.0, -8.0, np.nan]), st.floats(-20.0, 20.0))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(curves=st.lists(st.tuples(st.floats(-5.0, 5.0), st.lists(_step, max_size=12)), min_size=1, max_size=3))
def test_bridged_structure_matches_gap_loop_bitwise(curves):
    # steps of 1 and 8 make gaps equal to the cut of 8 times the median gap
    arrays = [np.concatenate([[start], start + np.cumsum(steps)]) for start, steps in curves]
    got, ref = _bridged_structure_1d(arrays), _reference_bridged_structure_1d(arrays)
    assert np.array_equal(np.array(got[0]), np.array(ref[0]), equal_nan=True)
    assert np.array_equal(np.array(got[1]).reshape(-1, 2), np.array(ref[1]).reshape(-1, 2), equal_nan=True)


def test_bridged_structure_gap_equal_to_cut_is_bridged():
    vals = np.array([0.0, 1.0, 2.0, 3.0, 11.0, 12.0, 13.0, 22.0])
    # median gap 1, cut 8: the gap of 8 is bridged, the gap of 9 splits
    assert _bridged_structure_1d([vals]) == _reference_bridged_structure_1d([vals]) == ([22.0], [(0.0, 13.0)])


# ---------------------------------------------------------------------------
# displacement: one batched distance call per shell gives the estimate of
# before bit for bit


def _reference_displacement(F, point, schedule, norm, seed):
    """estimate_modulus("displacement", ...) of before: one scalar distance per shell point."""
    check_on_graph(F, point, norm=norm)
    xbar, ybar = point.x, point.y
    shell_stats, total = [], 0
    for j, r in enumerate(schedule.radii()):
        sj = derive_seed(seed, f"displacement-shell{j}")
        quotients = []
        for xv in shell_points(xbar, r * schedule.rho, r, schedule.samples_per_shell, sj):
            d_x = vec_dist(xv, xbar, norm)
            if d_x <= 1e-12:
                continue
            dval = dist_to_value_set(ybar, F, xv, norm)
            quotients.append(math.inf if dval == math.inf else dval / d_x)
        total += len(quotients)
        shell_stats.append(min(quotients) if quotients else None)
    return _assemble("displacement", point, shell_stats, schedule, seed, norm, total, [])


def _fingerprint(est):
    hexes = [float(v).hex() for v in (est.value, *est.bracket, *est.shell_infima)]
    return hexes, est.samples_used, est.notes


_A2 = np.array([[0.3, -1.7], [2.1, 0.45]])


def _curve_2d(x):
    x = arr(x)
    return np.stack([np.sin(x[..., 0]) * x[..., 1], x[..., 0] ** 2 - x[..., 1]], axis=-1)

_DISPLACEMENT_KINDS = {
    "single": (SingleValued(sinkink_fn), GraphPoint([0.01], [float(sinkink_fn(np.array([0.01]))[0])])),
    "single_2d": (SingleValued(_curve_2d, 2, 2), GraphPoint([0.3, 0.2], _curve_2d(np.array([0.3, 0.2])))),
    "finite": (two_branch(), ORIGIN),
    "epigraph": (Epigraph(staircase_fn), ORIGIN),
    "linear_2x2": (LinearOp(_A2), GraphPoint([0.4, -0.3], _A2 @ np.array([0.4, -0.3]))),
    "normal_cone_box": (NormalConeBox([0.0, 0.0], [1.0, 1.0]), GraphPoint([0.0, 0.5], [-0.5, 0.0])),
    "polyhedral": (PolyhedralGraph([([[2.0, 1.0], [-2.0, -1.0]], [0.1, 0.1])], 1, 1), ORIGIN),
    "sum_cone": (SumMap(SingleValued(lambda x: 2.1 * arr(x)), NormalConeBox([-1.0], [1.0])), ORIGIN),
    "sum_finite": (SumMap(SingleValued(lambda x: 0.5 * arr(x)), FiniteValued([arr, lambda x: 0.0 * arr(x) + 1.0])), ORIGIN),
    "inverse": (InverseView(LinearOp([[2.0]])), ORIGIN),
}


@pytest.mark.parametrize("norm", ["euclidean", "max"])
@pytest.mark.parametrize("kind", sorted(_DISPLACEMENT_KINDS))
@settings(derandomize=True, max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**31), r0=st.sampled_from([0.4, 0.05, 1e-3]))
def test_displacement_equals_the_per_point_loop_of_before(kind, norm, seed, r0):
    F, point = _DISPLACEMENT_KINDS[kind]
    sched = LiminfSchedule(r0=r0, rho=0.5, shells=4, samples_per_shell=16)
    got = estimate_modulus("displacement", F, point, sched, norm=norm, seed=seed)
    ref = _reference_displacement(F, point, sched, norm, seed)
    assert _fingerprint(got) == _fingerprint(ref)
