import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reglab import moduli
from reglab.corpus import load_example, sinkink_fn, staircase_fn
from reglab.geometry import TOL_FEAS, Ball, GraphPoint, _real, as_vector, jsonable, vec_dist
from reglab.moduli import (
    MODULUS_KINDS,
    LiminfSchedule,
    ModulusEstimate,
    _INF_KINDS,
    _attained_structures_1d,
    _bridged_structure_1d,
    _bridged_structure_rows,
    _covered_c_nd,
    _ray_coverage_rows,
    NotEvaluable,
    NotOnGraph,
    StarShapeResult,
    _assemble,
    check_on_graph,
    convex_process_sur,
    estimate_modulus,
    frechet_coderivative_bound,
    largest_covered_c,
    largest_covered_c_many,
    linear_moduli,
    slope_sandwich,
    starshape_bound,
)
from reglab.rng import SplitMix64, derive_seed, shell_points, sphere_directions
from reglab.setmaps import (
    Epigraph,
    FiniteValued,
    InverseView,
    LinearOp,
    NormalConeBox,
    PolyhedralGraph,
    SingleValued,
    SumMap,
    INF,
    QUOTIENT_CAP,
    SetMap,
    UnsupportedOperation,
    _ball_grid,
    _value_candidates,
    _eval_vectorized,
    build_setmap,
    dist_to_value_set,
    dist_to_value_set_batch,
    graph_sample,
    preimage_search_many,
    scalar_branches,
)
from test_setmaps import _reference_inf_on_interval, _reference_linear_cover_rate, _reference_query

arr = lambda x: np.asarray(x, dtype=float)
ORIGIN = GraphPoint([0.0], [0.0])
FAST = LiminfSchedule(r0=0.1, rho=0.5, shells=5, samples_per_shell=32)


# the helper that the verbatim references below call, as it was in reglab.geometry
def _real_first(val) -> float:
    """The first entry of a function value as a float; see :func:`_real`."""
    return float(_real(val).reshape(-1)[0])


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


def _reference_coderivative_bound_2d(F, point, sphere_samples=32, seed=42, tol=1e-10):
    """The n = 2 bound with one polish per start (kept verbatim as the oracle)."""
    pieces = F.graph_pieces()
    z = np.concatenate([point.x, point.y])
    scale = max(1.0, float(np.abs(z).max()))
    containing = []
    for A, b in pieces:
        if np.all(A @ z <= b + 1e-9 * scale):
            active = np.abs(A @ z - b) <= 1e-9 * scale
            containing.append(A[active])

    def residual(w):
        return max(moduli._cone_residual(w, G) for G in containing)

    n = F.n

    def min_norm_xstar(ystar):
        def g_at(xstar):
            return residual(np.concatenate([np.atleast_1d(xstar), -ystar]))

        # n == 2: coordinate descent to a feasible point, then radial shrink
        best = INF
        rng = SplitMix64(derive_seed(seed, "coder-starts"))
        starts = [np.zeros(n)] + [rng.uniform_vector(n, -1.0, 1.0) for _ in range(4)]
        for x0 in starts:
            X, fx = moduli._coordinate_polish(lambda Z, _: [g_at(z) for z in Z], None, x0, 1.0, 120)
            x = X[0]
            if fx[0] > tol:
                continue
            if g_at(np.zeros(n)) <= tol:
                return 0.0
            shrink = moduli._bisect_threshold(lambda s: g_at(s * x) <= tol, 1.0, 0.0, 60)
            best = min(best, float(np.linalg.norm(shrink * x)))
        return best

    return [min_norm_xstar(np.asarray(ystar)) for ystar in sphere_directions(F.m, sphere_samples,
                                                                             derive_seed(seed, "coder-dirs"))]


#: polyhedral graphs with n = 2, each with a point of its graph
_CODERIVATIVE_2D = {
    # y = 0: x* = 0 is feasible for every y*, so the early return fires
    "constant": (PolyhedralGraph([([[0, 0, 1], [0, 0, -1]], [0, 0])], 2, 1), GraphPoint([0.0, 0.0], [0.0])),
    "plane": (PolyhedralGraph([([[1, 1, -1], [-1, -1, 1]], [0, 0])], 2, 1), GraphPoint([0.3, 0.1], [0.4])),
    "half_space": (PolyhedralGraph([([[1, -1, -1]], [0])], 2, 1), GraphPoint([0.0, 0.0], [0.0])),
    "union": (PolyhedralGraph([([[1, 0, -1], [-1, 0, 1]], [0, 0]), ([[0, 0, 1], [0, 0, -1], [1, 0, 0]], [0, 0, 0])],
                              2, 1), GraphPoint([0.0, 0.0], [0.0])),
    "identity": (PolyhedralGraph([([[1, 0, -1, 0], [-1, 0, 1, 0], [0, 1, 0, -1], [0, -1, 0, 1]], [0, 0, 0, 0])],
                                 2, 2), GraphPoint([0.0, 0.0], [0.0, 0.0])),
}


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("name", sorted(_CODERIVATIVE_2D))
def test_coderivative_starts_in_lockstep_equal_the_one_start_polish_of_before(name, seed):
    F, point = _CODERIVATIVE_2D[name]
    got = frechet_coderivative_bound(F, point, sphere_samples=6, seed=seed)
    ref = _reference_coderivative_bound_2d(F, point, sphere_samples=6, seed=seed)
    assert [float(v).hex() for v in got.per_direction] == [float(v).hex() for v in ref]
    assert float(got.bound).hex() == float(min(ref)).hex()
    if name == "constant":
        assert got.bound == 0.0 and set(got.per_direction) == {0.0}


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


def _attained_structure_1d(F, x, t, resolution, norm):
    """Attained (points, intervals, gap_tol) of F over B[x, t] for 1D ranges:
    the one-ball call of ``_attained_structures_1d``."""
    _, pts, _, ivs = _attained_structures_1d(F, x[None, :], np.array([t], dtype=float), resolution, norm)
    return pts.tolist(), [tuple(iv) for iv in ivs.tolist()], max(1e-9, 1e-9 * t)


def _ray_coverage_1d(origin, direction, points, intervals, gap_tol):
    """The one-row call of ``_ray_coverage_rows``."""
    pts = np.asarray(points, dtype=float).reshape(-1)
    ivs = np.asarray(intervals, dtype=float).reshape(-1, 2)
    structure = (np.zeros(pts.size, dtype=np.intp), pts, np.zeros(len(ivs), dtype=np.intp), ivs)
    return float(_ray_coverage_rows(np.array([origin], dtype=float), direction, np.array([gap_tol]), structure)[0])


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


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data(), k=st.integers(1, 5), length=st.integers(1, 10), branches=st.integers(1, 3))
def test_bridged_structure_rows_match_the_gap_loop_row_by_row(data, k, length, branches):
    # rows with and without cuts, rows sharing a positive-gap count, NaN and
    # flat curves, against the gap loop of each row alone
    curves = [
        np.array([np.concatenate([[data.draw(st.floats(-5.0, 5.0))],
                                  data.draw(st.lists(_step, min_size=length - 1, max_size=length - 1))]).cumsum()
                  for _ in range(k)])
        for _ in range(branches)
    ]
    labels = np.arange(k) * 3 + 1
    pt_row, pts, iv_row, ivs = _bridged_structure_rows(curves, labels)
    for i in range(k):
        ref = _reference_bridged_structure_1d([c[i] for c in curves])
        assert pts[pt_row == labels[i]].tobytes() == np.array(ref[0], dtype=float).reshape(-1).tobytes()
        assert ivs[iv_row == labels[i]].tobytes() == np.array(ref[1], dtype=float).reshape(-1, 2).tobytes()


def test_bridged_structure_rows_cut_at_the_median_of_an_even_count():
    # gaps 1, 2, 3, 22: the median is 2.5 (the mean of the middle two), so the
    # cut of 20 splits the flat end off at 22 (the upper middle, 3, would not);
    # the row with a fifth gap has median 2 and ends on an interval
    rows = [[0.0, 1.0, 3.0, 6.0, 28.0, 28.0], [0.0, 1.0, 3.0, 6.0, 28.0, 28.0 + 1e-15],
            [0.0, 1.0, 3.0, 6.0, 28.0, 30.0], [5.0, 6.0, 8.0, 11.0, 33.0, 33.0]]
    curves = [np.array(rows), -np.array(rows)]
    pt_row, pts, iv_row, ivs = _bridged_structure_rows(curves, np.arange(4))
    for i in range(4):
        ref = _reference_bridged_structure_1d([c[i] for c in curves])
        assert len(ref[0]) == (0 if i == 2 else 2)  # the cut leaves the point 28 (33) per branch
        assert pts[pt_row == i].tobytes() == np.array(ref[0], dtype=float).reshape(-1).tobytes()
        assert ivs[iv_row == i].tobytes() == np.array(ref[1], dtype=float).reshape(-1, 2).tobytes()


_coord = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, np.inf, -np.inf, np.nan]), st.floats(-3.0, 3.0))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    rows=st.lists(st.tuples(st.lists(_coord, max_size=8), st.lists(st.tuples(_coord, _coord), max_size=5),
                            st.one_of(st.sampled_from([0.0, 0.5]), st.floats(-1.0, 1.0)),
                            st.sampled_from([1e-9, 0.05, 0.3])), min_size=1, max_size=6),
    direction=st.sampled_from([1.0, -1.0]),
)
def test_ray_coverage_rows_match_the_tuple_loop_row_by_row(rows, direction):
    # padded rows of different lengths, points and intervals at +-inf, NaN
    # entries and signed zeros, each row against the tuple loop alone
    structure = (
        np.repeat(np.arange(len(rows)), [len(p) for p, _, _, _ in rows]),
        np.array([v for p, _, _, _ in rows for v in p], dtype=float),
        np.repeat(np.arange(len(rows)), [len(iv) for _, iv, _, _ in rows]),
        np.array([v for _, iv, _, _ in rows for v in iv], dtype=float).reshape(-1, 2),
    )
    origin = np.array([o for _, _, o, _ in rows])
    gap_tol = np.array([g for _, _, _, g in rows])
    got = _ray_coverage_rows(origin, direction, gap_tol, structure)
    for i, (points, intervals, o, g) in enumerate(rows):
        assert float(got[i]).hex() == float(_reference_ray_coverage(o, direction, points, intervals, g)).hex()


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


# ---------------------------------------------------------------------------
# sur: one batched covering call per shell gives the rates of the per-query
# loop of before bit for bit


def _reference_attained_structure_1d(F, x, t, resolution, norm):
    """``_attained_structure_1d`` of before, verbatim (with the reference bridging)."""
    grid = _ball_grid(x, t, resolution if F.n == 1 else 41, norm)
    gap_tol = max(1e-9, 1e-9 * t)
    curves = [_eval_vectorized(b, grid, 1, 1, finite=False) for b in scalar_branches(F) or []]
    if curves and all(c is not None for c in curves):
        pts, ivs = _reference_bridged_structure_1d([c[:, 0] for c in curves])
        return pts, ivs, gap_tol
    outs = F.branch_values(grid)
    if outs is not None:
        vals = as_vector(np.hstack(outs).ravel())
        if len(outs) > 1:
            return vals.tolist(), [], gap_tol
        pts, ivs = _reference_bridged_structure_1d([vals])
        return pts, ivs, gap_tol
    return _reference_descriptor_structure(F, grid, t)


def _reference_largest_covered_c(F, x, y, t, norm="euclidean", directions=32, resolution=801, cap=QUOTIENT_CAP,
                                 seed=42):
    """``largest_covered_c`` of before, one query, with the one-query
    ``covered_c`` hooks of ``LinearOp`` and ``Epigraph`` inlined verbatim."""
    x = as_vector(x, F.n)
    y = as_vector(y, F.m)
    closed = None
    if isinstance(F, LinearOp):
        closed = _reference_linear_cover_rate(F.A.tobytes(), F.A.shape, norm, directions, seed)
    elif isinstance(F, Epigraph):
        if F.n == 1:
            lo_f = _reference_inf_on_interval(F.f, float(x[0]) - t, float(x[0]) + t, resolution)
        else:
            grid = _ball_grid(x, t, 41 if F.n == 2 else 11, norm)
            lo_f = float(np.min([_real_first(F.f(row)) for row in grid]))
        closed = max(0.0, (float(y[0]) - lo_f) / t)
    if closed is not None:
        return min(closed, cap)

    if F.m == 1:
        pts, ivs, gap_tol = _reference_attained_structure_1d(F, x, t, resolution, norm)
        best = INF
        for v in (1.0, -1.0):
            rho = _reference_ray_coverage(float(y[0]), v, pts, ivs, gap_tol)
            best = min(best, rho / t)
        return min(best, cap)

    return _covered_c_nd(F, x, y, t, norm, directions, seed, cap)


def _reference_sur(F, point, schedule, norm, seed, sur_graph_points):
    """estimate_modulus("sur", ...) of before: one covering call per graph point and radius."""
    check_on_graph(F, point, norm=norm)
    shell_stats, total = [], 0
    for j, r in enumerate(schedule.radii()):
        sj = derive_seed(seed, f"sur-shell{j}")
        quotients = []
        pts = graph_sample(F, point, r, sur_graph_points, derive_seed(sj, "gp"), norm)
        for gp in [point] + pts:
            for frac in (0.25, 0.5, 0.75, 1.0):
                t = frac * r
                quotients.append(
                    _reference_largest_covered_c(F, gp.x, gp.y, t, norm=norm, seed=derive_seed(sj, "c"))
                )
        total += len(quotients)
        shell_stats.append(min(quotients) if quotients else None)
    return _assemble("sur", point, shell_stats, schedule, seed, norm, total, [])


def _scalar_only(fn):
    def f(x):
        if np.size(x) > 1:
            raise TypeError("one point at a time")
        return fn(x)

    return f


def _raises_near(fn, a, b):
    # raises on any array with a point in (a, b), so balls that reach it
    # fall back alone while the others stay in the batch
    def f(x):
        if np.size(x) > 1 and np.any((arr(x) > a) & (arr(x) < b)):
            raise ArithmeticError("pole")
        return fn(x)

    return f


def _signed_zero(x):
    x = arr(x)
    return np.where(np.signbit(x), -1.0, 0.0) + x * x


_STAIR = load_example("staircase")
_SUM = load_example("sum_remark")

#: name -> (map, graph point, graph points per shell); small shells keep the
#: one-probe-at-a-time reference and the 2D grids quick
_SUR_MAPS = {
    "epigraph_staircase": (Epigraph(staircase_fn), ORIGIN, 16),
    "epigraph_inline": (build_setmap({"kind": "epigraph", "expr": "abs(x) + 0.01*sin(40*x)"}), ORIGIN, 16),
    "epigraph_scalar_only": (Epigraph(_scalar_only(staircase_fn)), ORIGIN, 2),
    "epigraph_raises_on_arrays": (Epigraph(_raises_near(lambda x: np.abs(arr(x)), 0.0101, 0.0102)), ORIGIN, 8),
    "epigraph_signed_zero": (Epigraph(_signed_zero), ORIGIN, 8),
    "epigraph_increasing": (Epigraph(lambda x: arr(x)), ORIGIN, 8),
    "epigraph_decreasing": (Epigraph(lambda x: -arr(x) + _signed_zero(x)), ORIGIN, 8),
    "epigraph_2d": (Epigraph(lambda x: np.abs(arr(x)).sum(axis=-1), n=2), GraphPoint([0.0, 0.0], [0.0]), 2),
    "two_branch": (two_branch(), ORIGIN, 16),
    "finite_constant_branch": (build_setmap({"kind": "finite", "branches": ["x", "0"]}), ORIGIN, 16),
    "finite_not_vectorized": (FiniteValued([lambda x: arr(x), lambda x: 0.0 * arr(x)], vectorized=False), ORIGIN, 4),
    "finite_raises_on_arrays": (
        FiniteValued([_raises_near(lambda x: arr(x), 0.0101, 0.0102), lambda x: 0.5 * arr(x)]), ORIGIN, 8),
    "single_one_branch": (build_setmap({"kind": "single", "expr": "x + 0.1*abs(x)"}), ORIGIN, 8),
    "single_kink": (SingleValued(sinkink_fn), ORIGIN, 8),
    "sum_remark": (SumMap(_SUM.objects["F"], _SUM.objects["G"]), ORIGIN, 16),
    # no scalar branches and no branch values: each ball alone, row by row
    "sum_cone": (SumMap(SingleValued(lambda x: 2.1 * arr(x)), NormalConeBox([-1.0], [1.0])), ORIGIN, 1),
    "linear": (LinearOp(_A2), GraphPoint([0.4, -0.3], _A2 @ np.array([0.4, -0.3])), 16),
    "single_2d_to_1d": (build_setmap({"kind": "single", "expr": "x1*x2 + x1", "n": 2, "m": 1}),
                        GraphPoint([0.0, 0.0], [0.0]), 1),
    # a 2D range takes the target grid of _covered_c_nd (11 grid points for n = 1)
    "single_2d": (SingleValued(lambda x: np.concatenate([arr(x), arr(x) ** 2]), 1, 2),
                  GraphPoint([0.0], [0.0, 0.0]), 2),
}


@pytest.mark.parametrize("norm", ["euclidean", "max"])
@pytest.mark.parametrize("name", sorted(_SUR_MAPS))
def test_sur_equals_the_per_query_loop_of_before(name, norm):
    F, point, per_shell = _SUR_MAPS[name]
    sched = LiminfSchedule(r0=0.1, rho=0.5, shells=3, samples_per_shell=8)
    with np.errstate(all="ignore"):
        got = estimate_modulus("sur", F, point, sched, norm=norm, seed=42, sur_graph_points=per_shell)
        ref = _reference_sur(F, point, sched, norm, 42, per_shell)
    assert _fingerprint(got) == _fingerprint(ref)


@pytest.mark.parametrize("name", sorted(_SUR_MAPS))
def test_covered_c_many_equals_the_one_query_calls_of_before(name):
    # every rate of a shell, not only the shell minimum
    F, point, per_shell = _SUR_MAPS[name]
    for r in (0.2, 1e-3):
        gps = [point] + graph_sample(F, point, r, min(per_shell, 4), 11, "euclidean")
        queries = [(gp, frac * r) for gp in gps for frac in (0.25, 1.0)]
        X, Y, T = [gp.x for gp, _ in queries], [gp.y for gp, _ in queries], [t for _, t in queries]
        with np.errstate(all="ignore"):
            got = largest_covered_c_many(F, X, Y, T, seed=5)
            ref = [_reference_largest_covered_c(F, x, y, t, seed=5) for x, y, t in zip(X, Y, T)]
            lone = [largest_covered_c(F, x, y, t, seed=5) for x, y, t in zip(X, Y, T)]
        assert [float(c).hex() for c in got] == [float(c).hex() for c in ref] == [float(c).hex() for c in lone]


@pytest.mark.parametrize("name", ["two_branch", "finite_constant_branch", "finite_raises_on_arrays"])
def test_covered_c_many_blocks_of_balls_give_the_same_rates(name, monkeypatch):
    # the 1D ray path answers its balls in blocks of grid points: any block
    # size gives the rates of one block
    F, point, _ = _SUR_MAPS[name]
    gps = [point] + graph_sample(F, point, 0.2, 8, 3, "euclidean")
    X, Y = [gp.x for gp in gps for _ in range(3)], [gp.y for gp in gps for _ in range(3)]
    T = [0.05, 0.1, 0.2] * len(gps)
    got = {}
    for block in (1, 1000, 10**9):
        monkeypatch.setattr(moduli, "_COVER_BLOCK", block)
        got[block] = [float(c).hex() for c in largest_covered_c_many(F, X, Y, T)]
    assert got[1] == got[1000] == got[10**9]


def test_covered_c_many_of_no_query_is_empty():
    assert largest_covered_c_many(two_branch(), [], [], []) == []


def test_staircase_criterion_polishes_in_lockstep(monkeypatch):
    # criterion 4: each sur shell takes one call per probe of a round (30
    # rounds of two probes) on its 68 intervals, where each interval used to
    # take its own (9,031 calls of the staircase at seed 42); the six lone
    # intervals of the criterion make their 60 probes as 0-d calls
    from reglab import acceptance, corpus

    calls = []

    def counted(x):
        calls.append(np.shape(x))
        return staircase_fn(x)

    monkeypatch.setattr(corpus, "staircase_fn", counted)
    assert acceptance.criterion_4(42)["passed"]
    assert calls.count((68,)) == 8 * 30 * 2
    assert calls.count(()) == 6 * 60
    assert len(calls) == 1133


def test_epigraph_covering_rate_of_a_scalar_only_f_calls_it_one_point_at_a_time():
    # a 1D epigraph that is not vectorized takes its grid and its probes one
    # point per call, as its other hooks and the n >= 2 branch do
    calls = []

    def f(x):
        calls.append(np.size(x))
        return np.abs(arr(x))

    got = largest_covered_c(Epigraph(f, vectorized=False), [0.3], [0.3], 0.1)
    assert calls and set(calls) == {1}
    assert got.hex() == largest_covered_c(Epigraph(f), [0.3], [0.3], 0.1).hex() == (1.0).hex()


# ---------------------------------------------------------------------------
# reg, psopen and subreg: one value batch and one preimage call per shell give
# the estimate of the per-sample loop of before bit for bit


def dist_to_preimage(x0, F, y, region=None, norm="euclidean", resolution=401):
    """The preimage distance that the verbatim reference below calls: the
    one-query search of before, with its one-target grid stage."""
    return _reference_query(x0, F, y, region, norm, resolution)[0]


def _reference_estimate_modulus(
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
    """estimate_modulus of before, verbatim: reg, psopen and subreg take one
    value distance and one preimage distance per sample, lip and calm one
    value distance per candidate, and the lopen and semireg filter one value
    distance per shell point.

    Estimate one regularity modulus by sampling its defining quotient.

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
            # draw the shell, answer it in one covering call, reduce in draw order
            gps = [point] + graph_sample(F, point, r, sur_graph_points, derive_seed(sj, "gp"), norm)
            queries = [(gp, frac * r) for gp in gps for frac in sur_t_fractions]
            quotients = largest_covered_c_many(
                F, [gp.x for gp, _ in queries], [gp.y for gp, _ in queries], [t for _, t in queries],
                norm=norm, seed=derive_seed(sj, "c"),
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


_SHELL_MAPS = {
    "map2d": (build_setmap({"kind": "single", "expr": ["x1+0.2*sin(x2)", "x2-0.1*x1**2"], "n": 2, "m": 2}),
              GraphPoint([0.0, 0.0], [0.0, 0.0])),
    "curve_2d_not_vectorized": (SingleValued(_curve_2d, 2, 2, vectorized=False),
                                GraphPoint([0.3, 0.2], _curve_2d(np.array([0.3, 0.2])))),
    "epigraph_2d": (Epigraph(lambda x: (arr(x) ** 2).sum(axis=-1), 2), GraphPoint([0.0, 0.0], [0.0])),
    "finite_x0": (build_setmap({"kind": "finite", "branches": ["x", "0"]}), ORIGIN),
    "epigraph_abs": (build_setmap({"kind": "epigraph", "expr": "abs(x)"}), ORIGIN),
    "interval_band": (PolyhedralGraph([([[2.0, 1.0], [-2.0, -1.0]], [0.1, 0.1])], 1, 1), GraphPoint([0.0], [0.1])),
    "sum_cone": (SumMap(SingleValued(lambda x: 2.1 * arr(x)), NormalConeBox([-1.0], [1.0])), ORIGIN),
    "two_branch": (two_branch(), ORIGIN),
}


@pytest.mark.parametrize("norm", ["euclidean", "max"])
@pytest.mark.parametrize("kind", ["reg", "psopen", "subreg"])
@pytest.mark.parametrize("name", sorted(_SHELL_MAPS))
@settings(derandomize=True, max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**31), r0=st.sampled_from([0.1, 0.02]))
def test_shell_preimage_kinds_equal_the_per_sample_loop_of_before(name, kind, norm, seed, r0):
    F, point = _SHELL_MAPS[name]
    sched = LiminfSchedule(r0=r0, rho=0.5, shells=3, samples_per_shell=6)
    with np.errstate(all="ignore"):
        got = estimate_modulus(kind, F, point, sched, norm=norm, seed=seed)
        ref = _reference_estimate_modulus(kind, F, point, sched, norm=norm, seed=seed)
    assert _fingerprint(got) == _fingerprint(ref)
    assert got.to_json_dict() == ref.to_json_dict()


def test_shell_preimage_kinds_with_no_samples():
    # an empty shell makes no oracle call and keeps the empty-set convention
    F, point = _SHELL_MAPS["map2d"]
    for kind in ("reg", "psopen", "subreg"):
        got = estimate_modulus(kind, F, point, LiminfSchedule(r0=0.1, rho=0.5, shells=3, samples_per_shell=0))
        assert got.samples_used == 0


# ---------------------------------------------------------------------------
# lip, calm, lopen and semireg: one value batch per shell (and one preimage
# call for lopen and semireg) give the estimate of the per-sample loop of
# before bit for bit


#: the grid searches of lopen and semireg on the non-vectorized 2D map take
#: seconds; map2d covers the same 2D filter and search
_VALUE_BATCH_CASES = [(name, kind) for name in sorted(_SHELL_MAPS) for kind in ("lip", "calm", "lopen", "semireg")
                      if not (name == "curve_2d_not_vectorized" and kind in ("lopen", "semireg"))]


@pytest.mark.parametrize("norm", ["euclidean", "max"])
@pytest.mark.parametrize("name, kind", _VALUE_BATCH_CASES)
@settings(derandomize=True, max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**31), r0=st.sampled_from([0.1, 0.02]))
def test_value_batch_kinds_equal_the_per_sample_loop_of_before(name, kind, norm, seed, r0):
    F, point = _SHELL_MAPS[name]
    sched = LiminfSchedule(r0=r0, rho=0.5, shells=3, samples_per_shell=6)
    with np.errstate(all="ignore"):
        got = estimate_modulus(kind, F, point, sched, norm=norm, seed=seed)
        ref = _reference_estimate_modulus(kind, F, point, sched, norm=norm, seed=seed)
    assert _fingerprint(got) == _fingerprint(ref)
    assert got.to_json_dict() == ref.to_json_dict()


def _count_moduli_oracles(monkeypatch):
    """The calls of each distance oracle that moduli makes, by name."""
    calls = {}
    for name in ("dist_to_value_set", "dist_to_value_set_batch", "preimage_search_many"):
        def counted(*args, _fn=getattr(moduli, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(moduli, name, counted)
    return calls


@pytest.mark.parametrize("kind", ["lip", "calm", "lopen", "semireg"])
def test_value_batch_kinds_make_one_value_batch_per_shell(monkeypatch, kind):
    F, point = _SHELL_MAPS["two_branch"]
    calls = _count_moduli_oracles(monkeypatch)
    est = estimate_modulus(kind, F, point, LiminfSchedule(r0=0.1, rho=0.5, shells=3, samples_per_shell=6))
    assert est.samples_used > 0
    # one scalar distance: the on-graph check of the reference point
    searches = 3 if kind in ("lopen", "semireg") else 0
    assert calls == {"dist_to_value_set": 1, "dist_to_value_set_batch": 3, **({"preimage_search_many": 3} if searches else {})}


# ---------------------------------------------------------------------------
# starshape_bound answers each check in one call, with the witness and the
# count of before


def _reference_starshape_bound(
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
    """``starshape_bound`` of before, verbatim: one value distance per
    combined point and one preimage distance per target, each ending the
    check at the first failure."""
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


_STAR_CASES = {
    "identity": (LinearOp([[1.0]]), ORIGIN, 1.0, 1.0),
    "halfspace": (PolyhedralGraph([([[1, -1]], [0.0])], 1, 1), ORIGIN, 1.0, 1.0),
    # {x, -1}: the segment from (0,0) to (1,-1) leaves the graph
    "shifted_branch": (FiniteValued([lambda x: arr(x), lambda x: 0.0 * arr(x) - 1.0]), ORIGIN, 1.0, 1.0),
    "cone_union": (two_branch(), ORIGIN, 1.0, 1.0),
    # x/2 reaches the targets beyond 1/2 only from outside B[0, 1]
    "ball_inclusion_fails": (SingleValued(lambda x: 0.5 * arr(x) + 0.05 * np.sin(arr(x))), ORIGIN, 1.0, 1.0),
    "map2d": (*_SHELL_MAPS["map2d"], 0.3, 0.2),
}


@pytest.mark.parametrize("norm", ["euclidean", "max"])
@pytest.mark.parametrize("name", sorted(_STAR_CASES))
@settings(derandomize=True, max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_starshape_bound_equals_the_per_sample_loops_of_before(name, norm, seed):
    F, point, alpha, beta = _STAR_CASES[name]
    got = starshape_bound(F, point, alpha, beta, samples=12, seed=seed, norm=norm)
    ref = _reference_starshape_bound(F, point, alpha, beta, samples=12, seed=seed, norm=norm)
    assert json.dumps(jsonable(got)) == json.dumps(jsonable(ref))
    if name in ("shifted_branch", "ball_inclusion_fails"):
        assert not got.passed


def test_starshape_bound_makes_one_call_per_check(monkeypatch):
    calls = _count_moduli_oracles(monkeypatch)
    assert starshape_bound(two_branch(), ORIGIN, 1.0, 1.0, samples=12).passed
    assert calls == {"dist_to_value_set": 1, "dist_to_value_set_batch": 1, "preimage_search_many": 1}
