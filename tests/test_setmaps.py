import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reglab import intervals, setmaps
from reglab.corpus import load_example, sinkink_fn, staircase_fn
from reglab.expr import compile_expression
from reglab.geometry import TOL_FEAS, Ball, DimensionMismatch, DomainError, GraphPoint, as_vector, vec_dist
from reglab.moduli import frechet_coderivative_bound, largest_covered_c
from reglab.rng import derive_seed, sphere_directions
from reglab.setmaps import (
    INF,
    AffineSet,
    _bisect_root,
    _coordinate_polish,
    _eval_rows,
    _eval_vectorized,
    _grid_axes,
    Epigraph,
    FinitePoints,
    FiniteValued,
    InverseView,
    LinearOp,
    NormalConeBox,
    PolyhedralGraph,
    SetMap,
    SingleValued,
    SumMap,
    UnsupportedDimension,
    UnsupportedOperation,
    build_setmap,
    dist_to_preimage,
    dist_to_value_set,
    dist_to_value_set_batch,
    graph_sample,
    preimage_search,
    preimage_search_many,
    require_single_valued,
    scalar_branches,
    values,
)

arr = lambda x: np.asarray(x, dtype=float)


def two_branch():
    return FiniteValued([lambda x: arr(x), lambda x: 0.0 * arr(x)])


def test_values_two_branch():
    vs = values(two_branch(), [0.3])
    assert sorted(vs.points.ravel()) == [0.0, pytest.approx(0.3)]


def test_values_identity():
    vs = values(LinearOp(np.eye(2)), [1.0, 2.0])
    assert np.allclose(vs.points, [[1.0, 2.0]])


def test_values_normal_cone_at_lower_bound():
    vs = values(NormalConeBox([0.0], [1.0]), [0.0])
    assert vs.lo[0] == -np.inf and vs.hi[0] == 0.0
    with pytest.raises(DomainError):
        values(NormalConeBox([0.0], [1.0]), [2.0])


def test_dist_examples():
    F = two_branch()
    assert dist_to_value_set([0.5], F, [0.2]) == pytest.approx(0.3)
    f = SingleValued(lambda x: arr(x) * 2)
    assert dist_to_value_set([0.4], f, [0.2]) == 0.0
    E = Epigraph(lambda x: arr(x))
    assert dist_to_value_set([2.0], E, [1.0]) == 0.0
    assert dist_to_value_set([0.5], E, [1.0]) == pytest.approx(0.5)


def test_dist_dimension_mismatch():
    with pytest.raises(ValueError):
        dist_to_value_set([0.5, 1.0], two_branch(), [0.2])


def test_preimage_examples():
    F = two_branch()
    region = Ball([0.0], 1.0)
    assert dist_to_preimage([0.0], F, [0.3], region) == pytest.approx(0.3, abs=1e-9)
    assert dist_to_preimage([0.0], F, [0.0], region) == 0.0
    assert dist_to_preimage([0.3], LinearOp([[1.0]]), [0.3]) == 0.0


def test_preimage_monotone_in_tolerance_and_radius():
    # generic 2D grid path: preimage of the squared-norm level set
    f = SingleValued(lambda x: np.array([float(x[0]) ** 2 + float(x[1]) ** 2]), 2, 1, vectorized=False)
    d_loose = dist_to_preimage([0.0, 0.0], f, [0.25], Ball([0.0, 0.0], 1.0), tol_feas=1e-2, resolution=121)
    d_tight = dist_to_preimage([0.0, 0.0], f, [0.25], Ball([0.0, 0.0], 1.0), tol_feas=1e-8, resolution=121)
    assert d_loose <= d_tight + 1e-12
    assert d_tight == pytest.approx(0.5, rel=1e-3)
    d_small = dist_to_preimage([0.0, 0.0], f, [0.25], Ball([0.0, 0.0], 0.6), tol_feas=1e-8, resolution=121)
    d_big = dist_to_preimage([0.0, 0.0], f, [0.25], Ball([0.0, 0.0], 1.2), tol_feas=1e-8, resolution=121)
    # monotone up to the polish tolerance of the feasibility restoration
    assert d_big <= d_small + 1e-6


def test_preimage_unsupported_dimension():
    f = SingleValued(lambda x: arr(x), 3, 3, vectorized=False)
    with pytest.raises(UnsupportedDimension):
        dist_to_preimage([0.0, 0.0, 0.0], f, [0.1, 0.1, 0.1])


def test_preimage_empty_returns_inf():
    E = Epigraph(lambda x: arr(x) ** 2 + 1.0)
    assert dist_to_preimage([0.0], E, [0.0], Ball([0.0], 1.0)) == np.inf


def test_preimage_tangential_root():
    # double root at 0 never changes sign; the flat-spot descent must find it
    f = SingleValued(lambda x: arr(x) ** 2)
    d = dist_to_preimage([0.3123], f, [0.0], Ball([0.3123], 1.0))
    assert d == pytest.approx(0.3123, abs=2e-4)


def test_preimage_point_is_feasible():
    F = two_branch()
    d, p = preimage_search([0.0], F, [0.4], Ball([0.0], 1.0))
    assert dist_to_value_set([0.4], F, p) <= 1e-8
    assert d == pytest.approx(0.4, abs=1e-9)


def test_graph_sample_identity_and_branches():
    pts = graph_sample(LinearOp([[1.0]]), GraphPoint([0.0], [0.0]), 1.0, 5, seed=42)
    assert len(pts) == 5
    assert all(p.x[0] == p.y[0] for p in pts)
    pts = graph_sample(two_branch(), GraphPoint([0.0], [0.0]), 1.0, 20, seed=42)
    ys = {round(float(p.y[0]), 6) for p in pts}
    assert 0.0 in ys and any(abs(p.y[0] - p.x[0]) < 1e-12 and p.y[0] != 0 for p in pts)


def test_graph_sample_epigraph_feasible():
    from reglab.corpus import staircase_fn

    E = Epigraph(staircase_fn)
    pts = graph_sample(E, GraphPoint([0.0], [0.0]), 0.5, 30, seed=42)
    assert pts
    for p in pts:
        assert dist_to_value_set(p.y, E, p.x) <= 1e-8


def test_graph_sample_deterministic_per_seed():
    F = two_branch()
    a = graph_sample(F, GraphPoint([0.0], [0.0]), 1.0, 12, seed=7)
    b = graph_sample(F, GraphPoint([0.0], [0.0]), 1.0, 12, seed=7)
    c = graph_sample(F, GraphPoint([0.0], [0.0]), 1.0, 12, seed=8)
    assert [(p.x[0], p.y[0]) for p in a] == [(p.x[0], p.y[0]) for p in b]
    assert len(a) == 12 and len(c) == 12


def test_graph_sample_empty_region():
    N = NormalConeBox([0.0], [1.0])
    assert graph_sample(N, GraphPoint([0.5], [0.0]), 0.1, 5, seed=1) != []
    # a region fully outside the box yields nothing and no error
    outside = NormalConeBox([10.0], [11.0])
    assert graph_sample(outside, GraphPoint([0.5], [0.0]), 0.1, 5, seed=1) == []


def test_minkowski_sum_matches_brute_force():
    F = FiniteValued([lambda x: arr(x), lambda x: arr(x) + 1.0])
    G = FiniteValued([lambda x: -arr(x), lambda x: 0.0 * arr(x) + 3.0])
    S = SumMap(F, G)
    x = [0.7]
    got = sorted(values(S, x).points.ravel())
    brute = sorted(
        float(a + b)
        for a in values(F, x).points.ravel()
        for b in values(G, x).points.ravel()
    )
    assert np.allclose(got, brute)


def test_sum_epigraph_with_shift():
    S = SumMap(SingleValued(lambda x: 0.1 * arr(x)), Epigraph(lambda x: arr(x)))
    # value set at x is the ray [1.1 x, inf)
    assert dist_to_value_set([0.5], S, [1.0]) == pytest.approx(0.6)
    assert dist_to_value_set([2.0], S, [1.0]) == 0.0


def test_inverse_view():
    inv = InverseView(LinearOp([[2.0]]))
    assert dist_to_value_set([0.0], inv, [1.0]) == pytest.approx(0.5)
    # preimage of the inverse is the forward image
    assert dist_to_preimage([0.7], inv, [0.5]) == pytest.approx(0.3)
    ncb = InverseView(NormalConeBox([0.0], [1.0]))
    vs = values(ncb, [-0.5])
    assert vs.lo[0] == 0.0 and vs.hi[0] == 0.0  # negative cone direction pins the lower bound


def test_polyhedral_graph_slice_and_norms():
    # graph {(x,y): y = x} union {(x,y): y = 0}
    P = PolyhedralGraph([([[1, -1], [-1, 1]], [0, 0]), ([[0, 1], [0, -1]], [0, 0])], 1, 1)
    assert dist_to_value_set([0.5], P, [0.2]) == pytest.approx(0.3)
    assert dist_to_value_set([0.5], P, [0.2], norm="max") == pytest.approx(0.3)
    with pytest.raises(ValueError):
        PolyhedralGraph([([[0, 1], [0, -1]], [0, -1])], 1, 1)  # empty piece


def test_json_construction_round_trip():
    desc = {"kind": "finite", "branches": ["x", "0"]}
    F = build_setmap(desc)
    assert dist_to_value_set([0.5], F, [0.2]) == pytest.approx(0.3)
    lin = build_setmap({"kind": "linear", "matrix": [[3.0, 0.0], [0.0, 0.5]]})
    assert lin.A.shape == (2, 2)
    epi = build_setmap({"kind": "epigraph", "expr": "abs(x)"})
    assert dist_to_value_set([1.0], epi, [-0.5]) == 0.0
    summ = build_setmap({"kind": "sum", "f": {"kind": "single", "expr": "x"}, "g": desc})
    assert sorted(values(summ, [0.2]).points.ravel()) == [pytest.approx(0.2), pytest.approx(0.4)]
    ncb = build_setmap({"kind": "normal_cone_box", "lo": [0.0], "hi": [1.0]})
    assert values(ncb, [1.0]).hi[0] == np.inf
    inv = build_setmap({"kind": "inverse", "base": {"kind": "linear", "matrix": [[2.0]]}})
    assert dist_to_value_set([0.5], inv, [1.0]) == 0.0


def test_json_rejects_unknown_keys():
    with pytest.raises(ValueError):
        build_setmap({"kind": "finite", "branches": ["x"], "extra": 1})
    with pytest.raises(ValueError):
        build_setmap({"kind": "mystery"})


# ---------------------------------------------------------------------------
# per-kind hooks: every map kind, through the generic oracles

_X1 = np.linspace(-1.2, 1.3, 11).reshape(-1, 1)
_X2 = np.array([[0.0, 0.0], [0.5, 1.0], [1.0, 0.3], [-0.4, 0.7], [0.2, -1.5], [1.0, 1.0]])
_SUM_BRANCHES = FiniteValued([lambda x: arr(x), lambda x: 0.0 * arr(x) + 1.0])

MAP_KINDS = {
    "linear": (LinearOp([[1.0, 2.0], [0.5, -1.0]]), _X2, [0.3, -0.2]),
    "single_vectorized": (SingleValued(lambda x: np.sin(arr(x)) + arr(x) ** 2), _X1, [0.4]),
    "single_scalar": (SingleValued(lambda x: np.sin(arr(x)) + arr(x) ** 2, vectorized=False), _X1, [0.4]),
    "finite": (two_branch(), _X1, [0.25]),
    "epigraph": (Epigraph(lambda x: arr(x) ** 2), _X1, [0.5]),
    "normal_cone_box": (NormalConeBox([0.0, 0.0], [1.0, 1.0]), _X2, [0.0, 0.5]),
    "polyhedral_graph": (PolyhedralGraph([([[1, -1], [-1, 1]], [0, 1])], 1, 1), _X1, [0.2]),
    "sum": (SumMap(SingleValued(lambda x: 0.5 * arr(x)), _SUM_BRANCHES), _X1, [0.7]),
    "sum_single_second": (SumMap(_SUM_BRANCHES, SingleValued(lambda x: np.sin(3.0 * arr(x)))), _X1, [0.7]),
    "sum_epigraph": (SumMap(SingleValued(lambda x: 0.3 * arr(x)), Epigraph(lambda x: np.cos(arr(x)))), _X1, [0.9]),
    "linear_3x2": (LinearOp([[0.3, -1.7], [2.1, 0.45], [-0.8, 1.3]]), _X2, [0.1, 0.2, -0.3]),
    "inverse": (InverseView(LinearOp([[2.0]])), _X1, [0.3]),
}


@pytest.mark.parametrize("kind", sorted(MAP_KINDS))
def test_batch_distance_matches_row_by_row(kind):
    # bit for bit: a linear map takes one product per row, and a sum builds
    # each row's value set as value_set does
    F, X, y = MAP_KINDS[kind]
    for norm in ("euclidean", "max"):
        rows = np.array([dist_to_value_set(y, F, x, norm) for x in X])
        assert dist_to_value_set_batch(y, F, X, norm).tobytes() == rows.tobytes()


@pytest.mark.parametrize("kind", sorted(MAP_KINDS))
def test_single_valued_kinds_are_callables(kind):
    F, X, _ = MAP_KINDS[kind]
    if kind.startswith(("linear", "single")):
        assert require_single_valued(F) is F
        for x in X:
            assert np.array_equal(F(x), values(F, x).points[0])
    else:
        with pytest.raises(ValueError, match="expected a single-valued map"):
            require_single_valued(F)


def test_linear_op_call_is_matrix_product():
    A = np.array([[1.0, 2.0, -1.0], [0.5, -1.0, 3.0]])
    x = np.array([0.3, -0.7, 1.1])
    assert np.array_equal(LinearOp(A)(x), A @ x)


class _Shifted(SetMap):
    """A kind that defines only its value sets: x -> {x + 1}."""

    n = m = 1

    def _value_set(self, x):
        return FinitePoints([x + 1.0])


def test_bare_kind_runs_on_base_defaults():
    F = _Shifted()
    X = np.linspace(-1.0, 1.0, 5).reshape(-1, 1)
    assert F.batch_dist(np.array([0.5]), X, "euclidean") is None
    np.testing.assert_allclose(dist_to_value_set_batch([0.5], F, X), np.abs(X[:, 0] + 0.5), atol=1e-12)
    d, p = preimage_search([0.0], F, [1.25], Ball([0.0], 1.0))
    assert d == pytest.approx(0.25, abs=1e-6) and dist_to_value_set([1.25], F, p) <= 1e-8
    with pytest.raises(UnsupportedOperation):
        graph_sample(F, GraphPoint([0.0], [1.0]), 0.5, 4)
    with pytest.raises(UnsupportedOperation):
        InverseView(F).value_set([1.0])
    # no closed-form covering rate: the attained value structure is sampled
    assert largest_covered_c(F, [0.0], [1.0], 0.5) == pytest.approx(1.0, abs=1e-6)
    # no half-space pieces: no polyhedral coderivative
    with pytest.raises(UnsupportedOperation):
        frechet_coderivative_bound(F, GraphPoint([0.0], [1.0]))



# ---------------------------------------------------------------------------
# branch values: the batch distance equals the row-by-row one bit for bit

_BRANCH_CASES = {
    # the constant branch fails the batch shape check and is evaluated row by row
    "constant_branch": (FiniteValued([compile_expression("x"), compile_expression("0")]), _X1, [0.25]),
    "not_vectorized": (FiniteValued([lambda x: arr(x) ** 2, lambda x: 1.0 - arr(x)], vectorized=False), _X1, [0.3]),
    "two_branches_m2": (
        build_setmap({"kind": "finite", "n": 2, "m": 2, "branches": [["x1 + x2", "x1*x2"], ["2*x1", "x2 - 1"]]}),
        _X2, [0.4, -0.1]),
    "single_not_vectorized": (SingleValued(lambda x: np.sin(arr(x)) + arr(x) ** 2, vectorized=False), _X1, [0.4]),
}


@pytest.mark.parametrize("norm", ["euclidean", "max"])
@pytest.mark.parametrize("case", sorted(_BRANCH_CASES))
def test_branch_value_batch_distance_is_row_by_row_bitwise(case, norm):
    F, X, y = _BRANCH_CASES[case]
    assert F.batch_dist(arr(y), X, norm) is not None  # no per-row fallback
    rows = np.array([dist_to_value_set(y, F, x, norm) for x in X])
    assert np.array_equal(dist_to_value_set_batch(y, F, X, norm), rows)


@pytest.mark.parametrize("case", sorted(_BRANCH_CASES))
def test_branch_values_list_the_value_set(case):
    F, X, _ = _BRANCH_CASES[case]
    outs = F.branch_values(X)
    assert all(out.shape == (len(X), F.m) for out in outs)
    for i, x in enumerate(X):
        assert np.array_equal(np.array([out[i] for out in outs]), values(F, x).points)


# ---------------------------------------------------------------------------
# normal cones of boxes with infinite bounds


def test_normal_cone_box_accepts_open_side_infinite_bounds():
    F = NormalConeBox([0.0, -np.inf], [np.inf, 1.0])
    at_bound, interior = F.value_set([0.0, 1.0]), F.value_set([2.0, -5.0])
    assert list(at_bound.lo) == [-np.inf, 0.0] and list(at_bound.hi) == [0.0, np.inf]
    assert list(interior.lo) == [0.0, 0.0] and list(interior.hi) == [0.0, 0.0]
    assert F.value_set([-0.5, 0.0]).is_empty()
    assert dist_to_value_set([-3.0, 2.0], F, [0.0, 1.0]) == 0.0


@pytest.mark.parametrize(
    "lo, hi",
    [([np.nan], [1.0]), ([0.0], [np.nan]), ([np.inf], [np.inf]), ([-np.inf], [-np.inf]), ([1.0], [0.0])],
)
def test_normal_cone_box_rejects_bad_bounds(lo, hi):
    with pytest.raises(ValueError):
        NormalConeBox(lo, hi)


def test_normal_cone_box_unbounded_inverse_is_closed_form():
    F = NormalConeBox([0.0], [np.inf])
    # y = 0 has the preimage [0, inf): an unbounded box, in closed form
    assert F.analytic_preimage(arr([0.5]), arr([0.0]), "euclidean", 1e-8)[0] == 0.0
    d, p = preimage_search([0.5], F, [0.0])
    assert d == 0.0 and np.array_equal(p, [0.5])
    # beyond the reach of a grid around x0
    d, p = preimage_search([-3.0], F, [0.0])
    assert d == 3.0 and np.array_equal(p, [0.0])
    # y < 0 pins x to the finite lower bound
    assert F.analytic_preimage(arr([0.5]), arr([-1.0]), "euclidean", 1e-8)[0] == 0.5
    # y > 0 pins x to hi = +inf: no preimage
    assert preimage_search([-3.0], F, [1.0]) == (np.inf, None)
    assert F.inverse_value_set(arr([1.0])).is_empty()
    G = NormalConeBox([-np.inf, 0.0], [1.0, np.inf])
    d, p = preimage_search([5.0, -2.0], G, [0.0, 0.0])
    assert d == pytest.approx(np.sqrt(20.0)) and np.array_equal(p, [1.0, 0.0])
    assert preimage_search([5.0, -2.0], G, [-1.0, 0.0]) == (np.inf, None)


# ---------------------------------------------------------------------------
# constant expressions: their branch values are tiled from the first row

_X1_WIDE = np.linspace(-3.0, 2.0, 9).reshape(-1, 1)


@pytest.mark.parametrize("text", ["0", "2*3", "1/3", "-0.0", "piecewise(1 > 0, 2, 3)"])
@pytest.mark.parametrize("n", [1, 2])
def test_constant_branch_rows_are_tiled_bitwise(text, n):
    fn = compile_expression(text, n)
    X = _X1_WIDE if n == 1 else np.column_stack([_X1_WIDE[:, 0], _X1_WIDE[::-1, 0]])
    rows = np.array([as_vector(fn(row), 1) for row in X]).reshape(len(X), 1)
    got = _eval_rows(fn, X, n, 1)[0]
    assert fn.constant and got.shape == rows.shape and got.tobytes() == rows.tobytes()
    assert _eval_rows(fn, X[:0], n, 1)[0].shape == (0, 1)


def test_constant_mark_keeps_the_bare_literal_on_a_batch():
    # the literal fails the batch shape check, which keeps a constant branch
    # off the 1D branch path of preimage_search
    assert compile_expression("0")(np.linspace(0.0, 1.0, 5)) == 0
    assert not compile_expression("x - x").constant and not compile_expression("x1 + 1", 2).constant
    F = build_setmap({"kind": "finite", "branches": ["x", "0"]})
    grid = _grid_axes(arr([0.0]), 1.0, 401)
    assert F.preimage_1d(arr([0.0]), arr([0.5, 0.1]), grid, "euclidean", TOL_FEAS) == [None, None]


# ---------------------------------------------------------------------------
# lockstep 1D roots: each branch gives the same bits on an array as on 0-d
# input, and the batched preimages equal the per-target search of before


def _sum_remark_branches():
    entry = load_example("sum_remark")
    return SumMap(entry.objects["F"], entry.objects["G"]).scalar_branches()


_CORPUS_BRANCHES = {
    "sinkink_fn": sinkink_fn,
    "staircase_fn": staircase_fn,
    "two_branch_x": load_example("two_branch").objects["setmap"].branches[0],
    "two_branch_0": load_example("two_branch").objects["setmap"].branches[1],
    **{f"sum_remark_{i}": b for i, b in enumerate(_sum_remark_branches())},
    "sinkink_piecewise": compile_expression("piecewise(x == 0, 0, x + x*abs(x)*abs(sin(1/x)))"),
    "sin": np.sin,
    "cos": np.cos,
}


@pytest.mark.parametrize("length", [1, 2, 7, 64])
@pytest.mark.parametrize("name", sorted(_CORPUS_BRANCHES))
def test_branch_on_an_array_equals_branch_on_0d_input_bitwise(name, length):
    fn = _CORPUS_BRANCHES[name]
    rng = np.random.default_rng(1000 + length)
    for pts in (rng.uniform(-1e-3, 1e-3, length), rng.uniform(-1.0, 1.0, length)):
        # the bisection evaluates its midpoints as an array; a lone search, as 0-d input
        scalar = np.array([float(np.asarray(fn(np.asarray(p)))) for p in pts])
        assert _eval_rows(fn, pts[:, None], 1, 1, finite=False)[0][:, 0].tobytes() == scalar.tobytes()


def _reference_coordinate_polish(objective, accept, x0, step0, steps, lo=None, hi=None, target=None):
    """The one-start polish that the lockstep one replaced (kept verbatim as the oracle)."""
    x = np.asarray(x0, dtype=float).copy()
    fx = objective(x)
    step = step0
    for _ in range(steps):
        if target is not None and fx <= target:
            break
        improved = False
        for i in range(x.size):
            for s in (step, -step):
                z = x.copy()
                z[i] += s
                if lo is not None:
                    z[i] = min(max(z[i], lo[i]), hi[i])
                fz = objective(z)
                if fz < fx and accept(z):
                    x, fx = z, fz
                    improved = True
        if not improved:
            step *= 0.5
    return x, fx


def _reference_bisect_root(fn, a: float, b: float, fa: float, fb: float, iters: int = 60) -> float:
    """The scalar bisection that the lockstep one replaced (kept verbatim as the oracle)."""
    for _ in range(iters):
        mid = 0.5 * (a + b)
        fm = float(fn(np.asarray(mid)))
        if fa * fm <= 0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def _reference_preimage_1d_branches(x0, branches, y0: float, grid: np.ndarray, norm: str, tol_feas: float):
    """The one-target 1D branch search that the batched one replaced (kept verbatim as the oracle)."""
    xs = grid[:, 0]
    h = float(xs[1] - xs[0]) if xs.size > 1 else 1.0
    best = np.inf
    arg = None
    found = False
    for b in branches:
        try:
            vals = np.asarray(b(xs), dtype=float).reshape(-1) - y0
        except Exception:
            return None
        if vals.shape != xs.shape or not np.all(np.isfinite(vals)):
            return None
        branch_found = False
        hit = np.abs(vals) <= tol_feas
        if np.any(hit):
            found = branch_found = True
            i = int(np.abs(xs[np.nonzero(hit)[0]] - x0[0]).argmin())
            cand = float(xs[np.nonzero(hit)[0][i]])
            if abs(cand - x0[0]) < best:
                best, arg = abs(cand - x0[0]), np.array([cand])
        sign_change = vals[:-1] * vals[1:] < 0
        for i in np.nonzero(sign_change)[0]:
            root = _reference_bisect_root(
                lambda x, b=b: float(np.asarray(b(x))) - y0, xs[i], xs[i + 1], vals[i], vals[i + 1])
            found = branch_found = True
            if abs(root - float(x0[0])) < best:
                best, arg = abs(root - float(x0[0])), np.array([root])
        if not branch_found:
            for i in np.argsort(np.abs(vals))[:2]:
                local_delta = max(
                    abs(vals[i] - vals[max(i - 1, 0)]),
                    abs(vals[min(i + 1, vals.size - 1)] - vals[i]),
                )
                if abs(float(vals[i])) > 2.0 * local_delta + tol_feas:
                    continue
                z, fx = _reference_coordinate_polish(
                    lambda z, b=b: abs(float(np.asarray(b(np.asarray(z[0])))) - y0),
                    lambda _z: True, [xs[i]], h, 60, target=tol_feas / 4,
                )
                if fx <= tol_feas:
                    found = True
                    x = float(z[0])
                    if abs(x - float(x0[0])) < best:
                        best, arg = abs(x - float(x0[0])), np.array([x])
    return (best, arg) if found else (np.inf, None)


def _reference_preimage_1d_epigraph(x0, F, y0: float, grid: np.ndarray, tol_feas: float):
    """The epigraph search with the scalar bisection (kept verbatim as the oracle)."""
    xs = grid[:, 0]
    try:
        vals = np.asarray(F.f(xs), dtype=float).reshape(-1) - y0
    except Exception:
        vals = np.array([float(F.f(np.array([x]))) - y0 for x in xs])
    feas = vals <= tol_feas
    if not np.any(feas):
        return np.inf, None
    i = int(np.abs(xs[np.nonzero(feas)[0]] - x0[0]).argmin())
    arg = np.array([xs[np.nonzero(feas)[0][i]]])
    best = float(abs(arg[0] - x0[0]))
    change = feas[:-1] != feas[1:]
    for i in np.nonzero(change)[0]:
        a, b_ = xs[i], xs[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa * fb < 0:
            root = _reference_bisect_root(lambda x: float(np.asarray(F.f(x))) - y0, a, b_, fa, fb)
            if abs(root - float(x0[0])) < best:
                best, arg = abs(root - float(x0[0])), np.array([root])
    return best, arg


def _reference_search(x0, F, y, region, norm):
    """One target as the search of before answered it: the closed form, then
    the old 1D path, then the grid path of ``preimage_search``."""
    x0, y = as_vector(x0, 1), as_vector(y, 1)
    closed = F.analytic_preimage(x0, y, norm, TOL_FEAS)
    if closed is not None:
        return closed
    grid = _grid_axes(region.center, region.radius, 401)
    if isinstance(F, Epigraph):
        out = _reference_preimage_1d_epigraph(x0, F, float(y[0]), grid, TOL_FEAS) if F.vectorized else None
    else:
        branches = scalar_branches(F)
        out = None if branches is None else _reference_preimage_1d_branches(
            x0, branches, float(y[0]), grid, norm, TOL_FEAS)
    return out if out is not None else preimage_search(x0, F, y, region, norm=norm)


def _same_search(got, ref):
    assert float(got[0]).hex() == float(ref[0]).hex()
    assert (got[1] is None) == (ref[1] is None)
    if ref[1] is not None:
        assert np.asarray(got[1]).tobytes() == np.asarray(ref[1]).tobytes()


_SEARCH_MAPS = {
    "two_branch": (load_example("two_branch").objects["setmap"], True),
    "sinkink": (load_example("sinkink").objects["setmap"], True),
    "sinkink_piecewise": (build_setmap(
        {"kind": "single", "expr": "piecewise(x == 0, 0, x + x*abs(x)*abs(sin(1/x)))"}), True),
    "sum_remark": (SumMap(load_example("sum_remark").objects["F"], load_example("sum_remark").objects["G"]), True),
    "square": (SingleValued(lambda x: arr(x) ** 2), True),
    "not_vectorized": (FiniteValued([lambda x: arr(x) ** 3, lambda x: 1.0 - arr(x)], vectorized=False), False),
    "staircase": (load_example("staircase").objects["setmap"], False),
    # fails on a batch, so the grid and the bisection take one point at a time
    "epigraph_pointwise": (Epigraph(lambda x: abs(np.asarray(x).item()) - 0.25), False),
    "branch_inverses": (FiniteValued([lambda x: arr(x)], branch_inverses=[lambda y: y]), False),
}


def _count_grid_searches(monkeypatch):
    """The targets that reach the grid stage of the preimage search, in order."""
    calls = []
    grid_stage = setmaps._preimage_on_grid

    def counted(F, x0s, ys, *args, **kwargs):
        calls.extend(ys)
        return grid_stage(F, x0s, ys, *args, **kwargs)

    monkeypatch.setattr(setmaps, "_preimage_on_grid", counted)
    return calls


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(_SEARCH_MAPS)),
    x0=st.one_of(st.sampled_from([0.0, 0.3, -0.2]), st.floats(-1.0, 1.0)),
    radius=st.sampled_from([0.01, 0.3, 0.8, 2.0]),
    targets=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1e-9, -1e-9, 0.5]), st.floats(-1.5, 1.5)), max_size=6),
    on_grid=st.lists(st.integers(0, 400), max_size=3),
    norm=st.sampled_from(["euclidean", "max"]),
)
def test_preimage_search_many_equals_the_search_of_before_bitwise(name, x0, radius, targets, on_grid, norm):
    F, batched = _SEARCH_MAPS[name]
    region = Ball([x0], radius)
    xs = _grid_axes(region.center, radius, 401)[:, 0]
    # targets on grid values: the identity branch hits them on the grid
    ys = [[t] for t in targets] + [[xs[j]] for j in on_grid]
    with pytest.MonkeyPatch.context() as mp:
        grid = _count_grid_searches(mp)
        got = preimage_search_many([x0], F, ys, region, norm=norm)
    assert len(got) == len(ys)
    for y, found in zip(ys, got):
        _same_search(found, _reference_search([x0], F, y, region, norm))
    if batched:
        assert grid == []


def test_preimage_search_many_tangential_roots_and_misses():
    F = SingleValued(lambda x: arr(x) ** 2)
    region = Ball([0.3], 0.5)
    ys = [[0.0], [1e-10], [-1e-3], [0.04], [0.0]]
    for y, found in zip(ys, preimage_search_many([0.3], F, ys, region)):
        _same_search(found, _reference_search([0.3], F, y, region, "euclidean"))
    # the tangential root at 0 is polished to, and a negative target has no preimage
    got = preimage_search_many([0.3], F, ys, region)
    assert got[0][0] == pytest.approx(0.3, abs=1e-4) and got[2] == (np.inf, None)


def test_pointwise_epigraph_bisects_one_point_at_a_time():
    F = _SEARCH_MAPS["epigraph_pointwise"][0]
    region = Ball([0.6], 0.99)
    ys = [[0.0123], [0.1], [-0.3]]
    got = preimage_search_many([0.6], F, ys, region)
    for y, found in zip(ys, got):
        _same_search(found, _reference_search([0.6], F, y, region, "euclidean"))
    assert got[0][0] == pytest.approx(0.3377) and got[1][0] == pytest.approx(0.25) and got[2] == (np.inf, None)
    # the grid's batch fails once; then each grid point and, in each halving,
    # each of the 4 cells takes its own call (637 calls when every halving
    # retried the batch first)
    calls = []
    counted = Epigraph(lambda x: calls.append(np.shape(x)) or F.f(x))
    for found, ref in zip(preimage_search_many([0.6], counted, ys, region), got):
        _same_search(found, ref)
    assert calls.count((401,)) == 1 and len(calls) == 590


def test_epigraph_targets_share_one_grid_call():
    # one call of f on the shared grid and one lockstep bisection for all
    # targets, where each target used to evaluate the grid and bisect alone
    calls = []

    def square(x):
        calls.append(np.shape(x))
        return arr(x) ** 2

    F = Epigraph(square)
    ys = [[0.1], [0.2], [0.3], [0.4]]
    for x0 in ([0.0], [1.0]):
        calls.clear()
        got = preimage_search_many(x0, F, ys)
        # one grid call, then at most 60 halvings of all cells together
        assert calls.count((401,)) == 1 and len(calls) <= 61
        for y, found in zip(ys, got):
            _same_search(found, _reference_search(x0, F, y, Ball(x0, 1.0), "euclidean"))
    assert [float(d) for d, _ in got] == pytest.approx([1.0 - np.sqrt(y[0]) for y in ys])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_preimage_search_many_overflowing_target_takes_the_lone_search(monkeypatch):
    # one target's grid values overflow to inf: that target alone goes on to
    # the grid stage
    F = SingleValued(lambda x: 1e308 * arr(x))
    region = Ball([0.5], 0.5)
    ys = [[0.5e308], [-1e308], [0.25e308]]
    grid = _count_grid_searches(monkeypatch)
    got = preimage_search_many([0.5], F, ys, region)
    assert len(grid) == 1 and np.array_equal(grid[0], [-1e308])
    for y, found in zip(ys, got):
        _same_search(found, _reference_search([0.5], F, y, region, "euclidean"))


def test_preimage_search_many_grid_errors_fall_back_per_target(monkeypatch):
    def grid_fails(x):
        if np.size(x) >= 401:
            raise ValueError("no batches this large")
        return 0.5 + arr(x)

    F = FiniteValued([lambda x: arr(x), grid_fails])
    ys = [[0.2], [-0.4], [0.7]]
    expected = [_reference_search([0.0], F, y, Ball([0.0], 1.0), "euclidean") for y in ys]
    # the branch fails on the grid, so every target goes on to the grid stage
    grid = _count_grid_searches(monkeypatch)
    got = preimage_search_many([0.0], F, ys)
    assert len(grid) == len(ys)
    for found, ref in zip(got, expected):
        _same_search(found, ref)


@pytest.mark.filterwarnings("ignore::numpy.exceptions.ComplexWarning")
def test_complex_branch_values_still_raise():
    # a complex value at a bisection midpoint raised TypeError from float();
    # now a complex branch on the grid leaves each target to the grid search,
    # whose per-row path rejects the value as the scalar distance does
    F = SingleValued(lambda x: arr(x) + 0j)
    with pytest.raises(TypeError):
        _reference_search([0.0], F, [0.3], Ball([0.0], 1.0), "euclidean")
    with pytest.raises(ValueError, match="real"):
        preimage_search([0.0], F, [0.3])
    with pytest.raises(ValueError, match="real"):
        preimage_search_many([0.0], F, [[0.3], [0.1]])
    with pytest.raises(ValueError, match="real"):
        dist_to_value_set([0.3], F, [0.1])
    # the branch sums of a sum cast each summand: the cast dropped the
    # imaginary part, and preimage_search returned (0.3, [0.3])
    S = SumMap(SingleValued(lambda x: x + 0.5j * x), SingleValued(lambda x: 0 * x))
    with pytest.raises(ValueError, match="real"):
        preimage_search([0.0], S, [0.3])
    with pytest.raises(ValueError, match="real"):
        preimage_search_many([0.0], S, [[0.3], [0.1]])
    with pytest.raises(ValueError, match="real"):
        dist_to_value_set([0.3], S, [0.1])


def test_preimage_search_many_other_kinds_search_per_target():
    F = PolyhedralGraph([([[1, -1], [-1, 1]], [0, 1])], 1, 1)
    ys = [[0.2], [0.9]]
    got = preimage_search_many([0.1], F, ys, Ball([0.1], 1.0))
    for found, y in zip(got, ys):
        _same_search(found, preimage_search([0.1], F, y, Ball([0.1], 1.0)))
    assert preimage_search_many([0.1], F, []) == []


_end = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 5e-324, -5e-324, 1e300]), st.floats(-2.0, 2.0))
_ROOT_FUNCS = {
    "linear": lambda x, c: x - c,
    "cubic": lambda x, c: (x - c) ** 3,
    "step": lambda x, c: np.where(x < c, -1.0, 1.0),
    "nan_left": lambda x, c: np.sqrt(x - c),
    "nan": lambda x, c: np.full(np.shape(x), np.nan),
}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    cells=st.lists(st.tuples(_end, _end, st.sampled_from(["a", "b", "next_a", "prev_b", "mid"])),
                   min_size=1, max_size=5),
    func=st.sampled_from(sorted(_ROOT_FUNCS)),
    adjacent=st.booleans(),
)
def test_lockstep_bisection_equals_the_scalar_one_bitwise(cells, func, adjacent):
    g = _ROOT_FUNCS[func]
    a, b, c = [], [], []
    for lo, hi, where in cells:
        lo, hi = min(lo, hi), max(lo, hi)
        if adjacent:
            hi = np.nextafter(lo, np.inf)
        root = {"a": lo, "b": hi, "next_a": np.nextafter(lo, np.inf), "prev_b": np.nextafter(hi, -np.inf),
                "mid": 0.5 * lo + 0.5 * hi}[where]
        a.append(lo), b.append(hi), c.append(root)
    a, b, c = np.array(a), np.array(b), np.array(c)
    with np.errstate(all="ignore"):
        fa = g(a, c)
        got = _bisect_root(lambda x: g(x, c), a, b, fa)
        for i in range(a.size):
            ref = _reference_bisect_root(lambda x: g(x, c[i]), a[i], b[i], fa[i], g(b[i], c[i]))
            assert float(got[i]).hex() == float(ref).hex()


# ---------------------------------------------------------------------------
# polyhedral graphs: one stacked projection per piece equals the row-by-row
# distances bit for bit


def _reference_project_polyhedron(point, A, b):
    """The one-point active-subset enumeration of before, verbatim."""
    point = np.asarray(point, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    scale = max(1.0, float(np.abs(b).max(initial=0.0)), float(np.abs(point).max(initial=0.0)))
    if A.size == 0 or np.all(A @ point <= b + 1e-12 * scale):
        return point, 0.0
    k, d = A.shape
    best = None
    for size in range(1, min(k, d) + 1):
        for idx in itertools.combinations(range(k), size):
            Ak = A[list(idx)]
            bk = b[list(idx)]
            gram = Ak @ Ak.T
            lam, *_ = np.linalg.lstsq(gram, Ak @ point - bk, rcond=None)
            z = point - Ak.T @ lam
            if np.max(np.abs(Ak @ z - bk)) > 1e-8 * scale:
                continue
            if np.all(A @ z <= b + 1e-9 * scale):
                dist = float(np.linalg.norm(z - point))
                if best is None or dist < best[1]:
                    best = (z, dist)
    return best


_COEF = st.one_of(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]), st.floats(-2.0, 2.0))
_OFFSET = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0]), st.floats(-1.0, 2.0))
_COORD = st.one_of(st.sampled_from([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0]), st.floats(-2.0, 2.0))


def _reference_polyhedral_dist(y, F, x):
    """dist(y, F(x)) of before: the value set is empty when no slice holds 0."""
    slices = [(A[:, F.n:], b - A[:, : F.n] @ x) for A, b in F.pieces]
    if all(_reference_project_polyhedron(np.zeros(F.m), A, b) is None for A, b in slices):
        return np.inf
    best = np.inf
    for A, b in slices:
        proj = _reference_project_polyhedron(y, A, b)
        if proj is not None and proj[1] < best:
            best = proj[1]
    return best


@st.composite
def _polyhedral_graphs(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pieces = []
    for _ in range(draw(st.integers(1, 2))):
        rows = draw(st.lists(st.lists(_COEF, min_size=n + m, max_size=n + m), min_size=1, max_size=4))
        offsets = draw(st.lists(_OFFSET, min_size=len(rows), max_size=len(rows)))
        if draw(st.booleans()):  # a bound on x alone: the slice is empty beyond it
            rows.append([1.0] + [0.0] * (n + m - 1))
            offsets.append(draw(st.sampled_from([-0.5, 0.0, 0.5])))
        pieces.append((rows, offsets))
    try:
        F = PolyhedralGraph(pieces, n, m)
    except ValueError:  # an empty piece
        assume(False)
    X = np.array(draw(st.lists(st.lists(_COORD, min_size=n, max_size=n), min_size=1, max_size=12)))
    y = np.array(draw(st.lists(_COORD, min_size=m, max_size=m)))
    return F, X, y


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=_polyhedral_graphs())
def test_polyhedral_batch_distance_is_row_by_row_bitwise(case):
    F, X, y = case
    got = F.batch_dist(y, X, "euclidean")
    rows = np.array([dist_to_value_set(y, F, x) for x in X])
    before = np.array([_reference_polyhedral_dist(y, F, x) for x in X])
    assert np.array_equal(got.view(np.uint64), rows.view(np.uint64))
    assert np.array_equal(got.view(np.uint64), before.view(np.uint64))


def test_polyhedral_batch_distance_on_faces_and_empty_slices():
    # pieces {y = x, x <= 0.5} and {y in [0, 1], |x| <= 1}: x > 0.5 leaves only
    # the second piece, x outside both gives inf; some targets lie on a face
    # and some just off it, by less and by more than the 1e-12 inside slack
    F = PolyhedralGraph([([[1, -1], [-1, 1], [1, 0]], [0, 0, 0.5]),
                         ([[0, 1], [0, -1], [1, 0], [-1, 0]], [1, 0, 1, 1])], 1, 1)
    X = np.array([[-2.0], [-1.0], [-0.5], [0.0], [0.25], [0.5], [0.75], [1.0], [1.5]])
    for y in ([0.0], [0.25], [1.0], [1.0 + 5e-13], [1.0 + 5e-12], [2.0], [-0.5]):
        got = dist_to_value_set_batch(y, F, X)
        before = np.array([_reference_polyhedral_dist(arr(y), F, x) for x in X])
        assert np.array_equal(got.view(np.uint64), before.view(np.uint64))
    assert np.isinf(got[-1]) and np.isfinite(got[:-1]).all()


def test_polyhedral_value_set_empty_at_zero_is_empty_at_any_target():
    # {x + 10 + g <= y <= x + 10} is empty.  At x = -10 the slice [g, 0] has
    # scale 1, so the emptiness test (at 0) finds nothing; the target 100
    # scales the slack to 1e-7 > g, where a projection is found.  The value
    # set is still empty, so the distance is inf.
    g = 5e-9
    F = PolyhedralGraph([([[-1, 1], [1, -1]], [10, -10 - g])], 1, 1)
    X = np.array([[-10.0], [0.0]])
    got = dist_to_value_set_batch([100.0], F, X)
    before = np.array([_reference_polyhedral_dist(arr([100.0]), F, x) for x in X])
    assert np.array_equal(got.view(np.uint64), before.view(np.uint64)) and np.isinf(got[0])
    assert np.isinf(dist_to_value_set([100.0], F, [-10.0])) and np.isinf(F.value_set([-10.0]).dist([100.0]))
    assert setmaps._project_polyhedron([100.0], [[1.0], [-1.0]], [0.0, -g]) is not None


def test_polyhedral_scalar_distance_is_one_enumeration(monkeypatch):
    # x = 1 leaves 0 outside the slice {y: 1 <= y <= 2}: the emptiness test
    # and the distance share one stacked enumeration, and a value set keeps
    # its emptiness verdict
    F = PolyhedralGraph([([[-1, 1], [1, -1]], [1, 0])], 1, 1)
    calls = []
    rows = setmaps._project_polyhedron_rows
    monkeypatch.setattr(setmaps, "_project_polyhedron_rows", lambda *a: calls.append(a) or rows(*a))
    assert dist_to_value_set([3.0], F, [1.0]) == pytest.approx(1.0)
    assert len(calls) == 1
    vs = F.value_set([1.0])
    assert not vs.is_empty() and not vs.is_empty()
    assert len(calls) == 2
    assert dist_to_value_set([3.0], F, [1.0], "max") == pytest.approx(1.0)  # the LP path


def test_polyhedral_batch_path_is_euclidean_only(monkeypatch):
    F, X, y = MAP_KINDS["polyhedral_graph"]
    assert F.batch_dist(arr(y), X, "max") is None  # each row keeps its LP
    rows = []
    scalar = setmaps.dist_to_value_set
    monkeypatch.setattr(setmaps, "dist_to_value_set", lambda *a: rows.append(a) or scalar(*a))
    dist_to_value_set_batch(y, F, X, "euclidean")
    assert rows == []
    dist_to_value_set_batch(y, F, X, "max")
    assert len(rows) == len(X)


@st.composite
def _projection_cases(draw):
    """(point, A, b): plain points; points on face 0 or just off it, also with
    a large point and small normals, where the point sets the slack; and
    points on a ray from a vertex along a face normal, where subsets tie."""
    d = draw(st.integers(1, 3))
    A = arr(draw(st.lists(st.lists(_COEF, min_size=d, max_size=d), min_size=1, max_size=5)))
    b = arr(draw(st.lists(_OFFSET, min_size=len(A), max_size=len(A))))
    p = arr(draw(st.lists(_COORD, min_size=d, max_size=d)))
    kind = draw(st.sampled_from(["plain", "face", "large_face", "vertex"]))
    if kind == "large_face":
        A, p = 0.01 * A, 100.0 * p
    if kind in ("face", "large_face") and A[0] @ A[0] > 0:
        off = draw(st.sampled_from([0.0, 5e-13, 5e-12, -5e-12, 5e-11, 5e-9]))
        p = p + A[0] * ((b[0] + off * max(1.0, np.abs(b).max(), np.abs(p).max()) - A[0] @ p) / (A[0] @ A[0]))
    if kind == "vertex" and len(A) >= 2 and d >= 2 and abs(np.linalg.det(A[:2] @ A[:2].T)) > 1e-3:
        p = np.linalg.lstsq(A[:2], b[:2], rcond=None)[0] + draw(st.sampled_from([0.5, 1.0, 3.0])) * A[0]
    return p, A, b


@settings(derandomize=True, max_examples=600, deadline=None)
@given(case=_projection_cases())
def test_project_polyhedron_equals_the_enumeration_of_before(case):
    got, ref = setmaps._project_polyhedron(*case), _reference_project_polyhedron(*case)
    if ref is None:
        assert got is None
    else:
        assert got[0].tobytes() == ref[0].tobytes() and float(got[1]).hex() == float(ref[1]).hex()
    # one point per row, stacked: 0, the point and its double, each alone as before
    p, A, b = case
    points = np.stack([np.zeros_like(p), p, 2.0 * p])
    found, dist, Z = setmaps._project_polyhedron_rows(points, A, np.stack([b, b, b]))
    for i, point in enumerate(points):
        ref = _reference_project_polyhedron(point, A, b)
        assert found[i] == (ref is not None)
        if ref is not None:
            assert Z[i].tobytes() == ref[0].tobytes() and float(dist[i]).hex() == float(ref[1]).hex()


def test_stacked_linear_algebra_matches_the_one_row_calls_bitwise():
    # the identities the stacked projection rests on; a LAPACK or BLAS build
    # that breaks one fails here rather than moving a reported value
    rng = np.random.default_rng(2024)
    for d in (1, 2, 3):
        for _ in range(40):
            A = rng.standard_normal((4, 2 + d))
            Ay = A[:, 2:]  # a column slice, as the value-set slices are
            Ak = Ay[: rng.integers(1, d + 1)].copy()
            gram = Ak @ Ak.T
            R = rng.standard_normal((len(Ak), 30)) * rng.choice([1e-3, 1.0, 1e3])
            lam = np.linalg.lstsq(gram, R, rcond=None)[0]
            Z = rng.standard_normal((30, d))
            stacked_z = np.matmul(Ay, Z[..., None])[..., 0]
            stacked_lam = np.matmul(Ak.T, lam.T[..., None])[..., 0]
            norms = np.sqrt(np.vecdot(Z, Z))
            for j in range(30):
                assert lam[:, j].tobytes() == np.linalg.lstsq(gram, R[:, j], rcond=None)[0].tobytes()
                assert stacked_z[j].tobytes() == (Ay @ Z[j]).tobytes()
                assert stacked_lam[j].tobytes() == (Ak.T @ lam[:, j]).tobytes()
                assert float(norms[j]).hex() == float(np.linalg.norm(Z[j])).hex()
    for x0 in ([0.3], [-0.7, 0.2]):
        grid = _grid_axes(arr(x0) + 0.1, 0.9, 401 if len(x0) == 1 else 41)
        for norm in ("euclidean", "max"):
            dists = setmaps._vec_dists(grid, arr(x0), norm)
            assert dists.tobytes() == np.array([vec_dist(row, x0, norm) for row in grid]).tobytes()


# ---------------------------------------------------------------------------
# _inf_on_interval: the look-ahead probe table gives the polish of before bit
# for bit


def _reference_inf_on_interval(f, lo, hi, resolution=1601, polish=30):
    """The one-probe-at-a-time polish of before, verbatim."""
    xs = np.linspace(lo, hi, resolution)
    try:
        vals = np.asarray(f(xs), dtype=float)
        if vals.shape != xs.shape:
            raise ValueError
    except Exception:
        vals = np.array([float(np.asarray(f(np.array([x]))).reshape(-1)[0]) for x in xs])
    i = int(np.argmin(vals))
    best = float(vals[i])
    x = xs[i]
    step = (hi - lo) / (resolution - 1)
    for _ in range(polish):
        for s in (step, -step):
            z = min(max(x + s, lo), hi)
            try:
                fz = float(np.asarray(f(np.asarray(z))).reshape(-1)[0])
            except Exception:
                continue
            if fz < best:
                x, best = z, fz
        step *= 0.5
    return best


def _same_inf(f, lo, hi, **kw):
    got, ref = intervals._inf_on_interval(f, lo, hi, **kw), _reference_inf_on_interval(f, lo, hi, **kw)
    assert float(got).hex() == float(ref).hex()


def _signed_zero_fn(x):
    # tells 0.0 from -0.0, so a table keyed by float equality would fail here
    x = arr(x)
    return np.where(np.signbit(x), -1.0, 0.0) + x * x


def _nan_fn(x):
    x = arr(x)
    return np.where((x > 0.1) & (x < 0.3), np.nan, np.abs(x - 0.2))


_INF_FUNCS = {
    "staircase": staircase_fn,
    "sinkink": sinkink_fn,
    "inline": compile_expression("abs(x - 0.3) + 0.01*sin(40*x)"),
    "signed_zero": _signed_zero_fn,
    "nan": _nan_fn,
}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(_INF_FUNCS)),
    center=st.one_of(st.sampled_from([0.0, -0.0, 0.2, 0.3]), st.floats(-1.0, 1.0)),
    width=st.one_of(st.sampled_from([1e-4, 0.1, 0.5]), st.floats(1e-6, 1.0)),
    resolution=st.sampled_from([5, 41, 1601]),
)
def test_inf_on_interval_equals_the_polish_of_before(name, center, width, resolution):
    _same_inf(_INF_FUNCS[name], center - width, center + width, resolution=resolution)


@pytest.mark.parametrize("n", range(5, 11))
def test_inf_on_interval_on_the_staircase_intervals(n):
    # the six intervals of the staircase covering criterion
    x = 1.0 / n + 1.0 / n**2
    _same_inf(staircase_fn, x - 1.0 / n, x + 1.0 / n)


@pytest.mark.parametrize("lo, hi", [(-0.0, 1.0), (-1.0, 0.0), (-1.0, -0.0), (0.0, 0.0), (0.3, 0.3)])
@pytest.mark.parametrize("slope", [1.0, -1.0])
def test_inf_on_interval_clamps_at_the_ends_and_signed_zeros(lo, hi, slope):
    # a monotone f puts the grid minimum on lo or hi, so every probe past it clamps
    for f in (lambda x: slope * arr(x), lambda x: slope * arr(x) + _signed_zero_fn(x)):
        _same_inf(f, lo, hi)
        _same_inf(f, lo, hi, resolution=3, polish=7)


def test_inf_on_interval_skips_the_probes_that_raise():
    # f raises between two grid points, on scalars and on any array that
    # holds such a point: those blocks take their probes one at a time
    def f(x):
        x = arr(x)
        if np.any((x > 0.20001) & (x < 0.20009)):
            raise ArithmeticError("pole")
        return np.abs(x - 0.20005)

    _same_inf(f, 0.1, 0.3)
    _same_inf(f, 0.1, 0.3, polish=31)


def test_inf_on_interval_with_scalar_only_f_makes_the_calls_of_before():
    calls = []

    def f(x):
        calls.append(np.shape(x))
        if np.size(x) > 1:
            raise TypeError("one point at a time")
        return np.abs(arr(x) - 0.123)

    got = intervals._inf_on_interval(f, 0.0, 1.0, resolution=101)
    new_calls, calls[:] = list(calls), []
    ref = _reference_inf_on_interval(f, 0.0, 1.0, resolution=101)
    assert float(got).hex() == float(ref).hex()
    assert new_calls == calls and len(calls) == 1 + 101 + 60


def _pole_near(a, b):
    # raises on any array with a point in (a, b); a 0-d point there is fine
    def f(x):
        x = arr(x)
        if x.size > 1 and np.any((x > a) & (x < b)):
            raise ArithmeticError("pole")
        return np.abs(x - 0.5 * (a + b))

    return f


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(_INF_FUNCS) + ["pole"]),
    spans=st.lists(st.tuples(st.one_of(st.sampled_from([0.0, -0.0, 0.2, 0.3]), st.floats(-1.0, 1.0)),
                                 st.one_of(st.sampled_from([0.0, 1e-4, 0.1, 0.5]), st.floats(0.0, 1.0))),
                       min_size=1, max_size=6),
    resolution=st.sampled_from([3, 41, 801]),
    polish=st.sampled_from([7, 30]),
)
def test_inf_on_intervals_in_lockstep_equal_the_polish_of_before(name, spans, resolution, polish):
    # the lockstep polish of several intervals (zero widths, signed zeros and
    # intervals whose arrays raise among them) against each interval alone
    f = _pole_near(0.2001, 0.2002) if name == "pole" else _INF_FUNCS[name]
    lo = [c - w for c, w in spans]
    hi = [c + w for c, w in spans]
    with np.errstate(all="ignore"):
        got = intervals._inf_on_intervals(f, lo, hi, resolution, polish)
        ref = [_reference_inf_on_interval(f, a, b, resolution, polish) for a, b in zip(lo, hi)]
    assert [float(v).hex() for v in got] == [float(v).hex() for v in ref]


@pytest.mark.parametrize("block", [1, 100, 400, 8192])
def test_inf_on_intervals_grid_blocks_that_raise_answer_their_intervals_alone(block):
    # a grid block with an interval across the pole fails as a whole; its
    # intervals are answered alone (the one across the pole point by point)
    f = _pole_near(0.2001, 0.2002)
    centers = np.linspace(-0.3, 0.7, 25)
    lo, hi = centers - 0.05, centers + 0.05
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intervals, "_GRID_BLOCK", block)
        got = intervals._inf_on_intervals(f, lo, hi, 101)
    ref = [_reference_inf_on_interval(f, a, b, 101) for a, b in zip(lo, hi)]
    assert [float(v).hex() for v in got] == [float(v).hex() for v in ref]


def test_linspace_rows_equal_linspace_row_by_row():
    lo = np.array([0.0, -0.0, 1.0, 0.3, 5e-324, -1.0])
    hi = np.array([1.0, 0.0, 1.0, 0.3 + 1e-300, 1e-323, 1.0])
    for num in (1, 2, 3, 801):
        got = intervals._linspace_rows(lo, hi, num)
        for i in range(lo.size):
            assert got[i].tobytes() == np.linspace(lo[i], hi[i], num).tobytes()


@pytest.mark.filterwarnings("ignore::numpy.exceptions.ComplexWarning")
def test_inf_on_interval_probe_table_rejects_wrong_shapes_and_complex_values():
    # the grid takes these values as before; the probe arrays give a wrong
    # shape or complex values, so every probe takes its own scalar call
    def wrong_shape(x):
        x = arr(x)
        return x * x if x.size in (1, 1601) else np.zeros(3)

    def complex_probes(x):
        x = arr(x)
        return x * x if x.size in (1, 1601) else x * x + 0j

    probes = intervals._probe_points(0.5, 0.01, 2, 0.0, 1.0).reshape(-1, 1)
    for f in (wrong_shape, complex_probes):
        assert _eval_vectorized(f, probes, 1, 1, finite=False) is None
        _same_inf(f, -0.5, 0.75)
    assert len(_eval_vectorized(staircase_fn, probes, 1, 1, finite=False)) == 15


# ---------------------------------------------------------------------------
# a batch fails where the per-row path fails: complex and non-finite values


_BAD_VALUE_CASES = {
    "complex_inline": (SingleValued(compile_expression("x + x*(-1)**0.5")), [[0.5], [0.2]], [0.5]),
    "pole": (SingleValued(lambda x: 1.0 / arr(x)), [[0.0], [0.2]], [0.5]),
    "nan": (SingleValued(lambda x: np.sqrt(arr(x))), [[0.25], [-1.0]], [0.5]),
    "finite_pole": (FiniteValued([lambda x: arr(x), lambda x: 1.0 / arr(x)]), [[0.5], [0.0]], [0.5]),
    "complex_2d": (SingleValued(lambda x: arr(x) + 0j, 2, 2), [[0.5, 0.1], [0.2, 0.3]], [0.5, 0.0]),
    "epigraph_nan": (Epigraph(lambda x: np.sqrt(arr(x))), [[0.25], [-1.0]], [0.1]),
    "epigraph_inf": (Epigraph(lambda x: 1.0 / arr(x)), [[0.0], [-0.0], [0.5]], [0.1]),
    "sum_pole": (SumMap(SingleValued(lambda x: 1.0 / arr(x)), NormalConeBox([-1.0], [1.0])), [[0.0], [0.5]], [0.5]),
}


def _outcome(fn):
    try:
        return fn().tobytes()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("norm", ["euclidean", "max"])
@pytest.mark.parametrize("case", sorted(_BAD_VALUE_CASES))
def test_batch_distance_fails_where_the_rows_fail(case, norm):
    F, X, y = _BAD_VALUE_CASES[case]
    with np.errstate(all="ignore"):
        got = _outcome(lambda: dist_to_value_set_batch(y, F, X, norm))
        rows = _outcome(lambda: np.array([dist_to_value_set(y, F, x, norm) for x in X]))
    assert got == rows
    if F.m == 1 and not isinstance(F, Epigraph):
        assert got[0] is ValueError  # "vector entries must be real" or "... finite"


#: ``finite=False`` batches of the cases above, as the search grid asked for
#: them before batches failed where the rows fail; the sum and the complex
#: cases raise as their rows do
_LENIENT_BATCHES = {
    "pole": [np.inf, 4.5],
    "nan": [0.0, np.nan],
    "finite_pole": [0.0, 0.5],
    "epigraph_nan": [0.4, np.nan],
    "epigraph_inf": [np.inf, 0.0, 1.9],
}


@pytest.mark.parametrize("norm", ["euclidean", "max"])
@pytest.mark.parametrize("case", sorted(_BAD_VALUE_CASES))
def test_grid_batch_keeps_non_finite_rows(case, norm):
    F, X, y = _BAD_VALUE_CASES[case]
    with np.errstate(all="ignore"):
        if case in _LENIENT_BATCHES:
            np.testing.assert_array_equal(dist_to_value_set_batch(y, F, X, norm, finite=False), _LENIENT_BATCHES[case])
        else:
            got = _outcome(lambda: dist_to_value_set_batch(y, F, X, norm, finite=False))
            assert got == _outcome(lambda: np.array([dist_to_value_set(y, F, x, norm) for x in X]))
            assert got[0] is ValueError


_SQRT = lambda x: np.sqrt(arr(x))

#: searches whose default region (radius 1 around x0 = 0.5) crosses the edge
#: of the domain, with (distance, point) as float.hex of the values the grid
#: search gave before batches failed where the rows fail
_DOMAIN_EDGE_SEARCHES = {
    "sqrt": (SingleValued(_SQRT), [0.5], ("0x1.fffffeb851eb8p-3", "0x1.000000a3d70a4p-2")),
    # one point per call: its rows past the edge are infeasible too (they raised)
    "sqrt_not_vectorized": (SingleValued(_SQRT, vectorized=False), [0.5], ("0x1.fffffeb851eb8p-3", "0x1.000000a3d70a4p-2")),
    "pole": (SingleValued(lambda x: 1.0 / arr(x)), [3.0], ("0x1.5555553333336p-3", "0x1.5555556666665p-2")),
    "inline_sqrt": (SingleValued(compile_expression("sqrt(x)")), [0.9], ("0x1.3d70a2b851ebap-2", "0x1.9eb8515c28f5dp-1")),
    "pm_sqrt": (FiniteValued([_SQRT, lambda x: -_SQRT(x)]), [-0.9], ("0x1.3d70a2b851ebap-2", "0x1.9eb8515c28f5dp-1")),
}


@pytest.mark.parametrize("case", sorted(_DOMAIN_EDGE_SEARCHES))
def test_search_grid_across_the_edge_of_the_domain(case):
    # the 1D path hands these targets to the grid, whose points past the edge
    # (NaN or inf values) are infeasible rather than an error
    F, y, want = _DOMAIN_EDGE_SEARCHES[case]
    with np.errstate(all="ignore"):
        d, x = preimage_search([0.5], F, y)
        (d_many, x_many), = preimage_search_many([0.5], F, [y])
    assert (float(d).hex(), float(x[0]).hex()) == want
    assert float(d_many).hex() == want[0] and x_many.tobytes() == x.tobytes()


@pytest.mark.parametrize(
    "case, want", [("sqrt", "0x1.ba6681c6b1f5bp-1"), ("pole", "0x1.9000000000000p+4"),
                   ("inline_sqrt", "0x1.ba6681c6b1f5bp-1"), ("pm_sqrt", "0x1.ba6681c6b1f5bp-1")],
)
def test_covering_ball_across_the_edge_of_the_domain(case, want):
    # B[0.1, 0.3] reaches past 0: the branch curves keep their NaN or inf
    # values there, as they did before batches failed where the rows fail
    F = _DOMAIN_EDGE_SEARCHES[case][0]
    with np.errstate(all="ignore"):
        c = largest_covered_c(F, [0.1], F.value_set([0.1]).points[0], 0.3)
    assert float(c).hex() == want


# ---------------------------------------------------------------------------
# an epigraph with complex values raises on every path, as as_vector does


def _complex_square(x):
    x = arr(x)
    return x * x + 1j * x


def _complex_on_scalars(x):
    # raises on a batch, so each path takes one point at a time
    x = arr(x)
    if x.size > 1:
        raise TypeError("one point at a time")
    return x * x + 1j * x


_COMPLEX_EPIGRAPH_PATHS = {
    "value_set": lambda f: dist_to_value_set([1.0], Epigraph(f), [0.5]),
    "sample_graph": lambda f: graph_sample(Epigraph(f), GraphPoint([0.5], [0.25]), 0.3, 8, 1),
    "covered_c_1d": lambda f: largest_covered_c(Epigraph(f), [0.5], [0.25], 0.1),
    "covered_c_2d": lambda f: largest_covered_c(
        Epigraph(lambda x: f(arr(x)[..., 0]), n=2), [0.5, 0.0], [0.25], 0.1),
    "inf_on_interval": lambda f: intervals._inf_on_interval(f, 0.0, 1.0),
    "preimage_1d_epigraph": lambda f: setmaps._preimage_1d_epigraph(
        np.array([0.0]), Epigraph(f), 0.5, _grid_axes(np.array([0.0]), 1.0, 401), TOL_FEAS),
    "preimage_search": lambda f: preimage_search([0.0], Epigraph(f), [0.5]),
}


@pytest.mark.parametrize("f", [_complex_square, _complex_on_scalars], ids=["batch", "scalar"])
@pytest.mark.parametrize("path", sorted(_COMPLEX_EPIGRAPH_PATHS))
def test_complex_epigraph_values_raise(path, f):
    # dist_to_value_set gave 0.0 and largest_covered_c 0.9, with only a
    # ComplexWarning: the cast kept the real part
    with pytest.raises(ValueError, match="real"):
        _COMPLEX_EPIGRAPH_PATHS[path](f)


def test_non_finite_epigraph_values_pass_as_floats():
    with np.errstate(all="ignore"):
        assert np.isnan(Epigraph(lambda x: np.sqrt(arr(x))).value_set([-1.0]).lo[0])
        assert Epigraph(lambda x: 1.0 / arr(x)).value_set([0.0]).lo[0] == np.inf


# ---------------------------------------------------------------------------
# _linear_cover_rate is the minimum of the cone covering rates


def _reference_linear_cover_rate(a_bytes: bytes, shape: tuple, norm: str, directions: int, seed: int) -> float:
    """The per-direction affine distance loop of before, verbatim."""
    A = np.frombuffer(a_bytes).reshape(shape)
    best = INF
    origin = np.zeros(shape[1])
    for v in sphere_directions(shape[0], directions, derive_seed(seed, "cover-dirs"), norm):
        d = AffineSet(A, v).dist(origin, norm)
        best = min(best, 0.0 if d == INF else (1.0 / d if d > 0 else INF))
    return best


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    shape=st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)]),
    entries=st.lists(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)), min_size=9, max_size=9),
    norm=st.sampled_from(["euclidean", "max"]),
    directions=st.sampled_from([8, 32]),
    seed=st.integers(0, 1000),
)
def test_linear_cover_rate_equals_the_loop_of_before_bitwise(shape, entries, norm, directions, seed):
    A = np.array(entries[: shape[0] * shape[1]]).reshape(shape)
    args = (A.tobytes(), shape, norm, directions, seed)
    with np.errstate(all="ignore"):  # subnormal entries overflow the norms of both
        got = setmaps._linear_cover_rate.__wrapped__(*args)
        ref = _reference_linear_cover_rate(*args)
    assert type(got) is float
    assert got.hex() == float(ref).hex()


# ---------------------------------------------------------------------------
# one target per row: a (k, m) y gives each row of the batch its own target


def _curve2(x):
    x = arr(x)
    return np.stack([np.sin(x[..., 0]) * x[..., 1], x[..., 0] ** 2 - x[..., 1]], axis=-1)


_ROW_TARGET_CASES = {
    **MAP_KINDS,
    **_BRANCH_CASES,
    "single_m2": (SingleValued(_curve2, 2, 2), _X2, [0.1, -0.2]),
    "single_m2_not_vectorized": (SingleValued(_curve2, 2, 2, vectorized=False), _X2, [0.1, -0.2]),
    "finite_m2_not_vectorized": (
        FiniteValued([_curve2, lambda x: arr(x)[::-1] * 0.5], 2, 2, vectorized=False), _X2, [0.3, 0.1]),
    "epigraph_not_vectorized": (Epigraph(lambda x: arr(x) ** 2, vectorized=False), _X1, [0.5]),
    "epigraph_2d": (Epigraph(lambda x: (arr(x) ** 2).sum(axis=-1), 2), _X2, [0.5]),
    "polyhedral_m2": (PolyhedralGraph([([[1, 0, -1, 0], [0, 1, 0, -1], [-1, -1, 0, 0]], [0, 0, 1])], 2, 2),
                      _X2, [0.2, 0.4]),
    "bare_kind": (_Shifted(), _X1, [0.5]),
}


def _row_targets(F, X, y):
    """One target per row of X: y moved by a different amount on each row."""
    shift = np.linspace(-0.45, 0.6, len(X))[:, None] * np.linspace(1.0, -0.5, F.m)
    return arr(y) + shift


@pytest.mark.parametrize("norm", ["euclidean", "max"])
@pytest.mark.parametrize("case", sorted(_ROW_TARGET_CASES))
def test_batch_distance_with_a_target_per_row_is_row_by_row_bitwise(case, norm):
    F, X, y = _ROW_TARGET_CASES[case]
    X = arr(X)
    Y = _row_targets(F, X, y)
    rows = np.array([dist_to_value_set(yr, F, x, norm) for yr, x in zip(Y, X)])
    assert dist_to_value_set_batch(Y, F, X, norm).tobytes() == rows.tobytes()
    # the targets as nested lists, and a batch of one row
    assert dist_to_value_set_batch(Y.tolist(), F, X, norm).tobytes() == rows.tobytes()
    assert dist_to_value_set_batch(Y[:1], F, X[:1], norm).tobytes() == rows[:1].tobytes()
    # one shared target is the same as that target on every row
    shared = np.array([dist_to_value_set(y, F, x, norm) for x in X])
    assert dist_to_value_set_batch(np.tile(arr(y), (len(X), 1)), F, X, norm).tobytes() == shared.tobytes()


@pytest.mark.parametrize("norm", ["euclidean", "max"])
@pytest.mark.parametrize("case", sorted(_BAD_VALUE_CASES))
def test_batch_distance_with_a_target_per_row_fails_where_the_rows_fail(case, norm):
    F, X, y = _BAD_VALUE_CASES[case]
    Y = _row_targets(F, arr(X), y)
    with np.errstate(all="ignore"):
        got = _outcome(lambda: dist_to_value_set_batch(Y, F, X, norm))
        rows = _outcome(lambda: np.array([dist_to_value_set(yr, F, x, norm) for yr, x in zip(Y, X)]))
    assert got == rows


def test_bad_row_targets_raise_as_the_row_does():
    F, X = SingleValued(lambda x: arr(x) ** 2), _X1[:3]
    Y = np.array([[0.1], [0.2], [0.3]])
    for bad, error, word in (
        (np.nan, ValueError, "finite"), (np.inf, ValueError, "finite"), (0.2 + 1j, ValueError, "real"),
    ):
        Z = Y.astype(complex) if isinstance(bad, complex) else Y.copy()
        Z[1, 0] = bad
        with pytest.raises(error, match=word):
            dist_to_value_set(Z[1], F, X[1])
        with pytest.raises(error, match=word):
            dist_to_value_set_batch(Z, F, X)
    with pytest.raises(DimensionMismatch):
        dist_to_value_set_batch(Y[:2], F, X)  # a target short
    with pytest.raises(DimensionMismatch):
        dist_to_value_set_batch(np.hstack([Y, Y]), F, X)  # targets of R^2 for a map into R


# ---------------------------------------------------------------------------
# the lockstep polish: every start takes the path of the one-start polish


def _lane_objective(Z, C, W, quantum):
    """A per-row objective with kinks, plateaus (values rounded to ``quantum``)
    and a NaN region, built one column at a time so that a row gives the same
    bits alone and in a batch."""
    out = np.zeros(len(Z))
    for i in range(Z.shape[1]):
        out = out + W[:, i] * np.abs(Z[:, i] - C[:, i]) + 0.1 * np.sin(3.0 * Z[:, i])
    out = np.round(out / quantum) * quantum
    return np.where(Z[:, 0] > 2.5, np.nan, out)


def _lane_accept(Z, G):
    return np.floor(7.0 * Z.sum(axis=1) + G) % 3 != 0


_polish_float = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -1.0]), st.floats(-2.0, 2.0))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    data=st.data(),
    k=st.integers(1, 5),
    n=st.integers(1, 3),
    steps=st.integers(0, 30),
    quantum=st.sampled_from([1e-12, 1e-3, 0.05]),
    target=st.one_of(st.none(), st.sampled_from([0.0, 1e-3, 0.2, 1.0])),
    gated=st.booleans(),
    clamped=st.booleans(),
)
def test_lockstep_polish_follows_the_one_start_polish_per_lane(data, k, n, steps, quantum, target, gated, clamped):
    rows = st.lists(_polish_float, min_size=n, max_size=n)
    X0 = np.array(data.draw(st.lists(rows, min_size=k, max_size=k)))
    C = np.array(data.draw(st.lists(rows, min_size=k, max_size=k)))
    W = np.abs(np.array(data.draw(st.lists(rows, min_size=k, max_size=k)))) + 0.25
    G = np.array(data.draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)), dtype=float)
    step0 = np.array(data.draw(st.lists(st.sampled_from([1.0, 0.3, 0.01, 2.0 ** -20]), min_size=k, max_size=k)))
    lo = hi = None
    if clamped:
        ends = np.sort(np.array(data.draw(st.lists(rows, min_size=2, max_size=2))), axis=0)
        lo, hi = ends[0], ends[1]
    calls = np.zeros(k, dtype=int)

    def accept(Z, lanes):
        np.add.at(calls, lanes, 1)
        return _lane_accept(Z, G[lanes])

    X, fx = _coordinate_polish(lambda Z, lanes: _lane_objective(Z, C[lanes], W[lanes], quantum),
                               accept if gated else None, X0, step0, steps, lo, hi, target)
    assert X.shape == (k, n) and fx.shape == (k,)
    for j in range(k):
        count = [0]

        def accept_one(z):
            count[0] += 1
            return bool(_lane_accept(z[None], G[j:j + 1])[0])

        x, f = _reference_coordinate_polish(
            lambda z: float(_lane_objective(z[None], C[j:j + 1], W[j:j + 1], quantum)[0]),
            accept_one if gated else (lambda _z: True), X0[j], float(step0[j]), steps, lo, hi, target)
        assert X[j].tobytes() == x.tobytes()
        assert float(fx[j]).hex() == float(f).hex()
        assert calls[j] == count[0]


def test_lockstep_polish_takes_one_objective_call_per_move_over_the_live_starts():
    sizes = []

    def objective(Z, lanes):
        sizes.append(len(lanes))
        return np.abs(Z - np.array([[0.3, -0.2]])).sum(axis=1) * np.where(lanes == 0, 1.0, 0.0)

    # start 1 meets its target at once; start 0 runs every round
    X, fx = _coordinate_polish(objective, None, [[0.0, 0.0], [5.0, 5.0]], 0.25, 3, target=1e-12)
    assert sizes == [2] + [1] * 12
    assert fx[1] == 0.0 and X[1].tolist() == [5.0, 5.0]


# ---------------------------------------------------------------------------
# the restoration starts: local minima of infeasibility


def _reference_local_minima_indices(feas: np.ndarray, per_axis: int, n: int, limit: int) -> list[int]:
    """The Python scan of before (kept verbatim as the oracle)."""
    if n == 1:
        f = feas
        idx = [
            i
            for i in range(f.size)
            if (i == 0 or f[i] <= f[i - 1]) and (i == f.size - 1 or f[i] <= f[i + 1])
        ]
    else:
        idx = list(np.argsort(feas)[: 4 * limit])
    idx.sort(key=lambda i: feas[i])
    return idx[:limit]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    feas=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0.25, 1.0, np.inf, np.nan]), st.floats(0.0, 2.0)),
                  min_size=1, max_size=40),
    limit=st.sampled_from([1, 4, 8]),
    n=st.sampled_from([1, 2]),
)
def test_local_minima_equal_the_scan_of_before(feas, limit, n):
    feas = np.array(feas)
    got = setmaps._local_minima_indices(feas, 0, n, limit)
    assert got == [int(i) for i in _reference_local_minima_indices(feas, 0, n, limit)]


def test_local_minima_on_plateaus_and_ties():
    # the grid of finite_x0 ({x, 0}) for a target y off the grid: the flat |y|
    # of the constant branch is one long plateau of ties, cut by the dip of x
    xs = _grid_axes(np.array([0.0]), 1.0, 401)
    F = build_setmap({"kind": "finite", "branches": ["x", "0"]})
    for y in (0.30001, -0.70001, 0.0, 2.0):
        feas = dist_to_value_set_batch([y], F, xs, finite=False)
        for limit in (1, 4):
            want = [int(i) for i in _reference_local_minima_indices(feas, 401, 1, limit)]
            assert setmaps._local_minima_indices(feas, 401, 1, limit) == want
    plateau = np.array([1.0, 0.5, 0.5, 0.5, 2.0, 0.5, 0.5, 3.0, 0.25, 0.25])
    assert setmaps._local_minima_indices(plateau, 0, 1, 4) == [8, 9, 1, 2]
    assert setmaps._local_minima_indices(np.array([np.nan]), 0, 1, 4) == [0]


# ---------------------------------------------------------------------------
# the grid stage: every target left in one call, each answered as the
# one-target grid stage of before answered it, for a shared or a per-query x0


def _reference_preimage_on_grid(x0, F, y, grid, per_axis, h, tol_feas, norm, refine_steps):
    """The one-target grid stage of before, with the one-start polish and the
    scan of before (kept verbatim as the oracle)."""
    feas = dist_to_value_set_batch(y, F, grid, norm, finite=False)
    dists = setmaps._vec_dists(grid, x0, norm)

    def objective(x):
        return vec_dist(x, x0, norm)

    def feasible(x):
        return dist_to_value_set(y, F, x, norm) <= tol_feas

    best, arg = INF, None
    feasible_mask = feas <= tol_feas
    if np.any(feasible_mask):
        order = np.argsort(np.where(feasible_mask, dists, INF))[:4]
        for i in order:
            if not feasible_mask[i]:
                continue
            x, d = _reference_coordinate_polish(objective, feasible, grid[i], h, refine_steps)
            if d < best:
                best, arg = d, x
        return best, arg

    order = _reference_local_minima_indices(feas, per_axis, F.n, limit=4 if F.n == 1 else 8)

    def infeasibility(x):
        return dist_to_value_set(y, F, x, norm)

    for i in order:
        x, r = _reference_coordinate_polish(
            infeasibility, lambda _z: True, grid[i], h, refine_steps + 35, target=tol_feas / 4
        )
        if r <= tol_feas:
            x, d = _reference_coordinate_polish(objective, feasible, x, h, refine_steps)
            if d < best:
                best, arg = d, x
    return best, arg


def _reference_query(x0, F, y, region, norm, resolution=401, refine_steps=25):
    """One query as the search of before answered it: the closed form, the 1D
    path on its own grid, then the one-target grid stage of before."""
    x0, y = as_vector(x0, F.n), as_vector(y, F.m)
    found = F.analytic_preimage(x0, y, norm, TOL_FEAS)
    if found is not None:
        return found
    region = Ball(x0, 1.0) if region is None else region
    per_axis = resolution if F.n == 1 else max(21, int(np.sqrt(resolution)) * 2 + 1)
    grid = _grid_axes(as_vector(region.center, F.n), region.radius, per_axis)
    h = 2.0 * region.radius / max(per_axis - 1, 1)
    if F.n == 1 and F.m == 1:
        found = (F.preimage_1d(x0, np.array([y[0]]), grid, norm, TOL_FEAS) or [None])[0]
        if found is not None:
            return found
    return _reference_preimage_on_grid(x0, F, y, grid, per_axis, h, TOL_FEAS, norm, refine_steps)


def _search_outcome(fn):
    with np.errstate(all="ignore"):
        try:
            return [(float(d).hex(), None if x is None else np.asarray(x, dtype=float).tobytes()) for d, x in fn()]
        except Exception as exc:
            return type(exc), str(exc)


#: maps whose searches reach the grid stage, with a graph point (x, F(x))
_GRID_MAPS = {
    "map2d": (build_setmap({"kind": "single", "expr": ["x1+0.2*sin(x2)", "x2-0.1*x1**2"], "n": 2, "m": 2}),
              [0.0, 0.0]),
    "curve_not_vectorized": (SingleValued(_curve2, 2, 2, vectorized=False), [0.3, 0.2]),
    "epigraph_2d": (Epigraph(lambda x: (arr(x) ** 2).sum(axis=-1) - 0.2, 2), [0.1, -0.1]),
    "finite_x0": (build_setmap({"kind": "finite", "branches": ["x", "0"]}), [0.0]),
    "not_vectorized": (FiniteValued([lambda x: arr(x) ** 3, lambda x: 1.0 - arr(x)], vectorized=False), [0.2]),
    "bare_kind": (_Shifted(), [0.1]),
    "curve_1_to_2": (SingleValued(lambda x: np.stack([arr(x), arr(x) ** 2], axis=-1).reshape(-1, 2).squeeze(), 1, 2,
                                  vectorized=False), [0.4]),
    # a map whose restoration can step out of the domain of sqrt
    "sqrt_not_vectorized": (SingleValued(lambda x: np.sqrt(arr(x)), vectorized=False), [0.5]),
}


def _value_at(F, x):
    return F.value_set(arr(x)).points[0] if not isinstance(F, Epigraph) else F.value_set(arr(x)).lo


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(_GRID_MAPS)),
    data=st.data(),
    count=st.integers(1, 4),
    norm=st.sampled_from(["euclidean", "max"]),
    shared=st.booleans(),
)
def test_grid_stage_answers_every_query_as_the_one_target_stage_of_before(name, data, count, norm, shared):
    F, x = _GRID_MAPS[name]
    x = arr(x)
    offsets = st.lists(st.one_of(st.sampled_from([0.0, 0.05, -0.3, 1.7]), st.floats(-0.6, 0.6)),
                       min_size=F.n, max_size=F.n)
    X0 = np.array([x + np.array(data.draw(offsets)) for _ in range(count)])
    if shared:
        X0[:] = X0[0]
    # targets: values near the graph point (off the grid in general), and
    # targets with no preimage nearby
    with np.errstate(all="ignore"):
        ys = [_value_at(F, x + 0.37 * np.array(data.draw(offsets))) + np.array(
            data.draw(st.lists(st.sampled_from([0.0, 0.0, 1e-3, -0.2, 3.0]), min_size=F.m, max_size=F.m)))
              for _ in range(count)]
    assume(all(np.isfinite(y).all() for y in ys))
    radii = [data.draw(st.sampled_from([0.05, 0.4, 1.0])) for _ in range(count)]
    regions = [None if shared and radius == 1.0 else Ball(X0[0] if shared else x, radius) for radius in radii]
    if shared:
        regions = [regions[0]] * count
        got = _search_outcome(lambda: preimage_search_many(X0[0], F, ys, regions[0], norm=norm))
    else:
        got = _search_outcome(lambda: preimage_search_many(X0, F, ys, regions, norm=norm))
    refs = [_search_outcome(lambda: [_reference_query(x0, F, y, region, norm)]) for x0, y, region in
            zip(X0, ys, regions)]
    if any(isinstance(ref, tuple) for ref in refs):  # a query raises: so does the call
        assert isinstance(got, tuple) and got[0] in {ref[0] for ref in refs if isinstance(ref, tuple)}
    else:
        assert got == [ref[0] for ref in refs]


def test_grid_stage_polishes_the_starts_of_all_targets_together(monkeypatch):
    # finite_x0: no grid point is feasible for a target off the grid, so each
    # target restores 4 starts, of which the one at the dip of x succeeds (the
    # others sit on the flat |y| of the constant branch).  All starts take
    # one restoration polish and one polish toward x0, where each target
    # polished its starts one by one
    F = build_setmap({"kind": "finite", "branches": ["x", "0"]})
    ys = [[0.123456], [-0.654321], [0.3000001], [0.0500001]]
    polishes = []
    polish = setmaps._coordinate_polish

    def counted(objective, accept, X0, *args, **kwargs):
        polishes.append(len(X0))
        return polish(objective, accept, X0, *args, **kwargs)

    monkeypatch.setattr(setmaps, "_coordinate_polish", counted)
    grid = _count_grid_searches(monkeypatch)
    got = preimage_search_many([0.0], F, ys)
    assert len(grid) == len(ys) and polishes == [16, 4]
    for y, found in zip(ys, got):
        _same_search(found, _reference_query([0.0], F, y, None, "euclidean"))
        assert found[0] == pytest.approx(abs(y[0]), abs=1e-6)


def test_per_query_searches_share_the_1d_call_of_an_equal_x0_and_region(monkeypatch):
    F = SingleValued(lambda x: arr(x) ** 3 - arr(x))
    calls = []
    branch_path = setmaps._preimage_1d_branches

    def counted(x0, branches, ys, *args, **kwargs):
        calls.append(len(ys))
        return branch_path(x0, branches, ys, *args, **kwargs)

    monkeypatch.setattr(setmaps, "_preimage_1d_branches", counted)
    X0 = [[0.1], [0.1], [0.5], [0.1], [0.5]]
    regions = [Ball([0.0], 1.0), Ball([0.0], 1.0), Ball([0.0], 1.0), Ball([0.0], 2.0), None]
    ys = [[0.0], [0.2], [-0.1], [0.3], [0.05]]
    got = preimage_search_many(np.array(X0), F, ys, regions)
    assert calls == [2, 1, 1, 1]
    for x0, y, region, found in zip(X0, ys, regions, got):
        _same_search(found, preimage_search(x0, F, y, region))
    # one region for every query, and the default region
    for region in (Ball([0.2], 1.5), None):
        for x0, y, found in zip(X0, ys, preimage_search_many(np.array(X0), F, ys, region)):
            _same_search(found, preimage_search(x0, F, y, region))
    assert preimage_search_many(np.zeros((0, 1)), F, [], []) == []
    with pytest.raises(DimensionMismatch):
        preimage_search_many(np.array(X0[:2]), F, ys, regions[:2])


def test_cone_cover_rates_grow_all_empty_directions_in_one_call_per_round(monkeypatch):
    # v = -1 has no preimage under the epigraph of |x|: it grows the unit
    # ball x4 per round, together with the other empty direction
    calls = []
    many = setmaps.preimage_search_many

    def counted(x0, F, ys, region, **kwargs):
        calls.append((len(ys), region.radius))
        return many(x0, F, ys, region, **kwargs)

    monkeypatch.setattr(setmaps, "preimage_search_many", counted)
    F = Epigraph(lambda x: np.abs(arr(x)) + 0.5 * arr(x))
    vs = [np.array([1.0]), np.array([-1.0]), np.array([-0.5]), np.array([0.25])]
    rates = setmaps._cone_cover_rates(F, vs, "euclidean")
    rounds = [4.0 ** j for j in range(1, 11)]
    assert calls == [(4, 1.0)] + [(2, r) for r in rounds]
    assert rates[1] == rates[2] == 0.0
    assert rates[0] == rates[3] == INF  # in F(0) = [0, inf)


def test_square_batches_of_a_multi_output_branch_go_row_by_row():
    # a compiled 2D branch gives its values as (m, k); with k = m = 2 rows
    # that shape is (k, m) too, and the batch took the values transposed:
    # row 0 got the first coordinate of both points
    F = build_setmap({"kind": "single", "expr": ["x1+0.2*sin(x2)", "x2-0.1*x1**2"], "n": 2, "m": 2})
    X = np.array([[0.04310028972144443, 0.0], [0.04391352091392373, 0.0]])
    assert _eval_vectorized(F.fn, X, 2, 2) is None
    rows = np.array([dist_to_value_set([0.0, 0.0], F, x, "max") for x in X])
    assert dist_to_value_set_batch([0.0, 0.0], F, X, "max").tobytes() == rows.tobytes()
    assert rows[0] == X[0, 0]
    # (m, k) with k != m is still turned round
    assert _eval_vectorized(F.fn, np.vstack([X, X]), 2, 2).shape == (4, 2)
