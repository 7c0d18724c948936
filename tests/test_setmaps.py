import numpy as np
import pytest

from reglab.expr import compile_expression
from reglab.geometry import Ball, DomainError, GraphPoint
from reglab.moduli import frechet_coderivative_bound, largest_covered_c
from reglab.setmaps import (
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
    require_single_valued,
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
    "inverse": (InverseView(LinearOp([[2.0]])), _X1, [0.3]),
}


@pytest.mark.parametrize("kind", sorted(MAP_KINDS))
def test_batch_distance_matches_row_by_row(kind):
    F, X, y = MAP_KINDS[kind]
    for norm in ("euclidean", "max"):
        rows = np.array([dist_to_value_set(y, F, x, norm) for x in X])
        np.testing.assert_allclose(dist_to_value_set_batch(y, F, X, norm), rows, rtol=0, atol=1e-12)


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
