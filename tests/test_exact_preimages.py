"""Exact preimage hooks against the grid search they replace.

Linear maps, box normal cones and polyhedral graphs answer preimage queries
in closed form, from their analytic inverse, and the 1D sum f + N_[lo, hi]
of one scalar branch and a normal cone by its own 1D path.  Each is compared
with the grid path, reached through a subclass whose hook returns None or a
bare kind that has only the map's value sets, and with an independent exact
answer where there is one.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from reglab.geometry import TOL_FEAS, Ball
from reglab.setmaps import (
    FiniteValued,
    LinearOp,
    NormalConeBox,
    PolyhedralGraph,
    SetMap,
    SingleValued,
    SumMap,
    _grid_axes,
    dist_to_value_set,
    preimage_search,
    preimage_search_many,
)

INF = math.inf
arr = lambda x: np.asarray(x, dtype=float)


class GridPolyhedralGraph(PolyhedralGraph):
    def analytic_preimage(self, x0, y, norm, tol_feas):
        return None


class GridSumMap(SumMap):
    def preimage_1d(self, x0, ys, grid, norm, tol_feas):
        return None


def _feasible(F, y, found):
    d, x = found
    assert (d == INF) == (x is None)
    if x is not None:
        assert dist_to_value_set(y, F, x) <= TOL_FEAS


# the grid path with a longer polish than its default 25 rounds, which takes
# its 2D answers to within 1e-6
GRID_POLISH = 40
# NormalConeBox counts a point within its atol (1e-9) of a bound as on it, so
# the preimage of a cone sum reaches up to atol past a bound
CONE_ATOL = 2e-9


def _agree(exact, grid, expected, atol=1e-12):
    """Both paths find the preimage (within 1e-6 of each other, the exact one
    within ``atol`` of ``expected``), or neither does."""
    assert (exact[1] is None) == (grid[1] is None) == (expected == INF)
    if expected < INF:
        assert exact[0] == pytest.approx(expected, abs=atol)
        assert grid[0] == pytest.approx(exact[0], abs=1e-6)


def _same_bits(a, b):
    assert float(a[0]).hex() == float(b[0]).hex() and (a[1] is None) == (b[1] is None)
    if a[1] is not None:
        assert np.asarray(a[1]).tobytes() == np.asarray(b[1]).tobytes()


# ---------------------------------------------------------------------------
# polyhedral graphs: the slice at y in closed form


def _box_pieces(boxes, n, m):
    """Half-spaces of {(x, y): lo + C y <= x <= hi + C y, |y_1| <= Y} per box."""
    pieces = []
    for lo, hi, C, Y in boxes:
        A, b = [], []
        for i in range(n):
            e = np.eye(n)[i]
            A += [np.concatenate([e, -C[i]]), np.concatenate([-e, C[i]])]
            b += [hi[i], -lo[i]]
        e = np.eye(m)[0]
        A += [np.concatenate([np.zeros(n), e]), np.concatenate([np.zeros(n), -e])]
        b += [Y, Y]
        pieces.append((np.array(A), np.array(b)))
    return pieces


def _nearest_box_point(boxes, x0, y):
    best = INF
    for lo, hi, C, Y in boxes:
        if abs(y[0]) <= Y:
            best = min(best, float(np.linalg.norm(np.clip(x0, lo + C @ y, hi + C @ y) - x0)))
    return best


_unit = st.floats(-1.0, 1.0)


@st.composite
def box_graphs(draw):
    """Graphs with n + m <= 3 whose slice at y is a union of boxes at least 0.2
    wide (so the grid of the search sees them), inside [-1.5, 1.5]^n."""
    n, m = draw(st.sampled_from([(1, 1), (1, 2), (2, 1)]))
    boxes = []
    for _ in range(draw(st.integers(1, 2))):
        lo = np.array([draw(st.floats(-1.0, 0.5)) for _ in range(n)])
        hi = lo + np.array([draw(st.floats(0.2, 0.5)) for _ in range(n)])
        C = np.array([[draw(st.floats(-0.25, 0.25)) for _ in range(m)] for _ in range(n)])
        boxes.append((lo, hi, C, draw(st.floats(0.5, 1.0))))
    x0 = np.array([draw(st.floats(-0.5, 0.5)) for _ in range(n)])
    # |y_1| above Y empties the slice
    y = np.array([draw(st.floats(-1.2, 1.2)) for _ in range(m)])
    assume(all(abs(abs(y[0]) - Y) > 1e-3 for *_, Y in boxes))
    return boxes, n, m, x0, y


def _polyhedral_case(boxes, n, m, x0, y):
    pieces = _box_pieces(boxes, n, m)
    F, G = PolyhedralGraph(pieces, n, m), GridPolyhedralGraph(pieces, n, m)
    region = Ball(x0, 2.0)
    exact = preimage_search(x0, F, y, region)
    _feasible(F, y, exact)
    _agree(exact, preimage_search(x0, G, y, region, refine_steps=GRID_POLISH), _nearest_box_point(boxes, x0, y))
    _same_bits(preimage_search_many(x0, F, [y, -y], region)[0], exact)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(case=box_graphs())
def test_polyhedral_closed_form_against_the_grid_search(case):
    _polyhedral_case(*case)


def test_polyhedral_closed_form_against_the_grid_search_n2_m2():
    box = (np.array([-0.3, 0.1]), np.array([0.1, 0.4]), np.array([[0.1, -0.2], [0.25, 0.0]]), 1.0)
    _polyhedral_case([box], 2, 2, np.array([0.4, -0.3]), np.array([0.2, -0.4]))


# ---------------------------------------------------------------------------
# linear maps and box normal cones: the closed form from the analytic inverse


class _Bare(SetMap):
    """A kind that defines only its value sets, those of ``base``: it has no
    hook, so every preimage query takes the grid path."""

    def __init__(self, base):
        self.base, self.n, self.m = base, base.n, base.m

    def _value_set(self, x):
        return self.base._value_set(x)


@st.composite
def linear_queries(draw):
    """Invertible maps of R^n, n <= 2, with singular values in [0.5, 2], and
    a target whose preimage lies in the unit ball of the search."""
    n = draw(st.integers(1, 2))
    if n == 1:
        A = np.array([[draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.5, 2.0))]])
    else:
        def rotation():
            a = draw(st.floats(0.0, 2.0 * math.pi))
            return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        A = rotation() @ np.diag([draw(st.floats(0.5, 2.0)) for _ in range(2)]) @ rotation()
    x_star = np.array([draw(st.floats(-0.8, 0.8)) for _ in range(n)])
    return LinearOp(A), A @ x_star


@st.composite
def cone_queries(draw):
    """Box normal cones of R^n, n <= 2, with bounds on the search grid of the
    unit ball (multiples of 0.25), some open on one side; targets with
    entries 0 (x_i free in the box) or at least 0.1 in size (x_i pinned to a
    bound, no preimage where that bound is infinite)."""
    n = draw(st.integers(1, 2))
    lo = np.array([draw(st.sampled_from([-0.75, -0.5, -0.25, 0.0])) for _ in range(n)])
    hi = lo + np.array([draw(st.sampled_from([0.25, 0.5, 0.75])) for _ in range(n)])
    lo = np.where([draw(st.booleans()) and draw(st.booleans()) for _ in range(n)], -INF, lo)
    hi = np.where([draw(st.booleans()) and draw(st.booleans()) for _ in range(n)], INF, hi)
    y = np.array([draw(st.sampled_from([0.0, 0.0, 1.0, -1.0])) * draw(st.floats(0.1, 1.0)) for _ in range(n)])
    return NormalConeBox(lo, hi), y


@settings(derandomize=True, max_examples=40, deadline=None)
@given(query=st.one_of(linear_queries(), cone_queries()), data=st.data(),
       norm=st.sampled_from(["euclidean", "max"]))
def test_closed_form_from_the_inverse_against_the_grid_search(query, data, norm):
    F, y = query
    x0 = np.array([data.draw(st.floats(-0.9, 0.9)) for _ in range(F.n)])
    region = Ball(np.zeros(F.n), 1.0)
    exact = preimage_search(x0, F, y, region, norm=norm)
    grid = preimage_search(x0, _Bare(F), y, region, norm=norm, refine_steps=GRID_POLISH)
    _same_bits(exact, F.inverse_value_set(y).nearest(x0, norm)[::-1])
    assert (exact[1] is None) == (grid[1] is None)
    if exact[1] is not None:
        # both points are feasible in the norm of the query; the closed form
        # is global, and the grid path finds it to within its polish
        assert max(dist_to_value_set(y, F, p, norm) for p in (exact[1], grid[1])) <= TOL_FEAS
        assert grid[0] == pytest.approx(exact[0], abs=1e-6)


def test_polyhedral_empty_slice_has_no_preimage():
    # the graph {|x| <= 1, 0 <= y <= 1}: y = 2 lies outside its range
    pieces = [([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 0])]
    F, G = PolyhedralGraph(pieces, 1, 1), GridPolyhedralGraph(pieces, 1, 1)
    assert F.inverse_value_set(arr([2.0])).is_empty()
    assert F.analytic_preimage(arr([0.0]), arr([2.0]), "euclidean", TOL_FEAS) == (INF, None)
    assert preimage_search([0.0], F, [2.0]) == (INF, None) == preimage_search([0.0], G, [2.0])
    empty, inside = preimage_search_many([0.0], F, [[2.0], [0.5]])
    assert empty == (INF, None) and inside[0] == 0.0 and list(inside[1]) == [0.0]


def test_polyhedral_closed_form_is_global_and_takes_the_max_norm():
    # the interval band 2x + y in [-0.1, 0.1]: F^{-1}(y) = [(-0.1 - y)/2, (0.1 - y)/2]
    F = PolyhedralGraph([([[2.0, 1.0], [-2.0, -1.0]], [0.1, 0.1])], 1, 1)
    for norm in ("euclidean", "max"):
        d, x = preimage_search([0.0], F, [0.3], norm=norm)
        assert d == pytest.approx(0.1, abs=1e-12) and x == pytest.approx([-0.1], abs=1e-12)
    # the grid sees only the unit ball around x0; the closed form sees all of R
    d, x = preimage_search([0.0], F, [5.0])
    assert d == pytest.approx(2.45) and preimage_search([0.0], GridPolyhedralGraph(F.pieces, 1, 1), [5.0])[1] is None


# ---------------------------------------------------------------------------
# 1D sums f + N_[lo, hi]: roots of f = y in [lo, hi] and the two bounds


def _monotone(a, b, c):
    return lambda x: a * arr(x) + b * np.sin(arr(x)) + c


@st.composite
def cone_sums(draw):
    """f + N_[lo, hi] with f strictly increasing, so F^{-1}(y) is at most one
    point x*.  x* is drawn first, inside the search region (``where`` names
    its place in the box) or at least half a radius outside it.  The box is
    never a single point, which no grid point hits."""
    a, b, c = draw(st.floats(0.5, 3.0)), draw(st.floats(-0.4, 0.4)), draw(_unit)
    f = _monotone(a, b, c)
    x0, R = draw(_unit), draw(st.sampled_from([0.5, 1.0, 2.0]))
    where = draw(st.sampled_from(["interior", "lo", "hi", "outside"]))
    gap = st.one_of(st.just(INF), st.floats(0.01, 2.0))
    if where == "outside":
        xs = x0 + draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1.5 * R, 2.5 * R))
    else:
        xs = x0 + draw(st.floats(-0.9, 0.9)) * R
    slack = draw(st.floats(0.0, 2.0))
    if where in ("interior", "outside"):
        lo, hi, y = xs - draw(gap), xs + draw(gap), float(f(xs))
    elif where == "lo":
        lo, hi, y = xs, xs + draw(gap), float(f(xs)) - slack
    else:
        lo, hi, y = xs - draw(gap), xs, float(f(xs)) + slack
    cone_first = draw(st.booleans())
    expected = INF if where == "outside" else abs(xs - x0)
    return f, (lo, hi), cone_first, x0, R, y, expected


def _sums(f, box, cone_first):
    parts = (SingleValued(f), NormalConeBox([box[0]], [box[1]]))
    parts = parts[::-1] if cone_first else parts
    return SumMap(*parts), GridSumMap(*parts)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=cone_sums())
def test_cone_sum_preimage_against_the_grid_search(case):
    f, box, cone_first, x0, R, y, expected = case
    F, G = _sums(f, box, cone_first)
    region = Ball([x0], R)
    exact = preimage_search([x0], F, [y], region)
    _feasible(F, [y], exact)
    _agree(exact, preimage_search([x0], G, [y], region, refine_steps=GRID_POLISH), expected, CONE_ATOL)
    _same_bits(preimage_search_many([x0], F, [[y], [y + 0.5]], region)[0], exact)


def test_cone_sum_solves_a_complementarity_problem():
    # 0 <= x  _|_  x + 0.3 - y >= 0: x* = y - 0.3 for y >= 0.3, else 0
    f = lambda x: arr(x) + 0.3
    for cone_first in (False, True):
        F, G = _sums(f, (0.0, INF), cone_first)
        for y in (-1.0, 0.0, 0.3, 0.31, 0.8, 1.2):
            xs = max(y - 0.3, 0.0)
            for x0 in (-0.4, 0.0, 0.25, 0.6):
                region = Ball([x0], 2.0)
                exact = preimage_search([x0], F, [y], region)
                _feasible(F, [y], exact)
                _agree(exact, preimage_search([x0], G, [y], region, refine_steps=GRID_POLISH), abs(xs - x0), CONE_ATOL)


@pytest.mark.parametrize("y", [0.2, -0.5, 0.0, 0.99])
@pytest.mark.parametrize("x0", [-0.9, -0.3, 0.0, 0.26, 0.7])
def test_cone_sum_with_several_interior_roots(x0, y):
    # sin(6x) = y has three roots in (-1, 1); -1 and 1 join where y <= sin(-6), y >= sin(6)
    lo, hi = -1.0, 1.0
    F, _ = _sums(lambda x: np.sin(6 * arr(x)), (lo, hi), False)
    cuts = [lo] + [(k + 0.5) * np.pi / 6 for k in range(-2, 2)] + [hi]  # monotone pieces of sin(6x)
    g = lambda x: math.sin(6 * x) - y
    roots = [brentq(g, a, b, xtol=1e-15) for a, b in zip(cuts, cuts[1:]) if g(a) * g(b) <= 0]
    cands = roots + [lo] * (y <= math.sin(6 * lo)) + [hi] * (y >= math.sin(6 * hi))
    d, x = preimage_search([x0], F, [y], Ball([0.0], 1.0))
    assert len(roots) >= 2
    assert d == pytest.approx(min(abs(c - x0) for c in cands), abs=1e-12)
    _feasible(F, [y], (d, x))


def test_cone_sum_bounds_and_near_roots_are_exact():
    grid = _grid_axes(arr([0.0]), 1.0, 401)
    F, _ = _sums(lambda x: arr(x), (0.1001, 1.0), False)
    # y just below f(lo): the root of f = y lies past lo, where the polish
    # may not go; lo itself answers, on the 1D path
    assert F.preimage_1d(arr([0.0]), arr([0.1001 - 1e-4]), grid, "euclidean", TOL_FEAS) == [(0.1001, [0.1001])]
    # a root between lo and the first grid point after it is bisected
    d, x = preimage_search([0.0], F, [0.1002])
    assert d == pytest.approx(0.1002, abs=1e-15) and x == pytest.approx([0.1002], abs=1e-15)
    # an interior root of 4(x - 0.5)^2 = 0.96 a little nearer than the bound 0
    G, _ = _sums(lambda x: 4 * (arr(x) - 0.5) ** 2, (0.0, 1.0), False)
    d, x = preimage_search([0.0055], G, [0.96])
    assert d == pytest.approx(0.5 - math.sqrt(0.24) - 0.0055, abs=1e-12)


@pytest.mark.parametrize("box", [(-INF, 0.5), (-0.5, INF), (-INF, INF)])
def test_cone_sum_boxes_open_on_one_side(box):
    # f(x) = 2x: below lo or above hi no x attains y; an open side never pins x
    F, G = _sums(lambda x: 2 * arr(x), box, False)
    lo, hi = box
    for y in (-2.5, -1.0, 0.4, 1.0, 2.5):
        xs = min(max(y / 2, lo), hi)
        exact = preimage_search([0.2], F, [y], Ball([0.0], 2.0))
        _feasible(F, [y], exact)
        grid = preimage_search([0.2], G, [y], Ball([0.0], 2.0), refine_steps=GRID_POLISH)
        _agree(exact, grid, abs(xs - 0.2), CONE_ATOL)


def test_cone_sum_single_point_box():
    # N_[a, a] is all of R at a: every y has the preimage {a}
    F, _ = _sums(lambda x: 2 * arr(x), (0.3, 0.3), False)
    for y in (-1.0, 0.6, 2.0):
        exact = preimage_search([0.0], F, [y])
        _feasible(F, [y], exact)
        assert exact[0] == 0.3 and list(exact[1]) == [0.3]


def test_cone_sum_hook_needs_one_scalar_branch_and_a_1d_cone():
    grid = _grid_axes(arr([0.0]), 1.0, 401)
    two = SumMap(FiniteValued([lambda x: arr(x), lambda x: -arr(x)]), NormalConeBox([0.0], [1.0]))
    plain = SumMap(SingleValued(lambda x: arr(x)), SingleValued(lambda x: arr(x)))
    cone2 = SumMap(SingleValued(lambda x: arr(x), 2, 2), NormalConeBox([0.0, 0.0], [1.0, 1.0]))
    assert NormalConeBox([0.0], [1.0]).normal_cone_interval() == (0.0, 1.0)
    assert cone2.G.normal_cone_interval() is None and SingleValued(np.sin).normal_cone_interval() is None
    assert two.preimage_1d(arr([0.0]), arr([0.5]), grid, "euclidean", TOL_FEAS) is None
    assert plain.preimage_1d(arr([0.0]), arr([0.5]), grid, "euclidean", TOL_FEAS)[0][0] == pytest.approx(0.25)


def test_cone_sum_false_root_goes_to_the_grid():
    # a jump across y is bracketed but is no root: that target falls back
    F = SumMap(SingleValued(lambda x: np.where(arr(x) < 0.3, -1.0, 1.0)), NormalConeBox([-1.0], [1.0]))
    grid = _grid_axes(arr([0.0]), 1.0, 401)
    assert F.preimage_1d(arr([0.0]), arr([0.0, 1.0]), grid, "euclidean", TOL_FEAS)[0] is None
    assert preimage_search([0.0], F, [0.0]) == (INF, None)


@pytest.mark.parametrize("c, roots, box, x0, R, expected", [
    # lo lies 1e-6 below the grid point 0: the polish keeps the grid's step
    (4.0, [0.5013], (-1e-6, 1.0), 0.6, 1.0, 0.6 - 0.5013),
    # the root 0.502 lies 0.0019 past hi: the polish stops at hi, and the
    # interior root 0.3012 answers
    (50.0, [0.3012, 0.502], (-1.0, 0.5001), 0.45, 0.45, 0.45 - 0.3012),
])
def test_cone_sum_tangential_roots(c, roots, box, x0, R, expected):
    # f - y keeps its sign at a double root, which only the polish finds
    f = lambda x: c * np.prod([(arr(x) - r) ** 2 for r in roots], axis=0)
    F, G = _sums(f, box, False)
    region = Ball([x0], R)
    exact = preimage_search([x0], F, [0.0], region)
    _feasible(F, [0.0], exact)
    # f <= TOL_FEAS pins a double root only to within sqrt(TOL_FEAS / c)
    assert exact[0] == pytest.approx(expected, abs=1e-4)
    assert preimage_search([x0], G, [0.0], region, refine_steps=GRID_POLISH)[0] == pytest.approx(exact[0], abs=1e-4)
