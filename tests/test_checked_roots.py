"""The 1D paths of the preimage oracle keep only the roots they have checked.

A branch that jumps across a target brackets a sign change that holds no
root.  ``_preimage_1d_branches`` drops such bisected points, answers with a
true root where a branch has one, and leaves a target with only jumps to the
grid search.  On continuous branches it answers bit for bit as the unchecked
path did.  ``_preimage_1d_epigraph`` keeps a bisected boundary point only
where it is feasible, or else its neighbour on the feasible side.  Every
answer of ``preimage_search_many`` is a preimage at the distance it reports.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reglab import setmaps
from reglab.corpus import load_example
from reglab.geometry import TOL_FEAS, Ball, GraphPoint, vec_dist
from reglab.moduli import LiminfSchedule, estimate_modulus
from reglab.setmaps import (
    Epigraph,
    FiniteValued,
    InverseView,
    LinearOp,
    NormalConeBox,
    PolyhedralGraph,
    SingleValued,
    SumMap,
    _bisect_root,
    _coordinate_polish,
    _eval_rows,
    _eval_vectorized,
    _grid_axes,
    build_setmap,
    dist_to_value_set,
    preimage_search,
    preimage_search_many,
)

INF = math.inf
arr = lambda x: np.asarray(x, dtype=float)


def _jump(x):
    """x + 0.1 sign(x): jumps across every y in (-0.1, 0.1) at 0."""
    return arr(x) + 0.1 * np.sign(arr(x))


def _drop(x):
    """x + 1 left of 0, x from 0 on: jumps down across every y in (0, 1) at 0."""
    return np.where(arr(x) < 0, arr(x) + 1.0, arr(x))


def _count_grid_searches(monkeypatch):
    """The answers of the grid stage of the preimage search, in order."""
    answers = []
    grid_stage = setmaps._preimage_on_grid

    def counted(*args, **kwargs):
        out = grid_stage(*args, **kwargs)
        answers.extend(out)
        return out

    monkeypatch.setattr(setmaps, "_preimage_on_grid", counted)
    return answers


# ---------------------------------------------------------------------------
# jumps


def test_a_bracketed_jump_is_no_preimage(monkeypatch):
    F = SingleValued(_jump)
    grid = _count_grid_searches(monkeypatch)
    # the cell [0, h] brackets the jump; its bisected point ~1e-21 has residual 0.05
    assert preimage_search([0.3], F, [0.05], Ball([0.0], 0.5)) == (INF, None)
    assert len(grid) == 1  # the 1D path left the target to the grid search
    # off the jump the branch answers as before
    d, x = preimage_search([0.3], F, [0.3], Ball([0.0], 0.5))
    assert grid == [(INF, None)] and d == pytest.approx(0.1) and x == pytest.approx([0.2])


def test_jump_map_moduli_at_the_origin():
    # F(B[0, r]) misses (-0.1, 0.1) \ {0}: not open at a linear rate, and the
    # targets near 0 have no preimage near 0
    F = SingleValued(_jump)
    schedule = LiminfSchedule(r0=0.05, rho=0.5, shells=4, samples_per_shell=16)
    origin = GraphPoint([0.0], [0.0])
    assert estimate_modulus("lopen", F, origin, schedule).value == 0.0
    assert estimate_modulus("semireg", F, origin, schedule).value == INF
    assert estimate_modulus("reg", F, origin, schedule).value == INF


def test_finite_valued_map_whose_second_branch_jumps(monkeypatch):
    # the second branch's jump at 0 lies nearer x0 than the first branch's
    # root 0.6: the 1D path answers with that root
    F = FiniteValued([lambda x: arr(x) - 0.55, _jump])
    grid = _count_grid_searches(monkeypatch)
    d, x = preimage_search([0.0], F, [0.05])
    assert d == pytest.approx(0.6) and x == pytest.approx([0.6]) and grid == []
    assert dist_to_value_set([0.05], F, x) <= TOL_FEAS
    # with the root out of the region only the jump is bracketed: the grid
    # search decides, and its polish may step past the region to the root
    found = preimage_search([0.0], F, [0.05], Ball([0.0], 0.5))
    assert len(grid) == 1 and found is grid[0]
    assert found[1] is not None and dist_to_value_set([0.05], F, found[1]) <= TOL_FEAS


def test_cone_sum_answers_with_a_true_root_beyond_a_jump(monkeypatch):
    # f + N_[-1, 1] with f(x) = x + 1 left of 0 and x from 0 on: f = 0.5 at
    # -0.5 and 0.5, and the jump at 0 is the cell nearest x0 = 0.1.  The
    # 1D path now drops the jump and answers with the root 0.5, where the
    # whole target used to go to the grid search
    F = SumMap(SingleValued(_drop), NormalConeBox([-1.0], [1.0]))
    grid = _count_grid_searches(monkeypatch)
    d, x = preimage_search([0.1], F, [0.5])
    assert grid == [] and x is not None and d == pytest.approx(0.4, abs=1e-12)
    assert d == vec_dist(x, [0.1]) and dist_to_value_set([0.5], F, x) <= TOL_FEAS
    # the 1D hook itself answers that target
    found = F.preimage_1d(arr([0.1]), arr([0.5]), _grid_axes(arr([0.1]), 1.0, 401), "euclidean", TOL_FEAS)
    assert found[0][0] == d and found[0][1].tobytes() == x.tobytes()


def test_an_epigraph_root_at_a_jump_keeps_the_feasible_end_of_its_cell(monkeypatch):
    # the staircase steps down from f(0.1) = 1/110 to 0 just past 0.1, so
    # the grid cell [0.1, 0.10025] brackets y; its bisection ends on the two
    # doubles at 0.1, and the bisected point rounds to 0.1, where f > y
    F = load_example("staircase").objects["setmap"]
    y = 0.0071155762466334205
    grid = _count_grid_searches(monkeypatch)
    d, x = preimage_search([0.1], F, [y], Ball([0.1], 0.05))
    assert grid == [] and x[0] == np.nextafter(0.1, 1.0) and d == x[0] - 0.1
    assert dist_to_value_set([y], F, x) <= TOL_FEAS


def test_an_epigraph_root_whose_feasible_neighbour_fails_is_dropped(monkeypatch):
    # a bisection that stops at the infeasible end of its cell, 0.3025 for
    # f(x) = x and y = 0.301: the next double toward the feasible end fails
    # too, so the nearest feasible grid point 0.3 answers
    monkeypatch.setattr(setmaps, "_bisect_root", lambda fn, a, b, fa, iters=60: np.array(b, dtype=float))
    d, x = preimage_search([0.5], Epigraph(lambda x: arr(x)), [0.301], Ball([0.5], 0.5))
    assert x == pytest.approx([0.3], abs=1e-15) and d == pytest.approx(0.2, abs=1e-15)


# ---------------------------------------------------------------------------
# the unchecked path of before, bit for bit on continuous branches


def _unchecked_preimage_1d_branches(x0, branches, ys, grid, norm, tol_feas, bounds=None):
    """The 1D branch search before it checked its roots (kept verbatim as the oracle)."""
    xs = grid[:, 0]
    h = float(xs[1] - xs[0]) if xs.size > 1 else 1.0
    clamp = {}
    if bounds is not None:
        lo, hi = bounds
        ends = [e for e in dict.fromkeys(bounds) if xs[0] <= e <= xs[-1]]
        xs = np.sort(np.concatenate([xs[(xs > lo) & (xs < hi)], ends]))  # np.unique would import numpy.ma
        clamp = {"lo": [lo], "hi": [hi]}
    ys = np.asarray(ys, dtype=float).reshape(-1)
    curves = []
    for b in branches:
        vals = _eval_vectorized(b, xs[:, None], 1, 1, finite=False)
        if vals is None:
            return [None] * ys.size
        curves.append(vals.T - ys[:, None])
    finite = np.all([np.isfinite(v).all(axis=1) for v in curves], axis=0)
    roots = []  # per branch: each target's roots, in cell order
    for b, vals in zip(branches, curves):
        target, cell = np.nonzero((vals[:, :-1] * vals[:, 1:] < 0) & finite[:, None])
        cell_roots = _bisect_root(
            lambda x, b=b, y0=ys[target]: _eval_rows(b, x[:, None], 1, 1, finite=False)[0][:, 0] - y0,
            xs[cell], xs[cell + 1], vals[target, cell],
        ) if cell.size else cell
        roots.append(np.split(cell_roots, np.searchsorted(target, np.arange(1, ys.size))))

    out = []
    for t, y0 in enumerate(ys.tolist()):
        if not finite[t]:
            out.append(None)
            continue
        best = INF
        arg = None
        found = False
        for b, curve, branch_roots in zip(branches, curves, roots):
            vals = curve[t]
            branch_found = False
            hit = np.abs(vals) <= tol_feas
            if np.any(hit):
                found = branch_found = True
                i = int(np.abs(xs[np.nonzero(hit)[0]] - x0[0]).argmin())
                cand = float(xs[np.nonzero(hit)[0][i]])
                if abs(cand - x0[0]) < best:
                    best, arg = abs(cand - x0[0]), np.array([cand])
            for root in branch_roots[t]:
                found = branch_found = True
                if abs(root - float(x0[0])) < best:
                    best, arg = abs(root - float(x0[0])), np.array([root])
            if not branch_found:
                # tangential roots never change sign: descend on |b - y| from the
                # flattest grid points, but only where the local variation makes
                # an in-cell root plausible
                for i in np.argsort(np.abs(vals))[:2]:
                    local_delta = max(
                        abs(vals[i] - vals[max(i - 1, 0)]),
                        abs(vals[min(i + 1, vals.size - 1)] - vals[i]),
                    )
                    if abs(float(vals[i])) > 2.0 * local_delta + tol_feas:
                        continue
                    Z, fx = _coordinate_polish(
                        lambda Z, _, b=b: np.abs(_eval_rows(b, Z[:, 0], 1, 1, finite=False)[0][:, 0] - y0),
                        None, [xs[i]], h, 60, target=tol_feas / 4, **clamp,
                    )
                    if fx[0] <= tol_feas:
                        found = True
                        x = float(Z[0, 0])
                        if abs(x - float(x0[0])) < best:
                            best, arg = abs(x - float(x0[0])), np.array([x])
        out.append((best, arg) if found else (INF, None))
    return out


#: continuous branches: transversal roots, tangential roots (double roots of
#: the squares, a flat minimum of the quartic), a constant and a steep one
_CONTINUOUS_BRANCHES = {
    "identity": lambda x: arr(x),
    "cubic": lambda x: arr(x) ** 3 - arr(x),
    "sine": lambda x: np.sin(3.0 * arr(x)),
    "square": lambda x: (arr(x) - 0.3) ** 2,
    "double_roots": lambda x: 4.0 * (arr(x) - 0.5013) ** 2 * (arr(x) + 0.2) ** 2,
    "quartic": lambda x: 50.0 * (arr(x) - 0.102) ** 4,
    "constant": lambda x: 0.0 * arr(x) + 0.25,
    "steep": lambda x: 1e3 * arr(x),
}


def _outcome(found):
    return [None if f is None else (float(f[0]).hex(), None if f[1] is None else f[1].tobytes()) for f in found]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    names=st.lists(st.sampled_from(sorted(_CONTINUOUS_BRANCHES)), min_size=1, max_size=3),
    x0=st.one_of(st.sampled_from([0.0, 0.3, 0.5013, -0.2]), st.floats(-1.0, 1.0)),
    center=st.sampled_from([0.0, 0.3, 0.6]),
    radius=st.sampled_from([0.01, 0.3, 0.8, 2.0]),
    targets=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1e-9, 0.25, 0.5]), st.floats(-1.5, 1.5)),
                     min_size=1, max_size=6),
    bounds=st.one_of(st.none(), st.sampled_from([(-1e-6, 1.0), (-1.0, 0.5001), (0.3, 0.3), (-INF, 0.2),
                                                 (0.1, INF)])),
    norm=st.sampled_from(["euclidean", "max"]),
)
def test_checked_branch_path_equals_the_unchecked_one_on_continuous_branches(names, x0, center, radius, targets,
                                                                             bounds, norm):
    branches = [_CONTINUOUS_BRANCHES[name] for name in names]
    grid = _grid_axes(arr([center]), radius, 401)
    args = (arr([x0]), branches, arr(targets), grid, norm, TOL_FEAS)
    old = _unchecked_preimage_1d_branches(*args, bounds=bounds)
    # the old tangential polish could leave the span of the grid; now it
    # stays inside, so only the answers inside the span are compared
    xs = grid[:, 0] if bounds is None else np.sort(np.concatenate(
        [grid[(grid[:, 0] > bounds[0]) & (grid[:, 0] < bounds[1]), 0],
         [e for e in bounds if grid[0, 0] <= e <= grid[-1, 0]]]))
    assume(all(f is None or f[1] is None or xs[0] <= f[1][0] <= xs[-1] for f in old))
    assert _outcome(setmaps._preimage_1d_branches(*args[:4], TOL_FEAS, bounds=bounds)) == _outcome(old)


def test_tangential_starts_of_a_branch_take_one_polish(monkeypatch):
    # double roots between grid points: the targets 0, 1e-9 and 0 polish
    # their plausible starts of each branch in one call per branch; -0.5 has
    # none and no root
    polishes = []
    polish = setmaps._coordinate_polish

    def counted(objective, accept, X0, *args, **kwargs):
        polishes.append(len(X0))
        return polish(objective, accept, X0, *args, **kwargs)

    monkeypatch.setattr(setmaps, "_coordinate_polish", counted)
    branches = [lambda x: (arr(x) - 0.3013) ** 2, lambda x: 4.0 * (arr(x) - 0.5013) ** 2 * (arr(x) + 0.2013) ** 2]
    grid = _grid_axes(arr([0.0]), 1.0, 401)
    args = (arr([0.6]), branches, arr([0.0, 1e-9, -0.5, 0.0]), grid, "euclidean", TOL_FEAS)
    got = setmaps._preimage_1d_branches(*args[:4], TOL_FEAS)
    assert len(polishes) == len(branches) and min(polishes) >= 3
    monkeypatch.setattr(setmaps, "_coordinate_polish", polish)
    assert _outcome(got) == _outcome(_unchecked_preimage_1d_branches(*args))
    assert got[2] == (INF, None) and got[0][0] == pytest.approx(0.6 - 0.5013, abs=1e-4)


def test_the_tangential_polish_stays_in_the_span_of_the_grid():
    # the double root 0.8005 lies past the grid's last point 0.8: the polish
    # of before stepped out to it, now it stops at 0.8, where the residual
    # 2.5e-7 is no root
    square = lambda x: (arr(x) - 0.8005) ** 2
    grid = _grid_axes(arr([0.3]), 0.5, 401)
    args = (arr([0.3]), [square], arr([0.0]), grid, "euclidean", TOL_FEAS)
    old = _unchecked_preimage_1d_branches(*args)
    assert old[0][1][0] > grid[-1, 0]
    assert setmaps._preimage_1d_branches(*args[:4], TOL_FEAS) == [(INF, None)]


# ---------------------------------------------------------------------------
# every answer of the oracle is a preimage at the distance it reports


def _remark(i):
    return load_example("sum_remark").objects["FG"[i]]


#: (map, a point of its domain); the jump maps of the tests above included
_ORACLE_MAPS = {
    "single_sine": (SingleValued(lambda x: np.sin(3.0 * arr(x))), [0.1]),
    "single_jump": (SingleValued(_jump), [0.0]),
    "single_tangential": (SingleValued(lambda x: (arr(x) - 0.3) ** 2), [0.3]),
    "finite_two_branch": (FiniteValued([lambda x: arr(x), lambda x: 0.0 * arr(x)]), [0.2]),
    "finite_second_jumps": (FiniteValued([lambda x: arr(x) - 0.55, _jump]), [0.0]),
    "finite_not_vectorized": (FiniteValued([lambda x: arr(x) ** 3, lambda x: 1.0 - arr(x)], vectorized=False),
                              [0.2]),
    "epigraph": (Epigraph(lambda x: np.abs(arr(x)) - 0.25), [0.0]),
    "epigraph_pointwise": (Epigraph(lambda x: abs(np.asarray(x).item()) - 0.25), [0.4]),
    "staircase": (load_example("staircase").objects["setmap"], [0.1]),
    "linear_1d": (LinearOp([[2.0]]), [0.1]),
    "cone_1d": (NormalConeBox([0.0], [1.0]), [0.0]),
    "polyhedral_1d": (PolyhedralGraph([([[2.0, 1.0], [-2.0, -1.0]], [0.1, 0.1])], 1, 1), [0.0]),
    "cone_sum": (SumMap(SingleValued(lambda x: 2.0 * arr(x)), NormalConeBox([-0.5], [0.5])), [0.2]),
    "cone_sum_jump": (SumMap(SingleValued(_drop), NormalConeBox([-1.0], [1.0])), [0.1]),
    "sum_remark": (SumMap(_remark(0), _remark(1)), [0.0]),
    "inverse_1d": (InverseView(LinearOp([[2.0]])), [0.3]),
    "linear_2d": (LinearOp([[1.0, 2.0], [0.0, 1.0]]), [0.1, -0.2]),
    "singular_2d": (LinearOp([[1.0, 2.0], [2.0, 4.0]]), [0.1, 0.1]),
    "single_2d": (build_setmap({"kind": "single", "expr": ["x1+0.2*sin(x2)", "x2-0.1*x1**2"], "n": 2, "m": 2}),
                  [0.0, 0.1]),
    "epigraph_2d": (Epigraph(lambda x: (arr(x) ** 2).sum(axis=-1) - 0.2, 2), [0.1, -0.1]),
    "cone_2d": (NormalConeBox([0.0, 0.0], [1.0, 1.0]), [0.0, 0.5]),
    "polyhedral_2d": (PolyhedralGraph([([[1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]], [0.0, 0.0]),
                                       ([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]], [0.0, 0.0, 0.0])],
                                      2, 1), [0.2, 0.1]),
    "inverse_2d": (InverseView(LinearOp([[2.0, 0.5], [0.0, 1.0]])), [0.3, -0.1]),
}

_OFFSET = st.one_of(st.sampled_from([0.0, 0.05, -0.3]), st.floats(-0.6, 0.6))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    name=st.sampled_from(sorted(_ORACLE_MAPS)),
    data=st.data(),
    count=st.integers(1, 4),
    radius=st.sampled_from([0.05, 0.4, 1.0]),
    norm=st.sampled_from(["euclidean", "max"]),
)
def test_every_answer_is_a_preimage_at_its_distance(name, data, count, radius, norm):
    F, x = _ORACLE_MAPS[name]
    x = arr(x)

    def near(scale):
        return x + scale * arr(data.draw(st.lists(_OFFSET, min_size=F.n, max_size=F.n)))

    x0 = near(1.0)
    # targets: the members of F(x') nearest a drawn point, for x' near x, or
    # the drawn point where F(x') is empty; then shifted by 0 or a little
    ys = []
    for _ in range(count):
        guess = arr(data.draw(st.lists(_OFFSET, min_size=F.m, max_size=F.m)))
        member, _ = F.value_set(near(0.5)).nearest(guess, norm)
        shift = arr(data.draw(st.lists(st.sampled_from([0.0, 0.0, 1e-3, -0.2, 0.05]), min_size=F.m, max_size=F.m)))
        ys.append((guess if member is None else member) + shift)
    assume(all(np.isfinite(y).all() for y in ys))
    region = Ball(x + 0.1, radius)
    with pytest.MonkeyPatch.context() as mp:
        grid = _count_grid_searches(mp)
        got = preimage_search_many(x0, F, ys, region, norm=norm)
    span = _grid_axes(region.center, radius, 401)[[0, -1], 0] if F.n == 1 else None
    for y, found in zip(ys, got):
        d, p = found
        assert (p is None) == (d == INF)
        if p is None:
            continue
        assert d == vec_dist(p, x0, norm)
        assert dist_to_value_set(y, F, p, norm) <= TOL_FEAS
        closed = F.analytic_preimage(x0, arr(y), norm, TOL_FEAS) is not None
        if span is not None and not closed and not any(found is g for g in grid):
            # a 1D path: its answers lie in the region; the grid stage may leave it
            assert span[0] <= p[0] <= span[1]
