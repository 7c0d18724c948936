import itertools
import warnings

import numpy as np
import pytest

from reglab import newton
from reglab.corpus import load_example
from reglab.newton import (
    ClarkeSampleJacobian,
    CoveredMatrixFamily,
    ExactJacobian,
    FiniteDifferenceJacobian,
    GEProblem,
    InexactnessModel,
    IterationTrace,
    SubproblemInfeasible,
    SubproblemSolution,
    _box_patterns,
    _inclusion_gap,
    _solve_box_vi,
    check_newton_assumptions,
    clarke_sample,
    detect_convergence_radius,
    finite_difference_jacobian,
    measure_noncompactness,
    rate_report,
    run_newton,
    solve_subproblem,
)
from reglab.setmaps import FiniteValued, NormalConeBox, SingleValued

arr = lambda x: np.asarray(x, dtype=float)


def abs_map():
    return SingleValued(lambda x: np.abs(arr(x)))


# ---------------------------------------------------------------------------
# derivative oracles


def test_clarke_sample_abs_both_slopes():
    mats = clarke_sample(abs_map(), [0.0], radius=1e-3)
    vals = sorted(float(M[0, 0]) for M in mats)
    assert vals == [pytest.approx(-1.0, abs=1e-6), pytest.approx(1.0, abs=1e-6)]


def test_clarke_sample_smooth_concentrates_at_derivative():
    f = SingleValued(lambda x: np.sin(arr(x)))
    mats = clarke_sample(f, [0.5], radius=1e-5)
    for M in mats:
        assert float(M[0, 0]) == pytest.approx(np.cos(0.5), abs=1e-4)


def test_clarke_sample_affine_is_singleton():
    f = SingleValued(lambda x: 3.0 * arr(x) + 1.0)
    mats = clarke_sample(f, [0.2], radius=1e-3)
    assert len(mats) == 1
    assert float(mats[0][0, 0]) == pytest.approx(3.0, abs=1e-9)


def test_finite_difference_jacobian_2d():
    f = SingleValued(lambda x: np.array([x[0] ** 2 + x[1], 3.0 * x[1]]), 2, 2, vectorized=False)
    J = finite_difference_jacobian(f, [1.0, 2.0])
    assert np.allclose(J, [[2.0, 1.0], [0.0, 3.0]], atol=1e-6)


SMOOTH2D_POINTS = ([0.3, 0.7], [0.0, 0.5], [0.9, 0.1])


def test_finite_difference_oracle_matches_exact_jacobian():
    entry = load_example("smooth2d_boxvi")
    exact, fd = entry.objects["H"], FiniteDifferenceJacobian(entry.objects["problem"].f)
    for x in SMOOTH2D_POINTS:
        (J,), (K,) = exact.candidates(x), fd.candidates(x)
        assert np.abs(J - K).max() <= 1e-6


def test_newton_with_each_jacobian_oracle_reaches_the_same_solution():
    entry = load_example("smooth2d_boxvi")
    prob = entry.objects["problem"]
    oracles = (entry.objects["H"], FiniteDifferenceJacobian(prob.f), ClarkeSampleJacobian(prob.f))
    traces = [run_newton(prob, H, x0=entry.objects["x0"]) for H in oracles]
    assert [tr.termination for tr in traces] == ["converged"] * 3
    finals = [tr.records[-1].x for tr in traces]
    for x in finals[1:]:
        assert np.abs(x - finals[0]).max() <= 1e-8


def test_measure_noncompactness():
    assert measure_noncompactness([np.eye(2), 2 * np.eye(2)]) == 0.0
    assert measure_noncompactness([]) == 0.0
    assert measure_noncompactness(CoveredMatrixFamily((np.eye(2),), 0.05)) == 0.05


# ---------------------------------------------------------------------------
# subproblems


def test_subproblem_affine_newton_one_shot():
    A = np.array([[2.0, 0.0], [0.0, 4.0]])
    f = SingleValued(lambda x: A @ arr(x) - np.array([1.0, 2.0]), 2, 2, vectorized=False)
    prob = GEProblem(f)
    sol = solve_subproblem([3.0, 3.0], A, prob)
    assert np.allclose(sol.u, [0.5, 0.5])


def test_subproblem_box_projection():
    b = np.array([1.4, -0.3, 0.5])
    f = SingleValued(lambda x: arr(x) - b, 3, 3, vectorized=False)
    prob = GEProblem(f, NormalConeBox([0, 0, 0], [1, 1, 1]))
    sol = solve_subproblem([0.2, 0.2, 0.2], np.eye(3), prob)
    assert np.allclose(sol.u, [1.0, 0.0, 0.5])
    assert sol.pattern == "HLF"


def test_subproblem_abs_step():
    prob = GEProblem(abs_map())
    sol = solve_subproblem([0.3], [[1.0]], prob)
    assert sol.u[0] == pytest.approx(0.0)


def test_subproblem_complementarity_is_exact():
    b = np.array([2.0, -1.0])
    f = SingleValued(lambda x: arr(x) - b, 2, 2, vectorized=False)
    box = NormalConeBox([0, 0], [1, 1])
    prob = GEProblem(f, box)
    sol = solve_subproblem([0.5, 0.5], np.eye(2), prob)
    # active coordinates sit exactly on their bounds; free residuals vanish
    assert sol.u[0] == 1.0 and sol.u[1] == 0.0
    assert sol.linear_residual <= 1e-10


def test_subproblem_finite_branch():
    F = FiniteValued([lambda x: 0.0 * arr(x) - 1.0, lambda x: 0.0 * arr(x) + 1.0])
    f = SingleValued(lambda x: arr(x))
    prob = GEProblem(f, F)  # x + {-1, 1} contains 0 at x = 1 or x = -1
    sol = solve_subproblem([0.8], [[1.0]], prob)
    assert sol.u[0] == pytest.approx(1.0)


def test_subproblem_single_valued_constraint_is_a_one_branch_map():
    # a single-valued F is a finite map with one branch: 0 in x + 0.5
    prob = GEProblem(SingleValued(lambda x: arr(x)), SingleValued(lambda x: 0.0 * arr(x) + 0.5))
    sol = solve_subproblem([0.3], [[1.0]], prob)
    assert sol.u[0] == -0.5 and sol.pattern == "branch0"


def test_subproblem_infeasible_reported():
    f = SingleValued(lambda x: arr(x) + 5.0)
    box = NormalConeBox([0.0], [1.0])
    prob = GEProblem(f, box)
    # f > 0 on the box and the lower-bound pattern solves it; force failure
    # with an incompatible matrix that pushes the solve outside every pattern
    with pytest.raises(SubproblemInfeasible):
        solve_subproblem([0.5], [[0.0]], GEProblem(SingleValued(lambda x: 0.0 * arr(x) + 1.0)))


def _unit_box_problem():
    b = np.array([0.4, 1.3])
    return GEProblem(SingleValued(lambda x: arr(x) - b, 2, 2, vectorized=False), NormalConeBox([0, 0], [1, 1]))


@pytest.mark.parametrize(
    "A_k", [[[np.nan, 0.0], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]], np.eye(3), [[1.0, 0.0]]],
    ids=["nan", "inf", "3x3", "1x2"],
)
def test_subproblem_rejects_a_bad_matrix(A_k):
    with pytest.raises(SubproblemInfeasible, match="A_k is not a finite 2x2 matrix"):
        solve_subproblem([0.2, 0.3], A_k, _unit_box_problem())


def test_subproblem_rejects_a_non_finite_residual():
    f = SingleValued(lambda x: arr(x) + np.nan, 1, 1, vectorized=False)
    prob = GEProblem(f, NormalConeBox([0.0], [1.0]))
    with pytest.raises(SubproblemInfeasible, match="f\\(x_k\\)"):
        solve_subproblem([0.2], [[1.0]], prob)


def test_nan_jacobian_ends_the_run_with_a_reason():
    trace = run_newton(_unit_box_problem(), ExactJacobian(lambda x: [[np.nan, 0.0], [0.0, 1.0]]), x0=[0.2, 0.3])
    assert trace.termination == "subproblem_failed: A_k is not a finite 2x2 matrix"
    assert len(trace.records) == 1


def test_newton_solves_a_complementarity_problem():
    # x >= 0, A x + q >= 0, x . (A x + q) = 0, stated as a box VI with hi = +inf
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    q = np.array([-1.0, 1.0])
    f = SingleValued(lambda x: A @ arr(x) + q, 2, 2, vectorized=False)
    prob = GEProblem(f, NormalConeBox([0.0, 0.0], [np.inf, np.inf]))
    trace = run_newton(prob, ExactJacobian(lambda x: A), x0=[1.0, 1.0])
    x = np.ones(2)
    for _ in range(2000):  # projected fixed point x = max(0, x - (A x + q) / 4)
        x = np.maximum(0.0, x - 0.25 * (A @ x + q))
    assert trace.termination == "converged"
    np.testing.assert_allclose(trace.records[-1].x, x, atol=1e-12)
    assert trace.records[-1].x[1] == 0.0


# ---------------------------------------------------------------------------
# box-VI solver: the stacked enumeration against the pattern-by-pattern loop


def _reference_solve_box_vi(x_k, A_k, fx, box: NormalConeBox) -> SubproblemSolution:
    """The one-pattern-at-a-time enumeration that the stacked solver must
    reproduce bit for bit (kept verbatim as the oracle)."""
    n = box.n
    if n > 8:
        raise SubproblemInfeasible("active-set enumeration supports n <= 8")
    q = fx - A_k @ x_k  # residual of the affine part at u: q + A_k u
    scale = max(1.0, float(np.abs(q).max()), float(np.abs(A_k).max()))
    feasible: list[tuple] = []
    for pattern in itertools.product((0, 1, 2), repeat=n):  # 0: lower, 1: free, 2: upper
        fixed = np.zeros(n)
        free = [i for i, p in enumerate(pattern) if p == 1]
        ok = True
        for i, p in enumerate(pattern):
            if p == 0:
                fixed[i] = box.lo[i]
            elif p == 2:
                fixed[i] = box.hi[i]
            if p != 1 and not np.isfinite(fixed[i]):
                ok = False
        if not ok:
            continue
        u = fixed.copy()
        if free:
            Aff = A_k[np.ix_(free, free)]
            others = [i for i in range(n) if i not in free]
            rhs = -(q[free] + (A_k[np.ix_(free, others)] @ fixed[others] if others else 0.0))
            try:
                u_free = np.linalg.solve(Aff, rhs)
            except np.linalg.LinAlgError:
                continue
            u[free] = u_free
            if np.any(u_free < box.lo[free] - 1e-12) or np.any(u_free > box.hi[free] + 1e-12):
                continue
        w = -(q + A_k @ u)  # must lie in the normal cone at u
        ok = True
        for i, p in enumerate(pattern):
            if p == 0 and w[i] > 1e-10 * scale:
                ok = False
            elif p == 2 and w[i] < -1e-10 * scale:
                ok = False
            elif p == 1 and abs(w[i]) > 1e-10 * scale:
                ok = False
        if ok:
            feasible.append((float(np.linalg.norm(u - x_k)), pattern, u, float(np.abs(w[free]).max() if free else 0.0)))
    if not feasible:
        raise SubproblemInfeasible("no bound pattern is feasible")
    feasible.sort(key=lambda rec: (rec[0], rec[1]))
    dist, pattern, u, lin_res = feasible[0]
    tag = "".join("LFH"[p] for p in pattern)
    return SubproblemSolution(u, tag, lin_res, 0.0, free=[i for i, p in enumerate(pattern) if p == 1])


def _random_box_vi(rng, kind):
    n = int(rng.integers(1, 7)) if rng.random() < 0.98 else int(rng.integers(7, 9))  # a few n = 7, 8
    M = rng.normal(size=(n, n))
    if kind == "spd":
        A = M @ M.T + 0.1 * np.eye(n)
    elif kind == "nonsymmetric":
        A = M
    else:  # integer entries and a zero diagonal entry: some principal blocks are singular
        A = np.round(M)
        A[rng.integers(n), rng.integers(n)] = 0.0
        j = rng.integers(n)
        A[j, j] = 0.0
    if rng.random() < 0.05:  # NaN distances: the choice falls to enumeration order
        A[rng.integers(n), rng.integers(n)] = np.nan
    if rng.random() < 0.2:
        lo, hi = np.zeros(n), np.ones(n)
    else:
        lo = np.round(rng.uniform(-2.0, 0.5, n), 2)
        hi = lo + np.round(rng.uniform(0.0, 2.0, n), 2)
    box = NormalConeBox(lo, hi)
    if rng.random() < 0.3:
        # the constructor takes finite bounds only; the solver still skips a
        # pattern that fixes a coordinate on an infinite bound
        i = rng.integers(n)
        if rng.random() < 0.5:
            box.lo[i] = -np.inf
        else:
            box.hi[i] = np.inf
    if rng.random() < 0.1:  # q = -0.0: the sign of a zero right-hand side reaches u
        return np.zeros(n), A, np.full(n, -0.0), box
    return rng.normal(size=n), A, rng.normal(size=n), box


def _outcome(solver, *args):
    """A solver's answer bit for bit, or the type of what it raised, with
    every warning it emitted on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            sol = solver(*args)
            result = sol.u.tobytes(), sol.pattern, np.float64(sol.linear_residual).tobytes(), sol.free
        except Exception as exc:  # the two solvers must fail alike
            result = type(exc)
    return result, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("kind", ["spd", "nonsymmetric", "singular"])
def test_stacked_box_vi_solver_is_bit_identical_to_the_pattern_loop(kind):
    rng = np.random.default_rng(["spd", "nonsymmetric", "singular"].index(kind))
    outcomes = []
    for _ in range(110):
        args = _random_box_vi(rng, kind)
        expected = _outcome(_reference_solve_box_vi, *args)
        assert _outcome(_solve_box_vi, *args) == expected
        outcomes.append(expected)
    assert sum(result is not SubproblemInfeasible for result, _ in outcomes) >= 50
    # no finite bound: every stack but the all-free one is empty
    x, A, fx, box = _random_box_vi(rng, kind)
    box.lo[:], box.hi[:] = -np.inf, np.inf
    assert _outcome(_solve_box_vi, x, A, fx, box) == _outcome(_reference_solve_box_vi, x, A, fx, box)


@pytest.mark.parametrize("n", range(2, 9))
def test_box_vi_solver_is_bit_identical_on_newton_steps(n):
    # the linearized step of f(x) = M x + q + 0.05 sin x on [0, 1]^n, with
    # M = B B^T / n + I, at iterates inside the box
    rng = np.random.default_rng(100 + n)
    box = NormalConeBox(np.zeros(n), np.ones(n))
    for _ in range(3 if n <= 6 else 1):
        B = rng.uniform(-1.0, 1.0, (n, n))
        M, q = B @ B.T / n + np.eye(n), rng.uniform(-1.5, 0.5, n)
        x = rng.uniform(0.0, 1.0, n)
        args = x, M + 0.05 * np.diag(np.cos(x)), M @ x + q + 0.05 * np.sin(x), box
        expected = _outcome(_reference_solve_box_vi, *args)
        assert expected[0] is not SubproblemInfeasible
        assert _outcome(_solve_box_vi, *args) == expected


def test_box_pattern_table_and_size_limit():
    for n in range(1, 9):
        T = _box_patterns(n)
        every = list(itertools.product((0, 1, 2), repeat=n))
        patterns = list(map(tuple, T.patterns.tolist()))
        assert patterns == sorted(every, key=lambda p: p.count(1))  # grouped by free count, product order within
        free_counts = [p.count(1) for p in patterns]
        P = T.patterns.astype(int)
        cols = np.arange(n)
        assert (T.code == np.where(P == 0, cols, np.where(P == 2, n + cols, 2 * n))).all()
        assert (T.lower_or_free == (P != 2)).all() and (T.upper_or_free == (P != 0)).all()
        assert [rows.tolist() for rows, *_ in T.groups] == [
            [r for r, c in enumerate(free_counts) if c == nf] for nf in range(1, n + 1)]
        for nf, (rows, fidx, ff, fo, ocode, scatter) in enumerate(T.groups, start=1):
            for r, f, aff, afo, oc, sc in zip(rows.tolist(), fidx.tolist(), ff.tolist(), fo.tolist(),
                                               ocode.tolist(), scatter.tolist()):
                o = [i for i in range(n) if patterns[r][i] != 1]
                assert f == [i for i in range(n) if patterns[r][i] == 1] and len(f) == nf
                assert aff == [[i * n + j for j in f] for i in f] and afo == [[i * n + j for j in o] for i in f]
                assert oc == T.code[r, o].tolist() and sc == [r * n + i for i in f]
        arrays = [T.patterns, T.code, T.lower_or_free, T.upper_or_free, *itertools.chain(*T.groups)]
        assert not any(a.flags.writeable for a in arrays)
        assert _box_patterns(n) is T  # built once per n
    box = NormalConeBox(np.zeros(9), np.ones(9))
    with pytest.raises(SubproblemInfeasible):
        _solve_box_vi(np.zeros(9), np.eye(9), np.zeros(9), box)


# ---------------------------------------------------------------------------
# runs and rates


def test_abs_newton_one_iteration_each_start():
    entry = load_example("abs_newton")
    prob, H = entry.objects["problem"], entry.objects["H"]
    for x0 in entry.objects["starts"]:
        tr = run_newton(prob, H, x0=[x0])
        assert tr.termination == "converged"
        assert tr.iterations == 1
        assert tr.records[-1].x[0] == 0.0


def test_quadratic_newton_superlinear():
    f = SingleValued(lambda x: arr(x) ** 2 - 1.0)
    prob = GEProblem(f, None, known_solution=[1.0])
    tr = run_newton(prob, ExactJacobian(lambda x: [[2.0 * float(x[0])]]), x0=[2.0])
    xs = [round(float(r.x[0]), 6) for r in tr.records[:4]]
    assert xs == [2.0, 1.25, 1.025, 1.000305]
    rep = rate_report(tr)
    assert rep.superlinear and not rep.used_residuals


def test_rate_report_synthetic_geometric():
    recs = []
    from reglab.newton import IterationRecord

    for k in range(8):
        recs.append(IterationRecord(k, np.array([0.5**k]), 0.5**k))
    tr = IterationTrace(recs, "converged", "first", 42, 0.0, False, np.array([0.0]))
    rep = rate_report(tr)
    assert rep.t_hat == pytest.approx(0.5)
    assert not rep.superlinear


def test_rate_report_residual_fallback():
    f = SingleValued(lambda x: arr(x) ** 2 - 1.0)
    prob = GEProblem(f)
    tr = run_newton(prob, ExactJacobian(lambda x: [[2.0 * float(x[0])]]), x0=[2.0])
    rep = rate_report(tr)
    assert rep.used_residuals


def test_inclusion_test_replayable_from_trace():
    from reglab.newton import _inclusion_gap

    entry = load_example("smooth2d_boxvi")
    prob, H = entry.objects["problem"], entry.objects["H"]
    R = InexactnessModel(0.3, adversarial=True)
    tr = run_newton(prob, H, R, x0=entry.objects["x0"], max_iter=20)
    assert tr.termination == "converged"
    for prev, rec in zip(tr.records, tr.records[1:]):
        gap = _inclusion_gap(prob, prev.x, rec.A, rec.x, R)
        assert gap <= 1e-8


def test_inexactness_monotonicity():
    entry = load_example("smooth2d_boxvi")
    prob, H, x0 = entry.objects["problem"], entry.objects["H"], entry.objects["x0"]
    t_hats = {}
    for eta in (0.0, 0.1, 0.3):
        tr = run_newton(prob, H, InexactnessModel(eta, adversarial=eta > 0), x0=x0, max_iter=30)
        t_hats[eta] = rate_report(tr).t_hat
    assert t_hats[0.3] >= t_hats[0.1] - 1e-6
    assert t_hats[0.1] >= t_hats[0.0] - 1e-6
    assert t_hats[0.3] <= 0.5


def test_adversarial_budget_actually_spent():
    entry = load_example("smooth2d_boxvi")
    prob, H, x0 = entry.objects["problem"], entry.objects["H"], entry.objects["x0"]
    tr = run_newton(prob, H, InexactnessModel(0.3, adversarial=True), x0=x0, max_iter=30)
    assert any(r.perturbation_norm > 0 for r in tr.records[1:])


def _newton_steps(R):
    """(problem, x_k, A_k) of every step of Newton runs on a box VI, the
    finite-branch inclusion and the smooth equation x^2 = 1."""
    entry = load_example("smooth2d_boxvi")
    runs = [(entry.objects["problem"], entry.objects["H"], entry.objects["x0"])]
    F = FiniteValued([lambda x: 0.0 * arr(x) - 1.0, lambda x: 0.0 * arr(x) + 1.0])
    runs.append((GEProblem(SingleValued(lambda x: arr(x) ** 3), F), ExactJacobian(lambda x: [[3.0 * float(x[0]) ** 2]]),
                 [0.8]))
    runs.append((GEProblem(SingleValued(lambda x: arr(x) ** 2 - 1.0)), ExactJacobian(lambda x: [[2.0 * float(x[0])]]),
                 [2.0]))
    for prob, H, x0 in runs:
        tr = run_newton(prob, H, R, x0=x0, max_iter=20)
        yield from ((prob, prev.x, rec.A) for prev, rec in zip(tr.records, tr.records[1:]))


@pytest.mark.parametrize("R", [InexactnessModel(0.3, adversarial=True), InexactnessModel(0.1, adversarial=True),
                               InexactnessModel(0.3)], ids=["adversarial_0.3", "adversarial_0.1", "plain"])
def test_inclusion_gap_is_the_gap_of_the_returned_step_bitwise(R):
    steps = list(_newton_steps(R))
    assert len(steps) >= 5
    for k, (prob, x_k, A_k) in enumerate(steps):
        sol = solve_subproblem(x_k, A_k, prob, R, seed=k)
        assert float(sol.inclusion_gap).hex() == float(_inclusion_gap(prob, x_k, A_k, sol.u, R)).hex()


def test_subproblem_computes_the_gap_of_each_step_once(monkeypatch):
    # an accepted perturbation's gap is the solution's gap: one call per
    # tried step, where the accepted one used to be tested twice
    calls = []
    gap = newton._inclusion_gap

    def counted(problem, x_k, A_k, u, R):
        calls.append(np.asarray(u).tobytes())
        return gap(problem, x_k, A_k, u, R)

    monkeypatch.setattr(newton, "_inclusion_gap", counted)
    for R in (InexactnessModel(0.3, adversarial=True), InexactnessModel(0.3)):
        perturbed = 0
        for k, (prob, x_k, A_k) in enumerate(list(_newton_steps(R))):
            calls.clear()
            sol = solve_subproblem(x_k, A_k, prob, R, seed=k)
            assert len(calls) == len(set(calls)) and calls[-1] == sol.u.tobytes()
            perturbed += sol.perturbation_norm > 0
            if sol.perturbation_norm == 0:
                assert len(calls) == 1 or R.adversarial
        assert perturbed > 0 if R.adversarial else perturbed == 0


def test_assumptions_and_radius_consistency():
    entry = load_example("smooth2d_boxvi")
    prob, H = entry.objects["problem"], entry.objects["H"]
    R = InexactnessModel(0.3)
    rep = check_newton_assumptions(prob, H, R, [0.0, 0.5])
    assert rep.passed and rep.chi == 0.0 and rep.ell == 0.3
    assert rep.sur_per_matrix == [pytest.approx(1.2)]
    assert rep.margin >= 0.1
    r = detect_convergence_radius(prob, H, R, [0.0, 0.5], r_max=0.3, bisections=4)
    tr = run_newton(prob, H, R, x0=np.array([0.0, 0.5]) + r * np.array([1.0, 0.0]) / np.sqrt(1.0), max_iter=30)
    assert rate_report(tr).t_hat < 1.0


def test_assumptions_abs_example():
    entry = load_example("abs_newton")
    prob, H = entry.objects["problem"], entry.objects["H"]
    rep = check_newton_assumptions(prob, H, InexactnessModel(0.0), [0.0])
    assert rep.sur_per_matrix == [1.0, 1.0]
    assert rep.sur_exact
    assert rep.linearization_gap_last <= 0.01
    assert rep.passed


def test_ball_model_truncation_bound_is_exact():
    # R(x,u) subset R(x,u') + eta*||u-u'|| ball: radii arithmetic
    R = InexactnessModel(0.3)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, u, up = rng.normal(size=3)
        lhs = R.radius([x], [u])
        rhs = R.radius([x], [up]) + R.eta * abs(u - up)
        assert lhs <= rhs + 1e-12


def test_trace_serialization(tmp_path):
    entry = load_example("abs_newton")
    tr = run_newton(entry.objects["problem"], entry.objects["H"], x0=[0.3])
    csv_path = tmp_path / "trace.csv"
    json_path = tmp_path / "trace.json"
    tr.write_csv(csv_path)
    tr.write_json(json_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("k,x1,residual")
    assert len(lines) == 1 + len(tr.records)
    import json

    data = json.loads(json_path.read_text())
    assert data["termination"] == "converged"
    assert len(data["records"]) == 2


def test_trace_json_is_strict_with_an_infinite_residual(tmp_path):
    # x0 outside the box: the residual of record 0 is +inf
    entry = load_example("smooth2d_boxvi")
    tr = run_newton(entry.objects["problem"], entry.objects["H"], x0=[1.5, 0.7])
    assert tr.records[0].residual == np.inf
    path = tmp_path / "trace.json"
    tr.write_json(path)

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    import json

    data = json.loads(path.read_text(), parse_constant=reject)
    assert data["records"][0]["residual"] == "inf"
