"""Inexact Newton-type iteration for generalized equations f(x) + F(x) ∋ 0.

Each step picks a matrix A_k from a generalized set-valued derivative H at
the current iterate, solves the partially linearized inclusion

    (f(x_k) + A_k(x_{k+1} - x_k) + F(x_{k+1})) ∩ R_k(x_k, x_{k+1}) ≠ ∅,

and accepts the iterate only if that intersection test holds within
tolerance.  R_k is the inexactness budget: the ball model permits residuals
up to eta * ||x_{k+1} - x_k||; an optional adversarial switch actually
spends (most of) that budget so convergence-rate claims are exercised, not
just permitted.

Subproblems are solved exactly: least-norm linear solves for F = 0, full
active-set enumeration over the 3^n bound patterns for box variational
inequalities (n <= 8), and branch enumeration for finitely-valued F.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import TOL_FEAS, GraphPoint, JsonReport, as_vector
from .moduli import LiminfSchedule, estimate_modulus, linear_moduli
from .rng import SplitMix64, derive_seed, shell_points
from .setmaps import (
    INF,
    FiniteValued,
    NormalConeBox,
    SetMap,
    SingleValued,
    SumMap,
    _bisect_threshold,
    dist_to_value_set,
)

#: acceptance tolerance for the subproblem inclusion test
INCLUSION_TOL = 1e-8


# ---------------------------------------------------------------------------
# problem statement


@dataclass
class GEProblem:
    """Generalized equation: find x with f(x) + F(x) ∋ 0 (F None means ≡ 0)."""

    f: SingleValued
    F: SetMap | None = None
    known_solution: np.ndarray | None = None

    def __post_init__(self):
        if self.F is not None and (self.F.n != self.f.n or self.F.m != self.f.m):
            raise ValueError("f and F need matching dimensions")
        if self.known_solution is not None:
            self.known_solution = as_vector(self.known_solution, self.f.n)
            if self.residual(self.known_solution) > TOL_FEAS:
                raise ValueError("declared solution does not satisfy the inclusion")

    @property
    def n(self) -> int:
        return self.f.n

    @property
    def m(self) -> int:
        return self.f.m

    def total_map(self) -> SetMap:
        return self.f if self.F is None else SumMap(self.f, self.F)

    def residual(self, x) -> float:
        x = as_vector(x, self.n)
        if self.F is None:
            return float(np.linalg.norm(self.f(x)))
        return dist_to_value_set(np.zeros(self.m), self.total_map(), x)


# ---------------------------------------------------------------------------
# derivative oracles


class DerivativeOracle:
    """A set of candidate linearization matrices at each point."""

    def candidates(self, x) -> list[np.ndarray]:
        raise NotImplementedError


class ExactJacobian(DerivativeOracle):
    def __init__(self, jac):
        self.jac = jac

    def candidates(self, x):
        return [np.atleast_2d(np.asarray(self.jac(as_vector(x)), dtype=float))]


class FiniteDifferenceJacobian(DerivativeOracle):
    """Central differences with step h."""

    def __init__(self, f: SingleValued, h: float = 1e-6):
        self.f = f
        self.h = h

    def candidates(self, x):
        return [finite_difference_jacobian(self.f, x, self.h)]


class ClarkeSampleJacobian(DerivativeOracle):
    """Finite-difference Jacobians sampled in a small ball (generalized
    Jacobian surrogate at nonsmooth points)."""

    def __init__(self, f: SingleValued, radius: float = 1e-4, count: int = 16, seed: int = 42, h: float = 1e-6):
        self.f = f
        self.radius = radius
        self.count = count
        self.seed = seed
        self.h = h

    def candidates(self, x):
        return clarke_sample(self.f, x, self.radius, self.count, self.seed, self.h)


class PiecewiseJacobian(DerivativeOracle):
    """Explicit smooth pieces plus an active-piece selector."""

    def __init__(self, pieces, selector):
        self.pieces = list(pieces)
        self.selector = selector

    def candidates(self, x):
        idx = self.selector(as_vector(x))
        return [np.atleast_2d(np.asarray(self.pieces[i](as_vector(x)), dtype=float)) for i in idx]


def finite_difference_jacobian(f: SingleValued, x, h: float = 1e-6) -> np.ndarray:
    x = as_vector(x, f.n)
    cols = []
    for j in range(f.n):
        e = np.zeros(f.n)
        e[j] = h
        cols.append((f(x + e) - f(x - e)) / (2 * h))
    return np.stack(cols, axis=1)


def clarke_sample(f: SingleValued, x, radius: float = 1e-4, count: int = 16, seed: int = 42, h: float = 1e-6) -> list[np.ndarray]:
    """Deduplicated finite-difference Jacobians at seeded points in B(x, radius).

    Points come in antithetic pairs so one-sided structures (kinks) are seen
    from both sides.
    """
    x = as_vector(x, f.n)
    rng = SplitMix64(derive_seed(seed, "clarke"))
    mats = []
    for _ in range(max(1, count // 2)):
        delta = rng.in_ball(np.zeros(f.n), radius)
        for p in (x + delta, x - delta):
            mats.append(finite_difference_jacobian(f, p, h))
    out: list[np.ndarray] = []
    for M in mats:
        if not any(np.abs(M - K).max() <= 1e-9 for K in out):
            out.append(M)
    return out


@dataclass(frozen=True)
class CoveredMatrixFamily:
    """An infinite family declared as finite matrices plus a cover radius."""

    matrices: tuple
    cover_radius: float


def measure_noncompactness(family) -> float:
    """0 for finite matrix collections; the declared radius for covered sets."""
    if isinstance(family, CoveredMatrixFamily):
        return float(family.cover_radius)
    return 0.0


# ---------------------------------------------------------------------------
# inexactness models


@dataclass(frozen=True)
class InexactnessModel:
    """R_k(x, u) = ball of radius eta*||u - x|| around 0 (eta = 0: exact)."""

    eta: float = 0.0
    adversarial: bool = False

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")

    def radius(self, x, u) -> float:
        return self.eta * float(np.linalg.norm(np.asarray(u, dtype=float) - np.asarray(x, dtype=float)))


# ---------------------------------------------------------------------------
# subproblem solver


@dataclass
class SubproblemSolution:
    u: np.ndarray
    pattern: str
    linear_residual: float
    inclusion_gap: float
    perturbation_norm: float = 0.0
    #: free coordinates of a box-VI solution; None for the other solvers
    free: list[int] | None = None


class SubproblemInfeasible(RuntimeError):
    pass


def _inclusion_gap(problem: GEProblem, x_k, A_k, u, R: InexactnessModel) -> float:
    """dist(0, f(x_k)+A_k(u-x_k)+F(u)) minus the permitted budget, clipped at 0."""
    base = problem.f(x_k) + A_k @ (u - x_k)
    if problem.F is None:
        d = float(np.linalg.norm(base))
    else:
        vs = problem.F.value_set(u)
        d = vs.translate(base).dist(np.zeros(problem.m)) if not vs.is_empty() else INF
    return max(0.0, d - R.radius(x_k, u))


def solve_subproblem(
    x_k,
    A_k,
    problem: GEProblem,
    R: InexactnessModel | None = None,
    tol: float = INCLUSION_TOL,
    seed: int = 42,
) -> SubproblemSolution:
    """Solve the partially linearized inclusion at x_k exactly, then
    optionally spend the inexactness budget (adversarial mode).

    F = 0: least-norm solve.  F = NormalConeBox: enumeration of the 3^n
    lower/upper/free patterns (n <= 8), feasibility- and
    complementarity-checked; ties broken by distance to x_k then
    lexicographic pattern.  The enumeration is table-driven: gather and
    scatter indices for every pattern are built once per n
    (``_box_patterns``).  A call drops the patterns that fix a coordinate
    on an infinite bound, solves each free-set size's reduced systems as
    one stack of single-column solves, with the same arithmetic as one
    solve per pattern, so results are bit-identical to it, and tests the
    normal cone once over the surviving patterns of all sizes; a stack
    holding a singular block falls back to one solve per pattern and skips
    the singular ones.  F finitely valued (constant branches), a
    single-valued F included: branch enumeration.  An A_k that is not a
    finite m x n matrix, or an f(x_k) that is not a finite vector, raises
    SubproblemInfeasible.
    """
    R = R or InexactnessModel()
    x_k = as_vector(x_k, problem.n)
    A_k = np.atleast_2d(np.asarray(A_k, dtype=float))
    if A_k.shape != (problem.m, problem.n) or not np.isfinite(A_k).all():
        raise SubproblemInfeasible(f"A_k is not a finite {problem.m}x{problem.n} matrix")
    try:
        fx = problem.f(x_k)
    except ValueError as exc:  # f(x_k) is not a finite m-vector
        raise SubproblemInfeasible(f"f(x_k): {exc}") from exc

    if problem.F is None:
        du, *_ = np.linalg.lstsq(A_k, -fx, rcond=None)
        u = x_k + du
        sol = SubproblemSolution(u, "unconstrained", float(np.linalg.norm(fx + A_k @ du)), 0.0)
    elif isinstance(problem.F, NormalConeBox):
        sol = _solve_box_vi(x_k, A_k, fx, problem.F)
    elif isinstance(problem.F, FiniteValued):
        sol = _solve_finite_branches(x_k, A_k, fx, problem.F, problem)
    else:
        raise SubproblemInfeasible(f"unsupported constraint map {problem.F.describe()}")

    perturbed = _adversarial_perturb(sol, problem, x_k, A_k, R, tol, seed) if R.adversarial and R.eta > 0 else None
    if perturbed is None:
        sol.inclusion_gap = _inclusion_gap(problem, x_k, A_k, sol.u, R)
    else:
        sol = perturbed
    if sol.inclusion_gap > tol:
        raise SubproblemInfeasible(f"inclusion test failed with gap {sol.inclusion_gap:.3g}")
    return sol


class _BoxPatterns(NamedTuple):
    """Gather tables for the 3^n bound patterns of an n-box (0: lower, 1:
    free, 2: upper), built once per n.

    Rows hold the patterns grouped by free count nf = 0..n, each group in
    ``itertools.product`` order.  ``code`` indexes each coordinate's value in
    ``concat(lo, hi, [0.0])``: its bound, or 0 where it is free.  The two
    masks mark where the normal-cone test bounds W from above (lower or
    free) and from below (upper or free).  ``groups`` holds, for each
    nf >= 1: the group's rows, each row's free indices, flat gather indices
    into ``A.ravel()`` of the free×free and free×fixed blocks, the codes of
    the fixed values, and flat scatter indices of the free values into the
    (3^n, n) array of candidate points.  The arrays are shared by every
    call, so they are read-only."""

    patterns: np.ndarray
    code: np.ndarray
    lower_or_free: np.ndarray
    upper_or_free: np.ndarray
    groups: tuple


@functools.lru_cache(maxsize=None)
def _box_patterns(n: int) -> _BoxPatterns:
    every = np.array(list(itertools.product((0, 1, 2), repeat=n)), dtype=np.int8).reshape(-1, n)
    P = every[np.argsort((every == 1).sum(axis=1), kind="stable")]  # grouped by nf, product order within
    nfree = (P == 1).sum(axis=1)
    cols = np.arange(n)
    code = np.where(P == 0, cols, np.where(P == 2, n + cols, 2 * n))
    groups = []
    for nf in range(1, n + 1):
        rows = np.flatnonzero(nfree == nf)
        order = np.argsort(P[rows] != 1, axis=1, kind="stable")  # free first, both parts ascending
        fidx, oidx = order[:, :nf], order[:, nf:]
        groups.append((rows, fidx, fidx[:, :, None] * n + fidx[:, None, :], fidx[:, :, None] * n + oidx[:, None, :],
                       np.take_along_axis(code[rows], oidx, axis=1), rows[:, None] * n + fidx))
    table = _BoxPatterns(P, code, P != 2, P != 0, tuple(groups))
    for a in (P, code, table.lower_or_free, table.upper_or_free, *itertools.chain(*groups)):
        a.setflags(write=False)
    return table


def _solve_box_vi(x_k, A_k, fx, box: NormalConeBox) -> SubproblemSolution:
    n = box.n
    if n > 8:
        raise SubproblemInfeasible("active-set enumeration supports n <= 8")
    q = fx - A_k @ x_k  # residual of the affine part at u: q + A_k u
    scale = max(1.0, float(np.abs(q).max()), float(np.abs(A_k).max()))
    tol = 1e-10 * scale
    T = _box_patterns(n)
    vals = np.concatenate((box.lo, box.hi, [0.0]))
    U = vals[T.code]  # fixed coordinates on their bound, free ones at 0
    alive = np.isfinite(U).all(axis=1)  # no fixed coordinate on an infinite bound
    every_finite = bool(alive.all())
    Aflat, Uflat = A_k.ravel(), U.reshape(-1)
    lo, hi = box.lo - 1e-12, box.hi + 1e-12
    for group in T.groups:
        if not every_finite:  # drop those patterns before any arithmetic
            keep = alive[group[0]]
            group = tuple(a[keep] for a in group)
        rows, fidx, ff, fo, ocode, scatter = group
        # one single-column solve per pattern, stacked; each product is the
        # per-pattern mat-vec, so every bit matches a pattern-by-pattern loop
        Aff = Aflat[ff]
        rhs = -(q[fidx] + (np.matmul(Aflat[fo], vals[ocode][..., None])[..., 0] if ocode.shape[1] else 0.0))
        dead = np.zeros(rows.size, dtype=bool)
        try:
            Uf = np.linalg.solve(Aff, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:  # a singular block skips only its own pattern
            Uf = np.zeros_like(rhs)
            for k in range(rows.size):
                try:
                    Uf[k] = np.linalg.solve(Aff[k], rhs[k])
                except np.linalg.LinAlgError:
                    dead[k] = True
        Uflat[scatter] = Uf
        dead |= ((Uf < lo[fidx]) | (Uf > hi[fidx])).any(axis=1)
        alive[rows[dead]] = False
    rows = np.flatnonzero(alive)
    U = U[rows]
    W = -(q + np.matmul(A_k, U[..., None])[..., 0])  # must lie in the normal cone at u
    good = ~(((W > tol) & T.lower_or_free[rows]) | ((W < -tol) & T.upper_or_free[rows])).any(axis=1)
    feasible: list[tuple] = []
    for p, u, w in zip(T.patterns[rows[good]].tolist(), U[good], W[good]):
        free = [i for i, v in enumerate(p) if v == 1]
        feasible.append((float(np.linalg.norm(u - x_k)), tuple(p), u, float(np.abs(w[free]).max() if free else 0.0)))
    if not feasible:
        raise SubproblemInfeasible("no bound pattern is feasible")
    feasible.sort(key=lambda rec: rec[1])  # enumeration order, which decides ties of NaN distances
    feasible.sort(key=lambda rec: (rec[0], rec[1]))
    _, pattern, u, lin_res = feasible[0]
    tag = "".join("LFH"[p] for p in pattern)
    return SubproblemSolution(u.copy(), tag, lin_res, 0.0, free=[i for i, p in enumerate(pattern) if p == 1])


def _solve_finite_branches(x_k, A_k, fx, F: FiniteValued, problem: GEProblem) -> SubproblemSolution:
    candidates = []
    for bi, branch in enumerate(F.branches):
        # solve assuming the branch value at the solution; iterate once for
        # mildly state-dependent branches, then verify membership
        u = x_k.copy()
        for _ in range(8):
            w = as_vector(branch(u), F.m)
            du, *_ = np.linalg.lstsq(A_k, -(fx + w), rcond=None)
            u_next = x_k + du
            if np.linalg.norm(u_next - u) <= 1e-14:
                u = u_next
                break
            u = u_next
        w = as_vector(branch(u), F.m)
        resid = float(np.linalg.norm(fx + A_k @ (u - x_k) + w))
        if resid <= 1e-9 and dist_to_value_set(w, F, u) <= TOL_FEAS:
            candidates.append((float(np.linalg.norm(u - x_k)), bi, u, resid))
    if not candidates:
        raise SubproblemInfeasible("no branch admits a solution")
    candidates.sort(key=lambda rec: (rec[0], rec[1]))
    _, bi, u, resid = candidates[0]
    return SubproblemSolution(u, f"branch{bi}", resid, 0.0)


def _adversarial_perturb(sol, problem, x_k, A_k, R, tol, seed):
    """Spend 0.9 of the inexactness budget, halving until the inclusion holds:
    the perturbed solution with the gap it was accepted at, or None where
    there is no step to scale or the inclusion never holds."""
    step = float(np.linalg.norm(sol.u - x_k))
    if step <= 1e-15:
        return None
    rng = SplitMix64(derive_seed(seed, "adversarial"))
    if sol.free is not None:
        if not sol.free:
            return None
        direction = np.zeros(problem.n)
        for i in sol.free:
            direction[i] = rng.uniform(-1.0, 1.0)
    else:
        direction = rng.uniform_vector(problem.n)
    nd = float(np.linalg.norm(direction))
    if nd <= 1e-15:
        return None
    direction /= nd
    delta = 0.9 * R.eta * step * direction
    for _ in range(40):
        u = sol.u + delta
        if (gap := _inclusion_gap(problem, x_k, A_k, u, R)) <= tol:
            return SubproblemSolution(u, sol.pattern, sol.linear_residual, gap, float(np.linalg.norm(delta)))
        delta *= 0.5
    return None


# ---------------------------------------------------------------------------
# the iteration


@dataclass
class IterationRecord:
    k: int
    x: np.ndarray
    residual: float
    A: np.ndarray | None = None
    step_norm: float = 0.0
    pattern: str = ""
    subproblem_residual: float = 0.0
    inexact_budget: float = 0.0
    perturbation_norm: float = 0.0
    error_to_solution: float | None = None


@dataclass
class IterationTrace(JsonReport):
    records: list[IterationRecord]
    termination: str
    policy: str
    seed: int
    eta: float
    adversarial: bool
    known_solution: np.ndarray | None = None

    @property
    def iterates(self) -> list[np.ndarray]:
        return [r.x for r in self.records]

    @property
    def iterations(self) -> int:
        return len(self.records) - 1

    def errors(self) -> list[float] | None:
        if self.known_solution is None:
            return None
        return [float(np.linalg.norm(r.x - self.known_solution)) for r in self.records]

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            n = self.records[0].x.size
            writer.writerow(
                ["k"] + [f"x{i+1}" for i in range(n)] + ["residual", "error_to_solution", "pattern"]
            )
            for r in self.records:
                writer.writerow(
                    [r.k]
                    + [repr(float(v)) for v in r.x]
                    + [repr(r.residual), "" if r.error_to_solution is None else repr(r.error_to_solution), r.pattern]
                )

    def write_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True, allow_nan=False)


def run_newton(
    problem: GEProblem,
    H: DerivativeOracle,
    R: InexactnessModel | None = None,
    x0=None,
    max_iter: int = 40,
    stop_tol: float = 1e-12,
    policy: str = "first",
    seed: int = 42,
) -> IterationTrace:
    """Run the inexact Newton-type iteration from x0.

    The matrix A_k is the first candidate of H(x_k) under the deterministic
    policy, or a seeded-random candidate otherwise; every accepted step has
    passed the intersection test within tolerance.  Subproblem failure stops
    the loop and is recorded as the termination reason.
    """
    if policy not in ("first", "random"):
        raise ValueError("policy must be 'first' or 'random'")
    R = R or InexactnessModel()
    x = as_vector(x0, problem.n)
    rng = SplitMix64(derive_seed(seed, "policy"))
    xs = problem.known_solution
    records = [
        IterationRecord(
            0, x.copy(), problem.residual(x),
            error_to_solution=None if xs is None else float(np.linalg.norm(x - xs)),
        )
    ]
    termination = "max_iter"
    for k in range(max_iter):
        if records[-1].residual <= stop_tol:
            termination = "converged"
            break
        cands = H.candidates(x)
        if not cands:
            termination = "no_derivative"
            break
        A_k = cands[0] if policy == "first" else cands[rng.randint(len(cands))]
        try:
            sol = solve_subproblem(x, A_k, problem, R, seed=derive_seed(seed, f"sub{k}"))
        except SubproblemInfeasible as exc:
            termination = f"subproblem_failed: {exc}"
            break
        step = float(np.linalg.norm(sol.u - x))
        x = sol.u
        records.append(
            IterationRecord(
                k + 1,
                x.copy(),
                problem.residual(x),
                A=A_k,
                step_norm=step,
                pattern=sol.pattern,
                subproblem_residual=sol.linear_residual,
                inexact_budget=R.radius(records[-1].x, x),
                perturbation_norm=sol.perturbation_norm,
                error_to_solution=None if xs is None else float(np.linalg.norm(x - xs)),
            )
        )
    if termination == "max_iter" and records[-1].residual <= stop_tol:
        termination = "converged"
    return IterationTrace(records, termination, policy, seed, R.eta, R.adversarial, xs)


@dataclass
class RateReport(JsonReport):
    t_hat: float
    ratios: list[float]
    residual_ratios: list[float]
    superlinear: bool
    used_residuals: bool


def rate_report(trace: IterationTrace, solution=None) -> RateReport:
    """Convergence-rate certificate from a trace.

    t_hat is the worst error contraction over the last half of the run;
    t_hat < 1 certifies the sampled q-linear contraction.  The superlinear
    flag requires the last three ratios to each shrink by a factor >= 5.
    Without a known solution, residual ratios substitute (flagged).
    """
    if len(trace.records) < 3:
        raise ValueError("need at least 3 iterates for a rate report")
    xs = solution if solution is not None else trace.known_solution
    residuals = [r.residual for r in trace.records]
    res_ratios = [
        residuals[i + 1] / residuals[i] for i in range(len(residuals) - 1) if residuals[i] > 1e-15
    ]
    if xs is not None:
        errs = [float(np.linalg.norm(r.x - as_vector(xs))) for r in trace.records]
        ratios = [errs[i + 1] / errs[i] for i in range(len(errs) - 1) if errs[i] > 1e-14]
        used_residuals = False
    else:
        ratios = res_ratios
        used_residuals = True
    if not ratios:
        return RateReport(0.0, [], res_ratios, False, used_residuals)
    half = ratios[max(0, len(ratios) // 2):] if len(ratios) > 1 else ratios
    t_hat = max(half)
    superlinear = False
    if len(ratios) >= 3:
        r3, r2, r1 = ratios[-3], ratios[-2], ratios[-1]
        superlinear = r2 <= r3 / 5 and r1 <= r2 / 5
    elif len(ratios) == 2:
        superlinear = ratios[1] <= ratios[0] / 5 and ratios[1] < 1e-3
    return RateReport(float(t_hat), ratios, res_ratios, bool(superlinear), used_residuals)


# ---------------------------------------------------------------------------
# assumption checking


@dataclass
class NewtonAssumptionsReport(JsonReport):
    linearization_gap_first: float
    linearization_gap_last: float
    gamma: float
    ell: float
    chi: float
    sur_per_matrix: list[float]
    sur_exact: bool
    margin: float
    passed: bool
    notes: list[str] = field(default_factory=list)


def partial_linearization_sur(problem: GEProblem, A, xbar, schedule: LiminfSchedule | None = None, seed: int = 42) -> tuple[float, bool]:
    """sur of x -> f(xbar) + A(x - xbar) + F(x) around (xbar, 0).

    Exact for F = 0 (smallest singular value) and for box constraints with a
    unique strictly complementary bound pattern (reduced free-block singular
    value); sampled estimate otherwise.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    xbar = as_vector(xbar, problem.n)
    if problem.F is None:
        return linear_moduli(A).sur, True
    if isinstance(problem.F, NormalConeBox):
        box = problem.F
        c0 = problem.f(xbar)
        atol = box.atol
        pattern = []
        degenerate = False
        for i in range(box.n):
            at_lo = xbar[i] <= box.lo[i] + atol
            at_hi = xbar[i] >= box.hi[i] - atol
            if at_lo and at_hi:
                degenerate = True
            elif at_lo:
                pattern.append(0)
                if c0[i] < atol:  # zero multiplier: degenerate complementarity
                    degenerate = True
            elif at_hi:
                pattern.append(2)
                if c0[i] > -atol:
                    degenerate = True
            else:
                pattern.append(1)
                if abs(c0[i]) > atol:
                    degenerate = True
        if not degenerate:
            free = [i for i, p in enumerate(pattern) if p == 1]
            if not free:
                return INF, True
            return linear_moduli(A[np.ix_(free, free)]).sur, True
    # sampled fallback
    affine = SingleValued(lambda x: problem.f(xbar) + A @ (as_vector(x, problem.n) - xbar), problem.n, problem.m, vectorized=False)
    GA = SumMap(affine, problem.F)
    sched = schedule or LiminfSchedule(r0=0.05, rho=0.5, shells=5, samples_per_shell=32)
    est = estimate_modulus("sur", GA, GraphPoint(xbar, np.zeros(problem.m)), sched, seed=seed)
    return est.value, False


def check_newton_assumptions(
    problem: GEProblem,
    H: DerivativeOracle,
    R: InexactnessModel,
    xbar,
    schedule: LiminfSchedule | None = None,
    seed: int = 42,
) -> NewtonAssumptionsReport:
    """Shell-sampled verification of the convergence theorem's hypotheses.

    Checks: decay of the linearization gap sup_{A in H(x)} ||f(x) - f(xbar)
    - A(x - xbar)||/||x - xbar||; the inexactness bounds (analytic for the
    ball model: any gamma > 0 works, so gamma is fixed at 1e-6 rather than
    measured, and ell = eta exactly); regularity of
    every partial linearization at the solution; and the margin inequality
    chi + ell + gamma < min_A sur G_A with chi = 0 for finite derivative
    sets.
    """
    xbar = as_vector(xbar, problem.n)
    if problem.residual(xbar) > TOL_FEAS:
        raise ValueError("xbar does not solve the inclusion")
    sched = schedule or LiminfSchedule(r0=0.1, rho=0.5, shells=6, samples_per_shell=24)
    gaps = []
    for j, r in enumerate(sched.radii()):
        worst = 0.0
        for xv in shell_points(xbar, r * sched.rho, r, sched.samples_per_shell, derive_seed(seed, f"gap{j}")):
            dx = float(np.linalg.norm(xv - xbar))
            if dx <= 1e-14:
                continue
            fv = problem.f(xv) - problem.f(xbar)
            for A in H.candidates(xv):
                worst = max(worst, float(np.linalg.norm(fv - A @ (xv - xbar))) / dx)
        gaps.append(worst)
    gamma = 1e-6
    ell = R.eta
    notes = [
        "ball inexactness model: dist(0, R(x, xbar)) = 0, so any gamma > 0 is admissible",
        "ball inexactness model satisfies the truncation Lipschitz bound with ell = eta exactly",
    ]
    mats = H.candidates(xbar)
    chi = measure_noncompactness(mats)
    surs = []
    exact_all = True
    for A in mats:
        s, exact = partial_linearization_sur(problem, A, xbar, seed=seed)
        surs.append(s)
        exact_all = exact_all and exact
    inf_sur = min(surs) if surs else 0.0
    margin = inf_sur - (chi + ell + gamma)
    passed = margin > 0 and gaps[-1] <= max(0.05, 0.25 * (gaps[0] if gaps[0] > 0 else 1.0))
    if gaps[-1] > 0.05:
        notes.append(f"linearization gap did not decay below 0.05 (last shell: {gaps[-1]:.3g})")
    return NewtonAssumptionsReport(
        linearization_gap_first=gaps[0],
        linearization_gap_last=gaps[-1],
        gamma=gamma,
        ell=ell,
        chi=chi,
        sur_per_matrix=surs,
        sur_exact=exact_all,
        margin=margin,
        passed=bool(passed),
        notes=notes,
    )


def detect_convergence_radius(
    problem: GEProblem,
    H: DerivativeOracle,
    R: InexactnessModel,
    xbar,
    r_max: float = 1.0,
    bisections: int = 8,
    seed: int = 42,
) -> float:
    """Empirical convergence radius: largest sampled ||x0 - xbar|| from which
    the iteration contracts (t_hat < 1) in every probed direction.

    This is a measured quantity with no claim of matching any theoretical
    radius.
    """
    xbar = as_vector(xbar, problem.n)
    from .rng import sphere_directions

    dirs = sphere_directions(problem.n, 4, derive_seed(seed, "radius"))

    def works(rho):
        for v in dirs:
            trace = run_newton(problem, H, R, xbar + rho * np.asarray(v), max_iter=30, stop_tol=1e-10, seed=seed)
            if trace.termination.startswith("subproblem"):
                return False
            errs = trace.errors()
            if errs is None or errs[-1] > max(1e-8, 0.5 * errs[0]):
                return False
            if len(trace.records) >= 3:
                rep = rate_report(trace)
                if rep.t_hat >= 1.0:
                    return False
        return True

    if works(r_max):
        return r_max
    return _bisect_threshold(works, 0.0, r_max, bisections)
