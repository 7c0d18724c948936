"""The benchmark's three workloads: inputs from a seed, ops, output checks.

Each workload turns the benchmark seed into a list of JSON-able op specs
(``make_ops``), runs one spec through reglab's public functions or its CLI
(``run_op``), and checks the output against a reference that holds for every
seed (``check``).  Inputs come from Python's ``random`` seeded by a string,
so they do not depend on reglab's own generators.  ``canonical`` gives the
bytes of an op's report without timing fields, for the digest comparison.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import tempfile
from pathlib import Path

import numpy as np

INF = math.inf


def _rng(workload: str, seed: int, purpose: str = "ops") -> random.Random:
    return random.Random(f"{workload}:{purpose}:{seed}")


def _subseed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def warmup_seed(workload: str, seed: int) -> int:
    """A seed derived from the benchmark seed, distinct from the timed ops'."""
    return _subseed(_rng(workload, seed, "warmup"))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    return obj


def close(got, ref, rtol: float, atol: float) -> bool:
    """Recursive comparison: numbers within rtol/atol, everything else equal.

    Infinite values appear as the strings "inf" / "-inf" and must match.
    """
    if isinstance(ref, dict):
        return isinstance(got, dict) and set(got) == set(ref) and all(
            close(got[k], ref[k], rtol, atol) for k in ref
        )
    if isinstance(ref, list):
        return isinstance(got, list) and len(got) == len(ref) and all(
            close(g, r, rtol, atol) for g, r in zip(got, ref)
        )
    if isinstance(ref, bool) or isinstance(got, bool) or not isinstance(ref, (int, float)):
        return got == ref
    try:
        g = float(got)
    except (TypeError, ValueError):
        return False
    return abs(g - ref) <= atol + rtol * abs(ref)


# ---------------------------------------------------------------------------
# acceptance: the 12 criteria of the gate, one op each


class Acceptance:
    name = "acceptance"
    schedule = "the 12 criteria of run_acceptance(seed)"

    def make_ops(self, seed: int) -> list[dict]:
        return [{"criterion": i, "seed": seed} for i in range(1, 13)]

    def warmup_op(self, seed: int) -> dict:
        # criterion 7 pulls in the lazy scipy.optimize imports
        return {"criterion": 7, "seed": warmup_seed(self.name, seed)}

    def run_op(self, spec: dict, scratch: Path) -> dict:
        from reglab import acceptance

        res = acceptance.ALL_CRITERIA[spec["criterion"] - 1](seed=spec["seed"])
        return _jsonable(res)

    def check(self, spec: dict, out: dict) -> bool:
        return bool(out.get("passed")) and out.get("criterion") == spec["criterion"]

    def reference_view(self, out: dict):
        return out["details"]

    def canonical(self, out: dict) -> dict:
        return out


# ---------------------------------------------------------------------------
# inline_moduli: `reglab --config` on inline mappings, one op per estimate

#: inline maps with their graph point
MAPS = {
    "finite_x0": ({"kind": "finite", "branches": ["x", "0"]}, [0.0], [0.0]),
    "epigraph_abs": ({"kind": "epigraph", "expr": "abs(x)"}, [0.0], [0.0]),
    "sinkink_piecewise": (
        {"kind": "single", "expr": "piecewise(x == 0, 0, x + x*abs(x)*abs(sin(1/x)))"}, [0.0], [0.0]),
    "interval_band": (
        {"kind": "polyhedral_graph", "n": 1, "m": 1,
         "pieces": [{"normals": [[2, 1], [-2, -1]], "offsets": [0.1, 0.1]}]}, [0.0], [0.1]),
    "map2d": ({"kind": "single", "expr": ["x1+0.2*sin(x2)", "x2-0.1*x1**2"], "n": 2, "m": 2},
              [0.0, 0.0], [0.0, 0.0]),
    "sum_cone": ({"kind": "sum", "f": {"kind": "single", "expr": "2*x+0.1*sin(x)"},
                  "g": {"kind": "normal_cone_box", "lo": [0], "hi": [1]}}, [0.0], [0.0]),
}

_SIGMA = np.linalg.svd(np.array([[1.0, 0.2], [0.0, 1.0]]), compute_uv=False)

#: (map, kind) -> (lo, hi): the band an estimate must fall in at every seed,
#: around the exact modulus.  Sup-type estimates (lip) sample from below.
#: The order is the op order of one pass; the comments name the oracle path.
INLINE_OPS = {
    # grid-restored 1D search; the constant branch "0" takes the scalar
    # expression fallback
    ("finite_x0", "lopen"): (0.9, 1.1),
    ("finite_x0", "semireg"): (0.9, 1.1),
    # descriptor path of largest_covered_c, scalar expression fallback
    ("finite_x0", "sur"): (0.0, 0.1),
    # grid-feasible: preimages are intervals of width 0.1 (exact modulus 1/2)
    ("interval_band", "reg"): (0.45, 0.55),
    # 2D grid; exact moduli are the singular values of the Jacobian at 0
    ("map2d", "subreg"): (0.9 / _SIGMA[1], 1.1 / _SIGMA[1]),
    ("map2d", "psopen"): (0.9 * _SIGMA[1], 1.1 * _SIGMA[1]),
    # epigraph 1D path, all nine kinds
    ("epigraph_abs", "sur"): (0.0, 1e-6),
    ("epigraph_abs", "reg"): (INF, INF),
    ("epigraph_abs", "lip"): (0.5, 1.05),
    ("epigraph_abs", "lopen"): (0.0, 1e-6),
    ("epigraph_abs", "semireg"): (INF, INF),
    ("epigraph_abs", "subreg"): (0.95, 1.05),
    ("epigraph_abs", "psopen"): (0.95, 1.05),
    ("epigraph_abs", "calm"): (0.0, 1e-6),
    ("epigraph_abs", "displacement"): (0.95, 1.05),
    # vectorized piecewise expression: 1D branch bisection
    ("sinkink_piecewise", "lopen"): (0.85, 1.15),
    ("sinkink_piecewise", "semireg"): (0.85, 1.15),
    # single-valued plus normal cone: grid search through the sum map
    ("sum_cone", "lopen"): (0.95 * 2.1, 1.05 * 2.1),
    ("sum_cone", "semireg"): (0.95 / 2.1, 1.05 / 2.1),
}

SCHEDULE = {"r0": 0.1, "rho": 0.5, "shells": 3, "samples_per_shell": 8}


class InlineModuli:
    name = "inline_moduli"
    schedule = {"schedule": SCHEDULE, "ops": [f"{m}:{k}" for m, k in INLINE_OPS]}

    def make_ops(self, seed: int) -> list[dict]:
        rng = _rng(self.name, seed)
        return [{"map": m, "kind": k, "seed": _subseed(rng)} for m, k in INLINE_OPS]

    def warmup_op(self, seed: int) -> dict:
        return {"map": "sinkink_piecewise", "kind": "lopen", "seed": warmup_seed(self.name, seed)}

    def config(self, spec: dict, out_dir: Path) -> dict:
        mapping, x, y = MAPS[spec["map"]]
        return {
            "command": "moduli", "mapping": mapping, "point": {"x": x, "y": y},
            "kinds": [spec["kind"]], "schedule": SCHEDULE, "seed": spec["seed"], "out": str(out_dir),
        }

    def run_op(self, spec: dict, scratch: Path) -> dict:
        from reglab import cli

        work = Path(tempfile.mkdtemp(prefix="op-", dir=scratch))
        try:
            cfg_path = work / "config.json"
            cfg_path.write_text(json.dumps(self.config(spec, work / "reports")))
            status = cli.main(["--config", str(cfg_path), "--quiet"])
            report = json.loads((work / "reports" / f"moduli_{spec['kind']}.json").read_text())
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return {"status": status, "report": report}

    def check(self, spec: dict, out: dict) -> bool:
        report = out["report"]
        if out["status"] != 0 or report.get("verdict") != "pass":
            return False
        lo, hi = INLINE_OPS[(spec["map"], spec["kind"])]
        return lo <= float(report["estimate"]["value"]) <= hi

    def reference_view(self, out: dict):
        return out["report"]["estimate"]["value"]

    def canonical(self, out: dict) -> dict:
        return {k: v for k, v in out["report"].items() if k != "runtime_ms"}


# ---------------------------------------------------------------------------
# newton_boxvi: seeded strongly monotone box VIs, plus the |x| starts

DIMS = (2, 3, 4, 5, 6)
STARTS = 6
ETAS = (0.0, 0.3)


def boxvi_data(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """M = B B^T / n + I and q for f(x) = M x + q + 0.05 sin x on [0, 1]^n."""
    rng = random.Random(f"newton_boxvi:problem:{n}:{seed}")
    B = np.array([[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)])
    q = np.array([rng.uniform(-1.5, 0.5) for _ in range(n)])
    return B @ B.T / n + np.eye(n), q


def projected_solution(M: np.ndarray, q: np.ndarray, iters: int = 200000) -> np.ndarray:
    """Reference solution of the box VI by the projected fixed-point map.

    f is strongly monotone (modulus >= 0.95) and Lipschitz, so
    x <- clip(x - f(x) / L) contracts; it shares no code with reglab.
    """
    L = float(np.linalg.norm(M, 2)) + 0.05
    x = np.full(q.size, 0.5)
    for _ in range(iters):
        z = np.clip(x - (M @ x + q + 0.05 * np.sin(x)) / L, 0.0, 1.0)
        if np.max(np.abs(z - x)) <= 1e-15:
            return z
        x = z
    return x


class NewtonBoxVI:
    name = "newton_boxvi"
    schedule = {"dims": DIMS, "starts": STARTS, "etas": ETAS, "abs_newton_starts": 4}

    def make_ops(self, seed: int) -> list[dict]:
        rng = _rng(self.name, seed)
        ops = []
        for n in DIMS:
            problem_seed = _subseed(rng)
            for _ in range(STARTS):
                x0 = [rng.uniform(0.0, 1.0) for _ in range(n)]
                for eta in ETAS:
                    ops.append({"problem": "boxvi", "n": n, "problem_seed": problem_seed,
                                "x0": x0, "eta": eta, "seed": _subseed(rng)})
        for x0 in (0.3, -0.3, 0.01, -0.01):
            ops.append({"problem": "abs", "x0": [x0], "eta": 0.0, "seed": _subseed(rng)})
        return ops

    def warmup_op(self, seed: int) -> dict:
        rng = _rng(self.name, seed, "warmup")
        return {"problem": "boxvi", "n": 2, "problem_seed": _subseed(rng),
                "x0": [rng.uniform(0.0, 1.0) for _ in range(2)], "eta": 0.3, "seed": _subseed(rng)}

    def _problem(self, spec: dict):
        from reglab import ExactJacobian, GEProblem, NormalConeBox, SingleValued, load_example

        if spec["problem"] == "abs":
            entry = load_example("abs_newton")
            return entry.objects["problem"], entry.objects["H"]
        n = spec["n"]
        M, q = boxvi_data(n, spec["problem_seed"])
        f = SingleValued(lambda x: M @ x + q + 0.05 * np.sin(x), n, n, vectorized=False)
        H = ExactJacobian(lambda x: M + 0.05 * np.diag(np.cos(x)))
        return GEProblem(f, NormalConeBox(np.zeros(n), np.ones(n))), H

    def run_op(self, spec: dict, scratch: Path) -> dict:
        from reglab import InexactnessModel, rate_report, run_newton

        problem, H = self._problem(spec)
        R = InexactnessModel(spec["eta"], adversarial=spec["eta"] > 0)
        trace = run_newton(problem, H, R, x0=spec["x0"], max_iter=40, seed=spec["seed"])
        out = {"trace": trace.to_json_dict(), "x": [float(v) for v in trace.records[-1].x]}
        if len(trace.records) >= 3:
            out["rate"] = rate_report(trace).to_json_dict()
        return _jsonable(out)

    def check(self, spec: dict, out: dict) -> bool:
        if out["trace"]["termination"] != "converged":
            return False
        x = np.array(out["x"])
        if spec["problem"] == "abs":
            return len(out["trace"]["records"]) == 2 and abs(x[0]) <= 1e-12
        ref = projected_solution(*boxvi_data(spec["n"], spec["problem_seed"]))
        return float(np.max(np.abs(x - ref))) <= 1e-8

    def reference_view(self, out: dict):
        return out["x"]

    def canonical(self, out: dict) -> dict:
        return out


WORKLOADS = {w.name: w for w in (Acceptance(), InlineModuli(), NewtonBoxVI())}
