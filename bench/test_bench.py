"""Self-tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    wl = workloads.WORKLOADS[name]
    assert wl.make_ops(42) == wl.make_ops(42)
    assert wl.make_ops(42) != wl.make_ops(43)
    assert wl.warmup_op(42) == wl.warmup_op(42)
    assert wl.warmup_op(42) not in wl.make_ops(42)
    # the same in a fresh interpreter with another hash seed
    code = f"import json, workloads; print(json.dumps(workloads.WORKLOADS[{name!r}].make_ops(42)))"
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=f"{BENCH}{os.pathsep}{ROOT / 'src'}")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == json.loads(json.dumps(wl.make_ops(42)))


def test_newton_reference_solution_solves_the_vi():
    M, q = workloads.boxvi_data(4, 123)
    x = workloads.projected_solution(M, q)
    f = M @ x + q + 0.05 * np.sin(x)
    # complementarity on [0, 1]^n: f >= 0 at 0, f <= 0 at 1, f = 0 inside
    assert np.all(f[x <= 1e-12] >= -1e-9)
    assert np.all(f[x >= 1 - 1e-12] <= 1e-9)
    inside = (x > 1e-12) & (x < 1 - 1e-12)
    assert np.all(np.abs(f[inside]) <= 1e-9)


def _paths(F, x0, y):
    from reglab import setmaps

    tr = tracing.Tracer()
    tr.install()
    try:
        setmaps.preimage_search(x0, F, y)
    finally:
        tr.uninstall()
    return {k: v for k, v in tr.preimage_paths().items() if v}


def test_path_classifier():
    from reglab import LinearOp, build_setmap, load_example, setmaps

    assert _paths(LinearOp([[2.0]]), [0.0], [0.5]) == {"analytic": 1}
    assert _paths(load_example("two_branch").objects["setmap"], [0.0], [0.05]) == {"branch1d": 1}
    grid = _paths(build_setmap({"kind": "finite", "branches": ["x", "0"]}), [0.0], [0.05])
    assert set(grid) <= {"grid_feasible", "grid_restored"} and sum(grid.values()) == 1
    # uninstall restored the original functions
    assert not hasattr(setmaps.preimage_search, "__wrapped__")


def test_self_times_on_synthetic_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; b has child c [6, 7]
    dur = np.array([10.0, 3.0, 4.0, 1.0])
    parent = np.array([-1, 0, 0, 2])
    assert np.allclose(tracing.self_times(dur, parent), [3.0, 3.0, 3.0, 1.0])


def test_tracer_spans_and_aggregate_with_fake_clock():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    with tr.span("root"):
        with tr.span("leaf"):
            pass
        with tr.span("mid"):
            with tr.span("leaf"):
                pass
    agg = tr.aggregate()
    assert agg["root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert agg["mid"] == {"calls": 1, "total_s": 4.0, "self_s": 3.0}
    assert agg["leaf"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    assert list(tr.parent) == [-1, 0, 0, 2]


def test_benchmark_json_lists_every_reported_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = set(tracing.layer_metrics(tracing.Tracer())) | {"trace.overhead_ratio", "report.digest_match"}
    assert {m["name"] for m in spec["per_layer"]} == reported
