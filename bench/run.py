"""reglab benchmark: end-to-end figures per workload, or a traced run.

    python3 bench/run.py --workload acceptance --seed 42 --seconds 40 --trace 0

Run from the root of a checkout.  Every pass runs in a fresh interpreter
(``bench/worker.py``) after its own set-up, so no memo from an earlier pass
makes a repeat look faster than a user's single run.  With ``--trace 0`` the
benchmark runs passes until ``--seconds`` is used up and reports the median
pass.  With ``--trace 1`` it runs one untimed-for-the-record pass, one traced
pass and, for ``acceptance``, one cProfile pass, and reports the per-layer
metrics.  Results and the environment go to ``bench/out/``; the last line of
standard output is the JSON summary.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads
from tracer import metric_unit

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"
WORKLOADS = tuple(workloads.WORKLOADS)

#: set-up is sampled at least this many times per run (extra set-up-only
#: interpreters make up the difference)
SETUP_SAMPLES = 5
#: a single interpreter may take no longer than this
CHILD_TIMEOUT_S = 170.0

#: BLAS and OpenMP pools pinned to one thread: the benchmark is single-threaded
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env.pop("PYTHONPATH", None)
    return env


def run_child(workload: str, seed: int, mode: str, deadline: float, **paths) -> tuple[float, dict | None]:
    """Start one worker; returns (set-up seconds, pass result or None)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--mode", mode]
    for key, path in paths.items():
        cmd += [f"--{key.replace('_', '-')}", str(path)]
    # stderr goes to a file so that a chatty worker cannot fill a pipe and
    # stall; the timer kills a worker that outlives its share of the run
    with tempfile.TemporaryFile(mode="w+", dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True, env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(1.0, min(CHILD_TIMEOUT_S, deadline - t0)), proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if not ready.startswith('{"ready"') or proc.returncode != 0:
            err.seek(0)
            raise BenchError(f"{workload} worker failed (exit {proc.returncode}): {err.read()[-2000:]}")
    lines = [ln for ln in rest.splitlines() if ln.strip()]
    return setup_s, (json.loads(lines[-1]) if lines else None)


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy
    import scipy

    sources = sorted((ROOT / "src").rglob("*.py"))
    src_lines = sum(len(p.read_text().splitlines()) for p in sources)
    src_sha256 = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    wl = workloads.WORKLOADS[workload]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_lines": src_lines,
        "src_sha256": src_sha256,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "ops_per_pass": len(wl.make_ops(seed)),
        "schedule": wl.schedule,
        "blas_threads": THREAD_ENV,
    }


def count_ops(passes: list[dict]) -> tuple[int, int]:
    attempted = sum(len(p["ok"]) for p in passes)
    return attempted, attempted - sum(sum(p["ok"]) for p in passes)


def timed_run(workload: str, seed: int, seconds: int) -> tuple[dict, list[dict], dict]:
    t_start = time.perf_counter()
    deadline = t_start + CHILD_TIMEOUT_S
    passes, setups, pass_total = [], [], []
    while True:
        t0 = time.perf_counter()
        setup_s, res = run_child(workload, seed, "pass", deadline)
        pass_total.append(time.perf_counter() - t0)
        setups.append(setup_s)
        passes.append(res)
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.mean(pass_total) > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(workload, seed, "setup", deadline)[0])
    attempted, failed = count_ops(passes)
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    summary = {"fail_ratio": failed / attempted, "passes": len(passes), "setup_samples": setups,
               "wall_samples": [p["wall_s"] for p in passes]}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, passes, summary


def traced_run(workload: str, seed: int) -> tuple[dict, list[dict], dict]:
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    _, plain = run_child(workload, seed, "pass", deadline)
    _, traced = run_child(workload, seed, "trace", deadline, spans_out=OUT / f"spans_{workload}_s{seed}.npz")
    passes = [plain, traced]
    extra = {"spans": traced["spans"]}
    if workload == "acceptance":
        profile_out = OUT / f"profile_{workload}_s{seed}.txt"
        _, profiled = run_child(workload, seed, "profile", deadline, profile_out=profile_out)
        passes.append(profiled)
        extra["profile"] = str(profile_out.relative_to(ROOT))
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"] - 1.0
    layers["report.digest_match"] = plain["digest_match"] or 0
    metrics = {name: {"value": value, "unit": metric_unit(name)} for name, value in layers.items()}
    return metrics, passes, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "reglab" / "__init__.py").is_file():
        print(f"bench: no reglab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, passes, extra = traced_run(args.workload, args.seed)
        else:
            metrics, passes, extra = timed_run(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    attempted, failed = count_ops(passes)
    errors = [e for p in passes for e in p["errors"]]
    env = environment(args.workload, args.seed, args.seconds, args.trace)
    record = {
        "workload": args.workload,
        "environment": env,
        "metrics": metrics,
        "run": extra,
        "digest_match": [p["digest_match"] for p in passes],
        "op_s": [p["op_s"] for p in passes],
        "failed_ops": [[i for i, ok in enumerate(p["ok"]) if not ok] for p in passes],
        "errors": errors,
    }
    out_file = OUT / f"BENCH_{args.workload}_s{args.seed}_t{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:12s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{args.workload:14s} {'fail_ratio':12s} {extra['fail_ratio']:.6g} ratio")
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"results: {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
