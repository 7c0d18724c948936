"""One benchmark pass in a fresh interpreter; started by ``bench/run.py``.

The worker imports reglab from the checkout's ``src``, builds the workload's
inputs, runs one warm-up op on a different derived seed and then prints a
``ready`` line, which ends set-up.  In ``setup`` mode it stops there.
Otherwise it runs every op of the pass in order (closed loop, one client),
timing only the ops, then checks each output and prints one JSON line with
the results.  ``trace`` mode records spans around reglab's layers and
``profile`` mode runs cProfile; neither is used for the end-to-end figures.

    python3 bench/worker.py --workload acceptance --seed 42 --mode pass
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import io
import json
import pstats
import resource
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

REFERENCES = BENCH / "references.json"
#: recorded values must match this closely; loose enough that a more exact
#: oracle (grid vs analytic preimages differ by up to 1.4e-7) still passes
REF_RTOL, REF_ATOL = 1e-3, 1e-6


def digest(outputs, wl) -> str:
    blob = json.dumps([wl.canonical(o) for o in outputs], sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_pass(wl, ops, scratch: Path, tracer=None):
    outputs, op_s, errors = [], [], []
    t_pass = time.perf_counter()
    for i, spec in enumerate(ops):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run_op(spec, scratch)
            else:
                tracer.op_id = i
                with tracer.span("bench.op"):
                    out = wl.run_op(spec, scratch)
        except Exception as exc:  # an op that raises counts as failed
            errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            out = None
        op_s.append(time.perf_counter() - t0)
        outputs.append(out)
    return outputs, op_s, time.perf_counter() - t_pass, errors


def check_outputs(wl, ops, outputs, seed):
    refs = json.loads(REFERENCES.read_text()).get(wl.name, {}).get(str(seed)) if REFERENCES.exists() else None
    ok = []
    for i, (spec, out) in enumerate(zip(ops, outputs)):
        good = out is not None and wl.check(spec, out)
        if good and refs is not None:
            good = workloads.close(wl.reference_view(out), refs["values"][i], REF_RTOL, REF_ATOL)
        ok.append(bool(good))
    match = None
    if refs is not None and all(o is not None for o in outputs):
        match = int(digest(outputs, wl) == refs["digest"])
    return ok, match


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("pass", "setup", "trace", "profile"), default="pass")
    ap.add_argument("--profile-out", help="where profile mode writes its top-10 table")
    ap.add_argument("--spans-out", help="where trace mode writes its spans (.npz)")
    args = ap.parse_args(argv)

    import reglab  # noqa: F401  (set-up includes the package import)

    wl = workloads.WORKLOADS[args.workload]
    ops = wl.make_ops(args.seed)
    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="pass-", dir=BENCH / "out") as tmp:
        scratch = Path(tmp)
        wl.run_op(wl.warmup_op(args.seed), scratch)
        print(json.dumps({"ready": True}), flush=True)
        if args.mode == "setup":
            return 0

        tracer = profiler = None
        if args.mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        elif args.mode == "profile":
            profiler = cProfile.Profile()
            profiler.enable()
        outputs, op_s, wall, errors = run_pass(wl, ops, scratch, tracer)
        if profiler is not None:
            profiler.disable()

    ok, match = check_outputs(wl, ops, outputs, args.seed)
    result = {
        "wall_s": wall,
        "op_s": op_s,
        "ok": ok,
        "errors": errors,
        "digest": digest(outputs, wl) if all(o is not None for o in outputs) else None,
        "digest_match": match,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "values": [None if o is None else wl.reference_view(o) for o in outputs],
    }
    if tracer is not None:
        from tracer import layer_metrics

        result["layers"] = layer_metrics(tracer)
        result["spans"] = len(tracer.start)
        tracer.save(args.spans_out)
    if profiler is not None:
        buf = io.StringIO()
        buf.write(f"cProfile top-10 by own time: one {wl.name} pass at seed {args.seed}.\n"
                  "This is a profiled run (cProfile on), not a timed run; its times are inflated.\n\n")
        pstats.Stats(profiler, stream=buf).sort_stats("tottime").print_stats(10)
        Path(args.profile_out).write_text(buf.getvalue())
    print(json.dumps(result, default=str), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
