"""Record the per-op reference values and report digests of this commit.

    python3 bench/record.py            # seeds 42 and 7, every workload

Runs one untraced pass per workload and seed, refuses to record a pass in
which any op fails its own check, and writes ``bench/references.json``.
``bench/worker.py`` then compares each later pass at a recorded seed with
these values and reports whether the canonical reports are byte-identical.
"""

from __future__ import annotations

import json
import sys
import time

from run import OUT, WORKLOADS, BenchError, run_child

from worker import REFERENCES

SEEDS = (42, 7)


def main() -> int:
    OUT.mkdir(exist_ok=True)
    refs: dict = {}
    for workload in WORKLOADS:
        refs[workload] = {}
        for seed in SEEDS:
            _, res = run_child(workload, seed, "pass", time.perf_counter() + 170.0)
            if not all(res["ok"]):
                raise BenchError(f"{workload} seed {seed}: ops {res['ok']} failed; not recording")
            refs[workload][str(seed)] = {"digest": res["digest"], "values": res["values"]}
            print(f"recorded {workload} seed {seed}: {len(res['values'])} ops")
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
