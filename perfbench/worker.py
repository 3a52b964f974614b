"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1
        --spawned-at T [--setup-only]

A fresh process per repetition is required: ``numberfield._FIELDS`` and
``orders._G1_CACHE`` persist inside a process, and so does each field's
isolating interval, which ``sign()`` narrows in place, so a second
repetition in one process would run different arithmetic.

Prints JSON lines on stdout: {"ready": setup_s, "ops": n} once set-up is
done, then (without --setup-only) one line with run_s, the counts of
attempted and failed operations, and, for a traced run, the per-layer
metrics.  ``--spawned-at`` is the parent's ``time.monotonic()`` just
before it started this process; the monotonic clock is system-wide on
Linux and macOS, so set-up time includes interpreter start.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import twobridge.cli  # noqa: F401  (imports every module)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed)
    _emit({"ready": time.monotonic() - args.spawned_at, "ops": workload.ops})
    if args.setup_only:
        return

    covered0 = tracer.top_level_s() if tracer else 0.0
    t0 = time.perf_counter()
    result = workload.run()
    out = {"run_s": time.perf_counter() - t0}
    if tracer:
        # read before the answer checks, which call the oracles again
        out["layers"] = tracer.metrics()
        out["covered_s"] = tracer.top_level_s() - covered0
    failed, notes = workload.check(result)
    out.update(attempted=workload.ops, failed=failed, notes=notes[:20])
    if hasattr(workload, "latencies_ms"):
        out["latency_ms"] = workload.latencies_ms(result)
    _emit(out)


if __name__ == "__main__":
    main()
