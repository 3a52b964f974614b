"""Benchmark for twobridge: time to a certified verdict and to single
order-sign queries, end to end, with a traced run per layer.

    python3 perfbench/run.py --workload certify-reps|magnus-deep|sign-stream
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``.
Every repetition runs in a fresh interpreter (see worker.py), one process
at a time, one thread.  See README.md in this directory for the workloads
and metrics.

--trace 0 repeats the workload until about S seconds have passed and
reports the end-to-end metrics: the median set-up and run time over the
repetitions, and the peak RSS of any workload process.
--trace 1 runs the workload once untraced and twice traced, reports the
per-layer metrics of the traced runs, and fails the run if any count
differs between the two traced runs.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from tracer import is_count

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("certify-reps", "magnus-deep", "sign-stream")

# A workload process still running this long after the benchmark started
# is killed and its operations count as failed, so that a slide back into
# an exponential path cannot hang the benchmark past its 180 s limit.
CEILING_S = 165.0
MIN_SETUPS = 7


class Rep:
    """The outcome of one worker process."""

    def __init__(self, lines: list[dict], killed: bool, code: int):
        ready = next((x for x in lines if "ready" in x), None)
        done = next((x for x in lines if "run_s" in x), None)
        self.setup_s = ready["ready"] if ready else None
        self.ops = ready["ops"] if ready else 1
        self.done = done
        if done is not None and code == 0:
            self.attempted, self.failed = done["attempted"], done["failed"]
            self.notes = done["notes"]
        else:
            # unfinished operations count as failed
            self.attempted = self.failed = self.ops
            self.notes = ["worker %s" % ("killed at the ceiling" if killed
                                         else "exited with %d" % code)]


def spawn(args, deadline: float, trace: int = 0,
          setup_only: bool = False) -> Rep:
    t0 = time.monotonic()
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace),
           "--spawned-at", repr(t0)]
    if setup_only:
        cmd.append("--setup-only")
    killed = False
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - t0, 1.0))
        out, code = proc.stdout, proc.returncode
        if code:
            sys.stderr.write(proc.stderr[-2000:])
    except subprocess.TimeoutExpired as exc:  # run() killed and reaped it
        killed, code = True, -9
        out = exc.stdout or ""
        if isinstance(out, bytes):
            out = out.decode()
    lines = [json.loads(s) for s in out.splitlines() if s.startswith("{")]
    return Rep(lines, killed, code)


def environment() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return "cpu=%r nproc=%d python=%s commit=%s" % (
        cpu, os.cpu_count() or 0, platform.python_version(), commit)


def measure_untraced(args, deadline: float):
    reps = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        reps.append(spawn(args, deadline))
        wall = time.monotonic() - t
        if reps[-1].done is None or \
                time.monotonic() - start + wall > args.seconds:
            break
    setups = [r.setup_s for r in reps if r.setup_s is not None]
    while len(setups) < MIN_SETUPS and time.monotonic() < deadline:
        rep = spawn(args, deadline, setup_only=True)
        if rep.setup_s is None:
            break
        setups.append(rep.setup_s)
    return reps, setups


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "twobridge",
                                       "__init__.py")):
        sys.stderr.write("perfbench: no twobridge sources under %s\n"
                         % os.path.join(ROOT, "src"))
        return 2

    deadline = time.monotonic() + CEILING_S
    print("# %s" % environment())
    # warms the file cache and, where Python writes bytecode, compiles it
    spawn(args, deadline, setup_only=True)

    if args.trace:
        reps = [spawn(args, deadline)]
        reps += [spawn(args, deadline, trace=1) for _ in range(2)]
        metrics, notes = layer_metrics(reps)
    else:
        reps, setups = measure_untraced(args, deadline)
        metrics, notes = end_to_end_metrics(reps, setups), []
    # a count that differs between the traced runs fails the run too
    failed = sum(r.failed for r in reps) + len(notes)
    attempted = sum(r.attempted for r in reps)
    for note in (notes + [n for r in reps for n in r.notes])[:20]:
        print("# FAIL %s" % note)
    print("# %s seed=%d trace=%d: %d repetitions, error_rate %.6f "
          "(%d of %d operations failed)"
          % (args.workload, args.seed, args.trace, len(reps),
             failed / max(attempted, 1), failed, attempted))
    for name, m in metrics.items():
        print("# %-40s %14.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


def end_to_end_metrics(reps, setups) -> dict:
    done = [r for r in reps if r.done is not None]
    if not done or not setups:
        return {}
    print("# run_s of each repetition: %s" % " ".join(
        "%.3f" % r.done["run_s"] for r in done))
    lat = [r.done["latency_ms"] for r in done if "latency_ms" in r.done]
    for group in ("g1", "g2") if lat else ():
        for q in ("p50", "p99"):
            print("# %s_query_%s_ms %.4f ms (over %d queries, median of %d "
                  "repetitions)" % (
                      group, q, statistics.median(x[group][q] for x in lat),
                      lat[0][group]["n"], len(lat)))
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "run_s": {"value": statistics.median(r.done["run_s"] for r in done),
                  "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
    }


def layer_metrics(reps):
    """Per-layer metrics from the two traced repetitions; counts must be
    identical between them, since everything is seeded and each runs in
    a fresh process."""
    plain, traced = reps[0], reps[1:]
    if any(r.done is None for r in reps):
        return {}, []
    first, second = (r.done["layers"] for r in traced)
    notes = ["traced runs disagree on %s: %r vs %r"
             % (name, first[name], second[name])
             for name in first if is_count(name) and
             first[name] != second[name]]
    metrics = {}
    for name in first:
        if is_count(name):
            metrics[name] = {"value": first[name], "unit": "count"}
        else:
            metrics[name] = {"value": (first[name] + second[name]) / 2,
                             "unit": "s"}
    traced_run_s = statistics.median(r.done["run_s"] for r in traced)
    metrics["trace.overhead_frac"] = {
        "value": traced_run_s / plain.done["run_s"] - 1, "unit": "ratio"}
    metrics["trace.self_coverage"] = {
        "value": statistics.median(r.done["covered_s"] / r.done["run_s"]
                                   for r in traced), "unit": "ratio"}
    return metrics, notes


if __name__ == "__main__":
    sys.exit(main())
