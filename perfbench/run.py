"""Benchmark of the nonholo engine.

Run from the repository root:

    python3 perfbench/run.py --workload rollout --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload, one table

Workloads (see workloads.py for why each exists): ``rollout``, ``extended``
and ``verify``.  Load: one process and one thread in a closed loop, each task
starting when the previous one ends.  The seed fixes every task input; the
program receives only the generated inputs.

``--trace 0`` times tasks for ``--seconds`` of task time (stopping at a block
boundary) and prints the end-to-end metrics.  ``--trace 1`` runs a fixed task
list once untraced and once traced, so that its counts repeat exactly for a
given seed, and prints the per-layer metrics; the spans are written to
``.perfbench/spans-<workload>-seed<seed>.npz``.  Output checks run outside
every timed interval and every span.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics;
``correct`` is false when any task fails other than by the known defect it
is marked with (see ``Task.known_defect``).

Every reported time is calibrated: a fixed reference work is timed before
each task (and each set-up repeat) and after the last, and each raw time is
scaled to the host speed at which the reference takes ``NOMINAL_S`` (see
reference.py).  The shared host this was written on switches between speed
states that differ by 1.6x, which moves raw medians of two runs by up to a
quarter; calibrated, the same runs agree within a few percent.  The raw
figures are printed above the JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from functools import partial

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 21

if not os.path.isfile(os.path.join(SRC, "nonholo", "__init__.py")):
    sys.exit(f"perfbench: no nonholo package under {SRC}")
sys.path.insert(0, SRC)

import workloads as W  # noqa: E402
from reference import NOMINAL_S, Reference  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402


def timed(call):
    """(seconds, output, exception) of one call."""
    t0 = time.perf_counter()
    try:
        out = call()
    except Exception as exc:  # a failed task is counted, not fatal
        return time.perf_counter() - t0, None, exc
    return time.perf_counter() - t0, out, None


class Tally:
    """Outcome of every attempted task; judging runs outside the timed calls."""

    def __init__(self):
        self.attempted = 0
        self.failures: Counter = Counter()
        self.unexpected: Counter = Counter()
        self.kind_ms: dict[str, list] = {}
        self.kind_steps: Counter = Counter()

    def add(self, task: W.Task, seconds: float, out, exc):
        self.attempted += 1
        self.kind_ms.setdefault(task.kind, []).append(1e3 * seconds)
        label = ""
        if exc is not None:
            label = type(exc).__name__
            if label != task.known_defect:
                label += f": {exc}"
        else:
            try:
                task.check(out)
            except W.CheckFailed as err:
                label = f"check: {err}"
            if hasattr(out, "times"):
                self.kind_steps[task.kind] += len(out.times) - 1
        if label:
            self.failures[label] += 1
            if exc is None or label != task.known_defect:
                self.unexpected[f"{task.kind}: {label}"] += 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def report(self):
        print(f"fail_frac {self.failed / self.attempted:.6g} "
              f"({self.failed} of {self.attempted} tasks)")
        for label, count in sorted(self.failures.items()):
            print(f"  failed {count}x: {label}")
        print(f"{'kind (raw times)':28s} {'tasks':>6s} {'p50 ms':>9s} {'us/step':>9s}")
        for kind, ms in self.kind_ms.items():
            steps = self.kind_steps[kind]
            per_step = f"{1e3 * sum(ms) / steps:9.1f}" if steps else f"{'-':>9s}"
            print(f"{kind:28s} {len(ms):6d} {statistics.median(ms):9.2f} {per_step}")

    def result(self, metrics: dict) -> dict:
        return {"correct": not self.unexpected, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def build(workload: str, seed: int, blocks: int, workdir: str):
    return W.BUILDERS[workload](seed, blocks, workdir)


def measure(args, workdir: str) -> dict:
    """Untraced closed loop: the end-to-end metrics, calibrated by the reference."""
    ref = Reference()
    setup_raw = []
    for _ in range(SETUP_REPEATS):
        ref.sample()
        t0 = time.perf_counter()
        tasks = build(args.workload, args.seed, args.blocks, workdir)
        setup_raw.append(time.perf_counter() - t0)
    ref.sample()
    setup_times = ref.calibrate(setup_raw)
    block = W.BLOCK_SIZE[args.workload]
    for task in tasks[:block]:  # warm-up, neither timed nor counted
        timed(task.call)
    ref.reset()
    tally = Tally()
    raw = []
    busy = 0.0
    while busy < args.seconds or len(raw) % block:
        task = tasks[len(raw) % len(tasks)]
        ref.sample()
        seconds, out, exc = timed(task.call)
        busy += seconds
        raw.append(seconds)
        tally.add(task, seconds, out, exc)
    ref.sample()
    durations = ref.calibrate(raw)
    ms = [1e3 * d for d in durations]
    ok = tally.attempted - tally.failed
    metrics = {
        "tasks_per_s": {"value": ok / sum(durations), "unit": "1/s"},
        "task_ms.p50": {"value": statistics.median(ms), "unit": "ms"},
        "task_ms.p90": {"value": statistics.quantiles(ms, n=10)[8], "unit": "ms"},
        "ok_frac": {"value": ok / tally.attempted, "unit": "fraction"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
    }
    tally.report()
    raw_ms = [1e3 * d for d in raw]
    ref_ms = [1e3 * s for s in ref.samples]
    print(f"raw (uncalibrated): tasks_per_s {ok / busy:.6g}, "
          f"task_ms.p50 {statistics.median(raw_ms):.6g}, "
          f"task_ms.p90 {statistics.quantiles(raw_ms, n=10)[8]:.6g}, "
          f"setup_s {statistics.median(setup_raw):.6g}")
    print(f"reference ms: median {statistics.median(ref_ms):.4g}, "
          f"quartiles {' '.join(f'{x:.4g}' for x in statistics.quantiles(ref_ms, n=4))}, "
          f"nominal {1e3 * NOMINAL_S:.4g}")
    return tally.result(metrics)


def trace(args, workdir: str) -> dict:
    """Fixed task list, untraced then traced: the per-layer metrics."""
    build(args.workload, args.seed, args.blocks, workdir)  # warm the set-up path
    tracer = Tracer()
    tasks = tracer.run(-1, 0, partial(build, args.workload, args.seed, args.blocks, workdir),
                       name="setup")
    traced = tasks[:W.TRACE_BLOCKS[args.workload] * W.BLOCK_SIZE[args.workload]]
    for task in traced:  # warm-up
        timed(task.call)
    ref = Reference()
    plain = []
    for task in traced:
        ref.sample()
        plain.append(timed(task.call)[0])
    ref.sample()
    plain_s = sum(ref.calibrate(plain))
    ref.reset()
    tally = Tally()
    raw = []
    for i, task in enumerate(traced):
        ref.sample()
        seconds, out, exc = timed(partial(tracer.run, i, task.m, task.call))
        raw.append(seconds)
        tally.add(task, seconds, out, exc)
    ref.sample()
    traced_s = sum(ref.calibrate(raw))
    tracer.save(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz"))
    metrics = layer_metrics(tracer, traced_s / plain_s - 1.0)
    tally.report()
    return tally.result(metrics)


def run_all(args) -> int:
    """Each workload in its own process, in turn; one table of every metric."""
    results = {}
    for workload in W.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    for workload, res in results.items():
        print(f"{workload}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for name, metric in res["metrics"].items():
            print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*W.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blocks", type=int, default=None,
                        help="task pool size in blocks (default: per workload)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.blocks is None:
        args.blocks = W.POOL_BLOCKS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = (trace if args.trace else measure)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
