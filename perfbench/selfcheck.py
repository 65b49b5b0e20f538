"""Check of the benchmark itself, on a one-block task pool per workload.

Run from anywhere:

    python3 perfbench/selfcheck.py

For every workload in BENCHMARK.json it asserts that an untraced run prints
each end-to-end metric with its unit, that a traced run prints each
per-layer metric with its unit, and that the counts (``*.calls`` and
``integrate.steps.*``) of two traced runs with the same seed are identical.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def require(ok: bool, message: str):
    if not ok:
        raise SystemExit(f"selfcheck: {message}")


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--blocks", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    require(proc.returncode == 0, f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(label: str, result: dict, specs: list):
    require(set(result) == {"correct", "attempted", "failed", "metrics"},
            f"{label}: result keys {sorted(result)}")
    require(result["correct"] is True, f"{label}: outputs not correct")
    require(result["attempted"] >= 1, f"{label}: no task attempted")
    want = {spec["name"]: spec["unit"] for spec in specs}
    got = result["metrics"]
    require(set(got) == set(want), f"{label}: metrics differ: {sorted(set(got) ^ set(want))}")
    for name, unit in want.items():
        require(got[name]["unit"] == unit, f"{label}: {name} has unit {got[name]['unit']}")
        require(isinstance(got[name]["value"], (int, float)), f"{label}: {name} not a number")


def is_count(name: str) -> bool:
    return name.endswith(".calls") or name.startswith("integrate.steps.")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for workload in (w["name"] for w in bench["workloads"]):
        check_result(f"{workload} untraced", run(workload, 0), bench["end_to_end"])
        first, second = run(workload, 1), run(workload, 1)
        for result in (first, second):
            check_result(f"{workload} traced", result, bench["per_layer"])
        counts = [{k: v["value"] for k, v in r["metrics"].items() if is_count(k)}
                  for r in (first, second)]
        require(counts[0] == counts[1], f"{workload}: counts differ between two traced runs")
        print(f"{workload}: ok, {len(counts[0])} counts repeat")
    return 0


if __name__ == "__main__":
    sys.exit(main())
