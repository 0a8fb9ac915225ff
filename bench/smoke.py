"""Smoke check of the benchmark itself.

Runs every workload at the tiny size, untraced and traced, and asserts that
each run exits 0, passes its output checks and emits every metric that
``BENCHMARK.json`` names, with the declared unit::

    python3 bench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 300


def check(workload: str, trace: int) -> list[str]:
    declared = SPEC["per_layer" if trace else "end_to_end"]
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
            "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    if done.returncode != 0:
        return [f"exit {done.returncode}: {done.stderr.strip()[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"checks: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        problems.append(f"metric names differ from BENCHMARK.json: {sorted(metrics)}")
    for m in declared:
        got = metrics.get(m["name"])
        if got is None or got.get("unit") != m["unit"] or not isinstance(got.get("value"),
                                                                        (int, float)):
            problems.append(f"{m['name']}: {got}")
    return problems


def main() -> int:
    failures = 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            problems = check(workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not problems else 'FAIL'}")
            for problem in problems:
                print(f"  {problem}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
