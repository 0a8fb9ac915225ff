"""robsurv benchmark: one workload, one process, one JSON result line.

Usage (from the repository root)::

    python3 bench/run.py --workload train-b2 --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it name
every metric with its unit, plus the environment.  A full record (and, when
traced, every span and the step table) goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.

The workloads, their phases and their checks live in ``workloads.py``; the
metric names and units are the ones listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before numpy loads: with default threading a
# batch-2 step is bimodal (22 ms or 65 ms) on a 2-core machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["ROBSURV_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def fail(message: str) -> None:
    print(f"bench error: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_program():
    """Import robsurv from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "robsurv" / "__init__.py").is_file():
        fail(f"no robsurv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import robsurv

    if Path(robsurv.__file__).resolve().parent != SRC / "robsurv":
        fail(f"imported robsurv from {robsurv.__file__}, not from {SRC}")
    import workloads

    return workloads


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=20, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment() -> dict:
    import numpy as np

    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke check's reduced sizes")
    args = parser.parse_args(argv)

    wl = import_program()
    if args.workload not in wl.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    expected = declared_metrics()[args.trace]
    workload, size = wl.WORKLOADS[args.workload], wl.SIZES[args.size]
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)

    env = environment()
    runner = wl.run_traced if args.trace else wl.run_untraced
    run, metrics, details = runner(workload, size, args.seed, args.seconds, workdir)

    missing = sorted(set(expected) - set(metrics))
    if missing:
        fail(f"metrics not measured: {', '.join(missing)}; failures: {run.failures}")
    metrics = {name: metrics[name] for name in expected}
    for name, unit in expected.items():
        if metrics[name]["unit"] != unit:
            fail(f"{name} measured in {metrics[name]['unit']}, declared in {unit}")
        if not math.isfinite(metrics[name]["value"]):
            fail(f"{name} is {metrics[name]['value']}")

    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, size=args.size, environment=env,
                  failures=run.failures, details=details)
    record_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record) + "\n")

    print("environment " + json.dumps(env, sort_keys=True))
    print(wl.describe(run))
    for failure in run.failures:
        print(f"failure: {failure}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
