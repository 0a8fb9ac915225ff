"""A/B benchmark: a parent revision against the working tree, in alternating pairs.

Usage (from the repository root)::

    python3 scripts/bench_ab.py --parent HEAD~1 --workloads infer-sweep train-b2 \\
        --pairs 10 --seconds 25 --out BENCH_18.json

The parent is checked out into a temporary ``git worktree``, which is always
removed again.  Pair ``i`` runs ``bench/run.py --trace 0`` with seed
``first_seed + i`` once on each side for every workload, the parent first on
even pairs and the working tree first on odd ones.  The output file holds
both SHAs, the environment line, every run's metrics, and per workload and
end-to-end metric: both medians, the % change, the pairs the change won
(judged by ``better`` in ``BENCHMARK.json``, ties count for neither), the
parent's interquartile range, a verdict against the metric's bound, the
failed/attempted operation counts and each side's ``src/`` line count and
tape length (see ``tape_length``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# one default-config batch-2 forward plus losses, counted by the checkout's own script
TAPE_PROBE = ("import sys; sys.path.insert(0, 'scripts'); import step_digest; "
              "print(step_digest.step_digest({}, 2)[0])")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def parse_output(stdout: str) -> tuple[dict, dict]:
    """The environment and the result of one ``bench/run.py`` run, from its stdout."""
    lines = stdout.strip().splitlines()
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines
               if line.startswith("environment "))
    return env, json.loads(lines[-1])


def tape_length(checkout: Path) -> int | None:
    """The tape records of one default-config batch-2 step in ``checkout``, as
    its ``scripts/step_digest.py`` counts them; None if the count fails."""
    done = subprocess.run([sys.executable, "-c", TAPE_PROBE], cwd=checkout,
                          capture_output=True, text=True, check=False)
    return int(done.stdout) if done.returncode == 0 else None


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; a run that exits non-zero is kept with its error."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        return {"error": (done.stderr + done.stdout).strip()[-2000:] or f"exit {done.returncode}"}
    env, result = parse_output(done.stdout)
    return {"environment": env, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def compare(parent: list, change: list, better: str, bound: float) -> dict:
    """Paired runs of one metric.  The verdict is ``worse`` past the bound,
    ``gain`` when the change wins nine pairs in ten and its median beats the
    parent's by more than the parent's interquartile range, ``unresolved``
    when that range exceeds the bound and not every change run beats every
    parent run, and ``unchanged`` otherwise."""
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    low, high = np.percentile(parent, [25, 75])
    iqr = float(high - low)
    wins = sum(sign * c > sign * p for p, c in zip(parent, change))
    gain = sign * (c_med - p_med)  # positive when the change is better
    if gain < -bound * abs(p_med):
        verdict = "worse"
    elif wins >= 0.9 * len(parent) and gain > iqr:
        verdict = "gain"
    elif (iqr > bound * abs(p_med)
          and min(sign * c for c in change) <= max(sign * p for p in parent)):
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {"parent_median": p_med, "change_median": c_med,
            "change_pct": 100.0 * (c_med - p_med) / p_med, "wins": wins,
            "pairs": len(parent), "parent_iqr": iqr, "verdict": verdict}


def summarize(runs: list, spec: dict) -> dict:
    """Per workload: operation and run counts per side, ``src/`` lines, and
    for each end-to-end metric of ``spec`` (BENCHMARK.json) the comparison
    over the pairs in which both sides produced it."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        counts, src_lines = {}, {}
        for side in SIDES:
            side_runs = [r for r in mine if r["side"] == side]
            ok = [r for r in side_runs if "metrics" in r]
            counts[side] = {"runs": len(side_runs), "runs_failed": len(side_runs) - len(ok),
                            "attempted": sum(r["attempted"] for r in ok),
                            "failed": sum(r["failed"] for r in ok)}
            src_lines[side] = ok[0]["environment"]["src_lines"] if ok else None
        by_pair = {}
        for r in mine:
            if "metrics" in r:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
        pairs = [p for _, p in sorted(by_pair.items()) if len(p) == 2]
        metrics = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            both = [p for p in pairs if name in p["parent"] and name in p["change"]]
            if not both:
                continue
            parent = [p["parent"][name] for p in both]
            change = [p["change"][name] for p in both]
            metrics[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                             **compare(parent, change, m["better"], m["bound"])}
        out[workload] = {"operations": counts, "src_lines": src_lines, "metrics": metrics}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    parent_sha = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    change_sha = git("rev-parse", "HEAD")
    clean = not git("status", "--porcelain", "--untracked-files=no")
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        tree = Path(tmp) / "parent"
        git("worktree", "add", "--detach", str(tree), parent_sha)
        try:
            tapes = {"parent": tape_length(tree), "change": tape_length(ROOT)}
            for pair in range(args.pairs):
                seed = args.first_seed + pair
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for workload in args.workloads:
                    for side in order:
                        checkout = tree if side == "parent" else ROOT
                        record = run_bench(checkout, workload, seed, args.seconds)
                        runs.append({"workload": workload, "pair": pair, "seed": seed,
                                     "side": side, **record})
                        status = record.get("error", "ok").splitlines()[-1]
                        print(f"pair {pair} {workload} {side}: {status}", flush=True)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           check=False)
    git("worktree", "prune")

    envs = {side: next((r["environment"] for r in runs
                        if r["side"] == side and "environment" in r), {}) for side in SIDES}
    code = {side: {**{k: envs[side].get(k) for k in ("src_sha256", "src_lines")},
                   "tape_records": tapes[side]} for side in SIDES}
    env = envs["change"]
    report = {
        "parent": {"rev": args.parent, "sha": parent_sha, **code["parent"]},
        # run before committing, HEAD is the parent and src_sha256 names the code measured
        "change": {"sha": change_sha, "uncommitted_changes": not clean, **code["change"]},
        "environment": {k: v for k, v in env.items()
                        if k not in ("git_sha", "src_sha256", "src_lines")},
        "protocol": {"pairs": args.pairs, "seconds": args.seconds,
                     "seeds": [args.first_seed + i for i in range(args.pairs)],
                     "order": "parent first on even pairs, change first on odd pairs",
                     "command": "bench/run.py --trace 0"},
        "workloads": summarize(runs, spec),
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for workload, summary in report["workloads"].items():
        for name, m in summary["metrics"].items():
            print(f"{workload} {name}: {m['parent_median']:.6g} -> {m['change_median']:.6g} "
                  f"({m['change_pct']:+.1f}%), wins {m['wins']}/{m['pairs']}, {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
