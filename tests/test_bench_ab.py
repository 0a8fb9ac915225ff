"""The A/B driver's parsing and summary, on canned ``bench/run.py`` output."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "scripts" / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

SPEC = {"end_to_end": [
    {"name": "checkpoint.load_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "sweep.cells_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]}


def canned_stdout(src_lines: int, load_s: float, cells: float, failed: int = 0) -> str:
    """What ``bench/run.py --trace 0`` prints, with ``setup_s`` left unmeasured."""
    env = {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2, "src_lines": src_lines}
    metrics = {"checkpoint.load_s": {"value": load_s, "unit": "s"},
               "sweep.cells_per_s": {"value": cells, "unit": "1/s"}}
    return "\n".join([
        "environment " + json.dumps(env, sort_keys=True),
        "workload infer-sweep",
        f"checkpoint.load_s = {load_s:.6g} s",
        f"sweep.cells_per_s = {cells:.6g} 1/s",
        json.dumps({"correct": failed == 0, "attempted": 40, "failed": failed,
                    "metrics": metrics}),
    ]) + "\n"


def run_record(pair: int, side: str, stdout: str) -> dict:
    env, result = bench_ab.parse_output(stdout)
    return {"workload": "infer-sweep", "pair": pair, "seed": pair, "side": side,
            "environment": env, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def test_parse_output_reads_environment_and_result_lines():
    env, result = bench_ab.parse_output(canned_stdout(3105, 0.018, 178.0, failed=2))
    assert env["src_lines"] == 3105
    assert result["attempted"] == 40 and result["failed"] == 2
    assert result["metrics"]["checkpoint.load_s"]["value"] == 0.018


def test_summary_medians_wins_iqr_and_counts():
    loads = [(0.018, 0.003), (0.019, 0.0029), (0.017, 0.0031), (0.020, 0.003)]
    cells = [(178.0, 200.0), (180.0, 170.0), (176.0, 201.0), (179.0, 199.0)]
    runs = []
    for pair, ((p_load, c_load), (p_cells, c_cells)) in enumerate(zip(loads, cells)):
        runs.append(run_record(pair, "parent", canned_stdout(3105, p_load, p_cells)))
        runs.append(run_record(pair, "change", canned_stdout(3120, c_load, c_cells,
                                                             failed=int(pair == 3))))
    runs.append({"workload": "infer-sweep", "pair": 4, "seed": 4, "side": "parent",
                 "error": "bench error: set-up failed"})  # an unpaired, crashed run
    summary = bench_ab.summarize(runs, SPEC)["infer-sweep"]

    assert summary["src_lines"] == {"parent": 3105, "change": 3120}
    assert summary["operations"] == {
        "parent": {"runs": 5, "runs_failed": 1, "attempted": 160, "failed": 0},
        "change": {"runs": 4, "runs_failed": 0, "attempted": 160, "failed": 1},
    }
    assert "setup_s" not in summary["metrics"]  # no run measured it

    load = summary["metrics"]["checkpoint.load_s"]
    assert load["parent_median"] == pytest.approx(0.0185)
    assert load["change_median"] == pytest.approx(0.003)
    assert load["change_pct"] == pytest.approx(100 * (0.003 - 0.0185) / 0.0185)
    assert load["wins"] == 4 and load["pairs"] == 4  # lower is better
    assert load["parent_iqr"] == pytest.approx(0.01925 - 0.01775)
    assert load["verdict"] == "gain"
    assert (load["unit"], load["better"], load["bound"]) == ("s", "lower", 0.25)

    rate = summary["metrics"]["sweep.cells_per_s"]
    assert rate["wins"] == 3  # higher is better; pair 1 lost
    assert rate["verdict"] == "unchanged"  # 3 of 4 is below nine in ten


@pytest.mark.parametrize("parent, change, better, expected", [
    ([10.0, 10.0, 10.0, 10.0], [13.0, 13.0, 13.0, 13.0], "lower", "worse"),
    ([10.0, 10.0, 10.0, 10.0], [13.0, 13.0, 13.0, 13.0], "higher", "gain"),
    ([10.0, 10.1, 10.0, 10.1], [10.0, 10.1, 10.1, 10.0], "higher", "unchanged"),
    # the parent spreads wider than the bound and the sides overlap
    ([6.0, 14.0, 6.0, 14.0], [7.0, 13.0, 8.0, 12.0], "higher", "unresolved"),
    ([10.0, 10.0, 10.0, 10.0], [10.0, 10.0, 10.0, 10.0], "lower", "unchanged"),  # ties
])
def test_compare_verdicts(parent, change, better, expected):
    assert bench_ab.compare(parent, change, better, 0.25)["verdict"] == expected


def test_tape_length_counts_the_default_step():
    assert bench_ab.tape_length(ROOT) == 169
