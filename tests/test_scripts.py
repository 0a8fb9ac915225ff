"""The example scripts run end to end at a small cohort size, and the digest
scripts print the same lines on every run."""

import subprocess
import sys
from pathlib import Path

from robsurv import trainer

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, *args) -> subprocess.CompletedProcess:
    done = subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, args)],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr[-2000:]
    return done


def test_train_demo_saves_a_loadable_model(tmp_path):
    out = tmp_path / "model.json"
    done = run_script("train_demo.py", "--n", 24, "--out", out)
    assert f"model written to {out}" in done.stdout
    model = trainer.SurvivalModel.load(out)
    assert model.config.folds == 2


def test_noise_robustness_prints_every_fraction():
    done = run_script("noise_robustness.py", "--n", 24)
    rows = [line.split() for line in done.stdout.splitlines()]
    fractions = [row[0] for row in rows if len(row) == 3 and row[0][0].isdigit()]
    assert fractions == ["0.10", "0.25", "0.50", "0.75", "1.00"]


def test_step_digest_is_reproducible():
    first, second = (run_script("step_digest.py").stdout.splitlines() for _ in range(2))
    assert first == second
    assert len(first) == 15 and all("sha256=" in line for line in first)


def test_artifact_digest_is_reproducible():
    first, second = (run_script("artifact_digest.py").stdout.splitlines() for _ in range(2))
    assert first == second
    # the cohort directory, 3 files per training (3) and eval (2), 2 per sweep (3)
    assert len(first) == 1 + 3 * 3 + 3 * 2 + 2 * 3
    assert first[0].startswith("cohort/ sha256=")
    assert all(" sha256=" in line for line in first)
