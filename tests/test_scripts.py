"""The example scripts run end to end at a small cohort size."""

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
