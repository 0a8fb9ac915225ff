"""The benchmark's own smoke check, run as part of the test suite.

``bench/`` calls robsurv's public names directly (``model.params``,
``Adam.params``, ``trainer.apply_noise_mix``, ``cli.load_cohort`` and more),
so removing or renaming one of them must fail here rather than first in a
benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "smoke.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=1800)
    assert done.returncode == 0, done.stdout + done.stderr[-2000:]
