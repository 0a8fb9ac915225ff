"""Print a sha256 of every file a fixed CLI recipe writes.

In a temporary directory, removed afterwards, the script runs ``robsurv``
from this checkout's ``src``: ``gen`` of a 16-patient cohort; ``train`` with
the default config, with an early-stopped no-quantization ablation and with
two-head fusion; a clean and a noisy ``eval`` of the default model; and
three ``sweep``s, one per model, the two-head one on a two-thread pool and
the no-quantization one with a noise spec that changes no volume.  It prints
one ``<path> sha256=<hex>`` line per file the train, eval and sweep runs
write, and one for the cohort directory as a whole, paths relative to the
temporary directory.  Two versions of the code that print the same lines
write byte-identical artifacts, so a refactor can be checked by running this
before and after.  It takes about 10 s on 2 vCPUs.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

CONFIGS = {
    "early.json": {"patience": 2, "epochs": 12},
    "heads.json": {"fusion": {"n_heads": 2}},
}
SWEEP = ["--data", "cohort", "--fractions", "0,0.25,0.5,1.0", "--seeds", "0,1,1"]
# (extra environment, arguments); every --out but the cohort's is digested file by file
RECIPE = [
    ({}, ["gen", "--n", "16", "--seed", "3", "--out", "cohort"]),
    ({}, ["train", "--data", "cohort", "--out", "default"]),
    ({}, ["train", "--data", "cohort", "--config", "early.json", "--ablate", "no-vq",
          "--out", "no-vq"]),
    ({}, ["train", "--data", "cohort", "--config", "heads.json", "--out", "heads"]),
    ({}, ["eval", "--model", "default/model.safetensors", "--data", "cohort",
          "--out", "eval-clean"]),
    ({}, ["eval", "--model", "default/model.safetensors", "--data", "cohort",
          "--noise-ct", "0.1", "--noise-pet", "high", "--noise-frac", "0.5",
          "--noise-seed", "1", "--out", "eval-noisy"]),
    ({}, ["sweep", "--model", "default/model.safetensors", *SWEEP, "--out", "sweep"]),
    ({"ROBSURV_THREADS": "2"},
     ["sweep", "--model", "heads/model.safetensors", *SWEEP, "--out", "sweep-threads"]),
    ({}, ["sweep", "--model", "no-vq/model.safetensors", *SWEEP,
          "--noise-ct", "0", "--noise-pet", "none", "--out", "sweep-clean"]),
]


def _run(workdir: pathlib.Path, extra_env: dict, args: list) -> None:
    env = {**os.environ, "PYTHONPATH": str(SRC), "ROBSURV_THREADS": "1", **extra_env}
    done = subprocess.run([sys.executable, "-m", "robsurv", *args], cwd=workdir, env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"robsurv {' '.join(args)} exited {done.returncode}:\n{done.stderr}")


def _files(directory: pathlib.Path) -> list:
    return sorted(p for p in directory.rglob("*") if p.is_file())


def main():
    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(tmp)
        for name, config in CONFIGS.items():
            (workdir / name).write_text(json.dumps(config))
        for extra_env, args in RECIPE:
            _run(workdir, extra_env, args)

        cohort = hashlib.sha256()
        for path in _files(workdir / "cohort"):
            data = path.read_bytes()
            cohort.update(f"{path.name}\0{len(data)}\0".encode())
            cohort.update(data)
        print(f"cohort/ sha256={cohort.hexdigest()}")
        for _, args in RECIPE[1:]:
            for path in _files(workdir / args[-1]):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{path.relative_to(workdir)} sha256={digest}")


if __name__ == "__main__":
    main()
