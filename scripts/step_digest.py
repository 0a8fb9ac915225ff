"""Print a digest of one training step per model variant.

For the default config, the three ablations and a two-risk model, each at
batch 2 and 8, the script builds the model from fixed seeds, runs forward,
losses and backward once, and prints one line per case: the tape length and
a sha256 over the loss, every parameter gradient in sorted-name order and the
outputs of ``predict`` on the same batch.  Two versions of the code that print
the same lines compute the same step to the bit, so a refactor of the
autodiff core or the model can be checked by running this before and after.

Then, per case at batch 2, it runs ``ADAM_STEPS`` training steps with
``Adam`` and prints a sha256 over every parameter and both moment slots
(``Adam.m``, ``Adam.v``), so a change to the optimizer can be checked to the
bit the same way.
"""

import dataclasses
import hashlib
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from robsurv import autodiff as ad
from robsurv.optim import Adam
from robsurv.synthdata import CohortConfig, generate_cohort
from robsurv.trainer import SurvivalModel, TrainConfig, assign_bins

CASES = {
    "default": {},
    "no-vq": {"use_quantization": False},
    "no-cont": {"use_continuous": False},
    "no-fuse": {"use_cross_fusion": False},
    "risks2": {"n_risks": 2},
}
BATCHES = (2, 8)
ADAM_STEPS = 3


def _setup(changes: dict, batch: int):
    config = dataclasses.replace(TrainConfig(), **changes)
    cohort = generate_cohort(batch, CohortConfig(n_risks=config.n_risks, seed=4))
    edges = np.arange(1.0, config.n_bins)
    model = SurvivalModel.init(config, np.random.default_rng([0, 1]), edges)
    return config, cohort, assign_bins(cohort.times, edges), model


def _backward(model: SurvivalModel, cohort, bins: np.ndarray):
    """One forward, losses and backward pass; returns the loss bundle and tape length."""
    ad.reset_graph()
    bundle = model.losses(model.forward(cohort.ct, cohort.pet), bins, cohort.events)
    tape = len(ad.active_graph())
    ad.backward(bundle.total)
    ad.reset_graph()
    return bundle, tape


def step_digest(changes: dict, batch: int) -> tuple[int, str]:
    """Tape length and sha256 of one step of ``TrainConfig(**changes)`` at ``batch``."""
    _, cohort, bins, model = _setup(changes, batch)
    bundle, tape = _backward(model, cohort, bins)

    digest = hashlib.sha256(bundle.total.data.tobytes())
    for name in sorted(model.params):
        grad = model.params[name].grad
        digest.update(name.encode())
        digest.update(b"none" if grad is None else grad.tobytes())
    values, survival, indices = model.predict(cohort.ct, cohort.pet)
    digest.update(values.tobytes())
    digest.update(survival.tobytes())
    for modality in sorted(indices or {}):
        digest.update(indices[modality].tobytes())
    return tape, digest.hexdigest()


def adam_digest(changes: dict, batch: int) -> str:
    """sha256 over the parameters, ``Adam.m`` and ``Adam.v`` after ``ADAM_STEPS`` steps."""
    config, cohort, bins, model = _setup(changes, batch)
    optimizer = Adam(model.trainable(), lr=config.lr)
    for _ in range(ADAM_STEPS):
        optimizer.zero_grad()
        _backward(model, cohort, bins)
        optimizer.step()
    digest = hashlib.sha256()
    for name in sorted(model.params):
        digest.update(name.encode())
        digest.update(model.params[name].data.tobytes())
    for moment in optimizer.m + optimizer.v:
        digest.update(moment.tobytes())
    return digest.hexdigest()


def main():
    for name, changes in CASES.items():
        for batch in BATCHES:
            tape, digest = step_digest(changes, batch)
            print(f"{name:<8} batch={batch} tape={tape} sha256={digest}")
    for name, changes in CASES.items():
        print(f"{name:<8} batch=2 adam{ADAM_STEPS} sha256={adam_digest(changes, 2)}")


if __name__ == "__main__":
    main()
