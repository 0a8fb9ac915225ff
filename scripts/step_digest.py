"""Print a digest of one training step per model variant.

For the default config, the three ablations and a two-risk model, each at
batch 2 and 8, the script builds the model from fixed seeds, runs forward,
losses and backward once, and prints one line per case: the tape length and
a sha256 over the loss, every parameter gradient in sorted-name order and the
outputs of ``predict`` on the same batch.  Two versions of the code that print
the same lines compute the same step to the bit, so a refactor of the
autodiff core or the model can be checked by running this before and after.
"""

import dataclasses
import hashlib
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from robsurv import autodiff as ad
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


def step_digest(changes: dict, batch: int) -> tuple[int, str]:
    """Tape length and sha256 of one step of ``TrainConfig(**changes)`` at ``batch``."""
    config = dataclasses.replace(TrainConfig(), **changes)
    cohort = generate_cohort(batch, CohortConfig(n_risks=config.n_risks, seed=4))
    edges = np.arange(1.0, config.n_bins)
    model = SurvivalModel.init(config, np.random.default_rng([0, 1]), edges)
    ad.reset_graph()
    bundle = model.losses(model.forward(cohort.ct, cohort.pet),
                          assign_bins(cohort.times, edges), cohort.events)
    tape = len(ad.active_graph())
    ad.backward(bundle.total)
    ad.reset_graph()

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


def main():
    for name, changes in CASES.items():
        for batch in BATCHES:
            tape, digest = step_digest(changes, batch)
            print(f"{name:<8} batch={batch} tape={tape} sha256={digest}")


if __name__ == "__main__":
    main()
