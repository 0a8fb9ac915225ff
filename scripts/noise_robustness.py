"""Compare corruption robustness of the full model against a no-quantization ablation.

Trains both variants on the same synthetic cohort, then evaluates held-out
concordance while an increasing fraction of patients has noise injected into
their volumes. Prints one row per corruption fraction.
"""

import argparse
import dataclasses
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from robsurv.synthdata import CT_SIGMA_CHOICES, CohortConfig, generate_cohort
from robsurv.trainer import TrainConfig, evaluate_sweep, train


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=120)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sigma", type=float, default=0.1, choices=CT_SIGMA_CHOICES,
                    help="CT noise level")
    ap.add_argument("--pet", default="high", choices=("low", "medium", "high"))
    args = ap.parse_args()

    cohort = generate_cohort(args.n, CohortConfig(censor_rate=0.3, seed=args.seed))
    n_train = int(args.n * 0.75)
    train_split = cohort.subset(range(n_train))
    held_out = cohort.subset(range(n_train, args.n))

    config = TrainConfig(epochs=20, folds=2, n_bins=5, seed=args.seed)
    print("training full model...")
    full, _ = train(train_split, config)
    print("training no-quantization ablation...")
    ablated, _ = train(train_split, dataclasses.replace(config, use_quantization=False))

    fractions = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)
    full_ctd, abl_ctd = (
        [r.c_td[1] for r in evaluate_sweep(model, held_out, fractions, [args.seed],
                                           ct_sigma=args.sigma, pet_level=args.pet)]
        for model in (full, ablated))
    print(f"clean held-out c_td: full {full_ctd[0]:.4f}, no-vq {abl_ctd[0]:.4f}")
    print(f"{'fraction':>8}  {'full':>8}  {'no-vq':>8}")
    for i in range(1, len(fractions)):
        print(f"{fractions[i]:>8.2f}  {full_ctd[i]:>8.4f}  {abl_ctd[i]:>8.4f}")


if __name__ == "__main__":
    main()
