"""End-to-end demo: synthesize a cohort, train, evaluate clean and corrupted.

Runs in about half a minute on one core. All stages are seeded, so repeated
invocations with the same arguments print identical numbers.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from robsurv.synthdata import CohortConfig, NoiseSpec, generate_cohort
from robsurv.trainer import TrainConfig, evaluate, train


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=120, help="cohort size")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="optional path to save the model (safetensors layout)")
    args = ap.parse_args()

    cohort = generate_cohort(args.n, CohortConfig(censor_rate=0.3, seed=args.seed))
    n_train = int(args.n * 0.75)
    train_split = cohort.subset(range(n_train))
    held_out = cohort.subset(range(n_train, args.n))
    print(f"cohort: {args.n} patients, {int(cohort.events.sum())} events, "
          f"{n_train} train / {args.n - n_train} held out")

    config = TrainConfig(epochs=20, folds=2, n_bins=5, seed=args.seed)
    model, reports = train(train_split, config)
    for rep in reports:
        print(f"fold {rep.fold}: best epoch {rep.best_epoch}, val c_td {rep.best_val_ctd:.4f}")

    clean = evaluate(model, held_out)
    noise = NoiseSpec(ct_sigma=0.1, pet_level="high", noisy_fraction=0.5)
    noisy = evaluate(model, held_out, noise=noise, noise_seed=args.seed)
    print(f"held-out clean c_td:   {clean.c_td[1]:.4f}  (logrank p {clean.logrank_p:.4g})")
    print(f"held-out noisy c_td:   {noisy.c_td[1]:.4f}  ({noisy.n_noisy}/{noisy.n} corrupted)")

    if args.out:
        model.save(args.out)
        print(f"model written to {args.out}")


if __name__ == "__main__":
    main()
