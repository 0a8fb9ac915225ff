"""Command line front end: cohort generation, training, evaluation, sweeps.

Every command writes its artifacts atomically into the requested output
directory (one ``manifest.json`` each) and reports results as ``key=value``
lines on stdout.  Exit codes: 0 success, 2 usage or validation problem,
3 unusable input data, 4 numerical failure.

Re-running a command with identical arguments reproduces every output file
byte for byte; timing measurements are kept out of the written reports for
that reason.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import stats, trainer
from .errors import (
    ConfigError,
    DataFormatError,
    DegenerateGroupsError,
    IncompatibleInputError,
    InvalidOutcomeError,
    NumericsError,
    TrainingDivergedError,
    UndefinedMetricError,
    UndefinedTestError,
)
from .fileio import atomic_text, ensure_dir
from .synthdata import (
    PET_LEVELS,
    CohortConfig,
    NoiseSpec,
    generate_cohort,
    load_cohort,
    save_cohort,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4

MANIFEST_VERSION = 1

_USAGE_ERRORS = (ConfigError,)
_INPUT_ERRORS = (
    DataFormatError,
    IncompatibleInputError,
    InvalidOutcomeError,
    UndefinedMetricError,
    UndefinedTestError,
    DegenerateGroupsError,
)
_NUMERIC_ERRORS = (NumericsError, TrainingDivergedError)

PET_CHOICES = ("none", *PET_LEVELS)
# --ablate choice -> the TrainConfig switches it sets
ABLATIONS = {
    "none": {},
    "no-vq": {"use_quantization": False},
    "no-cont": {"use_continuous": False},
    "no-fuse": {"use_cross_fusion": False},
}


def _emit(pairs: dict) -> None:
    for key, value in pairs.items():
        print(f"{key}={value}")


def _write_json(path: Path, payload: dict) -> None:
    atomic_text(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _run_manifest(out_dir: Path, run: dict) -> None:
    _write_json(out_dir / "manifest.json", {"format_version": MANIFEST_VERSION, "run": run})


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> None:
    config = CohortConfig(volume_side=args.side, n_risks=args.risks,
                          censor_rate=args.censor_rate, seed=args.seed)
    cohort = generate_cohort(args.n, config)
    out_dir = Path(args.out)
    save_cohort(cohort, out_dir)
    _emit({
        "command": "gen",
        "out": out_dir,
        "patients": cohort.n,
        "events": int((cohort.events > 0).sum()),
        "censored": int((cohort.events == 0).sum()),
        "seed": args.seed,
    })


# ---------------------------------------------------------------------------
# train


def _load_train_config(path: str | None, ablate: str) -> trainer.TrainConfig:
    raw = {}
    if path is not None:
        file = Path(path)
        if not file.is_file():
            raise ConfigError(f"config file not found: {file}")
        try:
            raw = json.loads(file.read_text())
        except ValueError as err:  # undecodable bytes or invalid JSON
            raise ConfigError(f"config file is not valid JSON: {err}") from None
    # the ablation flag wins over whatever the config file says
    return dataclasses.replace(trainer.config_from_dict(raw), **ABLATIONS[ablate])


def _strip_timing(report: dict) -> dict:
    report = dict(report)
    report.pop("wall_clock")
    return report


def cmd_train(args) -> None:
    cohort = load_cohort(args.data)
    config = _load_train_config(args.config, args.ablate)
    model, reports = trainer.train(cohort, config)
    best = trainer.best_fold(reports)

    out_dir = Path(args.out)
    ensure_dir(out_dir)
    model.save(out_dir / "model.json")
    _write_json(out_dir / "report.json", {
        "best_fold": best.fold,
        "folds": [_strip_timing(r.to_dict()) for r in reports],
    })
    _run_manifest(out_dir, {
        "command": "train",
        "ablate": args.ablate,
        "config": trainer.config_to_dict(config),
    })
    _emit({
        "command": "train",
        "out": out_dir,
        "model": out_dir / "model.json",
        "folds": len(reports),
        "best_fold": best.fold,
        "best_val_ctd": repr(best.best_val_ctd),
        "wall_clock_total": round(sum(r.wall_clock for r in reports), 3),
    })


# ---------------------------------------------------------------------------
# eval


def _noise_from_flags(ct_sigma: float, pet: str, fraction: float) -> NoiseSpec | None:
    level = None if pet == "none" else pet
    spec = NoiseSpec(ct_sigma=ct_sigma, pet_level=level, noisy_fraction=fraction)
    return None if spec.is_clean else spec


def cmd_eval(args) -> None:
    model = trainer.SurvivalModel.load(args.model)
    cohort = load_cohort(args.data)
    spec = _noise_from_flags(args.noise_ct, args.noise_pet, args.noise_frac)
    report = trainer.evaluate(model, cohort, spec, noise_seed=args.noise_seed)

    out_dir = Path(args.out)
    ensure_dir(out_dir)
    _write_json(out_dir / "metrics.json", report.metrics_dict())
    stats.write_km_csv(out_dir / "km.csv", report.km)
    _run_manifest(out_dir, {
        "command": "eval",
        "noise": None if spec is None else dataclasses.asdict(spec),
        "noise_seed": args.noise_seed,
    })
    pairs = {"command": "eval", "out": out_dir, "n": report.n, "n_noisy": report.n_noisy}
    for cause, value in sorted(report.c_td.items()):
        pairs[f"c_td_{cause}"] = repr(value)
    pairs["logrank_p"] = repr(report.logrank_p)
    _emit(pairs)


# ---------------------------------------------------------------------------
# sweep


def _parse_list(text: str, kind, label: str) -> list:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise ConfigError(f"{label} list is empty")
    try:
        return [kind(piece) for piece in items]
    except ValueError as err:
        raise ConfigError(f"bad {label} list: {err}") from None


def _thread_budget() -> int:
    raw = os.environ.get("ROBSURV_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        raise ConfigError(f"ROBSURV_THREADS must be an integer, got {raw!r}") from None
    if threads < 1:
        raise ConfigError("ROBSURV_THREADS must be at least 1")
    return threads


def cmd_sweep(args) -> None:
    model = trainer.SurvivalModel.load(args.model)
    cohort = load_cohort(args.data)
    fractions = _parse_list(args.fractions, float, "fractions")
    seeds = _parse_list(args.seeds, int, "seeds")
    threads = _thread_budget()
    reports = trainer.evaluate_sweep(
        model, cohort, fractions, seeds, ct_sigma=args.noise_ct,
        pet_level=None if args.noise_pet == "none" else args.noise_pet, threads=threads)
    cells = [(frac, seed) for frac in fractions for seed in seeds]

    out_dir = Path(args.out)
    ensure_dir(out_dir)
    lines = ["fraction,seed,c_td"]
    lines += [f"{frac!r},{seed},{report.c_td[1]!r}" for (frac, seed), report in zip(cells, reports)]
    atomic_text(out_dir / "sweep.csv", "\n".join(lines) + "\n")
    _run_manifest(out_dir, {
        "command": "sweep",
        "fractions": fractions,
        "seeds": seeds,
        "noise_ct": args.noise_ct,
        "noise_pet": args.noise_pet,
    })
    _emit({
        "command": "sweep",
        "out": out_dir,
        "cells": len(cells),
        "threads": threads,
        "csv": out_dir / "sweep.csv",
    })


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robsurv",
        description="Multimodal survival models on synthetic volumes: "
                    "generate cohorts, train, evaluate, run noise sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic cohort on disk")
    gen.add_argument("--n", type=int, required=True, help="number of patients")
    gen.add_argument("--side", type=int, default=16, help="volume side length")
    gen.add_argument("--risks", type=int, default=1, choices=(1, 2))
    gen.add_argument("--censor-rate", type=float, default=0.3)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    train = sub.add_parser("train", help="train a model on a stored cohort")
    train.add_argument("--data", required=True, help="cohort directory")
    train.add_argument("--config", help="JSON file with training settings")
    train.add_argument("--out", required=True)
    train.add_argument("--ablate", choices=ABLATIONS, default="none")
    train.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a stored model on a cohort")
    ev.add_argument("--model", required=True, help="model.json path")
    ev.add_argument("--data", required=True)
    ev.add_argument("--noise-ct", type=float, default=0.0)
    ev.add_argument("--noise-pet", choices=PET_CHOICES, default="none")
    ev.add_argument("--noise-frac", type=float, default=0.0)
    ev.add_argument("--noise-seed", type=int, default=0)
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=cmd_eval)

    sweep = sub.add_parser("sweep", help="evaluate across noise fractions and seeds")
    sweep.add_argument("--model", required=True)
    sweep.add_argument("--data", required=True)
    sweep.add_argument("--fractions", required=True, help="comma separated, e.g. 0,0.25,0.5")
    sweep.add_argument("--seeds", required=True, help="comma separated integers")
    sweep.add_argument("--noise-ct", type=float, default=0.1)
    sweep.add_argument("--noise-pet", choices=PET_CHOICES, default="high")
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except _USAGE_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except _INPUT_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except _NUMERIC_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def entrypoint() -> None:
    raise SystemExit(main())
