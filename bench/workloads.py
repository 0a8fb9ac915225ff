"""The three benchmark workloads, their phases and their output checks.

Every workload is one process running a closed loop: one call after another,
no extra threads (``ROBSURV_THREADS=1``).  The seed given on the command line
fixes the cohort, the training seed and the sweep's noise seeds; the program
only ever sees the generated cohort, read back from disk.

* ``train-b2``: fixed-work ``trainer.train`` at the acceptance configuration
  (batch 2, 3 folds) takes most of the measured time.
* ``train-b32``: the same at batch 32, where arithmetic rather than per-op
  overhead dominates a step.
* ``infer-sweep``: set-up trains and saves a model; the measured loop records
  no tape and runs no backward or Adam step.

The serving operations (checkpoint round trip, predict, CLI sweep) run on
every workload, interleaved with training where there is any, so that every
end-to-end metric is reported for each workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import resource
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from robsurv import autodiff as ad
from robsurv import cli, fusion, optim, stats, survival, synthdata, trainer, vq

from meter import CHECKPOINT, Meter
from tracing import STEP, Tracer, annotate, self_times, step_table

# a measured call is split into segments where these return (see meter.py)
SEGMENT_HOOKS = ((optim.Adam, "step"), (trainer.SurvivalModel, "predict"))
MODULES = {
    "autodiff": ad, "cli": cli, "fusion": fusion, "optim": optim, "stats": stats,
    "survival": survival, "synthdata": synthdata, "trainer": trainer, "vq": vq,
}

# batch-1 and batch-32 predictions differ in the last bit (up to 2.2e-16
# measured), so the agreement check is a tolerance, not bitwise equality
PREDICT_ATOL = 1e-12
# infer-sweep builds its model during set-up, as train-b32 trains
SETUP_TRAIN_BATCH = 32
SWEEP_NOISE_SEEDS = 3
# batch-1 predictions per scheduled latency operation: short bursts spread
# the samples over many moments of the run, so one slow stretch of the
# machine cannot fill the latency tail on its own
LATENCY_BURST = 5


@dataclass(frozen=True)
class Size:
    side: int
    n_train: int
    n_held: int
    epochs: int
    setup_reps: int
    minimum: dict           # operation -> fewest runs in the measured loop
    fractions: tuple
    probe_reps: int


# exactly 200 latency bursts = 1000 batch-1 calls, so p99 is the highest
# percentile with 10 samples beyond it; two primary operations, so a traced
# run has an untraced one to compare
FULL = Size(side=16, n_train=200, n_held=64, epochs=1, setup_reps=5,
            minimum={"train": 2, "checkpoint": 3, "predict32": 5, "predict1": 200, "sweep": 2},
            fractions=tuple(round(0.1 * i, 1) for i in range(1, 11)), probe_reps=15)
# operations that run exactly their minimum number of times
CAPPED = ("predict1",)
# smoke-check size: every operation runs, nothing is measured meaningfully
TINY = Size(side=8, n_train=96, n_held=24, epochs=1, setup_reps=1,
            minimum={"train": 2, "checkpoint": 1, "predict32": 1, "predict1": 200, "sweep": 2},
            fractions=(0.5, 1.0), probe_reps=2)
SIZES = {"full": FULL, "tiny": TINY}


@dataclass(frozen=True)
class Workload:
    name: str
    train_batch: int | None       # None: no training in the measured run
    shares: dict                  # operation -> share of the measured time


# the shares give every operation several samples per run; a checkpoint
# round trip is one long segment, so it needs more samples than a
# training call cut into hundreds
_TRAIN_SHARES = {"train": 0.4, "checkpoint": 0.3, "predict32": 0.04, "predict1": 0.1,
                 "sweep": 0.16}
WORKLOADS = {
    w.name: w for w in (
        Workload("train-b2", 2, _TRAIN_SHARES),
        Workload("train-b32", 32, _TRAIN_SHARES),
        Workload("infer-sweep", None,
                 {"checkpoint": 0.31, "predict32": 0.16, "predict1": 0.1, "sweep": 0.4}),
    )
}


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def percentile_with_tail(values, q: float) -> float:
    """The q-th percentile, refusing one with fewer than 10 samples beyond it."""
    n = len(values)
    _require(n * (1.0 - q / 100.0) >= 10, f"p{q:g} of {n} samples has < 10 beyond it")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def check_reports(reports, cfg: trainer.TrainConfig) -> None:
    _require(len(reports) == cfg.folds, f"{len(reports)} fold reports for {cfg.folds} folds")
    for r in reports:
        _require(r.epochs_run == cfg.epochs,
                 f"fold {r.fold} ran {r.epochs_run} of {cfg.epochs} epochs")
        values = list(r.train_losses) + list(r.val_ctd) + [r.best_val_ctd, r.clean_ctd,
                                                          r.noisy_ctd]
        _require(all(math.isfinite(v) for v in values), f"fold {r.fold} report is not finite")


def check_cif(values: np.ndarray, surv: np.ndarray) -> None:
    _require(bool(np.all((values >= 0.0) & (values <= 1.0))), "CIF outside [0, 1]")
    _require(bool(np.all(np.diff(values, axis=1) >= 0.0)), "CIF decreases across bins")
    _require(bool(np.all((surv >= 0.0) & (surv <= 1.0))), "survival outside [0, 1]")


def check_same_params(a: trainer.SurvivalModel, b: trainer.SurvivalModel) -> None:
    _require(set(a.params) == set(b.params), "parameter names differ after load")
    for key, tensor in a.params.items():
        _require(np.array_equal(tensor.data, b.params[key].data),
                 f"parameter {key} changed in the save/load round trip")
    _require(np.array_equal(a.bin_edges, b.bin_edges), "bin edges changed after load")
    _require(a.config == b.config, "config changed after load")


def cohort_digest(cohort: synthdata.SyntheticCohort) -> str:
    digest = hashlib.sha256()
    for array in (cohort.ct, cohort.pet, cohort.times, cohort.events):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def steps_per_call(n: int, cfg: trainer.TrainConfig) -> int:
    """Optimizer steps one ``trainer.train`` call makes on ``n`` patients."""
    val_sizes = [len(c) for c in np.array_split(np.arange(n), cfg.folds)]
    return cfg.epochs * sum(math.ceil((n - v) / cfg.batch_size) for v in val_sizes)


def train_config(batch: int, size: Size, seed: int) -> trainer.TrainConfig:
    # patience >= epochs: early stopping never fires, so the amount of work
    # does not depend on the numbers the model computes
    return trainer.TrainConfig(batch_size=batch, epochs=size.epochs,
                               patience=size.epochs, seed=seed,
                               encoder=vq.EncoderConfig(volume_side=size.side))


class Run:
    """One benchmark process: set-up, warm-up, measured loop, result."""

    def __init__(self, workload: Workload, size: Size, seed: int, seconds: float,
                 workdir: Path, traced: bool):
        self.workload = workload
        self.size = size
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.model_path = workdir / "model.json"
        self.tracer = Tracer() if traced else None
        # normalized timing (meter.py); only untraced runs cut calls into
        # segments, because the kernel must not run inside traced spans
        self.meter = Meter()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list] = {}   # normalized (see meter.py)
        self.wall: dict[str, list] = {}      # the same, from wall-clock times
        self.cohort_digest: str | None = None   # of the cohort written to disk
        self.regenerated: synthdata.SyntheticCohort | None = None  # by the last set-up
        self.train_co: synthdata.SyntheticCohort | None = None
        self.held: synthdata.SyntheticCohort | None = None
        self.model: trainer.SurvivalModel | None = None   # the model every serving op uses
        self.trained: dict | None = None                  # parameters of the first training
        self.reference: tuple | None = None               # batch-32 predictions of ``held``
        self.sweep_csv: str | None = None
        self.model_json_bytes = 0
        # timed durations of the workload's primary operation (training, or the
        # sweep on infer-sweep); a traced run leaves every other one untraced
        self.primary = {True: [], False: []}

    # -- bookkeeping ----------------------------------------------------------

    def sample(self, name: str, value: float, wall: float) -> None:
        self.samples.setdefault(name, []).append(value)
        self.wall.setdefault(name, []).append(wall)

    def op(self, fn):
        """Run one operation; a raised error or failed check counts as failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception as err:  # noqa: BLE001 - every failure is counted, none crashes
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{type(err).__name__}: {err}")
            return None

    def phase(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(f"bench.{name}")

    def check_deterministic(self, model: trainer.SurvivalModel) -> None:
        """Every training call on the same cohort and config yields the same parameters."""
        if self.trained is None:
            self.trained = model.snapshot()
            return
        for key, value in self.trained.items():
            _require(np.array_equal(value, model.params[key].data),
                     f"training is not deterministic: parameter {key} differs between calls")

    # -- set-up and warm-up -----------------------------------------------------

    def cohort_config(self) -> synthdata.CohortConfig:
        return synthdata.CohortConfig(volume_side=self.size.side, censor_rate=0.3,
                                      seed=self.seed)

    def write_cohort(self) -> None:
        """Generate the cohort and write it where set-up and the sweep read it.

        Done once and untimed: writing the ~530 small files took from 0.04 s
        to 0.4 s on the machine the benchmark was written on, with the
        disk's state rather than the program.
        """
        size = self.size
        cohort = synthdata.generate_cohort(size.n_train + size.n_held, self.cohort_config())
        synthdata.save_cohort(cohort.subset(np.arange(size.n_train)), self.workdir / "train")
        synthdata.save_cohort(cohort.subset(np.arange(size.n_train, cohort.n)),
                              self.workdir / "held")
        self.cohort_digest = cohort_digest(cohort)

    def setup_once(self) -> None:
        """Generate the cohort, read it back, and on infer-sweep train and save the model."""
        size = self.size
        self.regenerated = synthdata.generate_cohort(size.n_train + size.n_held,
                                                     self.cohort_config())
        self.meter.split()
        self.train_co = synthdata.load_cohort(self.workdir / "train")
        self.held = synthdata.load_cohort(self.workdir / "held")
        if self.workload.train_batch is None:
            cfg = train_config(SETUP_TRAIN_BATCH, size, self.seed)
            split, started = self.meter.split(), time.perf_counter()
            model, reports = trainer.train(self.train_co, cfg)
            elapsed, wall = self.meter.split() - split, time.perf_counter() - started
            check_reports(reports, cfg)
            self.check_deterministic(model)
            patients = self.train_patients(cfg)
            self.sample("train.samples_per_s", patients / elapsed, patients / wall)
            model.save(self.model_path)
            self.model = model

    def check_regenerated(self) -> None:
        cohort, self.regenerated = self.regenerated, None
        _require(cohort_digest(cohort) == self.cohort_digest,
                 "generate_cohort gave a different cohort for the same seed")

    def setup(self) -> None:
        with self.phase("setup"):
            self.write_cohort()
        for _ in range(self.size.setup_reps):
            with self.phase("setup"):
                _, elapsed, wall = self.meter.time(lambda: self.op(self.setup_once))
                self.sample("setup_s", elapsed, wall)
            self.op(self.check_regenerated)
        if self.held is None or (self.workload.train_batch is None and self.model is None):
            raise RuntimeError("set-up failed: " + "; ".join(self.failures))

    def train_patients(self, cfg: trainer.TrainConfig) -> int:
        """Training patients one call processes: every fold's train split, every epoch."""
        return cfg.epochs * (cfg.folds - 1) * self.train_co.n

    def warmup(self) -> None:
        """Run each operation once untimed, and fix the model the serving ops use.

        Train workloads serve a model trained on a small subset here; its
        architecture, and so the cost of serving it, is the full model's.
        """
        with self.phase("warmup"):
            batch = self.workload.train_batch
            if batch is not None:
                cfg = train_config(batch, self.size, self.seed)
                n = min(self.train_co.n, max(cfg.folds * batch, 24))
                trained = self.op(lambda: trainer.train(self.train_co.subset(np.arange(n)), cfg))
                if trained is None:
                    raise RuntimeError("warm-up training failed: " + "; ".join(self.failures))
                self.model = trained[0]
                self.model.save(self.model_path)
            self.op(lambda: trainer.SurvivalModel.load(self.model_path))
            self.reference = self.model.predict(self.held.ct, self.held.pet, batch=32)
            check_cif(self.reference[0], self.reference[1])
            self.latency_burst(record=False)

    # -- operations -------------------------------------------------------------

    def train_once(self) -> float:
        cfg = train_config(self.workload.train_batch, self.size, self.seed)
        (model, reports), elapsed, wall = self.meter.time(lambda: trainer.train(self.train_co, cfg))
        check_reports(reports, cfg)
        self.check_deterministic(model)
        patients = self.train_patients(cfg)
        self.sample("train.samples_per_s", patients / elapsed, patients / wall)
        return elapsed

    def checkpoint_once(self) -> None:
        _, save_s, save_wall = self.meter.time(lambda: self.model.save(self.model_path),
                                               kernel=CHECKPOINT)
        loaded, load_s, load_wall = self.meter.time(
            lambda: trainer.SurvivalModel.load(self.model_path), kernel=CHECKPOINT)
        check_same_params(self.model, loaded)
        self.sample("checkpoint.save_s", save_s, save_wall)
        self.sample("checkpoint.load_s", load_s, load_wall)
        self.model_json_bytes = self.model_path.stat().st_size

    def predict32_once(self) -> None:
        held = self.held
        (values, surv, _), elapsed, wall = self.meter.time(
            lambda: self.model.predict(held.ct, held.pet, batch=32))
        check_cif(values, surv)
        _require(np.array_equal(values, self.reference[0]), "batch-32 predictions changed")
        self.sample("predict.patients_per_s", held.n / elapsed, held.n / wall)

    def latency_burst(self, record: bool = True) -> None:
        """``LATENCY_BURST`` batch-1 predictions, each its own operation."""
        held = self.held
        first = len(self.samples.get("predict.latency_ms", [])) if record else 0

        def once(i: int):
            (values, surv, _), elapsed, wall = self.meter.time(
                lambda: self.model.predict(held.ct[i:i + 1], held.pet[i:i + 1], batch=1))
            _require(np.allclose(values[0], self.reference[0][i], rtol=0.0, atol=PREDICT_ATOL)
                     and abs(surv[0] - self.reference[1][i]) <= PREDICT_ATOL,
                     f"batch-1 and batch-32 predictions of patient {i} differ")
            if record:
                self.sample("predict.latency_ms", 1e3 * elapsed, 1e3 * wall)

        for k in range(LATENCY_BURST):
            self.op(lambda: once((first + k) % held.n))

    def sweep_once(self) -> float:
        fractions = list(self.size.fractions)
        seeds = [self.seed + k for k in range(SWEEP_NOISE_SEEDS)]
        out = self.workdir / "sweep"
        argv = ["sweep", "--model", str(self.model_path), "--data", str(self.workdir / "held"),
                "--fractions", ",".join(repr(f) for f in fractions),
                "--seeds", ",".join(str(s) for s in seeds), "--out", str(out)]
        cells = [(f, s) for f in fractions for s in seeds]
        with contextlib.redirect_stdout(io.StringIO()):
            code, elapsed, wall = self.meter.time(lambda: cli.main(argv))
        _require(code == 0, f"sweep exited with {code}")
        text = (out / "sweep.csv").read_text()
        if self.sweep_csv is None:
            self.verify_sweep(text, cells)
            self.sweep_csv = text
        _require(text == self.sweep_csv, "sweep CSV differs between identical calls")
        self.sample("sweep.cells_per_s", len(cells) / elapsed, len(cells) / wall)
        return elapsed

    def verify_sweep(self, text: str, cells: list) -> None:
        """One CSV row per cell, each equal to the in-process ``evaluate``."""
        lines = text.splitlines()
        _require(lines[0] == "fraction,seed,c_td", "sweep CSV header changed")
        _require(len(lines) == len(cells) + 1, f"{len(lines) - 1} sweep rows for {len(cells)} cells")
        for line, (frac, seed) in zip(lines[1:], cells):
            spec = synthdata.NoiseSpec(ct_sigma=0.1, pet_level="high", noisy_fraction=frac)
            score = trainer.evaluate(self.model, self.held, spec, noise_seed=seed).c_td[1]
            _require(line == f"{frac!r},{seed},{score!r}",
                     f"sweep row {line!r} differs from evaluate ({score!r})")

    # -- measured loop ----------------------------------------------------------

    def measure(self) -> None:
        """Interleave the operations for ``seconds``, each near its share of the time.

        The machine's speed drifts over seconds, so spreading every
        operation over the whole window, rather than running them in
        blocks, keeps one slow stretch from landing on a single metric.
        """
        actions = {
            "train": lambda: self.op(self.train_once),
            "checkpoint": lambda: self.op(self.checkpoint_once),
            "predict32": lambda: self.op(self.predict32_once),
            "predict1": self.latency_burst,
            "sweep": lambda: self.op(self.sweep_once),
        }
        shares = self.workload.shares
        primary = "train" if self.workload.train_batch is not None else "sweep"
        spent = dict.fromkeys(shares, 0.0)
        done = dict.fromkeys(shares, 0)
        deadline = time.perf_counter() + self.seconds
        with self.phase("measure"):
            while True:
                short = [name for name in shares if done[name] < self.size.minimum[name]]
                if time.perf_counter() >= deadline:
                    if not short:
                        break
                    candidates = short
                else:
                    candidates = [name for name in shares if name not in CAPPED or name in short]
                name = min(candidates, key=lambda n: spent[n] / shares[n])
                # a traced run leaves every second primary operation untraced,
                # interleaved with the traced ones, to measure the tracing cost
                traced = self.tracer is not None and not (name == primary and done[name] % 2)
                if self.tracer is not None and not traced:
                    self.tracer.uninstall()
                started = time.perf_counter()
                try:
                    with self.phase(name):
                        elapsed = actions[name]()
                finally:
                    if self.tracer is not None and not traced:
                        self.tracer.install(MODULES)
                spent[name] += time.perf_counter() - started
                if name == primary and elapsed is not None:
                    self.primary[traced].append(elapsed)
                done[name] += 1

    # -- results ----------------------------------------------------------------

    def end_to_end(self) -> dict:
        s = self.samples
        latency = s.get("predict.latency_ms", [])
        values = {
            "setup_s": (_median(s["setup_s"]), "s"),
            "train.samples_per_s": (_median(s["train.samples_per_s"]), "1/s"),
            "sweep.cells_per_s": (_median(s["sweep.cells_per_s"]), "1/s"),
            "predict.patients_per_s": (_median(s["predict.patients_per_s"]), "1/s"),
            "predict.latency_ms.p50": (_median(latency), "ms"),
            "predict.latency_ms.p90": (float(np.percentile(latency, 90)), "ms"),
            "checkpoint.save_s": (_median(s["checkpoint.save_s"]), "s"),
            "checkpoint.load_s": (_median(s["checkpoint.load_s"]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def run_untraced(workload: Workload, size: Size, seed: int, seconds: float,
                 workdir: Path) -> tuple[Run, dict, dict]:
    run = Run(workload, size, seed, seconds, workdir, traced=False)
    run.meter.install(SEGMENT_HOOKS)
    try:
        run.setup()
        run.warmup()
        run.measure()
    finally:
        run.meter.uninstall()
    return run, run.end_to_end(), {"samples": run.samples, "wall_samples": run.wall}


# ---------------------------------------------------------------------------
# traced run


def _isolated_backward(run: Run, batch: int) -> dict:
    """Backward time of each layer's subgraph, built from leaf inputs."""
    model = run.model
    enc, fcfg = model.config.encoder, model.config.fusion
    rows = np.arange(batch) % run.held.n
    ct, pet = run.held.ct[rows], run.held.pet[rows]
    times = trainer.assign_bins(run.held.times[rows], model.bin_edges)
    events = run.held.events[rows]
    rng = np.random.default_rng([run.seed, 17])

    def leaf(shape):
        return ad.Tensor(rng.normal(0.0, 0.1, size=shape), requires_grad=True)

    def vq_graph():
        vols = {"ct": ad.as_tensor(ct), "pet": ad.as_tensor(pet)}
        latents, recons = {}, {}
        for m in vq.MODALITIES:
            params = model.scoped(m)
            latents[m] = vq.quantize(vq.encode(vols[m], params, enc), params["codebook"])
            route = ad.straight_through(latents[m].z_e, latents[m].z_q)
            recons[m] = vq.decode(route, params, enc)
        return vq.vq_losses(vols, latents, recons).total

    latent_shape = (batch, enc.latent_dim, enc.grid_voxels)

    def fusion_graph():
        z_ct, z_pet = leaf(latent_shape), leaf(latent_shape)
        params = model.scoped("fuse")
        disc = fusion.discrete_fusion(z_ct, z_pet, params, enc, fcfg)
        cont = fusion.continuous_attention(z_ct, z_pet, params)
        features = fusion.fuse_final(disc.fused, cont, params)
        return features.sum() + fusion.fusion_losses(disc, fcfg).total

    def survival_graph():
        features = leaf((batch, fcfg.d_fused))
        cfg = model.config
        hazards = survival.hazard_forward(features, model.scoped("head"), cfg.n_bins, cfg.n_risks)
        ranking, _ = survival.ranking_loss(survival.cif(hazards), times, events,
                                           sigma=cfg.rank_sigma)
        return survival.likelihood_loss(hazards, times, events) + ranking

    out = {}
    for layer, build in (("vq", vq_graph), ("fusion", fusion_graph),
                         ("survival", survival_graph)):
        samples = []
        for _ in range(run.size.probe_reps):
            ad.reset_graph()
            loss = build()
            started = time.perf_counter()
            ad.backward(loss)
            samples.append(1e3 * (time.perf_counter() - started))
        ad.reset_graph()
        out[f"autodiff.backward_isolated_ms.{layer}"] = (_median(samples), "ms")
    return out


# span name -> per-layer metric reporting its median per-call duration
CALL_METRICS = {
    "autodiff.backward": "autodiff.backward_ms",
    "optim.adam_step": "optim.adam_step_ms",
    "vq.encode": "vq.encode_ms",
    "vq.quantize": "vq.quantize_ms",
    "vq.decode": "vq.decode_ms",
    "vq.losses": "vq.losses_ms",
    "fusion.discrete": "fusion.discrete_ms",
    "fusion.continuous": "fusion.continuous_ms",
    "fusion.fuse_final": "fusion.fuse_final_ms",
    "fusion.losses": "fusion.losses_ms",
    "survival.hazard": "survival.hazard_ms",
    "survival.cif": "survival.cif_ms",
    "survival.likelihood": "survival.likelihood_ms",
    "survival.ranking": "survival.ranking_ms",
    "synthdata.noise_mix": "synthdata.noise_mix_ms",
    "synthdata.generate": "synthdata.generate_ms",
    "synthdata.load_cohort": "synthdata.load_cohort_ms",
    "stats.concordance": "stats.concordance_ms",
    "stats.km": "stats.km_ms",
    "stats.logrank": "stats.logrank_ms",
    "cli.main": "cli.sweep_ms",
    "cli.write": "cli.write_ms",
}


def layer_metrics(run: Run) -> tuple[dict, dict]:
    """Per-layer metrics and the step table from the recorded spans.

    Per-call times prefer calls inside training steps, then calls in the
    measured loop, then any call (set-up included): on ``infer-sweep`` the
    training layers only run while set-up builds the model.
    """
    spans = run.tracer.spans
    own = self_times(spans)
    phase, step_of = annotate(spans, "bench.")
    unmeasured = ("bench.setup", "bench.warmup", "bench.measure")
    steps = [i for i, s in enumerate(spans) if s.name == STEP]
    # training layers come from the workload's own training when it has any
    source = "bench.train" if any(phase[i] == "bench.train" for i in steps) else "bench.setup"
    steps = [i for i in steps if phase[i] == source]

    chosen_steps = set(steps)
    durations: dict[str, tuple[list, list, list]] = {}
    for i, s in enumerate(spans):
        tiers = durations.setdefault(s.name, ([], [], []))
        if step_of[i] in chosen_steps:
            tiers[0].append(i)
        elif phase[i] not in unmeasured:
            tiers[1].append(i)
        tiers[2].append(i)

    def calls(name: str) -> list:
        for tier in durations.get(name, ([], [], [])):
            if tier:
                return tier
        raise CheckFailed(f"no traced call of {name}")

    metrics: dict[str, tuple] = {}
    for name, metric in CALL_METRICS.items():
        metrics[metric] = (_median([1e3 * spans[i].duration for i in calls(name)]), "ms")

    backward = [spans[i].attrs["tape_records"] for i in calls("autodiff.backward")]
    metrics["autodiff.tape_records"] = (_median(backward), "count")
    adam = spans[calls("optim.adam_step")[0]].attrs
    metrics["optim.param_arrays"] = (adam["param_arrays"], "count")
    metrics["optim.param_count"] = (adam["param_count"], "count")
    pairs = [spans[i].attrs["pairs"] for i in calls("survival.ranking")]
    metrics["survival.ranking_pairs"] = (float(np.mean(pairs)), "count")

    step_ms = [1e3 * spans[i].duration for i in steps]
    metrics["trainer.step_ms.p50"] = (_median(step_ms), "ms")
    metrics["trainer.step_ms.p99"] = (float(np.percentile(step_ms, 99)), "ms")
    table = step_table(spans, own, step_of, steps)
    metrics["trainer.unaccounted_ms"] = (table[STEP], "ms")

    # a train call's time outside its steps: validation and bookkeeping
    train_calls = [i for i, s in enumerate(spans)
                   if s.name == "trainer.train" and phase[i] == source]
    step_time = {i: 0.0 for i in train_calls}
    step_count = {i: 0 for i in train_calls}
    for i in steps:
        step_time[spans[i].parent] += spans[i].duration
        step_count[spans[i].parent] += 1
    metrics["trainer.validation_ms"] = (
        _median([1e3 * (spans[i].duration - step_time[i]) for i in train_calls]), "ms")
    metrics["trainer.steps"] = (_median(list(step_count.values())), "count")
    metrics["trainer.model_json_bytes"] = (run.model_json_bytes, "bytes")
    # on this kind of shared machine the tail has a run-to-run spread above
    # any end-to-end bound, so it is reported here, from the traced run
    metrics["predict.latency_ms.p99"] = (
        percentile_with_tail(run.samples["predict.latency_ms"], 99), "ms")

    traced, untraced = _median(run.primary[True]), _median(run.primary[False])
    metrics["trace.overhead_pct"] = (100.0 * (traced / untraced - 1.0), "%")

    mean_step = 1e3 * float(np.mean([spans[i].duration for i in steps]))
    self_by_phase: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        table_of = self_by_phase.setdefault(phase[i], {})
        table_of[s.name] = table_of.get(s.name, 0.0) + 1e3 * own[i]
    summary = {
        "self_ms_by_phase": self_by_phase,
        "steps": len(steps),
        "step_ms_mean": mean_step,
        "table_ms_per_step": table,
        "table_sum_ms": float(sum(table.values())),
        "step_counts_per_call": sorted(set(step_count.values())),
        "spans": len(spans),
    }
    return metrics, summary


def run_traced(workload: Workload, size: Size, seed: int, seconds: float,
               workdir: Path) -> tuple[Run, dict, dict]:
    run = Run(workload, size, seed, seconds, workdir, traced=True)
    run.tracer.install(MODULES)
    try:
        run.setup()
        run.warmup()
        run.measure()
    finally:
        run.tracer.uninstall()
    metrics, summary = run.op(lambda: layer_metrics(run)) or ({}, {})
    batch = workload.train_batch or SETUP_TRAIN_BATCH
    probe = run.op(lambda: _isolated_backward(run, batch))
    metrics.update(probe or {})
    if summary:
        expected = steps_per_call(run.train_co.n, train_config(batch, size, seed))
        run.op(lambda: _require(summary["step_counts_per_call"] == [expected],
                                f"traced steps per call {summary['step_counts_per_call']}, "
                                f"expected {expected}"))
        run.op(lambda: _require(
            abs(summary["table_sum_ms"] - summary["step_ms_mean"]) <= 1e-6 * summary["step_ms_mean"],
            f"step table sums to {summary['table_sum_ms']} ms, steps average "
            f"{summary['step_ms_mean']} ms"))
    summary["spans_recorded"] = [
        (s.name, s.start, s.end, s.parent) for s in run.tracer.spans]
    return run, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, summary


def describe(run: Run) -> str:
    """Operation counts, error rate, the batch-1 latency tail with its sample
    count, and the wall-clock median of every timed quantity."""
    latency = run.samples.get("predict.latency_ms", [])
    tail = (f"{percentile_with_tail(latency, 99):.6g}" if len(latency) >= 1000
            else "not enough samples")
    wall = " ".join(f"{name}={_median(values):.6g}" for name, values in sorted(run.wall.items()))
    return (f"workload={run.workload.name} seed={run.seed} attempted={run.attempted} "
            f"failed={run.failed} error_rate={run.failed / max(run.attempted, 1):.6g} "
            f"predict_latency_samples={len(latency)} predict_latency_p99_ms={tail}\n"
            f"wall-clock medians: {wall}")
