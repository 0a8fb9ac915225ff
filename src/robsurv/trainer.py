"""End-to-end training: objective composition, folds, ablations, evaluation.

The model couples the pieces built elsewhere: per-modality encoders with
vector quantization, the two fusion routes, and the survival head.  The
total objective is a weighted sum of the quantization, fusion, and
survival losses; ablation flags drop a path together with its loss terms,
so the parameters that only serve a disabled path receive no gradient and
stay bit-frozen under the optimizer.

Training is deterministic per (cohort, config): every random choice flows
from named integer seed tuples, and reports are reproducible apart from
wall-clock timings.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import fusion, stats, survival, vq
from .errors import (
    ConfigError,
    ContractError,
    DataFormatError,
    IncompatibleInputError,
    NumericsError,
    TrainingDivergedError,
    UndefinedMetricError,
)
from .fileio import atomic_text
from .optim import Adam
from .synthdata import NoiseSpec, SyntheticCohort, apply_noise_mix, noise_order

MODEL_FORMAT_VERSION = 2

# seed salts: keep the independent random streams from colliding
SPLIT_SALT = 7919
INIT_SALT = 104729


@dataclass(frozen=True)
class TrainConfig:
    # loss weights
    alpha1: float = 0.25          # commitment weight inside the quantization term
    alpha2: float = 1.0           # reconstruction weight inside the quantization term
    gamma_q: float = 1.0
    gamma_fusion: float = 0.5
    gamma_surv: float = 2.0
    # optimization
    lr: float = 1e-4
    batch_size: int = 2
    epochs: int = 40
    folds: int = 3
    patience: int = 10
    seed: int = 0
    # survival discretization
    n_bins: int = 10
    n_risks: int = 1
    rank_sigma: float = 0.1
    risk_weights: tuple | None = None
    # architecture
    encoder: vq.EncoderConfig = field(default_factory=vq.EncoderConfig)
    fusion: fusion.FusionConfig = field(default_factory=fusion.FusionConfig)
    # ablation switches: disable quantization, the gated continuous route,
    # or cross-attention fusion (then patch embeddings are plain-averaged)
    use_quantization: bool = True
    use_continuous: bool = True
    use_cross_fusion: bool = True
    # noise exposure during training (evaluation noise is a separate call)
    train_with_noise: bool = False
    train_noise: NoiseSpec = NoiseSpec(ct_sigma=0.1, pet_level="high", noisy_fraction=0.5)

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "gamma_q", "gamma_fusion", "gamma_surv"):
            if not getattr(self, name) >= 0:  # written so that NaN fails too
                raise ConfigError(f"{name} must be nonnegative")
        if not self.lr > 0:
            raise ConfigError("lr must be positive")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be at least 2 (ranking needs pairs)")
        if self.folds < 2:
            raise ConfigError("folds must be at least 2")
        if self.epochs < 1 or self.patience < 1:
            raise ConfigError("epochs and patience must be positive")
        if self.n_bins < 1 or self.n_risks < 1:
            raise ConfigError("n_bins and n_risks must be positive")
        if not self.rank_sigma > 0:
            raise ConfigError("rank_sigma must be positive")
        if self.risk_weights is not None and len(self.risk_weights) != self.n_risks:
            raise ConfigError("risk_weights must have one entry per risk")
        self.fusion.n_patches(self.encoder)  # latent grid must split into whole patches


def config_to_dict(config: TrainConfig) -> dict:
    d = asdict(config)
    if d["risk_weights"] is not None:
        d["risk_weights"] = list(d["risk_weights"])
    return d


_KINDS = {"int": int, "float": (int, float), "bool": bool}
_SECTIONS = {"encoder": vq.EncoderConfig, "fusion": fusion.FusionConfig, "train_noise": NoiseSpec}


def _build(cls, raw, label: str):
    """Instantiate dataclass ``cls`` from a parsed JSON object, checking each value's kind."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{label} must be a JSON object, got {raw!r}")
    types = {f.name: f.type for f in fields(cls)}
    values = {}
    for name, value in raw.items():
        if name not in types:
            raise ConfigError(f"unknown {label} field: {name}")
        kind = _KINDS.get(types[name], object)
        # bool is an int subclass, but JSON true/false only fits a bool field
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise ConfigError(f"{label} field {name} must be {types[name]}, got {value!r}")
        if name == "risk_weights" and value is not None:
            if not isinstance(value, list) or {type(w) for w in value} - {int, float}:
                raise ConfigError(f"risk_weights must be a list of numbers, got {value!r}")
            value = tuple(value)
        values[name] = _build(_SECTIONS[name], value, name) if name in _SECTIONS else value
    return cls(**values)


def config_from_dict(raw) -> TrainConfig:
    """Parse a JSON object of ``TrainConfig`` fields (``encoder``, ``fusion`` and
    ``train_noise`` as nested objects); absent fields keep their defaults, and
    unknown keys or malformed values raise ``ConfigError``.
    """
    return _build(TrainConfig, raw, "config")


# ---------------------------------------------------------------------------
# time discretization


def quantile_bin_edges(times, n_bins: int) -> np.ndarray:
    """Interior bin boundaries at empirical quantiles of observed times."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ConfigError("cannot derive bin edges from an empty cohort")
    return np.quantile(times, np.arange(1, n_bins) / n_bins)


def assign_bins(times, edges: np.ndarray) -> np.ndarray:
    """Map raw times to 1-based bins; a time equal to an edge stays below it."""
    times = np.asarray(times, dtype=float)
    return (1 + (times[:, None] > edges[None, :]).sum(axis=1)).astype(int)


# ---------------------------------------------------------------------------
# objective


def total_loss(quantization, fusion_term, survival_term, config: TrainConfig) -> ad.Tensor:
    """Weighted sum of the component objectives; absent components drop out."""
    total = None
    if quantization is not None:
        total = config.gamma_q * quantization
    if fusion_term is not None:
        part = config.gamma_fusion * fusion_term
        total = part if total is None else total + part
    part = config.gamma_surv * survival_term
    return part if total is None else total + part


@dataclass
class LossBundle:
    quantization: ad.Tensor | None
    fusion_total: ad.Tensor | None
    likelihood: ad.Tensor
    ranking: ad.Tensor
    total: ad.Tensor


@dataclass
class ForwardPass:
    volumes: dict           # modality -> input Tensor
    latent: dict            # modality -> raw encoder output z_e
    quantized: dict | None  # modality -> LatentPair, None when quantization is off
    route: dict             # modality -> latent fed to fusion (straight-through when quantized)
    discrete: fusion.DiscretePathOutput | None
    f_cont: ad.Tensor
    features: ad.Tensor
    hazards: survival.HazardGrid


def param_specs(config: TrainConfig) -> dict[str, tuple]:
    """Every trainable tensor's (shape, low, high), route-prefixed, in draw order."""
    tables = [(m, vq.param_specs(config.encoder)) for m in vq.MODALITIES]
    tables.append(("fuse", fusion.param_specs(config.encoder, config.fusion)))
    tables.append(("head", survival.param_specs(
        config.fusion.d_fused, config.n_bins, config.n_risks, hidden=config.fusion.d_fused)))
    return {f"{prefix}.{name}": spec for prefix, table in tables for name, spec in table.items()}


def init_model_params(config: TrainConfig, rng: np.random.Generator) -> dict:
    """All trainable tensors in one flat dict with route prefixes; codebook rows distinct."""
    params = ad.init_params(param_specs(config), rng)
    for m in vq.MODALITIES:
        codebook = params[f"{m}.codebook"].data
        if len(np.unique(codebook, axis=0)) != len(codebook):
            raise ContractError(f"{m} codebook initialisation produced duplicate rows")
    return params


class SurvivalModel:
    """Parameter container plus the forward pass and loss assembly."""

    def __init__(self, params: dict, config: TrainConfig, bin_edges: np.ndarray):
        self.params = params
        self.config = config
        self.bin_edges = np.asarray(bin_edges, dtype=float)
        if self.bin_edges.shape != (config.n_bins - 1,):
            raise ConfigError(f"expected {config.n_bins - 1} bin edges, got {self.bin_edges.shape}")
        # a NaN edge would silently put every time in the first bin (times > nan is False)
        if not (np.isfinite(self.bin_edges).all() and (np.diff(self.bin_edges) >= 0).all()):
            raise ConfigError("bin edges must be finite and non-decreasing")
        self._scopes: dict[str, dict] = {}

    @classmethod
    def init(cls, config: TrainConfig, rng: np.random.Generator,
             bin_edges: np.ndarray) -> "SurvivalModel":
        return cls(init_model_params(config, rng), config, bin_edges)

    def scoped(self, prefix: str) -> dict:
        if prefix not in self._scopes:
            cut = len(prefix) + 1
            self._scopes[prefix] = {
                k[cut:]: v for k, v in self.params.items() if k.startswith(prefix + ".")
            }
        return self._scopes[prefix]

    def trainable(self) -> list:
        return [self.params[k] for k in sorted(self.params)]

    def snapshot(self) -> dict:
        return {k: v.data.copy() for k, v in self.params.items()}

    def restore(self, snap: dict) -> None:
        for k, v in self.params.items():
            v.data[...] = snap[k]

    # -- forward ------------------------------------------------------------

    def forward(self, ct, pet) -> ForwardPass:
        cfg = self.config
        enc = cfg.encoder
        vols = {"ct": ad.as_tensor(ct), "pet": ad.as_tensor(pet)}
        latent = {m: vq.encode(vols[m], self.scoped(m), enc) for m in vq.MODALITIES}

        if cfg.use_quantization:
            quantized = {m: vq.quantize(latent[m], self.scoped(m)["codebook"]) for m in vq.MODALITIES}
            route = {m: ad.straight_through(quantized[m].z_e, quantized[m].z_q) for m in vq.MODALITIES}
        else:
            quantized = None
            route = latent

        fparams = self.scoped("fuse")
        if cfg.use_cross_fusion:
            disc = fusion.discrete_fusion(route["ct"], route["pet"], fparams, enc, cfg.fusion)
            f_discrete = disc.fused
        else:
            disc = None
            e_ct = fusion.patchify_embed(route["ct"], fparams, "ct", enc, cfg.fusion)
            e_pet = fusion.patchify_embed(route["pet"], fparams, "pet", enc, cfg.fusion)
            f_discrete = (e_ct + e_pet) * 0.5

        if cfg.use_continuous:
            f_cont = fusion.continuous_attention(latent["ct"], latent["pet"], fparams)
        else:
            f_cont = ad.Tensor(np.zeros((vols["ct"].shape[0], 2 * enc.latent_dim)))

        features = fusion.fuse_final(f_discrete, f_cont, fparams)
        hazards = survival.hazard_forward(features, self.scoped("head"), cfg.n_bins, cfg.n_risks)
        return ForwardPass(
            volumes=vols, latent=latent, quantized=quantized, route=route,
            discrete=disc, f_cont=f_cont,
            features=features, hazards=hazards,
        )

    def losses(self, fwd: ForwardPass, times_binned, events) -> LossBundle:
        cfg = self.config
        quant = None
        if fwd.quantized is not None:
            # decoding serves only the reconstruction loss, so inference skips it
            recon = {m: vq.decode(fwd.route[m], self.scoped(m), cfg.encoder)
                     for m in vq.MODALITIES}
            quant = vq.vq_losses(fwd.volumes, fwd.quantized, recon,
                                 alpha1=cfg.alpha1, alpha2=cfg.alpha2).total
        fusion_term = None
        if fwd.discrete is not None:
            fusion_term = fusion.fusion_losses(fwd.discrete, cfg.fusion).total
        likelihood = survival.likelihood_loss(fwd.hazards, times_binned, events)
        incidence = survival.cif(fwd.hazards)
        ranking, _ = survival.ranking_loss(
            incidence, times_binned, events, sigma=cfg.rank_sigma, risk_weights=cfg.risk_weights)
        total = total_loss(quant, fusion_term, likelihood + ranking, cfg)
        return LossBundle(quantization=quant, fusion_total=fusion_term,
                          likelihood=likelihood, ranking=ranking, total=total)

    # -- inference ----------------------------------------------------------

    def predict(self, ct: np.ndarray, pet: np.ndarray, batch: int = 32):
        """Incidence values, residual survival, and codebook assignments.

        Runs without recording a graph; parameters are never touched.
        """
        n = ct.shape[0]
        values = []
        survs = []
        usage: dict[str, list] = {m: [] for m in vq.MODALITIES}
        with ad.no_grad():
            for start in range(0, n, batch):
                fwd = self.forward(ct[start:start + batch], pet[start:start + batch])
                inc = survival.cif(fwd.hazards)
                values.append(inc.values.data)
                survs.append(inc.survival.data)
                if fwd.quantized is not None:
                    for m in vq.MODALITIES:
                        usage[m].append(fwd.quantized[m].indices.reshape(-1))
        indices = None
        if self.config.use_quantization:
            indices = {m: np.concatenate(usage[m]) for m in vq.MODALITIES}
        return np.concatenate(values), np.concatenate(survs), indices

    # -- persistence ----------------------------------------------------------

    def save(self, path) -> None:
        """Write the config, bin edges and every parameter as base64 of its
        little-endian float64 bytes, plus a sha256 over those bytes in
        sorted-name order; the round trip is bitwise exact."""
        params, digest = {}, hashlib.sha256()
        for name in sorted(self.params):
            data = self.params[name].data
            raw = data.astype("<f8", copy=False).tobytes()  # C order, 0-d stays 0-d
            digest.update(raw)
            params[name] = {"shape": list(data.shape), "f64le": base64.b64encode(raw).decode()}
        payload = {
            "format_version": MODEL_FORMAT_VERSION,
            "config": config_to_dict(self.config),
            "bin_edges": [float(e) for e in self.bin_edges],
            "params": params,
            "sha256": digest.hexdigest(),
        }
        atomic_text(path, json.dumps(payload, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "SurvivalModel":
        """Read a saved model; any fault in the file raises ``DataFormatError``."""
        path = Path(path)
        if not path.is_file():
            raise DataFormatError(f"no model file at {path}")
        try:
            payload = json.loads(path.read_bytes())
            version = payload["format_version"]
            if type(version) is not int or version != MODEL_FORMAT_VERSION:  # 2.0 == 2, true == 1
                raise DataFormatError(
                    f"model format {version!r}, but only format {MODEL_FORMAT_VERSION} "
                    f"can be read; retrain to write one")
            # save writes every field, so a missing one means a damaged file
            missing = sorted({f.name for f in fields(TrainConfig)} - set(payload["config"]))
            if missing:
                raise DataFormatError(f"config lacks {', '.join(missing)}")
            config = config_from_dict(payload["config"])
            params = _decode_params(payload["params"], payload["sha256"])
            shapes = {k: shape for k, (shape, _, _) in param_specs(config).items()}
            wrong = sorted(k for k in shapes.keys() | params.keys()
                           if k not in params or params[k].shape != shapes.get(k))
            if wrong:
                raise DataFormatError(f"parameters {', '.join(wrong)} do not match the config")
            return cls(params, config, payload["bin_edges"])
        # ConfigError, DataFormatError, JSONDecodeError and bad base64 are ValueErrors
        except (AttributeError, KeyError, TypeError, ValueError) as err:
            raise DataFormatError(f"bad model file {path}: {err}") from None


def _decode_params(entries: dict, checksum: str) -> dict:
    """Tensors from ``save``'s ``{"shape", "f64le"}`` entries, checked against
    their shapes and the file's sha256."""
    if not isinstance(entries, dict):
        raise DataFormatError("params must be a JSON object")
    digest = hashlib.sha256()
    params = {}
    for name in sorted(entries):
        entry = entries[name]
        if not isinstance(entry, dict) or entry.keys() != {"f64le", "shape"}:
            raise DataFormatError(f"parameter {name} must be an object with keys f64le and shape")
        shape = entry["shape"]
        if not isinstance(shape, list) or any(type(d) is not int or d < 0 for d in shape):
            raise DataFormatError(f"parameter {name} has shape {shape!r}")
        raw = base64.b64decode(entry["f64le"], validate=True)
        need = 8 * math.prod(shape)
        if len(raw) != need:
            raise DataFormatError(f"parameter {name} holds {len(raw)} bytes, "
                                  f"shape {shape} needs {need}")
        digest.update(raw)
        params[name] = ad.Tensor(np.frombuffer(raw, "<f8").reshape(shape), requires_grad=True)
    if digest.hexdigest() != checksum:
        raise DataFormatError("parameter bytes do not match the file's sha256")
    return params


# ---------------------------------------------------------------------------
# training loop


@dataclass
class FoldReport:
    fold: int
    epochs_run: int
    best_epoch: int
    best_val_ctd: float
    train_losses: list
    val_ctd: list
    clean_ctd: float
    noisy_ctd: float
    codebook: dict | None          # modality -> {perplexity, dead_entries}
    trained_with_noise: bool
    wall_clock: float

    def to_dict(self) -> dict:
        return asdict(self)


def _validation_ctd(values: np.ndarray, cohort: SyntheticCohort,
                    binned_times: np.ndarray) -> float:
    try:
        return stats.concordance(values, binned_times, cohort.events, cause=1)
    except UndefinedMetricError:
        return 0.5


def _fit_fold(train_co: SyntheticCohort, val_co: SyntheticCohort, config: TrainConfig,
              fold: int, edges: np.ndarray) -> tuple[SurvivalModel, FoldReport]:
    started = time.perf_counter()
    model = SurvivalModel.init(config, np.random.default_rng([config.seed, INIT_SALT + fold]), edges)
    optimizer = Adam(model.trainable(), lr=config.lr)

    t_train = assign_bins(train_co.times, edges)
    t_val = assign_bins(val_co.times, edges)

    best_score = -np.inf  # a concordance is never NaN, so epoch 0 always improves
    patience_left = config.patience
    train_losses: list[float] = []
    val_scores: list[float] = []

    n = train_co.n
    for epoch in range(config.epochs):
        order = np.random.default_rng([config.seed, fold, epoch]).permutation(n)
        batch_losses = []
        for start in range(0, n, config.batch_size):
            rows = order[start:start + config.batch_size]
            ad.reset_graph()
            try:
                fwd = model.forward(train_co.ct[rows], train_co.pet[rows])
                bundle = model.losses(fwd, t_train[rows], train_co.events[rows])
                value = bundle.total.item()
                if not np.isfinite(value):
                    raise NumericsError("non-finite loss")
                optimizer.zero_grad()
                ad.backward(bundle.total)
            except NumericsError as err:
                raise TrainingDivergedError(
                    f"fold {fold} epoch {epoch}: {err}") from None
            optimizer.step()
            batch_losses.append(value)
        ad.reset_graph()
        train_losses.append(float(np.mean(batch_losses)))
        values, _, usage = model.predict(val_co.ct, val_co.pet)
        score = _validation_ctd(values, val_co, t_val)
        val_scores.append(score)
        if score > best_score:
            best_score = score
            best_epoch = epoch
            best_snap = model.snapshot()
            best_usage = usage
            patience_left = config.patience
        else:
            patience_left -= 1
            if patience_left == 0:
                break
    # predict is deterministic, so the best epoch's validation pass already
    # holds the restored model's clean score and codebook usage
    model.restore(best_snap)
    noisy_val = apply_noise_mix(val_co, config.train_noise, seed=config.seed * 1009 + fold)
    noisy_ctd = _validation_ctd(model.predict(noisy_val.ct, noisy_val.pet)[0], noisy_val, t_val)

    codebook = None
    if config.use_quantization:
        codebook = {}
        for m in vq.MODALITIES:
            health = vq.codebook_health(model.scoped(m)["codebook"], best_usage[m])
            codebook[m] = {"perplexity": health.perplexity, "dead_entries": health.dead_entries}

    report = FoldReport(
        fold=fold, epochs_run=len(train_losses), best_epoch=best_epoch,
        best_val_ctd=float(best_score), train_losses=train_losses,
        val_ctd=val_scores, clean_ctd=float(best_score), noisy_ctd=float(noisy_ctd),
        codebook=codebook, trained_with_noise=config.train_with_noise,
        wall_clock=time.perf_counter() - started,
    )
    return model, report


def _check_side(cohort: SyntheticCohort, encoder: vq.EncoderConfig) -> None:
    if cohort.config.volume_side != encoder.volume_side:
        raise IncompatibleInputError(
            f"cohort volumes are side {cohort.config.volume_side}, "
            f"encoder wants {encoder.volume_side}")


def train(cohort: SyntheticCohort, config: TrainConfig) -> tuple[SurvivalModel, list[FoldReport]]:
    """Cross-validated training; returns the best fold's model and all reports."""
    if cohort.n < config.folds * config.batch_size:
        raise ConfigError(
            f"cohort of {cohort.n} too small for {config.folds} folds x batch {config.batch_size}")
    _check_side(cohort, config.encoder)
    if cohort.events.max(initial=0) > config.n_risks:
        raise IncompatibleInputError("cohort has event codes beyond configured risks")

    perm = np.random.default_rng([config.seed, SPLIT_SALT]).permutation(cohort.n)
    chunks = np.array_split(perm, config.folds)

    best_model: SurvivalModel | None = None
    reports: list[FoldReport] = []
    for fold in range(config.folds):
        val_idx = chunks[fold]
        train_idx = np.concatenate([chunks[j] for j in range(config.folds) if j != fold])
        train_co = cohort.subset(train_idx)
        val_co = cohort.subset(val_idx)
        if config.train_with_noise:
            train_co = apply_noise_mix(train_co, config.train_noise,
                                       seed=config.seed * 1013 + fold)
        edges = quantile_bin_edges(train_co.times, config.n_bins)
        model, report = _fit_fold(train_co, val_co, config, fold, edges)
        reports.append(report)
        if best_fold(reports) is report:
            best_model = model
    return best_model, reports


def best_fold(reports: list[FoldReport]) -> FoldReport:
    """The fold with the highest best_val_ctd; ties go to the earlier fold."""
    return max(reports, key=lambda r: (r.best_val_ctd, -r.fold))


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class EvalReport:
    c_td: dict              # cause -> concordance
    logrank_stat: float
    logrank_p: float
    km: dict                # group name -> SurvCurve
    n: int
    n_noisy: int
    noise: NoiseSpec | None

    def metrics_dict(self) -> dict:
        return {
            "c_td": {str(k): v for k, v in self.c_td.items()},
            "logrank_stat": self.logrank_stat,
            "logrank_p": self.logrank_p,
            "n": self.n,
            "n_noisy": self.n_noisy,
            "noise": None if self.noise is None else asdict(self.noise),
        }


def _score(model: SurvivalModel, cohort: SyntheticCohort, values: np.ndarray,
           noisy: np.ndarray, noise: NoiseSpec | None) -> EvalReport:
    """Concordance, risk groups and log-rank test of predicted incidence
    ``values`` against the outcomes of ``cohort``; ``noisy`` flags the rows
    whose inputs were corrupted."""
    binned = assign_bins(cohort.times, model.bin_edges)
    c_td = {
        cause: stats.concordance(values, binned, cohort.events, cause=cause)
        for cause in range(1, model.config.n_risks + 1)
    }

    score = values[:, -1, 0]
    groups = stats.stratify(score)
    flags = (cohort.events > 0).astype(int)
    km = {
        "low": stats.km_curve(cohort.times[groups.low], flags[groups.low]),
        "high": stats.km_curve(cohort.times[groups.high], flags[groups.high]),
    }
    lr = stats.logrank(cohort.times[groups.low], flags[groups.low],
                       cohort.times[groups.high], flags[groups.high])
    return EvalReport(
        c_td=c_td, logrank_stat=lr.statistic, logrank_p=lr.p_value, km=km,
        n=cohort.n, n_noisy=int(noisy.sum()), noise=noise,
    )


def evaluate(model: SurvivalModel, cohort: SyntheticCohort,
             noise: NoiseSpec | None = None, noise_seed: int = 0) -> EvalReport:
    """Score a model on a cohort, optionally after protocol corruption.

    Stratification uses the terminal incidence of cause 1 as the risk
    score; survival curves and the log-rank test run on the raw observed
    times.  Parameters are read, never written.
    """
    _check_side(cohort, model.config.encoder)
    if noise is not None and not noise.is_clean:
        cohort = apply_noise_mix(cohort, noise, seed=noise_seed)
    values, _, _ = model.predict(cohort.ct, cohort.pet)
    return _score(model, cohort, values, cohort.noisy, noise)


def evaluate_sweep(model: SurvivalModel, cohort: SyntheticCohort, fractions, seeds,
                   ct_sigma: float, pet_level: str | None,
                   threads: int = 1) -> list[EvalReport]:
    """``evaluate`` over a grid of noisy fractions x noise seeds, fraction-major.

    Each report equals ``evaluate(model, cohort, NoiseSpec(ct_sigma,
    pet_level, fraction), seed)`` but the cohort is predicted once clean and
    once per seed with the largest fraction's rows corrupted: a corrupted
    row depends only on (seed, patient id) and its clean volume, a smaller
    fraction corrupts a prefix of the same ``noise_order``, and ``predict``
    treats each row on its own at a fixed batch position.  A cell takes the
    corrupted predictions of its rows and the clean ones of the rest.
    ``threads`` runs the clean and per-seed predictions concurrently; the
    reports do not depend on it.
    """
    specs = [NoiseSpec(ct_sigma=ct_sigma, pet_level=pet_level, noisy_fraction=f)
             for f in fractions]  # every spec is checked before any work starts
    _check_side(cohort, model.config.encoder)
    widest = max(specs, key=lambda spec: spec.noisy_fraction)
    noise_seeds = [] if widest.is_clean else list(dict.fromkeys(seeds))

    def predict(seed):
        mixed = cohort if seed is None else apply_noise_mix(cohort, widest, seed=seed)
        return model.predict(mixed.ct, mixed.pet)[0]

    tasks = [None, *noise_seeds]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            predicted = list(pool.map(predict, tasks))
    else:
        predicted = [predict(task) for task in tasks]
    clean, noisy = predicted[0], dict(zip(noise_seeds, predicted[1:]))

    n = cohort.n
    reports = []
    for spec in specs:
        for seed in seeds:
            m = 0 if spec.is_clean else int(np.floor(spec.noisy_fraction * n))
            mask = np.zeros(n, dtype=bool)
            mask[noise_order(n, seed)[:m]] = True
            values = np.where(mask[:, None, None], noisy[seed], clean) if m else clean
            reports.append(_score(model, cohort, values, cohort.noisy | mask, spec))
    return reports
