"""Seeded synthetic paired-volume cohorts with a planted prognostic signal.

Each patient gets a CT-like volume (bright spherical blob whose radius
grows with latent risk, on a smooth low-frequency background) and a
PET-like volume (Gaussian hotspot at the blob center whose peak intensity
grows with risk), plus a discrete survival outcome drawn from geometric
cause hazards tied to the same risk.  Corruption follows the benchmark
protocol: additive Gaussian noise on CT scaled to the intensity range,
Poisson count noise on PET.

Every random draw for patient i comes from a stream derived from
(master seed, i), so generation is order-independent and a cohort can be
rebuilt bit-identically from (seed, config).
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError, IncompatibleInputError, ShapeError, check_fields
from .fileio import atomic_bytes, atomic_text, ensure_dir

CT_SIGMA_CHOICES = (0.0, 0.01, 0.05, 0.1)
PET_LEVELS = ("low", "medium", "high")
# decade-spaced count scales; fewer counts = noisier reconstruction
POISSON_SCALES = {"low": 10000.0, "medium": 1000.0, "high": 100.0}

FORMAT_VERSION = 1
_INT64_MAX = np.iinfo(np.int64).max  # ids and time bins are stored as int64


@dataclass(frozen=True)
class NoiseSpec:
    ct_sigma: float = 0.0
    pet_level: str | None = None
    noisy_fraction: float = 0.0

    def __post_init__(self):
        check_fields(self)
        if self.ct_sigma not in CT_SIGMA_CHOICES:
            raise ConfigError(f"ct_sigma must be one of {CT_SIGMA_CHOICES}")
        if self.pet_level is not None and self.pet_level not in PET_LEVELS:
            raise ConfigError(f"pet_level must be one of {PET_LEVELS} or None")
        if not 0.0 <= self.noisy_fraction <= 1.0:
            raise ConfigError("noisy_fraction must lie in [0, 1]")

    @property
    def is_clean(self) -> bool:
        return self.noisy_fraction == 0.0 or (self.ct_sigma == 0.0 and self.pet_level is None)


@dataclass(frozen=True)
class CohortConfig:
    volume_side: int = 16
    n_risks: int = 1
    censor_rate: float = 0.3
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.volume_side < 4:
            raise ConfigError("volume_side must be at least 4")
        if self.n_risks not in (1, 2):
            raise ConfigError("n_risks must be 1 or 2")
        if not 0.0 <= self.censor_rate < 1.0:
            raise ConfigError("censor_rate must lie in [0, 1)")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass
class SyntheticCohort:
    patient_ids: np.ndarray   # (n,) int
    ct: np.ndarray            # (n, side^3) float64, clean values in [0, 1]
    pet: np.ndarray
    risk: np.ndarray          # (n,) latent risk in [0, 1]
    times: np.ndarray         # (n,) int, observed interval (1-based)
    events: np.ndarray        # (n,) int, 0 censored else cause index
    noisy: np.ndarray         # (n,) bool annotation
    config: CohortConfig

    @property
    def n(self) -> int:
        return self.patient_ids.size

    def subset(self, indices) -> "SyntheticCohort":
        """The given rows as a new cohort that shares no memory with this one."""
        idx = np.asarray(indices)
        if idx.ndim != 1:  # a 0-d index would select one row as a view
            raise ShapeError(f"subset needs a 1-D index, got shape {idx.shape}")
        # indexing with an array copies, so each field is copied exactly once
        return replace(self, **{f.name: getattr(self, f.name)[idx]
                                for f in fields(self) if f.name != "config"})


def _patient_rng(seed: int, patient: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, patient, *salt])


def _volumes_for(risk: float, side: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    # Each wave and squared centre offset varies along one axis only, so it
    # is computed once per axis as a (3, side) row and broadcast to the grid.
    # The grid sums add in axis order, (dx² + dy²) + dz² and (w0 + w1) + w2,
    # which a test pins bit for bit.
    axis = np.arange(side, dtype=float)
    center = side / 2.0 + rng.uniform(-side / 8.0, side / 8.0, size=3)
    sq = (axis - center[:, None]) ** 2
    dist = np.sqrt(sq[0][:, None, None] + sq[1][None, :, None] + sq[2][None, None, :])

    # smooth background: three axis-aligned low-frequency waves around 0.2
    freqs = rng.uniform(0.5, 1.5, size=3)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=3)
    waves = np.sin(2.0 * np.pi * freqs[:, None] * axis / side + phases[:, None])
    wave_sum = waves[0][:, None, None] + waves[1][None, :, None] + waves[2][None, None, :]
    background = 0.2 + 0.1 * wave_sum / 3.0

    radius = (2.0 + 4.0 * risk) * side / 16.0
    blob = 0.6 / (1.0 + np.exp(-(radius - dist) / 0.75))
    ct = np.clip(background + blob, 0.0, 1.0)

    peak = 0.3 + 0.6 * risk
    hotspot = peak * np.exp(-(dist ** 2) / (2.0 * radius ** 2))
    pet = np.clip(0.05 + hotspot, 0.0, 1.0)
    return ct.reshape(-1), pet.reshape(-1)


def _outcome_for(risk: float, n_risks: int, censor_rate: float,
                 rng: np.random.Generator) -> tuple[int, int]:
    hazards = [0.05 + 0.4 * risk]
    if n_risks == 2:
        hazards.append(0.05 + 0.2 * (1.0 - risk))
    draws = [int(rng.geometric(h)) for h in hazards]
    t = min(draws)
    e = draws.index(t) + 1  # tie goes to the lower cause index
    if rng.random() < censor_rate:
        return int(rng.integers(1, t + 1)), 0
    return t, e


def generate_cohort(n: int, config: CohortConfig) -> SyntheticCohort:
    if n < 2:
        raise ConfigError("cohort needs at least 2 patients")
    side = config.volume_side
    v = side ** 3
    try:
        ct, pet = np.empty((n, v)), np.empty((n, v))
    # numpy refuses a size past its dimension limit with ValueError
    except (MemoryError, ValueError):
        raise ConfigError(f"a cohort of {n} patients at side {side} needs {16 * n * v:.3g} "
                          f"bytes of volumes, more than can be allocated") from None
    risk = np.empty(n)
    times = np.empty(n, dtype=int)
    events = np.empty(n, dtype=int)
    for i in range(n):
        rng = _patient_rng(config.seed, i)
        risk[i] = rng.uniform()
        ct[i], pet[i] = _volumes_for(risk[i], side, rng)
        times[i], events[i] = _outcome_for(risk[i], config.n_risks, config.censor_rate, rng)
    return SyntheticCohort(
        patient_ids=np.arange(n),
        ct=ct, pet=pet, risk=risk, times=times, events=events,
        noisy=np.zeros(n, dtype=bool),
        config=config,
    )


def gaussian_noise(volume: np.ndarray, sigma: float, seed) -> np.ndarray:
    """Additive zero-mean Gaussian noise scaled to the intensity range.

    No clipping afterwards; values may leave [0, 1].
    """
    if sigma < 0:
        raise ConfigError("sigma must be nonnegative")
    volume = np.asarray(volume, dtype=float)
    if sigma == 0:
        return volume.copy()
    spread = float(volume.max() - volume.min())
    rng = np.random.default_rng(seed)
    return volume + rng.normal(0.0, sigma * spread, size=volume.shape)


def poisson_noise(volume: np.ndarray, level: str, seed) -> np.ndarray:
    """Photon-counting noise: draw Poisson(x*s)/s at the level's count scale.

    A mean count numpy cannot draw (near 2**63, or NaN) raises
    ``IncompatibleInputError``.
    """
    if level not in POISSON_SCALES:
        raise ConfigError(f"level must be one of {PET_LEVELS}")
    scale = POISSON_SCALES[level]
    volume = np.clip(np.asarray(volume, dtype=float), 0.0, None)
    rng = np.random.default_rng(seed)
    try:
        counts = rng.poisson(volume * scale)
    except ValueError:  # numpy refuses a mean near the int64 limit, or NaN
        raise IncompatibleInputError(
            f"PET intensity {volume.max():g} is beyond the range of {level} Poisson count "
            f"noise") from None
    return counts.astype(float) / scale


def noise_order(n: int, seed: int) -> np.ndarray:
    """The order in which a noise mix picks rows: at fraction f it corrupts
    the first floor(f*n) entries, so a larger fraction corrupts a superset."""
    return np.random.default_rng([seed, 5]).permutation(n)


def noisy_rows(n: int, spec: NoiseSpec, seed: int) -> np.ndarray:
    """The rows a noise mix corrupts: the first floor(fraction*n) entries of
    ``noise_order(n, seed)``, or none when ``spec`` changes no volume."""
    m = 0 if spec.is_clean else int(np.floor(spec.noisy_fraction * n))
    return noise_order(n, seed)[:m]


def apply_noise_mix(cohort: SyntheticCohort, spec: NoiseSpec, seed: int) -> SyntheticCohort:
    """Corrupt the rows ``noisy_rows(n, spec, seed)`` and mark them ``noisy``.

    Selected patients get both the CT and the PET corruption; outcomes are
    untouched.  Per-patient noise streams derive from (seed, patient id),
    so the same call is bit-reproducible and insensitive to cohort order,
    and a corrupted row does not depend on the fraction.
    """
    ct = cohort.ct.copy()
    pet = cohort.pet.copy()
    noisy = cohort.noisy.copy()
    for row in noisy_rows(cohort.n, spec, seed):
        pid = int(cohort.patient_ids[row])
        if spec.ct_sigma > 0:
            ct[row] = gaussian_noise(ct[row], spec.ct_sigma, [seed, pid, 11])
        if spec.pet_level is not None:
            pet[row] = poisson_noise(pet[row], spec.pet_level, [seed, pid, 13])
        noisy[row] = True
    return replace(cohort, ct=ct, pet=pet, noisy=noisy)


# ---------------------------------------------------------------------------
# disk format: one flat little-endian float32 file per volume, an outcomes
# CSV, and a manifest


def cohort_manifest(cohort: SyntheticCohort) -> dict:
    return {"format_version": FORMAT_VERSION,
            "cohort": {**asdict(cohort.config), "censor_rate": float(cohort.config.censor_rate),
                       "n": cohort.n}}


def save_cohort(cohort: SyntheticCohort, out_dir) -> None:
    out_dir = ensure_dir(out_dir)
    for row, pid in enumerate(cohort.patient_ids):
        atomic_bytes(out_dir / f"{int(pid)}_ct.f32", [cohort.ct[row].astype("<f4").tobytes()])
        atomic_bytes(out_dir / f"{int(pid)}_pet.f32", [cohort.pet[row].astype("<f4").tobytes()])

    rows = ["patient_id,time_bin,event,latent_risk,noisy"]
    for row in range(cohort.n):
        rows.append(
            f"{int(cohort.patient_ids[row])},{int(cohort.times[row])},{int(cohort.events[row])},"
            f"{repr(float(cohort.risk[row]))},{int(cohort.noisy[row])}"
        )
    atomic_text(out_dir / "outcomes.csv", "\n".join(rows) + "\n")

    manifest = cohort_manifest(cohort)
    atomic_text(out_dir / "manifest.json", json.dumps(manifest, sort_keys=True, indent=1) + "\n")


def load_cohort(data_dir) -> SyntheticCohort:
    """Read a cohort written by ``save_cohort``.  A missing, unreadable,
    truncated or inconsistent file raises ``DataFormatError``: besides
    unparseable fields, that covers a manifest ``format_version`` other than
    ``FORMAT_VERSION``, a patient count that is not a JSON integer of at least 2,
    a missing setting or one ``CohortConfig`` refuses (a side, risk count or seed
    not a JSON integer, a censor rate not a finite number), a patient id or
    time bin outside the int64 range (ids start at 0, bins at 1), a repeated
    patient id, an event code outside 0..n_risks, a noisy flag other than 0/1
    and a non-finite voxel.
    """
    data_dir = Path(data_dir)
    try:
        manifest = json.loads((data_dir / "manifest.json").read_bytes())
        version = manifest["format_version"]
        if type(version) is not int or version != FORMAT_VERSION:  # JSON true == 1 in Python
            raise DataFormatError(f"cohort format {version!r}, "
                                  f"but only format {FORMAT_VERSION} can be read")
        info = manifest["cohort"]
        expected_n = info["n"]
        # a JSON float, string or bool is damage, not a value to coerce, and
        # generate_cohort writes no fewer than 2 patients
        if type(expected_n) is not int or expected_n < 2:
            raise DataFormatError(f"manifest n is {expected_n!r}, not a JSON integer of at least 2")
        # a missing setting is damage too (KeyError); CohortConfig checks the kinds
        config = CohortConfig(**{f.name: info[f.name] for f in fields(CohortConfig)})
    except DataFormatError:  # the version and n checks above, worded already
        raise
    except FileNotFoundError:
        raise DataFormatError(f"no manifest.json in {data_dir}") from None
    except OSError as err:
        raise DataFormatError(f"unreadable manifest.json: {err.strerror}") from None
    # json raises RecursionError on deeply nested input
    except (KeyError, TypeError, ValueError, RecursionError) as err:
        raise DataFormatError(f"corrupt manifest: {err}") from None

    ids, times, events, risk, noisy = [], [], [], [], []
    try:
        with open(data_dir / "outcomes.csv", newline="") as fh:
            for rec in csv.DictReader(fh):
                ids.append(int(rec["patient_id"]))
                times.append(int(rec["time_bin"]))
                events.append(int(rec["event"]))
                risk.append(float(rec["latent_risk"]))
                noisy.append(int(rec["noisy"]))
    except (OSError, csv.Error, KeyError, TypeError, ValueError) as err:  # TypeError: short row
        raise DataFormatError(f"unreadable outcomes.csv: {err}") from None
    if len(ids) != expected_n:
        raise DataFormatError(f"manifest says {expected_n} patients, CSV has {len(ids)}")
    seen = set()
    for pid, t, e, flag in zip(ids, times, events, noisy):
        # a repeated id would read another patient's volumes and noise stream
        if pid in seen:
            raise DataFormatError(f"outcomes.csv lists patient_id {pid} twice")
        seen.add(pid)
        # an id seeds the patient's noise stream, which takes no negative integer
        if not 0 <= pid <= _INT64_MAX:
            raise DataFormatError(f"outcomes.csv: patient_id {pid} is outside 0..{_INT64_MAX}")
        if not 1 <= t <= _INT64_MAX:
            raise DataFormatError(f"outcomes.csv: patient {pid} has time_bin {t}, "
                                  f"bins run from 1 to {_INT64_MAX}")
        if not 0 <= e <= config.n_risks:
            raise DataFormatError(f"outcomes.csv: patient {pid} has event {e}, "
                                  f"manifest allows 0..{config.n_risks}")
        if flag not in (0, 1):
            raise DataFormatError(f"outcomes.csv: patient {pid} has noisy {flag}, not 0 or 1")

    v = config.volume_side ** 3
    # allocated once a file has borne out the manifest's side, which a damaged
    # manifest could make too large to allocate
    volumes = dict.fromkeys(("ct", "pet"))
    for row, pid in enumerate(ids):
        for name in volumes:
            file = f"{pid}_{name}.f32"
            try:
                # os.path.join: a pathlib join per file costs as much as its read
                with open(os.path.join(data_dir, file), "rb") as fh:
                    raw = fh.read()
            except FileNotFoundError:
                raise DataFormatError(f"missing volume file {file}") from None
            except OSError as err:
                raise DataFormatError(f"unreadable volume file {file}: {err.strerror}") from None
            if len(raw) != 4 * v:
                raise DataFormatError(f"{file} holds {len(raw)} bytes, expected {v} float32 "
                                      f"voxels ({4 * v} bytes)")
            if row == 0:
                volumes[name] = np.empty((len(ids), v))
            volumes[name][row] = np.frombuffer(raw, dtype="<f4")
    for name, block in volumes.items():
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            raise DataFormatError(f"{ids[int(np.argmin(finite))]}_{name}.f32 "
                                  f"holds a non-finite voxel")
    return SyntheticCohort(
        patient_ids=np.asarray(ids, dtype=int),
        ct=volumes["ct"], pet=volumes["pet"],
        risk=np.asarray(risk), times=np.asarray(times, dtype=int),
        events=np.asarray(events, dtype=int), noisy=np.asarray(noisy, dtype=bool),
        config=config,
    )
