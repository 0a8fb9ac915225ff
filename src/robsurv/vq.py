"""Per-modality encoder, learnable codebook quantization, and decoder.

Volumes arrive as flat single-channel cubes of side ``volume_side``.  The
encoder splits each cube into ``latent_grid**3`` equal blocks, projects
every block linearly to ``latent_dim`` channels, and applies one residual
two-layer MLP; the decoder mirrors this back to voxel space.  Between the
two sits a codebook of ``codebook_size`` vectors: each latent position is
snapped to its nearest codebook row (squared Euclidean distance, ties to
the lowest index), and training signals are split three ways:

* the codebook term pulls selected rows toward frozen encoder outputs,
* the commitment term pulls encoder outputs toward frozen rows,
* reconstruction flows to the encoder and decoder through the
  straight-through estimator, never into the codebook.

Codebook rows move by gradient descent like any other parameter; there is
no exponential-moving-average update path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, ShapeError

__all__ = [
    "EncoderConfig", "LatentPair", "VqLossBreakdown", "ModalityVqLoss",
    "CodebookHealth", "MODALITIES", "param_specs", "encode", "decode",
    "quantize", "vq_losses", "codebook_health",
]

MODALITIES = ("ct", "pet")


@dataclass(frozen=True)
class EncoderConfig:
    """Geometry of one modality's encoder/decoder pair and codebook."""

    volume_side: int = 16
    latent_grid: int = 4
    latent_dim: int = 32
    codebook_size: int = 64

    def __post_init__(self):
        if self.latent_grid < 2:
            raise ConfigError("latent_grid must be >= 2")
        if self.latent_dim < 1:
            raise ConfigError("latent_dim must be >= 1")
        if self.codebook_size < 2:
            raise ConfigError("codebook_size must be >= 2")
        if self.volume_side < self.latent_grid or self.volume_side % self.latent_grid:
            raise ConfigError(
                f"volume_side {self.volume_side} does not split into latent_grid {self.latent_grid} blocks"
            )

    @property
    def block_side(self) -> int:
        return self.volume_side // self.latent_grid

    @property
    def block_voxels(self) -> int:
        return self.block_side ** 3

    @property
    def grid_voxels(self) -> int:
        return self.latent_grid ** 3

    @property
    def n_voxels(self) -> int:
        return self.volume_side ** 3


@dataclass
class LatentPair:
    """Continuous latent, its quantized counterpart and the chosen rows."""

    z_e: Tensor           # (B, D, G) continuous encoder output
    z_q: Tensor           # (B, D, G), every (b, position) column a codebook row
    indices: np.ndarray   # (B, G) int codebook assignments


@dataclass
class ModalityVqLoss:
    codebook: Tensor
    commitment: Tensor
    reconstruction: Tensor
    total: Tensor


@dataclass
class VqLossBreakdown:
    per_modality: dict[str, ModalityVqLoss]
    total: Tensor


@dataclass(frozen=True)
class CodebookHealth:
    perplexity: float
    dead_entries: int


def param_specs(cfg: EncoderConfig) -> dict[str, tuple]:
    """Encoder/decoder/codebook parameter table for one modality, in draw order.

    Linear weights are uniform +-1/sqrt(fan_in), biases zero, codebook rows
    uniform +-1/codebook_size.
    """
    d, bv, k = cfg.latent_dim, cfg.block_voxels, cfg.codebook_size
    specs = {"enc_in_w": ad.linear_spec(bv, d), "enc_in_b": ((d,), 0.0, 0.0)}
    for prefix in ("enc_res", "dec_res"):  # the two residual MLPs, see _residual_mlp
        for i in (1, 2):
            specs[f"{prefix}_w{i}"] = ad.linear_spec(d, d)
            specs[f"{prefix}_b{i}"] = ((d,), 0.0, 0.0)
    specs.update(dec_out_w=ad.linear_spec(d, bv), dec_out_b=((bv,), 0.0, 0.0),
                 codebook=((k, d), -1.0 / k, 1.0 / k))
    return specs


def _residual_mlp(h: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    inner = ad.relu(ad.linear(h, params[f"{prefix}_w1"], params[f"{prefix}_b1"]))
    return h + ad.linear(inner, params[f"{prefix}_w2"], params[f"{prefix}_b2"])


def encode(volume, params: dict[str, Tensor], cfg: EncoderConfig) -> Tensor:
    """Flat (B, side^3) volume -> continuous latent (B, D, grid^3).

    Blocks are ordered row-major over (x, y, z) grid cells; voxels inside a
    block are flattened the same way.
    """
    v = ad.as_tensor(volume)
    if v.ndim != 2 or v.shape[1] != cfg.n_voxels:
        raise ShapeError(f"expected (B, {cfg.n_voxels}) volume, got {v.shape}")
    b = v.shape[0]
    g, bs = cfg.latent_grid, cfg.block_side
    x = ad.rearrange(v, (b, g, bs, g, bs, g, bs), (0, 1, 3, 5, 2, 4, 6),
                     (b, cfg.grid_voxels, cfg.block_voxels))
    h = ad.linear(x, params["enc_in_w"], params["enc_in_b"])
    h = _residual_mlp(h, params, "enc_res")
    return h.transpose((0, 2, 1))


def decode(z, params: dict[str, Tensor], cfg: EncoderConfig) -> Tensor:
    """Latent (B, D, grid^3) -> reconstructed flat volume (B, side^3)."""
    t = ad.as_tensor(z)
    if t.ndim != 3 or t.shape[1] != cfg.latent_dim or t.shape[2] != cfg.grid_voxels:
        raise ShapeError(
            f"expected (B, {cfg.latent_dim}, {cfg.grid_voxels}) latent, got {t.shape}"
        )
    b = t.shape[0]
    g, bs = cfg.latent_grid, cfg.block_side
    h = t.transpose((0, 2, 1))
    h = _residual_mlp(h, params, "dec_res")
    x = ad.linear(h, params["dec_out_w"], params["dec_out_b"])
    return ad.rearrange(x, (b, g, g, g, bs, bs, bs), (0, 1, 4, 2, 5, 3, 6), (b, cfg.n_voxels))


def quantize(z_e: Tensor, codebook: Tensor) -> LatentPair:
    """Snap every latent position to its nearest codebook row.

    Distances are squared Euclidean; exact ties resolve to the lowest row
    index.  The returned ``z_q`` is differentiable with respect to the
    codebook (row selection held fixed) and its values are bit-exact
    copies of codebook rows.
    """
    if codebook.ndim != 2:
        raise ShapeError("codebook must be 2-D (entries, dim)")
    if codebook.shape[0] == 0:
        raise ContractError("empty codebook")
    d = codebook.shape[1]
    if z_e.ndim != 3 or z_e.shape[1] != d:
        raise ShapeError(f"latent {z_e.shape} incompatible with codebook dim {d}")
    b, _, g = z_e.shape
    feats = z_e.data.transpose(0, 2, 1).reshape(-1, d)
    cb = codebook.data
    d2 = (
        (feats * feats).sum(axis=1)[:, None]
        + (cb * cb).sum(axis=1)[None, :]
        - 2.0 * (feats @ cb.T)
    )
    idx = np.argmin(d2, axis=1)
    rows = ad.take_rows(codebook, idx)
    z_q = ad.rearrange(rows, (b, g, d), (0, 2, 1), (b, d, g))
    return LatentPair(z_e=z_e, z_q=z_q, indices=idx.reshape(b, g))


def vq_losses(volumes: dict[str, Tensor], latents: dict[str, LatentPair],
              recons: dict[str, Tensor], alpha1: float = 0.25,
              alpha2: float = 1.0) -> VqLossBreakdown:
    """Codebook / commitment / reconstruction terms, summed over modalities.

    Each term is a mean over every latent position and channel (voxel for
    the reconstruction), so weights stay comparable across grid sizes.
    The codebook and commitment terms share one value and differ only in
    which side the gradient reaches.  Each modality totals codebook + alpha1 *
    commitment + alpha2 * reconstruction (``TrainConfig`` rejects negative alphas).
    """
    per: dict[str, ModalityVqLoss] = {}
    total: Tensor | None = None
    for m in latents:
        pair = latents[m]
        diff_cb = pair.z_e.detach() - pair.z_q
        cb = (diff_cb * diff_cb).mean()
        diff_ce = pair.z_e - pair.z_q.detach()
        ce = (diff_ce * diff_ce).mean()
        diff_rec = volumes[m] - recons[m]
        recon = (diff_rec * diff_rec).mean()
        m_total = cb + alpha1 * ce + alpha2 * recon
        per[m] = ModalityVqLoss(cb, ce, recon, m_total)
        total = m_total if total is None else total + m_total
    if total is None:
        raise ContractError("vq_losses called with no modalities")
    return VqLossBreakdown(per_modality=per, total=total)


def codebook_health(codebook: Tensor, indices: np.ndarray) -> CodebookHealth:
    """Assignment perplexity (exp of entropy) and count of unused rows."""
    k = codebook.shape[0]
    counts = np.bincount(np.asarray(indices).reshape(-1), minlength=k)
    used = counts[counts > 0]
    if used.sum() == 0:
        return CodebookHealth(perplexity=0.0, dead_entries=int(k))
    p = used / used.sum()
    entropy = float(-(p * np.log(p)).sum())
    return CodebookHealth(perplexity=float(np.exp(entropy)), dead_entries=int((counts == 0).sum()))
