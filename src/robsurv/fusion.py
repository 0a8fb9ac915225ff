"""Cross-modal fusion of the two latent grids.

Two routes run in parallel and are joined at the end:

* a patch-attention route over the quantized latents, where each modality
  queries the other and the two attended streams are mixed by learned
  scalar weights, plus an alignment/preservation penalty pair that keeps
  the mixed stream anchored to both inputs;
* a gated route over the raw (pre-quantization) latents, with a channel
  gate driven by pooled statistics and a position gate driven by
  cross-channel statistics, pooled to a single vector per subject.

Latents arrive channel-first as (batch, dim, cells); attention runs on
(batch, patch, feature) tokens built from 2x2x2 neighborhoods of the
latent grid, as one multi-head ``ad.attention`` record per direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ShapeError
from .vq import EncoderConfig, MODALITIES

ALIGN_NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class FusionConfig:
    d_model: int = 256
    d_k: int = 64
    n_heads: int = 1
    patch_size: int = 2
    channel_reduction: int = 4
    d_fused: int = 256
    preserve_weight_pet: float = 0.5

    def __post_init__(self):
        if self.d_model < 2 or self.d_model % 2:
            raise ConfigError("d_model must be even and >= 2")
        if self.d_k < 1 or self.n_heads < 1:
            raise ConfigError("d_k and n_heads must be positive")
        if self.patch_size < 1:
            raise ConfigError("patch_size must be positive")
        if self.channel_reduction < 1:
            raise ConfigError("channel_reduction must be positive")
        if self.d_fused < 1:
            raise ConfigError("d_fused must be positive")
        if not self.preserve_weight_pet >= 0:
            raise ConfigError("preserve_weight_pet must be nonnegative")

    def n_patches(self, enc: EncoderConfig) -> int:
        if enc.latent_grid % self.patch_size:
            raise ConfigError(
                f"latent grid {enc.latent_grid} not divisible by patch size {self.patch_size}"
            )
        return (enc.latent_grid // self.patch_size) ** 3

    def patch_input_dim(self, enc: EncoderConfig) -> int:
        return self.patch_size ** 3 * enc.latent_dim


@dataclass
class DiscretePathOutput:
    """Everything the attention route produces that later stages consume."""

    fused: ad.Tensor        # (B, P, d_model)
    embed_ct: ad.Tensor     # (B, P, d_model)
    embed_pet: ad.Tensor
    query_ct: ad.Tensor     # (B, P, n_heads*d_k), pre-attention projections
    key_pet: ad.Tensor


@dataclass
class FusionLosses:
    alignment: ad.Tensor
    preservation: ad.Tensor
    total: ad.Tensor


def param_specs(enc: EncoderConfig, cfg: FusionConfig) -> dict[str, tuple]:
    """Parameter table for both fusion routes, in draw order.

    Weight matrices are uniform within +-1/sqrt(fan_in), biases start at
    zero, and the two stream-mixing scalars start at 0.5 each.
    """
    p_in = cfg.patch_input_dim(enc)
    width = cfg.n_heads * cfg.d_k
    two_d = 2 * enc.latent_dim
    hidden = max(two_d // cfg.channel_reduction, 1)
    specs: dict[str, tuple] = {}
    for m in MODALITIES:
        specs[f"patch_w_{m}"] = ad.linear_spec(p_in, cfg.d_model)
        specs[f"patch_b_{m}"] = ((cfg.d_model,), 0.0, 0.0)
        specs[f"wq_{m}"] = ad.linear_spec(cfg.d_model, width)
        specs[f"wk_{m}"] = ad.linear_spec(cfg.d_model, width)
        specs[f"wv_{m}"] = ad.linear_spec(cfg.d_model, width)
    specs["out_ct2pet_w"] = ad.linear_spec(width, cfg.d_model)
    specs["out_pet2ct_w"] = ad.linear_spec(width, cfg.d_model)
    specs["mix_ct"] = ((), 0.5, 0.5)
    specs["mix_pet"] = ((), 0.5, 0.5)
    specs["chan_w1"] = ad.linear_spec(two_d, hidden)
    specs["chan_b1"] = ((hidden,), 0.0, 0.0)
    specs["chan_w2"] = ad.linear_spec(hidden, two_d)
    specs["chan_b2"] = ((two_d,), 0.0, 0.0)
    specs["spat_w"] = ad.linear_spec(2, 1)
    specs["spat_b"] = ((1,), 0.0, 0.0)
    specs["fuse_w"] = ad.linear_spec(cfg.d_model + two_d, cfg.d_fused)
    specs["fuse_b"] = ((cfg.d_fused,), 0.0, 0.0)
    return specs


@lru_cache(maxsize=8)
def positional_encoding(n_positions: int, d_model: int) -> np.ndarray:
    """Fixed sinusoidal table, (n_positions, d_model); cached per shape."""
    pos = np.arange(n_positions, dtype=float)[:, None]
    i = np.arange(d_model // 2, dtype=float)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / d_model)
    table = np.empty((n_positions, d_model))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    table.flags.writeable = False
    return table


def patchify_embed(z, params: dict, modality: str, enc: EncoderConfig,
                   cfg: FusionConfig) -> ad.Tensor:
    """Group the latent grid into patch tokens and project to model width.

    z is (B, D, G) with the grid flattened row-major; cells are regrouped
    into patch_size^3 neighborhoods, each flattened to one feature vector,
    and the sinusoidal position of each patch is added after projection.
    """
    z = ad.as_tensor(z)
    g, d = enc.latent_grid, enc.latent_dim
    if z.ndim != 3 or z.shape[1] != d or z.shape[2] != enc.grid_voxels:
        raise ShapeError(f"latent must be (B, {d}, {enc.grid_voxels}), got {z.shape}")
    ps = cfg.patch_size
    nb = g // ps
    b = z.shape[0]
    # (B, D, x, y, z) cells -> (B, patch, within-patch offset, D) tokens
    tokens = ad.rearrange(z, (b, d, nb, ps, nb, ps, nb, ps), (0, 2, 4, 6, 3, 5, 7, 1),
                          (b, nb * nb * nb, ps * ps * ps * d))
    embed = ad.linear(tokens, params[f"patch_w_{modality}"], params[f"patch_b_{modality}"])
    return embed + ad.Tensor(positional_encoding(nb * nb * nb, cfg.d_model))


def cross_attention(src_embed, tgt_embed, params: dict, src: str, tgt: str,
                    cfg: FusionConfig):
    """One direction of patch cross-attention.

    Queries come from src, keys/values from tgt, each a bias-free
    projection to n_heads*d_k; ``ad.attention`` attends per head and merges
    the heads, and the attended stream is projected back to d_model.
    Returns (projected, query, key).
    """
    q = ad.linear(src_embed, params[f"wq_{src}"])
    k = ad.linear(tgt_embed, params[f"wk_{tgt}"])
    v = ad.linear(tgt_embed, params[f"wv_{tgt}"])
    attended = ad.attention(q, k, v, cfg.n_heads)
    return ad.linear(attended, params[f"out_{src}2{tgt}_w"]), q, k


def discrete_fusion(z_ct, z_pet, params: dict, enc: EncoderConfig, cfg: FusionConfig) -> DiscretePathOutput:
    e_ct = patchify_embed(z_ct, params, "ct", enc, cfg)
    e_pet = patchify_embed(z_pet, params, "pet", enc, cfg)
    a_ct, q_ct, k_pet = cross_attention(e_ct, e_pet, params, "ct", "pet", cfg)
    a_pet, _, _ = cross_attention(e_pet, e_ct, params, "pet", "ct", cfg)
    # residual per direction, then learned scalar mix of the two directions
    fused = params["mix_ct"] * (a_ct + e_ct) + params["mix_pet"] * (a_pet + e_pet)
    return DiscretePathOutput(fused=fused, embed_ct=e_ct, embed_pet=e_pet,
                              query_ct=q_ct, key_pet=k_pet)


def _mean_cosine(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """Mean cosine similarity over (B, P) pairs of feature rows.

    Pairs whose norm product falls below ALIGN_NORM_FLOOR contribute zero
    rather than dividing by a vanishing denominator.
    """
    dot = (a * b).sum(axis=2)
    norms = ad.l2norm(a, axis=2) * ad.l2norm(b, axis=2)
    mask = (norms.data >= ALIGN_NORM_FLOOR).astype(float)
    keep = ad.Tensor(mask)
    # masked entries get a denominator of exactly 1 and a zeroed numerator
    safe = norms * keep + ad.Tensor(1.0 - mask)
    return ((dot / safe) * keep).mean()


def fusion_losses(disc: DiscretePathOutput, cfg: FusionConfig) -> FusionLosses:
    """Alignment plus preservation penalty for the attention route.

    Alignment pulls ct queries toward pet keys (negated mean cosine);
    preservation is the mean per-patch distance of the fused stream to
    each input embedding, the pet side scaled by preserve_weight_pet.
    """
    align = -_mean_cosine(disc.query_ct, disc.key_pet)
    keep_ct = ad.l2norm(disc.fused - disc.embed_ct, axis=2).mean()
    keep_pet = ad.l2norm(disc.fused - disc.embed_pet, axis=2).mean()
    preserve = keep_ct + cfg.preserve_weight_pet * keep_pet
    return FusionLosses(alignment=align, preservation=preserve, total=align + preserve)


def continuous_attention(z_ct, z_pet, params: dict) -> ad.Tensor:
    """Gated route over the raw latents; returns (B, 2D) pooled features.

    Channels are reweighted by a sigmoid gate computed from average- and
    max-pooled channel statistics through a shared two-layer net; grid
    positions are then reweighted by a gate over cross-channel mean/max.
    """
    z_ct, z_pet = ad.as_tensor(z_ct), ad.as_tensor(z_pet)
    if z_ct.shape != z_pet.shape or z_ct.ndim != 3:
        raise ShapeError(f"expected matching (B,D,G) latents, got {z_ct.shape} and {z_pet.shape}")
    x = ad.concat([z_ct, z_pet], axis=1)                      # (B, 2D, G)
    b, c = x.shape[0], x.shape[1]

    def channel_net(pooled):
        h = ad.relu(ad.linear(pooled, params["chan_w1"], params["chan_b1"]))
        return ad.linear(h, params["chan_w2"], params["chan_b2"])

    gate_c = ad.sigmoid(channel_net(x.mean(axis=2)) + channel_net(x.max(axis=2)))
    x = x * ad.reshape(gate_c, (b, c, 1))

    stats = ad.concat(
        [ad.reshape(x.mean(axis=1), (b, -1, 1)), ad.reshape(x.max(axis=1), (b, -1, 1))],
        axis=2,
    )                                                         # (B, G, 2)
    gate_s = ad.sigmoid(ad.linear(stats, params["spat_w"], params["spat_b"]))
    flat = ad.transpose(x, (0, 2, 1)) * gate_s                # (B, G, 2D)
    return flat.mean(axis=1)


def fuse_final(f_discrete, f_continuous, params: dict) -> ad.Tensor:
    """Join the two routes into one subject-level feature vector."""
    pooled = ad.as_tensor(f_discrete).mean(axis=1)            # (B, d_model)
    joined = ad.concat([pooled, ad.as_tensor(f_continuous)], axis=1)
    return ad.relu(ad.linear(joined, params["fuse_w"], params["fuse_b"]))
