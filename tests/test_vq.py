import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradcheck import check_gradients
from robsurv import autodiff as ad
from robsurv import trainer, vq
from robsurv.errors import ConfigError, ContractError, ShapeError

CFG = vq.EncoderConfig(volume_side=8, latent_grid=2, latent_dim=6, codebook_size=5)


def make_params(seed=0, cfg=CFG):
    return ad.init_params(vq.param_specs(cfg), np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ConfigError):
        vq.EncoderConfig(volume_side=10, latent_grid=4)
    with pytest.raises(ConfigError):
        vq.EncoderConfig(latent_grid=1)
    with pytest.raises(ConfigError):
        vq.EncoderConfig(codebook_size=1)


@pytest.mark.parametrize("bad", [dict(latent_dim=8.0), dict(codebook_size=np.int64(8)),
                                 dict(volume_side=True), dict(latent_grid="2")])
def test_config_rejects_wrong_kinds(bad):
    with pytest.raises(ConfigError, match=next(iter(bad))):
        vq.EncoderConfig(**bad)


def test_large_preset_geometry():
    # full-resolution setting: 128^3 volumes, 8^3 token grid, 512 channels, 1024 codes
    cfg = vq.EncoderConfig(128, 8, 512, 1024)
    assert cfg.volume_side == 128
    assert cfg.latent_grid == 8
    assert cfg.latent_dim == 512
    assert cfg.codebook_size == 1024
    assert cfg.block_side == 16
    assert cfg.grid_voxels == 512


# ---------------------------------------------------------------------------
# encoder / decoder


def test_encode_shape_and_determinism():
    params = make_params(3)
    vol = np.random.default_rng(1).uniform(size=(4, CFG.n_voxels))
    a = vq.encode(vol, params, CFG)
    b = vq.encode(vol, params, CFG)
    assert a.shape == (4, CFG.latent_dim, CFG.grid_voxels)
    assert np.array_equal(a.data, b.data)
    ad.reset_graph()


def test_zero_volume_zero_bias_gives_zero_latent():
    params = make_params(4)
    out = vq.encode(np.zeros((2, CFG.n_voxels)), params, CFG)
    assert not out.data.any()
    rec = vq.decode(ad.Tensor(np.zeros((2, CFG.latent_dim, CFG.grid_voxels))), params, CFG)
    assert not rec.data.any()
    ad.reset_graph()


def test_encode_batch_independence():
    params = make_params(5)
    row = np.random.default_rng(2).uniform(size=(1, CFG.n_voxels))
    single = vq.encode(row, params, CFG).data
    stacked = vq.encode(np.vstack([row, np.ones((1, CFG.n_voxels)), row]), params, CFG).data
    assert np.array_equal(stacked[0], single[0])
    assert np.array_equal(stacked[2], single[0])
    ad.reset_graph()


def test_encode_rejects_bad_shape():
    params = make_params(6)
    with pytest.raises(ShapeError):
        vq.encode(np.zeros((2, CFG.n_voxels + 1)), params, CFG)
    with pytest.raises(ShapeError):
        vq.decode(ad.Tensor(np.zeros((2, CFG.latent_dim + 1, CFG.grid_voxels))), params, CFG)


def test_block_layout_roundtrip():
    # an identity-like check of the patch bookkeeping: push a volume through
    # reshape/transpose the way encode does, then invert it the way decode
    # does, and land on the original voxels
    cfg = CFG
    vol = np.arange(cfg.n_voxels, dtype=float).reshape(1, -1)
    g, bs = cfg.latent_grid, cfg.block_side
    x = vol.reshape(1, g, bs, g, bs, g, bs).transpose(0, 1, 3, 5, 2, 4, 6)
    x = x.reshape(1, cfg.grid_voxels, cfg.block_voxels)
    back = x.reshape(1, g, g, g, bs, bs, bs).transpose(0, 1, 4, 2, 5, 3, 6).reshape(1, -1)
    assert np.array_equal(back, vol)


# ---------------------------------------------------------------------------
# quantize


def brute_force_assign(feats, codebook):
    out = np.empty(len(feats), dtype=int)
    for i, f in enumerate(feats):
        best, best_d = 0, np.inf
        for j, c in enumerate(codebook):
            d = float(((f - c) ** 2).sum())
            if d < best_d:
                best, best_d = j, d
        out[i] = best
    return out


def test_quantize_matches_brute_force():
    rng = np.random.default_rng(7)
    cb = ad.Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    z = ad.Tensor(rng.normal(size=(3, 4, 5)))
    pair = vq.quantize(z, cb)
    feats = z.data.transpose(0, 2, 1).reshape(-1, 4)
    assert np.array_equal(pair.indices.reshape(-1), brute_force_assign(feats, cb.data))
    ad.reset_graph()


def test_quantize_tie_breaks_to_lowest_index():
    cb = ad.Tensor([[0.0, 0.0], [1.0, 1.0]])
    z = ad.Tensor(np.array([0.5, 0.5]).reshape(1, 2, 1))
    pair = vq.quantize(z, cb)
    assert pair.indices.reshape(-1)[0] == 0


def test_quantize_fixed_point_row():
    cb = ad.Tensor(np.random.default_rng(8).normal(size=(5, 3)))
    z = ad.Tensor(cb.data[3].reshape(1, 3, 1).copy())
    pair = vq.quantize(z, cb)
    assert pair.indices.reshape(-1)[0] == 3
    assert np.array_equal(pair.z_q.data.reshape(3), cb.data[3])


def test_quantize_rows_bit_exact():
    rng = np.random.default_rng(9)
    cb = ad.Tensor(rng.normal(size=(7, 4)))
    z = ad.Tensor(rng.normal(size=(2, 4, 6)))
    pair = vq.quantize(z, cb)
    cols = pair.z_q.data.transpose(0, 2, 1).reshape(-1, 4)
    for col, j in zip(cols, pair.indices.reshape(-1)):
        assert np.array_equal(col, cb.data[j])
    ad.reset_graph()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_quantize_idempotent(seed):
    rng = np.random.default_rng(seed)
    cb = ad.Tensor(rng.normal(size=(5, 3)))
    z = ad.Tensor(rng.normal(size=(2, 3, 4)))
    first = vq.quantize(z, cb)
    second = vq.quantize(ad.Tensor(first.z_q.data), cb)
    assert np.array_equal(first.indices, second.indices)
    assert np.array_equal(first.z_q.data, second.z_q.data)
    ad.reset_graph()


def test_quantize_shape_errors():
    with pytest.raises(ShapeError):
        vq.quantize(ad.Tensor(np.zeros((2, 3, 4))), ad.Tensor(np.zeros((5, 2))))
    with pytest.raises(ContractError):
        vq.quantize(ad.Tensor(np.zeros((1, 2, 1))), ad.Tensor(np.zeros((0, 2))))


def test_separate_codebooks_stay_independent():
    rng = np.random.default_rng(10)
    cb_ct = ad.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    cb_pet = ad.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    z_pet = ad.Tensor(rng.normal(size=(1, 3, 4)))
    before = vq.quantize(z_pet, cb_pet)
    cb_ct.data += 100.0
    after = vq.quantize(z_pet, cb_pet)
    assert np.array_equal(before.indices, after.indices)
    assert np.array_equal(before.z_q.data, after.z_q.data)
    ad.reset_graph()


# ---------------------------------------------------------------------------
# straight-through + loss routing


def test_straight_through_latent_values():
    rng = np.random.default_rng(11)
    cb = ad.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    z = ad.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    pair = vq.quantize(z, cb)
    st_latent = ad.straight_through(pair.z_e, pair.z_q)
    assert np.array_equal(st_latent.data, pair.z_q.data)
    ad.backward(st_latent.sum())
    assert np.array_equal(z.grad, np.ones_like(z.data))
    assert cb.grad is None
    ad.reset_graph()


def _vq_state(seed, cfg=CFG):
    rng = np.random.default_rng(seed)
    params = {m: make_params(seed + i, cfg) for i, m in enumerate(vq.MODALITIES)}
    vols = {m: ad.Tensor(rng.uniform(size=(2, cfg.n_voxels))) for m in vq.MODALITIES}

    def build_breakdown(**alphas):
        latents, recons = {}, {}
        for m in vq.MODALITIES:
            z_e = vq.encode(vols[m], params[m], cfg)
            pair = vq.quantize(z_e, params[m]["codebook"])
            latents[m] = pair
            st_latent = ad.straight_through(pair.z_e, pair.z_q)
            recons[m] = vq.decode(st_latent, params[m], cfg)
        return vq.vq_losses(vols, latents, recons, **alphas)

    return params, vols, build_breakdown


def test_codebook_and_commitment_share_values():
    _, _, build = _vq_state(21)
    bd = build()
    for m in vq.MODALITIES:
        assert abs(bd.per_modality[m].codebook.item() - bd.per_modality[m].commitment.item()) <= 1e-12
    ad.reset_graph()


def test_gradient_routing_between_terms():
    params, _, build = _vq_state(22)
    bd = build()
    ad.backward(bd.per_modality["ct"].codebook)
    assert params["ct"]["codebook"].grad is not None
    assert params["ct"]["enc_in_w"].grad is None

    bd = build()
    ad.backward(bd.per_modality["ct"].commitment)
    assert params["ct"]["codebook"].grad is None
    assert params["ct"]["enc_in_w"].grad is not None

    bd = build()
    ad.backward(bd.per_modality["ct"].reconstruction)
    assert params["ct"]["codebook"].grad is None
    assert params["ct"]["enc_in_w"].grad is not None  # straight-through path
    assert params["ct"]["dec_out_w"].grad is not None
    assert params["pet"]["enc_in_w"].grad is None
    ad.reset_graph()


def test_perfect_quantization_gives_zero_cb_ce():
    # encoder output placed exactly on codebook rows
    cfg = CFG
    params = make_params(23, cfg)
    k = cfg.codebook_size
    rng = np.random.default_rng(24)
    rows = rng.integers(0, k, size=(1, cfg.grid_voxels))
    z = ad.Tensor(params["codebook"].data[rows].transpose(0, 2, 1).copy())
    pair = vq.quantize(z, params["codebook"])
    assert np.array_equal(pair.indices, rows)
    diff = pair.z_e.data - pair.z_q.data
    assert not diff.any()
    ad.reset_graph()


def test_modality_total_composition():
    _, _, build = _vq_state(25)
    for alpha1, alpha2 in ((0.25, 1.0), (0.5, 0.3), (0.0, 0.0)):
        bd = build(alpha1=alpha1, alpha2=alpha2)
        for m in vq.MODALITIES:
            part = bd.per_modality[m]
            expected = (part.codebook.item() + alpha1 * part.commitment.item()
                        + alpha2 * part.reconstruction.item())
            assert part.total.item() == expected
        assert bd.total.item() == bd.per_modality["ct"].total.item() + bd.per_modality["pet"].total.item()
    # the weights are validated once, where they are configured
    with pytest.raises(ConfigError):
        trainer.TrainConfig(alpha1=-0.1)
    with pytest.raises(ConfigError):
        trainer.TrainConfig(alpha2=-0.1)
    ad.reset_graph()


@pytest.mark.parametrize("seed", range(5))
def test_total_monotone_in_weights(seed):
    _, _, build = _vq_state(30 + seed)
    base = build().per_modality["ct"].total.item()
    up1 = build(alpha1=0.35).per_modality["ct"].total.item()
    up2 = build(alpha2=1.3).per_modality["ct"].total.item()
    assert up1 >= base and up2 >= base
    ad.reset_graph()


# ---------------------------------------------------------------------------
# finite differences on the quantization losses


@pytest.mark.parametrize("seed", range(10))
def test_codebook_term_gradient_fd(seed):
    # codebook term wrt codebook rows; z_e frozen by definition.  Codebook
    # entries are spread out so FD probes never flip an assignment.
    rng = np.random.default_rng((101, seed))
    cb = ad.Tensor(rng.normal(scale=2.0, size=(4, 3)), requires_grad=True)
    z = ad.Tensor(rng.normal(scale=0.3, size=(1, 3, 4)))

    def build():
        pair = vq.quantize(z, cb)
        d = pair.z_e.detach() - pair.z_q
        return (d * d).mean()

    check_gradients(build, [cb])


@pytest.mark.parametrize("seed", range(10))
def test_commitment_term_gradient_fd(seed):
    rng = np.random.default_rng((102, seed))
    cb = ad.Tensor(rng.normal(scale=2.0, size=(4, 3)))
    z = ad.Tensor(rng.normal(scale=0.3, size=(1, 3, 4)), requires_grad=True)

    def build():
        pair = vq.quantize(z, cb)
        d = pair.z_e - pair.z_q.detach()
        return (d * d).mean()

    check_gradients(build, [z])


@pytest.mark.parametrize("seed", range(10))
def test_reconstruction_gradient_fd(seed):
    # reconstruction wrt the decoder stack and the raw volume, with the
    # quantized latent treated as the given input of the decode path
    cfg = vq.EncoderConfig(volume_side=4, latent_grid=2, latent_dim=3, codebook_size=4)
    rng = np.random.default_rng((103, seed))
    params = ad.init_params(vq.param_specs(cfg), rng)
    z_disc = ad.Tensor(rng.normal(size=(1, 3, cfg.grid_voxels)), requires_grad=True)
    vol = ad.Tensor(rng.uniform(size=(1, cfg.n_voxels)), requires_grad=True)
    leaves = [z_disc, vol, params["dec_res_w1"], params["dec_out_w"], params["dec_out_b"]]

    def build():
        rec = vq.decode(z_disc, params, cfg)
        d = vol - rec
        return (d * d).mean()

    check_gradients(build, leaves)


# ---------------------------------------------------------------------------
# codebook health


def test_health_single_entry():
    cb = ad.Tensor(np.zeros((4, 2)))
    h = vq.codebook_health(cb, np.zeros(10, dtype=int))
    assert h.perplexity == pytest.approx(1.0)
    assert h.dead_entries == 3


def test_health_uniform_usage():
    k = 64
    cb = ad.Tensor(np.zeros((k, 2)))
    h = vq.codebook_health(cb, np.arange(k))
    assert h.perplexity == pytest.approx(64.0)
    assert h.dead_entries == 0


def test_health_skewed_counts():
    cb = ad.Tensor(np.zeros((2, 2)))
    idx = np.array([0, 0, 0, 1])
    h = vq.codebook_health(cb, idx)
    p = np.array([0.75, 0.25])
    expected = float(np.exp(-(p * np.log(p)).sum()))
    assert h.perplexity == pytest.approx(expected, abs=1e-12)
    assert h.perplexity == pytest.approx(1.7547, abs=5e-4)
