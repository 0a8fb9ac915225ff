import numpy as np
import pytest

from gradcheck import check_gradients
from robsurv import autodiff as ad
from robsurv import fusion
from robsurv.errors import ConfigError, ShapeError
from robsurv.vq import EncoderConfig

ENC = EncoderConfig(volume_side=8, latent_grid=4, latent_dim=6, codebook_size=5)
CFG = fusion.FusionConfig(d_model=8, d_k=4, n_heads=1, patch_size=2, channel_reduction=2, d_fused=10)


@pytest.fixture(autouse=True)
def _fresh_graph():
    ad.reset_graph()
    yield
    ad.reset_graph()


def make_params(seed=0, enc=ENC, cfg=CFG):
    return ad.init_params(fusion.param_specs(enc, cfg), np.random.default_rng(seed))


def rand_latent(seed, enc=ENC, batch=2):
    rng = np.random.default_rng(seed)
    return ad.Tensor(rng.normal(size=(batch, enc.latent_dim, enc.grid_voxels)))


# ---------------------------------------------------------------------------
# config / geometry


def test_config_validation():
    with pytest.raises(ConfigError):
        fusion.FusionConfig(d_model=7)
    with pytest.raises(ConfigError):
        fusion.FusionConfig(n_heads=0)
    with pytest.raises(ConfigError):
        fusion.FusionConfig(preserve_weight_pet=-1.0)
    with pytest.raises(ConfigError):
        CFG.n_patches(EncoderConfig(volume_side=9, latent_grid=3, latent_dim=4))


@pytest.mark.parametrize("bad", [
    dict(preserve_weight_pet=float("inf")), dict(preserve_weight_pet=float("nan")),
    dict(preserve_weight_pet="0.5"), dict(d_k=True), dict(n_heads=np.int64(1)),
])
def test_config_rejects_wrong_kinds(bad):
    with pytest.raises(ConfigError, match=next(iter(bad))):
        fusion.FusionConfig(**bad)


def test_patch_counts():
    assert CFG.n_patches(ENC) == 8
    assert CFG.patch_input_dim(ENC) == 48
    big = fusion.FusionConfig()
    assert big.n_patches(EncoderConfig(128, 8, 512, 1024)) == 64


def test_positional_table():
    table = fusion.positional_encoding(8, 6)
    assert table.shape == (8, 6)
    assert np.all(np.abs(table) <= 1.0)
    assert np.array_equal(table[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    assert fusion.positional_encoding(8, 6) is table  # cached


# ---------------------------------------------------------------------------
# attention primitive


def attention_weights(q, k, n_heads):
    """Weights (B, H, Pq, Pk) of ``ad.attention``, read through v = I.

    With one Pk x Pk identity block per head as the values, each head's
    output rows are its weight rows; q and k must be n_heads * Pk wide.
    """
    b, pk, _ = k.shape
    eye = ad.Tensor(np.tile(np.eye(pk), (b, 1, n_heads)))
    out = ad.attention(q, k, eye, n_heads).data
    return out.reshape(b, q.shape[1], n_heads, pk).transpose(0, 2, 1, 3)


def test_attention_weights_are_distributions():
    rng = np.random.default_rng(1)
    q = ad.Tensor(rng.normal(size=(2, 5, 10)))
    k = ad.Tensor(rng.normal(size=(2, 5, 10)))
    v = ad.Tensor(rng.normal(size=(2, 5, 10)))
    assert ad.attention(q, k, v, 2).shape == (2, 5, 10)
    w = attention_weights(q, k, 2)
    assert w.shape == (2, 2, 5, 5)
    np.testing.assert_allclose(w.sum(axis=3), 1.0, atol=1e-12)
    assert np.all(w > 0)


def test_attention_two_token_worked_example():
    q = ad.Tensor(np.array([[[1.0], [0.0]]]))
    k = ad.Tensor(np.array([[[1.0], [0.0]]]))
    v = ad.Tensor(np.array([[[2.0], [4.0]]]))
    out = ad.attention(q, k, v, 1)
    e = np.e
    expected0 = (2.0 * e + 4.0) / (e + 1.0)
    assert out.data[0, 0, 0] == pytest.approx(expected0, rel=1e-12)
    assert out.data[0, 0, 0] == pytest.approx(2.5379, abs=5e-5)
    assert out.data[0, 1, 0] == pytest.approx(3.0, rel=1e-12)
    # the same scores at width 2: the sqrt(2) on the key undoes the 1/sqrt(d_k) scale
    w = attention_weights(ad.Tensor(np.array([[[1.0, 0.0], [0.0, 0.0]]])),
                          ad.Tensor(np.array([[[np.sqrt(2.0), 0.0], [0.0, 0.0]]])), 1)
    np.testing.assert_allclose(w[0, 0, 0], [e / (e + 1), 1 / (e + 1)], rtol=1e-12)


def test_attention_single_key_returns_value_exactly():
    rng = np.random.default_rng(40)
    q = ad.Tensor(rng.normal(size=(2, 1, 4)))
    k = ad.Tensor(rng.normal(size=(2, 1, 4)))
    v = ad.Tensor(rng.normal(size=(2, 1, 4)))
    out = ad.attention(q, k, v, 1)
    assert np.all(attention_weights(ad.Tensor(q.data[:, :, :1]), ad.Tensor(k.data[:, :, :1]), 1) == 1.0)
    np.testing.assert_allclose(out.data, v.data, rtol=0, atol=0)


def test_attention_identical_queries_identical_rows():
    rng = np.random.default_rng(41)
    q_row = rng.normal(size=4)
    q = ad.Tensor(np.tile(q_row, (1, 5, 1)))
    k = ad.Tensor(rng.normal(size=(1, 5, 4)))
    v = ad.Tensor(rng.normal(size=(1, 5, 4)))
    out = ad.attention(q, k, v, 1)
    for row in out.data[0]:
        np.testing.assert_allclose(row, out.data[0, 0], atol=1e-14)


def test_attention_query_permutation_equivariance():
    rng = np.random.default_rng(2)
    q = ad.Tensor(rng.normal(size=(1, 6, 4)))
    k = ad.Tensor(rng.normal(size=(1, 6, 4)))
    v = ad.Tensor(rng.normal(size=(1, 6, 4)))
    perm = rng.permutation(6)
    base = ad.attention(q, k, v, 1)
    shuffled = ad.attention(ad.Tensor(q.data[:, perm]), k, v, 1)
    np.testing.assert_allclose(shuffled.data, base.data[:, perm], atol=1e-12)


def test_attention_key_value_permutation_invariance():
    rng = np.random.default_rng(3)
    q = ad.Tensor(rng.normal(size=(1, 6, 4)))
    k = ad.Tensor(rng.normal(size=(1, 6, 4)))
    v = ad.Tensor(rng.normal(size=(1, 6, 4)))
    perm = rng.permutation(6)
    base = ad.attention(q, k, v, 1)
    shuffled = ad.attention(q, ad.Tensor(k.data[:, perm]), ad.Tensor(v.data[:, perm]), 1)
    np.testing.assert_allclose(shuffled.data, base.data, atol=1e-12)


def test_attention_shape_errors():
    cases = [
        (((1, 2, 3), (1, 2, 4), (1, 2, 4)), 1),   # query width differs from key width
        (((1, 2, 3), (1, 2, 3), (1, 2, 3)), 2),   # width not divisible by the heads
        (((1, 2, 4), (2, 2, 4), (2, 2, 4)), 1),   # batch sizes differ
        (((1, 2, 4), (1, 3, 4), (1, 2, 4)), 1),   # keys and values differ
        (((2, 4), (2, 4), (2, 4)), 1),            # rank 2
    ]
    for shapes, n_heads in cases:
        with pytest.raises(ShapeError):
            ad.attention(*(ad.Tensor(np.zeros(s)) for s in shapes), n_heads)


# ---------------------------------------------------------------------------
# patch embedding


def test_patchify_shapes_and_determinism():
    params = make_params(4)
    z = rand_latent(5)
    a = fusion.patchify_embed(z, params, "ct", ENC, CFG)
    b = fusion.patchify_embed(z, params, "ct", ENC, CFG)
    assert a.shape == (2, 8, CFG.d_model)
    assert np.array_equal(a.data, b.data)


def test_zero_latent_zero_weights_gives_positional_table():
    params = make_params(6)
    for key in ("patch_w_ct", "patch_b_ct"):
        params[key].data[...] = 0.0
    z = ad.Tensor(np.zeros((3, ENC.latent_dim, ENC.grid_voxels)))
    out = fusion.patchify_embed(z, params, "ct", ENC, CFG)
    table = fusion.positional_encoding(8, CFG.d_model)
    for i in range(3):
        assert np.array_equal(out.data[i], table)


def test_patchify_rejects_wrong_layout():
    params = make_params(7)
    with pytest.raises(ShapeError):
        fusion.patchify_embed(ad.Tensor(np.zeros((2, ENC.grid_voxels, ENC.latent_dim))),
                              params, "ct", ENC, CFG)


def test_patch_grouping_is_local():
    # moving a value within one 2x2x2 neighborhood changes only that patch token
    params = make_params(8)
    base = np.zeros((1, ENC.latent_dim, ENC.grid_voxels))
    bumped = base.copy()
    bumped[0, 0, 0] = 1.0  # grid cell (0,0,0), patch 0
    table = fusion.positional_encoding(8, CFG.d_model)
    a = fusion.patchify_embed(ad.Tensor(base), params, "ct", ENC, CFG).data - table
    b = fusion.patchify_embed(ad.Tensor(bumped), params, "ct", ENC, CFG).data - table
    diff = np.abs(a - b).sum(axis=2)[0]
    assert diff[0] > 0
    assert not diff[1:].any()


# ---------------------------------------------------------------------------
# discrete route


def attended(disc, params):
    """(ct queries over pet, pet queries over ct) cross_attention results
    rebuilt from the embeddings a discrete_fusion pass returned."""
    return (fusion.cross_attention(disc.embed_ct, disc.embed_pet, params, "ct", "pet", CFG),
            fusion.cross_attention(disc.embed_pet, disc.embed_ct, params, "pet", "ct", CFG))


def test_stream_mix_extremes():
    params = make_params(9)
    params["mix_ct"].data[...] = 1.0
    params["mix_pet"].data[...] = 0.0
    out = fusion.discrete_fusion(rand_latent(10), rand_latent(11), params, ENC, CFG)
    (a_ct, q_ct, k_pet), _ = attended(out, params)
    assert np.array_equal(q_ct.data, out.query_ct.data)
    assert np.array_equal(k_pet.data, out.key_pet.data)
    manual = a_ct.data + out.embed_ct.data
    np.testing.assert_allclose(out.fused.data, manual, rtol=0, atol=0)


def test_symmetric_inputs_symmetric_params():
    params = make_params(12)
    for key in ("patch_w", "patch_b", "wq", "wk", "wv"):
        params[f"{key}_pet"].data[...] = params[f"{key}_ct"].data
    params["out_pet2ct_w"].data[...] = params["out_ct2pet_w"].data
    z = rand_latent(13)
    out = fusion.discrete_fusion(z, ad.Tensor(z.data.copy()), params, ENC, CFG)
    (a_ct, q_ct, k_pet), (a_pet, q_pet, k_ct) = attended(out, params)
    np.testing.assert_allclose(a_ct.data, a_pet.data, atol=1e-12)
    np.testing.assert_allclose(ad.attention(q_ct, k_pet, k_pet, CFG.n_heads).data,
                               ad.attention(q_pet, k_ct, k_ct, CFG.n_heads).data, atol=1e-12)


def test_direction_swap_mirrors_attended_streams():
    params = make_params(14)
    for key in ("patch_w", "patch_b", "wq", "wk", "wv"):
        params[f"{key}_pet"].data[...] = params[f"{key}_ct"].data
    params["out_pet2ct_w"].data[...] = params["out_ct2pet_w"].data
    za, zb = rand_latent(15), rand_latent(16)
    (fwd_ct, _, _), (fwd_pet, _, _) = attended(fusion.discrete_fusion(za, zb, params, ENC, CFG), params)
    (rev_ct, _, _), (rev_pet, _, _) = attended(fusion.discrete_fusion(zb, za, params, ENC, CFG), params)
    np.testing.assert_allclose(fwd_ct.data, rev_pet.data, atol=1e-12)
    np.testing.assert_allclose(fwd_pet.data, rev_ct.data, atol=1e-12)


# ---------------------------------------------------------------------------
# fusion losses


def _manual_disc(query, key, fused, e_ct, e_pet):
    t = ad.Tensor
    return fusion.DiscretePathOutput(
        fused=t(fused), embed_ct=t(e_ct), embed_pet=t(e_pet),
        query_ct=t(query), key_pet=t(key),
    )


def test_alignment_is_minus_one_when_queries_equal_keys():
    rng = np.random.default_rng(17)
    q = rng.normal(size=(2, 3, 4))
    e = rng.normal(size=(2, 3, 5))
    losses = fusion.fusion_losses(_manual_disc(q, q.copy(), e, e.copy(), e.copy()), CFG)
    assert losses.alignment.item() == pytest.approx(-1.0, abs=1e-12)
    assert losses.preservation.item() == pytest.approx(0.0, abs=1e-12)
    assert losses.total.item() == pytest.approx(-1.0, abs=1e-12)


def test_alignment_zero_norm_pairs_are_skipped():
    q = np.zeros((1, 2, 3))
    k = np.zeros((1, 2, 3))
    q[0, 0] = [1.0, 0.0, 0.0]
    k[0, 0] = [2.0, 0.0, 0.0]  # cos = 1; second pair is all-zero
    e = np.zeros((1, 2, 4))
    losses = fusion.fusion_losses(_manual_disc(q, k, e, e.copy(), e.copy()), CFG)
    assert losses.alignment.item() == pytest.approx(-0.5, abs=1e-12)


def test_alignment_opposed_vectors():
    q = np.array([[[1.0, 0.0]]])
    k = np.array([[[-3.0, 0.0]]])
    e = np.zeros((1, 1, 2))
    losses = fusion.fusion_losses(_manual_disc(q, k, e, e.copy(), e.copy()), CFG)
    assert losses.alignment.item() == pytest.approx(1.0, abs=1e-12)


def test_alignment_orthogonal_vectors():
    q = np.array([[[1.0, 0.0]]])
    k = np.array([[[0.0, 5.0]]])
    e = np.zeros((1, 1, 2))
    losses = fusion.fusion_losses(_manual_disc(q, k, e, e.copy(), e.copy()), CFG)
    assert losses.alignment.item() == 0.0


def test_preservation_hand_value():
    q = np.ones((1, 1, 2))
    f = np.zeros((1, 1, 4))
    e_ct = np.zeros((1, 1, 4))
    e_ct[0, 0, 0] = 3.0
    e_ct[0, 0, 1] = 4.0   # distance 5 from fused
    e_pet = np.zeros((1, 1, 4))
    e_pet[0, 0, 2] = 2.0  # distance 2
    losses = fusion.fusion_losses(_manual_disc(q, q.copy(), f, e_ct, e_pet), CFG)
    assert losses.preservation.item() == pytest.approx(5.0 + CFG.preserve_weight_pet * 2.0, abs=1e-12)


def test_losses_differentiable_end_to_end():
    params = make_params(18)
    out = fusion.discrete_fusion(rand_latent(19), rand_latent(20), params, ENC, CFG)
    losses = fusion.fusion_losses(out, CFG)
    ad.backward(losses.total)
    assert params["wq_ct"].grad is not None
    assert params["wk_pet"].grad is not None
    assert params["mix_ct"].grad is not None
    assert params["patch_w_pet"].grad is not None


# ---------------------------------------------------------------------------
# continuous route


def test_continuous_zero_everything_is_zero():
    params = make_params(21)
    for key in ("chan_w1", "chan_b1", "chan_w2", "chan_b2", "spat_w", "spat_b"):
        params[key].data[...] = 0.0
    z = ad.Tensor(np.zeros((2, ENC.latent_dim, ENC.grid_voxels)))
    out = fusion.continuous_attention(z, ad.Tensor(z.data.copy()), params)
    assert out.shape == (2, 2 * ENC.latent_dim)
    assert not out.data.any()


def test_continuous_gates_shrink_magnitudes():
    # sigmoid gates are strictly below 1, so pooled output magnitude must be
    # below the ungated pooled magnitude for nonzero input
    params = make_params(22)
    z_ct, z_pet = rand_latent(23), rand_latent(24)
    out = fusion.continuous_attention(z_ct, z_pet, params)
    raw = np.concatenate([z_ct.data, z_pet.data], axis=1)
    ungated = np.abs(raw).mean(axis=2)
    assert np.all(np.abs(out.data) < ungated + 1e-12)


def test_continuous_shape_errors():
    params = make_params(25)
    with pytest.raises(ShapeError):
        fusion.continuous_attention(rand_latent(26), rand_latent(27, batch=3), params)


def test_continuous_batch_independence():
    params = make_params(28)
    z_ct, z_pet = rand_latent(29, batch=3), rand_latent(30, batch=3)
    full = fusion.continuous_attention(z_ct, z_pet, params).data
    one = fusion.continuous_attention(
        ad.Tensor(z_ct.data[1:2].copy()), ad.Tensor(z_pet.data[1:2].copy()), params).data
    np.testing.assert_allclose(full[1], one[0], atol=1e-12)


# ---------------------------------------------------------------------------
# final join


def test_fuse_final_shape_and_both_routes_matter():
    params = make_params(31)
    z_ct, z_pet = rand_latent(32), rand_latent(33)
    disc = fusion.discrete_fusion(z_ct, z_pet, params, ENC, CFG)
    cont = fusion.continuous_attention(z_ct, z_pet, params)
    out = fusion.fuse_final(disc.fused, cont, params)
    assert out.shape == (2, CFG.d_fused)
    assert np.all(out.data >= 0)
    ad.backward(out.sum())
    assert params["patch_w_ct"].grad is not None
    assert params["chan_w1"].grad is not None
    assert params["fuse_w"].grad is not None


# ---------------------------------------------------------------------------
# finite differences


SMALL_ENC = EncoderConfig(volume_side=4, latent_grid=2, latent_dim=3, codebook_size=4)
SMALL_CFG = fusion.FusionConfig(d_model=4, d_k=3, n_heads=1, patch_size=2, channel_reduction=2, d_fused=5)


@pytest.mark.parametrize("seed", range(5))
def test_discrete_route_gradients_fd(seed):
    rng = np.random.default_rng((201, seed))
    params = ad.init_params(fusion.param_specs(SMALL_ENC, SMALL_CFG), rng)
    z_ct = ad.Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
    z_pet = ad.Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
    leaves = [z_ct, z_pet, params["wq_ct"], params["wk_pet"], params["wv_pet"],
              params["mix_ct"], params["mix_pet"], params["patch_w_ct"], params["out_ct2pet_w"]]

    def build():
        out = fusion.discrete_fusion(z_ct, z_pet, params, SMALL_ENC, SMALL_CFG)
        losses = fusion.fusion_losses(out, SMALL_CFG)
        return losses.total + (out.fused * out.fused).mean()

    check_gradients(build, leaves)


@pytest.mark.parametrize("seed", range(5))
def test_continuous_route_gradients_fd(seed):
    rng = np.random.default_rng((202, seed))
    params = ad.init_params(fusion.param_specs(SMALL_ENC, SMALL_CFG), rng)
    z_ct = ad.Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
    z_pet = ad.Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
    leaves = [z_ct, z_pet, params["chan_w1"], params["chan_w2"], params["chan_b1"],
              params["spat_w"], params["spat_b"]]

    def build():
        out = fusion.continuous_attention(z_ct, z_pet, params)
        return (out * out).mean()

    check_gradients(build, leaves)


@pytest.mark.parametrize("seed", range(3))
def test_fuse_final_gradients_fd(seed):
    rng = np.random.default_rng((203, seed))
    params = ad.init_params(fusion.param_specs(SMALL_ENC, SMALL_CFG), rng)
    f_disc = ad.Tensor(rng.normal(size=(2, 1, SMALL_CFG.d_model)), requires_grad=True)
    f_cont = ad.Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    weight = ad.Tensor(rng.normal(size=(2, SMALL_CFG.d_fused)))
    leaves = [f_disc, f_cont, params["fuse_w"], params["fuse_b"]]

    def build():
        return (fusion.fuse_final(f_disc, f_cont, params) * weight).sum()

    check_gradients(build, leaves)
