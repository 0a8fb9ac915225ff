"""Training loop, objective composition, ablation freezing, evaluation."""

import base64
import hashlib
import json

import numpy as np
import pytest

from robsurv import autodiff as ad
from robsurv import fusion, stats, synthdata, trainer, vq
from robsurv.errors import (
    ConfigError,
    ContractError,
    DataFormatError,
    IncompatibleInputError,
    TrainingDivergedError,
)

ENC = vq.EncoderConfig(volume_side=8, latent_grid=2, latent_dim=6, codebook_size=8)
FUS = fusion.FusionConfig(d_model=16, d_k=8, n_heads=2, patch_size=2,
                          channel_reduction=2, d_fused=12)


@pytest.fixture(autouse=True)
def _fresh_graph():
    ad.reset_graph()
    yield
    ad.reset_graph()


def tiny_config(**overrides):
    base = dict(encoder=ENC, fusion=FUS, epochs=3, batch_size=4, folds=2,
                n_bins=5, seed=1)
    base.update(overrides)
    return trainer.TrainConfig(**base)


@pytest.fixture(scope="module")
def cohort24():
    return synthdata.generate_cohort(24, synthdata.CohortConfig(volume_side=8, seed=3))


@pytest.fixture(scope="module")
def trained(cohort24):
    return trainer.train(cohort24, tiny_config())


# ---------------------------------------------------------------------------
# config


@pytest.mark.parametrize("bad", [
    dict(gamma_q=-0.1),
    dict(alpha1=-1.0),
    dict(lr=0.0),
    dict(batch_size=1),
    dict(folds=1),
    dict(epochs=0),
    dict(patience=0),
    dict(n_bins=0),
    dict(rank_sigma=0.0),
    dict(risk_weights=(1.0, 2.0)),  # n_risks stays 1
])
def test_config_rejects(bad):
    with pytest.raises(ConfigError):
        tiny_config(**bad)


def test_config_dict_round_trip():
    cfg = tiny_config(risk_weights=(2.0,), train_with_noise=True,
                      train_noise=synthdata.NoiseSpec(ct_sigma=0.05, noisy_fraction=0.25))
    d = trainer.config_to_dict(cfg)
    json.dumps(d)  # must already be JSON-serializable
    assert trainer.config_from_dict(d) == cfg


def test_config_from_dict_partial_and_nested():
    cfg = trainer.config_from_dict({"epochs": 7, "lr": 1, "risk_weights": None,
                                    "encoder": {"latent_dim": 8},
                                    "train_noise": {"pet_level": "low", "noisy_fraction": 1}})
    assert cfg == trainer.TrainConfig(epochs=7, lr=1, encoder=vq.EncoderConfig(latent_dim=8),
                                      train_noise=synthdata.NoiseSpec(pet_level="low",
                                                                      noisy_fraction=1))
    assert trainer.config_from_dict({}) == trainer.TrainConfig()
    assert trainer.config_from_dict({"n_risks": 2, "risk_weights": [1, 0.5]}).risk_weights == (1, 0.5)


@pytest.mark.parametrize("raw", [
    [],
    {"not_a_field": 1},
    {"encoder": 5},
    {"encoder": {"bogus": 1}},
    {"fusion": None},
    {"train_noise": {"ct_sigma": 0.2}},
    {"risk_weights": 5},
    {"risk_weights": ["a"]},
    {"risk_weights": [True]},
    {"epochs": "3"},
    {"batch_size": 2.5},
    {"lr": None},
    {"lr": -1},
    {"lr": float("nan")},
    {"alpha2": float("nan")},
    {"rank_sigma": float("nan")},
    {"fusion": {"preserve_weight_pet": float("nan")}},
    {"use_quantization": 1},
    {"seed": True},
    {"encoder": {"latent_dim": 1.5}},
    {"fusion": {"d_model": "8"}},
    {"fusion": {"preserve_weight_pet": True}},
    {"train_noise": {"noisy_fraction": "0.5"}},
])
def test_config_from_dict_rejects(raw):
    with pytest.raises(ConfigError):
        trainer.config_from_dict(raw)


# ---------------------------------------------------------------------------
# discretization


def test_bin_edges_and_assignment_hand_case():
    times = np.arange(1, 11)
    edges = trainer.quantile_bin_edges(times, n_bins=5)
    assert edges.shape == (4,)
    assert np.allclose(edges, [2.8, 4.6, 6.4, 8.2])
    bins = trainer.assign_bins(times, edges)
    assert bins.tolist() == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]


def test_assign_bins_ties_stay_below_edge():
    bins = trainer.assign_bins(np.array([1, 2, 3]), np.array([2.0]))
    assert bins.tolist() == [1, 1, 2]


def test_assign_bins_range(cohort24):
    edges = trainer.quantile_bin_edges(cohort24.times, 5)
    bins = trainer.assign_bins(cohort24.times, edges)
    assert bins.min() >= 1 and bins.max() <= 5


def test_bin_edges_empty_rejected():
    with pytest.raises(ConfigError):
        trainer.quantile_bin_edges(np.array([]), 5)


# ---------------------------------------------------------------------------
# objective composition


def test_total_loss_weighted_sum():
    cfg = tiny_config(gamma_q=1.0, gamma_fusion=0.5, gamma_surv=2.0)
    one = ad.Tensor(1.0)
    assert trainer.total_loss(one, one, one, cfg).item() == pytest.approx(3.5)
    assert trainer.total_loss(None, one, one, cfg).item() == pytest.approx(2.5)
    assert trainer.total_loss(None, None, one, cfg).item() == pytest.approx(2.0)


def _fresh_model(cfg, cohort, seed=5):
    edges = trainer.quantile_bin_edges(cohort.times, cfg.n_bins)
    return trainer.SurvivalModel.init(cfg, np.random.default_rng([cfg.seed, seed]), edges)


def test_total_fd_is_weighted_sum_of_component_fds(cohort24):
    """Finite differences of the total match the gamma-weighted component FDs."""
    cfg = tiny_config()
    model = _fresh_model(cfg, cohort24)
    rows = np.arange(4)
    t = trainer.assign_bins(cohort24.times, model.bin_edges)[rows]
    e = cohort24.events[rows]
    ct, pet = cohort24.ct[rows], cohort24.pet[rows]
    slot = model.params["ct.enc_in_w"]
    base = slot.data[0, 0]

    def components(value):
        slot.data[0, 0] = value
        with ad.no_grad():
            bundle = model.losses(model.forward(ct, pet), t, e)
            out = (bundle.quantization.item(), bundle.fusion_total.item(),
                   bundle.likelihood.item() + bundle.ranking.item(),
                   bundle.total.item())
        slot.data[0, 0] = base
        return out

    h = 1e-5
    up, down = components(base + h), components(base - h)
    fd = [(a - b) / (2 * h) for a, b in zip(up, down)]
    combined = cfg.gamma_q * fd[0] + cfg.gamma_fusion * fd[1] + cfg.gamma_surv * fd[2]
    assert fd[3] == pytest.approx(combined, rel=1e-8, abs=1e-10)


def test_loss_gradient_matches_fd_on_smooth_path(cohort24):
    """With quantization off and the hazard clamp inactive, FD is an exact oracle.

    Straight-through estimators deliberately diverge from the local
    derivative, so the analytic check runs on a configuration without them.
    """
    cfg = tiny_config(use_quantization=False)
    model = _fresh_model(cfg, cohort24)
    model.params["head.head_b2"].data[...] = -2.0  # keeps total hazard below the cap
    rows = np.arange(4)
    t = trainer.assign_bins(cohort24.times, model.bin_edges)[rows]
    e = cohort24.events[rows]
    ct, pet = cohort24.ct[rows], cohort24.pet[rows]
    slot = model.params["ct.enc_in_w"]
    base = slot.data[0, 0]

    def total(value):
        slot.data[0, 0] = value
        with ad.no_grad():
            fwd = model.forward(ct, pet)
            assert fwd.hazards.raw.data.sum(axis=(1, 2)).max() < 1.0 - 1e-6
            out = model.losses(fwd, t, e).total.item()
        slot.data[0, 0] = base
        return out

    h = 1e-5
    fd = (total(base + h) - total(base - h)) / (2 * h)
    ad.reset_graph()
    bundle = model.losses(model.forward(ct, pet), t, e)
    ad.backward(bundle.total)
    assert slot.grad[0, 0] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_zero_fusion_weight_drops_term_exactly(cohort24):
    """gamma_fusion = 0 gives bit-identical gradients to omitting the term."""
    rows = np.arange(4)
    cfg_zero = tiny_config(gamma_fusion=0.0)
    cfg_full = tiny_config()
    m_zero = _fresh_model(cfg_zero, cohort24)
    m_full = _fresh_model(cfg_full, cohort24)
    t = trainer.assign_bins(cohort24.times, m_zero.bin_edges)[rows]
    e = cohort24.events[rows]

    bundle = m_zero.losses(m_zero.forward(cohort24.ct[rows], cohort24.pet[rows]), t, e)
    ad.backward(bundle.total)
    grads_zero = {k: None if v.grad is None else v.grad.copy()
                  for k, v in m_zero.params.items()}

    ad.reset_graph()
    b = m_full.losses(m_full.forward(cohort24.ct[rows], cohort24.pet[rows]), t, e)
    manual = trainer.total_loss(b.quantization, None, b.likelihood + b.ranking, cfg_full)
    ad.backward(manual)
    for k, tensor in m_full.params.items():
        left, right = grads_zero[k], tensor.grad
        if left is None or right is None:
            assert left is None and right is None, k
        else:
            assert np.array_equal(left, right), k


# ---------------------------------------------------------------------------
# model mechanics


def test_param_specs_match_init():
    cfg = trainer.TrainConfig()
    specs = trainer.param_specs(cfg)
    params = trainer.init_model_params(cfg, np.random.default_rng(0))
    assert list(params) == list(specs)
    assert all(params[k].shape == shape for k, (shape, _, _) in specs.items())
    assert sum(t.size for t in params.values()) == 436255
    assert params["fuse.mix_ct"].item() == 0.5 and not params["head.head_b2"].data.any()


def test_duplicate_codebook_rows_refused():
    class FlatRng:
        def uniform(self, low, high, size):
            return np.zeros(size)

    with pytest.raises(ContractError):
        trainer.init_model_params(tiny_config(), FlatRng())


def test_init_params_deterministic():
    cfg = tiny_config()
    a = trainer.init_model_params(cfg, np.random.default_rng(9))
    b = trainer.init_model_params(cfg, np.random.default_rng(9))
    c = trainer.init_model_params(cfg, np.random.default_rng(10))
    assert set(a) == set(b)
    assert all(np.array_equal(a[k].data, b[k].data) for k in a)
    assert any(not np.array_equal(a[k].data, c[k].data) for k in a)


def test_forward_shapes(cohort24):
    cfg = tiny_config()
    model = _fresh_model(cfg, cohort24)
    fwd = model.forward(cohort24.ct[:3], cohort24.pet[:3])
    assert fwd.hazards.raw.shape == (3, cfg.n_bins, cfg.n_risks)
    assert fwd.f_cont.shape == (3, 2 * ENC.latent_dim)
    assert fwd.features.shape == (3, FUS.d_fused)
    assert fwd.discrete is not None
    for m in vq.MODALITIES:  # the straight-through latent, not the raw one, feeds fusion
        assert fwd.route[m].shape == (3, ENC.latent_dim, ENC.grid_voxels)
        assert fwd.route[m] is not fwd.latent[m]


def test_forward_ablation_branches(cohort24):
    model = _fresh_model(tiny_config(use_quantization=False, use_continuous=False,
                                     use_cross_fusion=False), cohort24)
    fwd = model.forward(cohort24.ct[:2], cohort24.pet[:2])
    assert fwd.quantized is None and fwd.discrete is None
    assert all(fwd.route[m] is fwd.latent[m] for m in vq.MODALITIES)
    assert np.array_equal(fwd.f_cont.data, np.zeros((2, 2 * ENC.latent_dim)))
    bundle = model.losses(fwd, np.array([1, 2]), np.array([1, 1]))
    assert bundle.quantization is None and bundle.fusion_total is None
    # survival term is all that remains
    expected = 2.0 * (bundle.likelihood.item() + bundle.ranking.item())
    assert bundle.total.item() == pytest.approx(expected, rel=1e-12)


def test_predict_reports_codebook_usage(cohort24):
    model = _fresh_model(tiny_config(), cohort24)
    values, survival, usage = model.predict(cohort24.ct[:5], cohort24.pet[:5], batch=2)
    assert values.shape == (5, 5, 1)
    assert survival.shape == (5,)
    assert set(usage) == {"ct", "pet"}
    assert usage["ct"].shape == (5 * ENC.latent_grid ** 3,)
    none_usage = _fresh_model(tiny_config(use_quantization=False), cohort24)
    _, _, usage2 = none_usage.predict(cohort24.ct[:2], cohort24.pet[:2])
    assert usage2 is None


@pytest.mark.parametrize("n_risks", [1, 2])
@pytest.mark.parametrize("seed", range(3))
def test_predict_batch_invariance(cohort24, n_risks, seed):
    """Batch size moves predictions only in the last bits, bounded at 1e-12."""
    model = _fresh_model(tiny_config(n_risks=n_risks), cohort24, seed=seed)
    rng = np.random.default_rng(seed)
    for name in ("head.head_w2", "head.head_b2"):  # spread the hazards, trip the clamp
        model.params[name].data[...] += rng.normal(0.0, 1.0, model.params[name].shape)
    values1, survival1, usage1 = model.predict(cohort24.ct, cohort24.pet, batch=1)
    values32, survival32, usage32 = model.predict(cohort24.ct, cohort24.pet, batch=32)
    assert np.allclose(values1, values32, rtol=0.0, atol=1e-12)
    assert np.allclose(survival1, survival32, rtol=0.0, atol=1e-12)
    for m in vq.MODALITIES:
        assert np.array_equal(usage1[m], usage32[m])


def _rows(mask, array):
    return mask.reshape((-1,) + (1,) * (array.ndim - 1))


@pytest.mark.parametrize("n_risks", [1, 2])
@pytest.mark.parametrize("use_quantization", [True, False])
def test_predict_rows_independent(n_risks, use_quantization):
    """Each row's prediction depends only on that row's input, bit for bit.

    ``evaluate_sweep`` builds a cell's predictions from a clean and a noisy
    prediction of the whole cohort, so an operation that mixes rows (a batch
    statistic, say) must fail here.  40 patients make one full batch of 32
    and a ragged batch of 8.
    """
    cohort = synthdata.generate_cohort(40, synthdata.CohortConfig(volume_side=8, seed=11))
    spec = synthdata.NoiseSpec(ct_sigma=0.1, pet_level="high", noisy_fraction=1.0)
    other = synthdata.apply_noise_mix(cohort, spec, seed=2)
    cfg = tiny_config(n_risks=n_risks, use_quantization=use_quantization)
    model = _fresh_model(cfg, cohort)
    rng = np.random.default_rng([n_risks, use_quantization])
    for name in ("head.head_w2", "head.head_b2"):  # spread the hazards, trip the clamp
        model.params[name].data[...] += rng.normal(0.0, 1.0, model.params[name].shape)
    a = model.predict(cohort.ct, cohort.pet)
    b = model.predict(other.ct, other.pet)
    for _ in range(4):
        mask = rng.random(cohort.n) < 0.5
        mixed = model.predict(np.where(_rows(mask, cohort.ct), other.ct, cohort.ct),
                              np.where(_rows(mask, cohort.pet), other.pet, cohort.pet))
        for got, clean, noisy in zip(mixed[:2], a[:2], b[:2]):
            assert np.array_equal(got, np.where(_rows(mask, got), noisy, clean))
        if use_quantization:
            for m in vq.MODALITIES:
                got, clean, noisy = (x[2][m].reshape(cohort.n, -1) for x in (mixed, a, b))
                assert np.array_equal(got, np.where(_rows(mask, got), noisy, clean))
        else:
            assert mixed[2] is None


def test_default_step_tape_length():
    """Deterministic guard on the per-step tape: default config, batch 2, one ranked pair."""
    cfg = trainer.TrainConfig()
    cohort = synthdata.generate_cohort(2, synthdata.CohortConfig(seed=4))
    model = trainer.SurvivalModel.init(cfg, np.random.default_rng([0, 1]), np.arange(1.0, cfg.n_bins))
    bundle = model.losses(model.forward(cohort.ct, cohort.pet), np.array([2, 5]), np.array([1, 0]))
    assert bundle.ranking.item() > 0.0
    assert len(ad.active_graph()) == 169


# ---------------------------------------------------------------------------
# training loop


def test_training_runs_and_losses_improve(trained):
    model, reports = trained
    assert len(reports) == 2
    for rep in reports:
        assert all(np.isfinite(rep.train_losses))
        assert rep.train_losses[-1] < rep.train_losses[0]
        assert rep.epochs_run == len(rep.train_losses) == len(rep.val_ctd)
        assert 0.0 <= rep.best_val_ctd <= 1.0
        assert rep.codebook is not None
        assert rep.wall_clock > 0
        assert not rep.trained_with_noise


def test_training_deterministic(cohort24, trained):
    model, reports = trained
    model2, reports2 = trainer.train(cohort24, tiny_config())
    for k in model.params:
        assert np.array_equal(model.params[k].data, model2.params[k].data), k
    for a, b in zip(reports, reports2):
        da, db = a.to_dict(), b.to_dict()
        da.pop("wall_clock"), db.pop("wall_clock")
        assert da == db


def test_training_with_noise_deterministic_and_distinct(cohort24, trained):
    clean_model, _ = trained
    model, reports = trainer.train(cohort24, tiny_config(train_with_noise=True))
    model2, reports2 = trainer.train(cohort24, tiny_config(train_with_noise=True))
    assert all(r.trained_with_noise for r in reports + reports2)
    for k in model.params:
        assert np.array_equal(model.params[k].data, model2.params[k].data), k
    assert any(not np.array_equal(model.params[k].data, clean_model.params[k].data)
               for k in model.params)


def test_returned_model_is_best_fold(cohort24, trained):
    model, reports = trained
    best = max(reports, key=lambda r: (r.best_val_ctd, -r.fold))
    assert trainer.best_fold(reports) is best
    assert reports[0].best_val_ctd != reports[1].best_val_ctd or best.fold == 0
    # the clean score is the best epoch's own validation score
    assert all(r.clean_ctd == r.best_val_ctd for r in reports)
    # and the returned, restored model reproduces it and its codebook health
    perm = np.random.default_rng([1, trainer.SPLIT_SALT]).permutation(cohort24.n)
    val = cohort24.subset(np.array_split(perm, 2)[best.fold])
    values, _, usage = model.predict(val.ct, val.pet)
    bins = trainer.assign_bins(val.times, model.bin_edges)
    assert stats.concordance(values, bins, val.events) == best.best_val_ctd
    for m in vq.MODALITIES:
        health = vq.codebook_health(model.scoped(m)["codebook"], usage[m])
        assert best.codebook[m] == {"perplexity": health.perplexity,
                                    "dead_entries": health.dead_entries}


def test_train_predicts_once_per_epoch_plus_noisy_check(cohort24, monkeypatch):
    calls = []
    original = trainer.SurvivalModel.predict

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(trainer.SurvivalModel, "predict", counted)
    folds = []
    fit_fold = trainer._fit_fold

    def counted_fold(*args, **kwargs):
        before = len(calls)
        model, report = fit_fold(*args, **kwargs)
        folds.append((len(calls) - before, report.epochs_run))
        return model, report

    monkeypatch.setattr(trainer, "_fit_fold", counted_fold)
    trainer.train(cohort24, tiny_config())
    # one validation pass per epoch plus one on the noisy validation copy
    assert len(folds) == 2
    assert all(n == epochs + 1 for n, epochs in folds)


def test_train_snapshots_only_improving_epochs(cohort24, monkeypatch):
    calls = []
    original = trainer.SurvivalModel.snapshot

    def counted(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(trainer.SurvivalModel, "snapshot", counted)
    _, reports = trainer.train(cohort24, tiny_config())
    improved = 0
    for report in reports:
        best = -np.inf
        for score in report.val_ctd:
            if score > best:
                best, improved = score, improved + 1
    assert len(calls) == improved


def test_cohort_too_small_rejected(cohort24):
    with pytest.raises(ConfigError):
        trainer.train(cohort24, tiny_config(folds=4, batch_size=8))


def test_volume_side_mismatch_rejected(cohort24):
    enc16 = vq.EncoderConfig(volume_side=16, latent_grid=2, latent_dim=6, codebook_size=8)
    with pytest.raises(IncompatibleInputError):
        trainer.train(cohort24, tiny_config(encoder=enc16))


def test_event_codes_beyond_risks_rejected():
    cohort = synthdata.generate_cohort(
        16, synthdata.CohortConfig(volume_side=8, n_risks=2, seed=5))
    assert cohort.events.max() == 2
    with pytest.raises(IncompatibleInputError):
        trainer.train(cohort, tiny_config())


def test_nan_parameters_raise_diverged(cohort24, monkeypatch):
    real_init = trainer.init_model_params

    def poisoned(config, rng):
        params = real_init(config, rng)
        params["head.head_w1"].data[0, 0] = np.nan
        return params

    monkeypatch.setattr(trainer, "init_model_params", poisoned)
    with pytest.raises(TrainingDivergedError):
        trainer.train(cohort24, tiny_config())


# ---------------------------------------------------------------------------
# ablation freezing


def _fold_init(cfg, fold):
    rng = np.random.default_rng([cfg.seed, trainer.INIT_SALT + fold])
    return trainer.init_model_params(cfg, rng)


def _match_fold(model, cfg, probe):
    for fold in range(cfg.folds):
        ref = _fold_init(cfg, fold)
        if np.array_equal(model.params[probe].data, ref[probe].data):
            return ref
    raise AssertionError("returned model matches no fold initialization")


def _assert_frozen(model, ref, frozen_keys, moved_key):
    for k in frozen_keys:
        assert np.array_equal(model.params[k].data, ref[k].data), f"{k} moved"
    assert not np.array_equal(model.params[moved_key].data, ref[moved_key].data)


def test_no_quantization_freezes_codebook_and_decoder(cohort24):
    cfg = tiny_config(use_quantization=False, epochs=2)
    model, _ = trainer.train(cohort24, cfg)
    ref = _match_fold(model, cfg, "ct.codebook")
    frozen = [k for k in model.params
              if k.endswith("codebook") or ".dec_" in k]
    assert len(frozen) == 2 + 2 * 6  # codebooks plus both decoder stacks
    _assert_frozen(model, ref, frozen, "ct.enc_in_w")


def test_no_cross_fusion_freezes_attention(cohort24):
    cfg = tiny_config(use_cross_fusion=False, epochs=2)
    model, _ = trainer.train(cohort24, cfg)
    ref = _match_fold(model, cfg, "fuse.wq_ct")
    frozen = [k for k in model.params if any(
        k.startswith(f"fuse.{p}") for p in
        ("wq_", "wk_", "wv_", "out_", "mix_"))]
    assert len(frozen) == 10
    _assert_frozen(model, ref, frozen, "fuse.patch_w_ct")


def test_no_continuous_freezes_gates(cohort24):
    cfg = tiny_config(use_continuous=False, epochs=2)
    model, _ = trainer.train(cohort24, cfg)
    ref = _match_fold(model, cfg, "fuse.chan_w1")
    frozen = [k for k in model.params if any(
        k.startswith(f"fuse.{p}") for p in ("chan_", "spat_"))]
    assert len(frozen) == 6
    _assert_frozen(model, ref, frozen, "fuse.fuse_w")


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_reports_metrics(trained, cohort24):
    model, _ = trained
    rep = trainer.evaluate(model, cohort24)
    assert set(rep.c_td) == {1}
    assert 0.0 <= rep.c_td[1] <= 1.0
    assert 0.0 <= rep.logrank_p <= 1.0
    assert set(rep.km) == {"low", "high"}
    assert isinstance(rep.km["low"], stats.SurvCurve)
    assert rep.n == 24 and rep.n_noisy == 0 and rep.noise is None
    json.dumps(rep.metrics_dict())


def test_evaluate_never_mutates_params(trained, cohort24):
    model, _ = trained
    before = model.snapshot()
    trainer.evaluate(model, cohort24,
                     noise=synthdata.NoiseSpec(ct_sigma=0.1, pet_level="high",
                                               noisy_fraction=0.5))
    after = model.snapshot()
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_evaluate_zero_fraction_equals_clean(trained, cohort24):
    model, _ = trained
    clean = trainer.evaluate(model, cohort24)
    spec = synthdata.NoiseSpec(ct_sigma=0.1, pet_level="high", noisy_fraction=0.0)
    zero = trainer.evaluate(model, cohort24, noise=spec, noise_seed=7)
    assert zero.c_td == clean.c_td
    assert zero.logrank_p == clean.logrank_p
    assert np.array_equal(zero.km["low"].survival, clean.km["low"].survival)
    assert zero.n_noisy == 0


def test_evaluate_applies_noise(trained, cohort24):
    model, _ = trained
    spec = synthdata.NoiseSpec(ct_sigma=0.1, pet_level="high", noisy_fraction=0.5)
    rep = trainer.evaluate(model, cohort24, noise=spec, noise_seed=7)
    assert rep.n_noisy == 12
    assert rep.noise == spec


def test_evaluate_side_mismatch_rejected(trained):
    model, _ = trained
    other = synthdata.generate_cohort(8, synthdata.CohortConfig(volume_side=4, seed=1))
    with pytest.raises(IncompatibleInputError):
        trainer.evaluate(model, other)
    with pytest.raises(IncompatibleInputError):
        trainer.evaluate_sweep(model, other, [0.5], [0], ct_sigma=0.1, pet_level="high")


@pytest.mark.parametrize("threads", [1, 2])
def test_evaluate_sweep_equals_evaluate(trained, cohort24, threads):
    """Every sweep cell is the per-cell ``evaluate`` concordance, bit for bit."""
    model, _ = trained
    fractions, seeds = [0.0, 0.3, 0.5, 0.3], [4, 0, 4]
    scores = trainer.evaluate_sweep(model, cohort24, fractions, seeds, ct_sigma=0.05,
                                    pet_level="medium", threads=threads)
    assert len(scores) == len(fractions) * len(seeds)
    cells = [(f, s) for f in fractions for s in seeds]
    for (frac, seed), got in zip(cells, scores):
        spec = synthdata.NoiseSpec(ct_sigma=0.05, pet_level="medium", noisy_fraction=frac)
        assert got == trainer.evaluate(model, cohort24, spec, noise_seed=seed).c_td


def test_untrained_model_sits_near_chance(cohort24):
    cfg = tiny_config()
    scores = []
    for seed in range(5):
        model = _fresh_model(cfg, cohort24, seed=100 + seed)
        values, _, _ = model.predict(cohort24.ct, cohort24.pet)
        bins = trainer.assign_bins(cohort24.times, model.bin_edges)
        scores.append(stats.concordance(values, bins, cohort24.events))
    assert 0.25 <= float(np.median(scores)) <= 0.75


# ---------------------------------------------------------------------------
# persistence


def test_save_load_round_trip(trained, tmp_path):
    model, _ = trained
    path = tmp_path / "model.json"
    model.save(path)
    loaded = trainer.SurvivalModel.load(path)
    assert loaded.config == model.config
    assert np.array_equal(loaded.bin_edges, model.bin_edges)
    assert loaded.params.keys() == model.params.keys()
    for k in model.params:
        # bitwise: same shape (the fuse.mix_* scalars stay 0-d) and same bytes
        assert loaded.params[k].shape == model.params[k].shape
        assert loaded.params[k].data.tobytes() == model.params[k].data.tobytes()
        assert loaded.params[k].requires_grad
        assert loaded.params[k].data.flags.writeable
    assert loaded.params["fuse.mix_ct"].shape == loaded.params["fuse.mix_pet"].shape == ()
    loaded.save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_saved_params_are_base64_tensors(trained, tmp_path):
    model, _ = trained
    path = tmp_path / "model.json"
    model.save(path)
    payload = json.loads(path.read_text())
    assert payload["format_version"] == trainer.MODEL_FORMAT_VERSION == 2
    digest = hashlib.sha256()
    for name in sorted(model.params):
        entry = payload["params"][name]
        assert entry.keys() == {"shape", "f64le"}
        assert isinstance(entry["f64le"], str)  # no JSON number arrays
        assert entry["shape"] == list(model.params[name].shape)
        raw = base64.b64decode(entry["f64le"])
        assert raw == model.params[name].data.astype("<f8").tobytes()
        digest.update(raw)
    assert payload["sha256"] == digest.hexdigest()


def _set_tensor(payload: dict, name: str, array) -> None:
    """Store ``array`` as parameter ``name`` and re-seal the checksum."""
    array = np.asarray(array, dtype="<f8")
    payload["params"][name] = {"shape": list(array.shape),
                               "f64le": base64.b64encode(array.tobytes()).decode()}
    digest = hashlib.sha256()
    for key in sorted(payload["params"]):
        digest.update(base64.b64decode(payload["params"][key]["f64le"]))
    payload["sha256"] = digest.hexdigest()


def test_load_rejects_bad_files(trained, tmp_path):
    model, _ = trained
    with pytest.raises(DataFormatError):
        trainer.SurvivalModel.load(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DataFormatError):
        trainer.SurvivalModel.load(bad)
    path = tmp_path / "model.json"
    model.save(path)
    payload = json.loads(path.read_text())
    payload["format_version"] = 99
    bad.write_text(json.dumps(payload))
    with pytest.raises(DataFormatError):
        trainer.SurvivalModel.load(bad)
    payload = json.loads(path.read_text())
    del payload["params"]["head.head_w1"]
    _set_tensor(payload, "head.head_b1", model.params["head.head_b1"].data)  # re-seal
    bad.write_text(json.dumps(payload))
    with pytest.raises(DataFormatError, match="head.head_w1"):
        trainer.SurvivalModel.load(bad)
    payload = json.loads(path.read_text())
    _set_tensor(payload, "head.head_b1", [[0.0]])  # sound encoding, wrong shape
    bad.write_text(json.dumps(payload))
    with pytest.raises(DataFormatError, match="do not match the config"):
        trainer.SurvivalModel.load(bad)
    for corrupt in BAD_MODEL_EDITS:
        payload = json.loads(path.read_text())
        corrupt(payload)
        bad.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError):
            trainer.SurvivalModel.load(bad)


def _edit_entry(name: str, **changes):
    return lambda p: p["params"][name].update(changes)


def _rename_key(name: str, old: str, new: str):
    return lambda p: p["params"][name].__setitem__(new, p["params"][name].pop(old))


# each edit damages one part of a saved model file
BAD_MODEL_EDITS = [
    lambda p: p["params"].__setitem__("head.head_w1", [[0.0, 1.0], [2.0]]),  # format-1 list
    _edit_entry("head.head_w1", shape=[2, 2], f64le=base64.b64encode(bytes(24)).decode()),
    _edit_entry("head.head_b1", f64le="not base64!"),
    _edit_entry("head.head_b1", f64le=5),
    _edit_entry("head.head_b1", shape=[-1]),
    _edit_entry("head.head_b1", shape=3),
    _rename_key("head.head_b1", "f64le", "f32le"),  # a dtype other than float64
    lambda p: p["params"]["head.head_b1"].__setitem__("extra", 1),
    lambda p: p.__setitem__("sha256", "0" * 64),
    lambda p: p.pop("sha256"),
    lambda p: p.__setitem__("format_version", 1),
    lambda p: p.__setitem__("format_version", 2.0),
    lambda p: p["params"].__setitem__("head.head_b1", "zeros"),
    lambda p: p.__setitem__("params", []),
    lambda p: p["config"].__setitem__("lr", -1),
    lambda p: p["config"].__setitem__("encoder", 5),
    lambda p: p["config"].__setitem__("bogus", 1),
    lambda p: p["config"].pop("rank_sigma"),
    lambda p: p["config"]["fusion"].pop("d_model"),  # default width, saved shapes differ
    lambda p: p.__setitem__("config", 3),
    lambda p: p.__setitem__("bin_edges", [0.5]),
    lambda p: p.__setitem__("bin_edges", [[1.0], 2.0]),
]


def test_load_reads_shapes_from_the_table(trained, tmp_path, monkeypatch):
    model, _ = trained
    path = tmp_path / "model.json"
    model.save(path)

    def refuse(config, rng):
        raise AssertionError("load drew a random model")

    monkeypatch.setattr(trainer, "init_model_params", refuse)
    loaded = trainer.SurvivalModel.load(path)
    assert all(np.array_equal(loaded.params[k].data, model.params[k].data) for k in model.params)
