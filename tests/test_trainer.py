"""Training loop, objective composition, ablation freezing, evaluation."""

import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modelfile import ModelFile, reference_file
from robsurv import autodiff as ad
from robsurv import cli, fusion, stats, synthdata, trainer, vq
from robsurv.errors import (
    ConfigError,
    ContractError,
    DataFormatError,
    IncompatibleInputError,
    TrainingDivergedError,
    UndefinedMetricError,
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
    dict(risk_weights=(-1.0,)),
    dict(seed=-1),
    dict(lr=float("inf")),
    dict(rank_sigma=float("inf")),
    dict(alpha1=float("inf")),
    dict(gamma_surv=float("nan")),
    dict(lr=10**400),  # an int past the float range
    dict(risk_weights=(float("inf"),)),
    dict(risk_weights=(True,)),
    dict(risk_weights=[1.0]),
    dict(batch_size=2.5),
    dict(seed=np.int64(0)),
    dict(epochs="3"),
    dict(use_quantization="no"),
    dict(train_with_noise=1),
    dict(encoder=FUS),
    dict(train_noise=None),
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
    {"lr": float("inf")},
    {"rank_sigma": float("inf")},
    {"alpha1": float("inf")},
    {"fusion": {"preserve_weight_pet": float("inf")}},
    {"risk_weights": [float("nan")]},
    {"risk_weights": [float("inf")]},
    {"risk_weights": [-1.0]},
])
def test_config_from_dict_rejects(raw):
    with pytest.raises(ConfigError):
        trainer.config_from_dict(raw)


_SCALAR_FIELDS = sorted(f.name for f in dataclasses.fields(trainer.TrainConfig)
                        if f.type in ("int", "float", "bool"))
_VALUES = st.one_of(st.integers(), st.floats(allow_nan=True, allow_infinity=True), st.booleans(),
                    st.integers(-2**63, 2**63 - 1).map(np.int64), st.text(max_size=3))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(_SCALAR_FIELDS), _VALUES, max_size=4),
       st.none() | st.tuples(_VALUES))
def test_config_built_in_python_survives_save_and_load(overrides, risk_weights):
    """A TrainConfig either refuses its values or comes back equal from the
    JSON round trip that SurvivalModel.save and load put it through."""
    try:
        config = trainer.TrainConfig(**overrides, risk_weights=risk_weights)
    except ConfigError:
        return
    text = json.dumps(trainer.config_to_dict(config), allow_nan=False)
    assert trainer.config_from_dict(json.loads(text)) == config


def test_unallocatable_model_is_usage_error():
    # 10**14 codebook rows of 6: petabytes, which numpy refuses without allocating
    config = tiny_config(encoder=dataclasses.replace(ENC, codebook_size=10**14))
    with pytest.raises(ConfigError, match="model parameters are more than can be allocated"):
        trainer.init_model_params(config, np.random.default_rng(0))


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
    """Deterministic guard on the per-step tape at batch 2 with one ranked pair:
    the default config and each of the three ablations."""
    cohort = synthdata.generate_cohort(2, synthdata.CohortConfig(seed=4))
    for ablation, length in [({}, 169), ({"use_quantization": False}, 120),
                             ({"use_continuous": False}, 146), ({"use_cross_fusion": False}, 134)]:
        cfg = trainer.TrainConfig(**ablation)
        model = trainer.SurvivalModel.init(cfg, np.random.default_rng([0, 1]),
                                           np.arange(1.0, cfg.n_bins))
        ad.reset_graph()
        bundle = model.losses(model.forward(cohort.ct, cohort.pet), np.array([2, 5]),
                              np.array([1, 0]))
        assert bundle.ranking.item() > 0.0
        assert len(ad.active_graph()) == length, ablation


def test_backward_peak_is_small_next_to_the_tape():
    """Default config, batch 32: backward releases each adjoint once it is pulled."""
    cfg = trainer.TrainConfig()
    cohort = synthdata.generate_cohort(32, synthdata.CohortConfig(seed=4))
    edges = np.arange(1.0, cfg.n_bins)
    model = trainer.SurvivalModel.init(cfg, np.random.default_rng([0, 1]), edges)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        bundle = model.losses(model.forward(cohort.ct, cohort.pet),
                              trainer.assign_bins(cohort.times, edges), cohort.events)
        taped = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ad.backward(bundle.total)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ad.active_graph()) == 169
    # every non-leaf adjoint kept until the walk ends would be about the tape's size
    assert peak - taped < 0.5 * (taped - before)


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


def test_trained_model_holds_no_gradients(trained):
    model, _ = trained
    assert all(p.grad is None for p in model.params.values())


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


def test_undefined_validation_split_rejected_before_training(cohort24, tmp_path, capsys,
                                                            monkeypatch):
    # censor fold 1's validation rows: that split has no comparable pair, so
    # neither train nor the CLI may fit any fold, not even fold 0
    perm = np.random.default_rng([1, trainer.SPLIT_SALT]).permutation(cohort24.n)
    events = cohort24.events.copy()
    events[np.array_split(perm, 2)[1]] = 0
    censored = dataclasses.replace(cohort24, events=events)

    def no_fit(*args):
        raise AssertionError("a fold was fitted")

    monkeypatch.setattr(trainer, "_fit_fold", no_fit)
    with pytest.raises(UndefinedMetricError, match="fold 1 "):
        trainer.train(censored, tiny_config())

    synthdata.save_cohort(censored, tmp_path / "data")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(trainer.config_to_dict(tiny_config())))
    code = cli.main(["train", "--data", str(tmp_path / "data"), "--config", str(config),
                     "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 3
    assert len(err) == 1 and err[0].startswith("error: fold 1 ")


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


def test_early_stopping_keeps_the_first_best_epoch(cohort24):
    """A fold stops ``patience`` epochs after its best one, and a later epoch
    that only ties the best score does not move it."""
    cfg = tiny_config(patience=2, epochs=8)
    _, reports = trainer.train(cohort24, cfg)
    for report in reports:
        assert report.best_epoch == report.val_ctd.index(max(report.val_ctd))
        assert report.best_val_ctd == report.clean_ctd == report.val_ctd[report.best_epoch]
        assert report.epochs_run == len(report.val_ctd) == min(
            cfg.epochs, report.best_epoch + cfg.patience + 1)
    assert any(report.epochs_run < cfg.epochs for report in reports)
    # the rule is exercised: some fold stopped with a later epoch tying its best
    assert any(report.best_val_ctd in report.val_ctd[report.best_epoch + 1:]
               for report in reports)


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
    path = tmp_path / "model.safetensors"
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
    loaded.save(tmp_path / "again.safetensors")
    assert (tmp_path / "again.safetensors").read_bytes() == path.read_bytes()


def test_saved_params_are_raw_f64_tensors(trained, tmp_path):
    model, _ = trained
    path = tmp_path / "model.safetensors"
    model.save(path)
    data = path.read_bytes()
    size = int.from_bytes(data[:8], "little")
    assert size % 8 == 0 and data[8] == ord("{")
    saved = ModelFile.read(path)
    assert saved.meta["format_version"] == str(trainer.MODEL_FORMAT_VERSION) == "3"
    assert all(type(v) is str for v in saved.meta.values())
    assert len(saved.buffer) == 8 * sum(p.size for p in model.params.values())
    offset = 0
    for name in sorted(model.params):
        entry = saved.header[name]
        raw = model.params[name].data.astype("<f8").tobytes()
        assert entry == {"dtype": "F64", "shape": list(model.params[name].shape),
                         "data_offsets": [offset, offset + len(raw)]}
        assert saved.buffer[offset:offset + len(raw)] == raw
        offset += len(raw)
    assert saved.meta["sha256"] == hashlib.sha256(saved.buffer).hexdigest()


def test_saved_bytes_match_reference_writer(trained, cohort24, tmp_path):
    no_vq = _fresh_model(tiny_config(use_quantization=False), cohort24, seed=5)
    for model in (trained[0], no_vq):
        model.save(tmp_path / "model.safetensors")
        assert (tmp_path / "model.safetensors").read_bytes() == reference_file(model)


def test_reference_writer_file_loads_bitwise(trained, tmp_path):
    model, _ = trained
    path = tmp_path / "model.safetensors"
    path.write_bytes(reference_file(model))
    loaded = trainer.SurvivalModel.load(path)
    assert loaded.config == model.config
    assert loaded.bin_edges.tobytes() == model.bin_edges.tobytes()
    assert {k: p.data.tobytes() for k, p in loaded.params.items()} == {
        k: p.data.tobytes() for k, p in model.params.items()}


# size and sha256 of the model file for a seeded init; save must keep writing these bytes
GOLDEN_MODEL_FILES = [
    ({}, 3_495_472, "662546350113928279c9f897bfc8cc108d09fce1efbde2b45809aebd232eac9a"),
    ({"n_risks": 2, "fusion": {"n_heads": 2}}, 4_564_616,
     "ced3a1a2257fa36d7f7f30e730b952fb42dbe987dfff572af977d34dbba5a6a8"),
]


@pytest.mark.parametrize("overrides,size,sha", GOLDEN_MODEL_FILES,
                         ids=["default", "risks2-heads2"])
def test_saved_bytes_match_golden_digest(tmp_path, overrides, size, sha):
    config = trainer.config_from_dict(overrides)
    model = trainer.SurvivalModel.init(config, np.random.default_rng([0, 99]),
                                       np.arange(1.0, 10.0))
    model.save(tmp_path / "model.safetensors")
    data = (tmp_path / "model.safetensors").read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, sha)


def test_load_rejects_bad_files(trained, tmp_path):
    model, _ = trained
    with pytest.raises(DataFormatError):
        trainer.SurvivalModel.load(tmp_path / "missing.safetensors")
    bad = tmp_path / "bad.safetensors"
    bad.write_text("{not json")
    with pytest.raises(DataFormatError):
        trainer.SurvivalModel.load(bad)
    path = tmp_path / "model.safetensors"
    model.save(path)
    saved = ModelFile.read(path)
    saved.meta["format_version"] = "99"
    saved.write(bad)
    with pytest.raises(DataFormatError, match="model format '99'"):
        trainer.SurvivalModel.load(bad)
    saved = ModelFile.read(path)
    arrays = saved.arrays()
    del arrays["head.head_w1"]
    saved.set_arrays(arrays)  # sound layout and checksum, one parameter short
    saved.write(bad)
    with pytest.raises(DataFormatError, match="head.head_w1"):
        trainer.SurvivalModel.load(bad)
    saved = ModelFile.read(path)
    saved.set_arrays({**saved.arrays(), "head.head_b1": [[0.0]]})  # sound encoding, wrong shape
    saved.write(bad)
    with pytest.raises(DataFormatError, match="do not match the config"):
        trainer.SurvivalModel.load(bad)
    for corrupt in BAD_MODEL_EDITS:
        saved = ModelFile.read(path)
        corrupt(saved)
        saved.write(bad)
        with pytest.raises(DataFormatError):
            trainer.SurvivalModel.load(bad)
    for corrupt in BAD_MODEL_BYTES:
        bad.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(DataFormatError):
            trainer.SurvivalModel.load(bad)


def _edit_entry(name: str, **changes):
    return lambda f: f.header[name].update(changes)


def _rename_key(name: str, old: str, new: str):
    return lambda f: f.header[name].__setitem__(new, f.header[name].pop(old))


def _set_meta(key: str, value):
    return lambda f: f.meta.__setitem__(key, value)


def _edit_config(edit):
    return lambda f: f.edit_config(edit)


def _shift_offsets(name: str, begin: int, end: int):
    return lambda f: f.header[name].__setitem__(
        "data_offsets", [o + d for o, d in zip(f.header[name]["data_offsets"], (begin, end))])


def _swap_offsets(a: str, b: str):
    def edit(f):
        f.header[a]["data_offsets"], f.header[b]["data_offsets"] = (
            f.header[b]["data_offsets"], f.header[a]["data_offsets"])
    return edit


def _set_buffer(cut):
    def edit(f):
        f.buffer = cut(f.buffer)
        f.reseal()  # the checksum holds, so only the layout is wrong
    return edit


NESTED = "[" * 100_000 + "]" * 100_000  # json raises RecursionError on it

# each edit damages one part of a saved model file; the header keeps its JSON form
BAD_MODEL_EDITS = [
    lambda f: f.header.__setitem__("head.head_w1", [[0.0, 1.0], [2.0]]),  # format-1 list
    _edit_entry("head.head_w1", shape=[2, 2]),  # offsets no longer match the shape
    _edit_entry("head.head_b1", data_offsets=5),
    lambda f: f.header["ct.codebook"]["data_offsets"].__setitem__(0, False),  # first entry
    _edit_entry("head.head_b1", shape=[-1]),
    _edit_entry("head.head_b1", shape=3),
    _edit_entry("head.head_b1", dtype="F32"),
    _rename_key("head.head_b1", "dtype", "type"),
    lambda f: f.header["head.head_b1"].__setitem__("extra", 1),
    lambda f: f.header.__setitem__("head.head_b1", "zeros"),
    _shift_offsets("head.head_w1", 8, 8),  # a gap before head.head_w1
    _shift_offsets("head.head_w1", -8, -8),  # overlapping the entry before it
    _swap_offsets("head.head_b1", "head.head_w1"),  # out of sorted-name order
    _set_buffer(lambda b: b[:-8]),  # the last parameter is cut short
    _set_buffer(lambda b: b + bytes(8)),  # trailing bytes
    _set_meta("sha256", "0" * 64),
    lambda f: f.meta.pop("sha256"),
    lambda f: f.meta.__setitem__("extra", "1"),
    lambda f: f.header.pop("__metadata__"),
    lambda f: f.header.__setitem__("__metadata__", "3"),
    _set_meta("format_version", 3),  # metadata values are strings
    lambda f: f.meta.__setitem__("config", f.config()),
    _set_meta("format_version", "2"),
    _set_meta("format_version", ""),
    _set_meta("format_version", "3.0"),
    _edit_config(lambda c: c.__setitem__("lr", -1)),
    _edit_config(lambda c: c.__setitem__("encoder", 5)),
    _edit_config(lambda c: c.__setitem__("bogus", 1)),
    _edit_config(lambda c: c.pop("rank_sigma")),
    _edit_config(lambda c: c["fusion"].pop("d_model")),  # default width, saved shapes differ
    # nested fields whose defaults leave every shape as saved
    _edit_config(lambda c: c["train_noise"].pop("ct_sigma")),
    _edit_config(lambda c: c["fusion"].pop("preserve_weight_pet")),
    lambda f: f.meta.__setitem__("config", f.meta["config"].replace(", ", ",")),  # compact JSON
    _set_meta("config", "3"),
    _set_meta("config", "{not json"),
    _set_meta("config", NESTED),
    _set_meta("bin_edges", "[0.5]"),
    _set_meta("bin_edges", "[[1.0], 2.0]"),
    _set_meta("bin_edges", "1"),
    lambda f: f.meta.__setitem__("bin_edges", f.meta["bin_edges"].replace(", ", ",")),
    lambda f: f.meta.__setitem__(  # integer edges: save writes floats
        "bin_edges", json.dumps([round(e) for e in json.loads(f.meta["bin_edges"])])),
    _set_meta("bin_edges", NESTED),
    lambda f: setattr(f, "header", []),  # the header is not a JSON object
]

# each edit damages the file below its header's JSON
BAD_MODEL_BYTES = [
    lambda data: data[:4],  # shorter than the length prefix
    lambda data: (1 << 40).to_bytes(8, "little") + data[8:],  # header past EOF
    lambda data: (len(data) - 7).to_bytes(8, "little") + data[8:],
    lambda data: data[:8] + b"\xff" + data[9:],  # the header is not UTF-8
    lambda data: data[:8] + b"[" + data[9:],  # nor JSON
    lambda data: len(NESTED).to_bytes(8, "little") + NESTED.encode(),  # nested JSON header
]


@pytest.mark.parametrize("edge", [True, "2", "3.0", 2],
                         ids=["bool", "int-string", "float-string", "int"])
def test_load_rejects_bin_edges_that_are_not_numbers(trained, tmp_path, edge):
    model, _ = trained
    path = tmp_path / "model.safetensors"
    model.save(path)
    saved = ModelFile.read(path)
    edges = json.loads(saved.meta["bin_edges"])
    # numpy would coerce any of these to a float and load the file; save writes floats
    saved.meta["bin_edges"] = json.dumps([edge] + edges[1:])
    saved.write(path)
    with pytest.raises(DataFormatError, match="bin_edges must be a JSON list of numbers"):
        trainer.SurvivalModel.load(path)


def test_load_reads_shapes_from_the_table(trained, tmp_path, monkeypatch):
    model, _ = trained
    path = tmp_path / "model.safetensors"
    model.save(path)

    def refuse(config, rng):
        raise AssertionError("load drew a random model")

    monkeypatch.setattr(trainer, "init_model_params", refuse)
    loaded = trainer.SurvivalModel.load(path)
    assert all(np.array_equal(loaded.params[k].data, model.params[k].data) for k in model.params)
