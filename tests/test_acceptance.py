"""Acceptance suite: ten criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict
line even on success.  The heavy end-to-end criteria share one session
fixture that trains five seeded model pairs at the default scale, one seed
per task in a pool of two worker processes.
"""

import json
import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from robsurv import autodiff as ad
from robsurv import cli, fusion, stats, survival, synthdata, trainer, vq
from robsurv.errors import UndefinedTestError


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {criterion:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion:02d} failed: {detail}"


@pytest.fixture(autouse=True)
def _fresh_graph():
    ad.reset_graph()
    yield
    ad.reset_graph()


# ---------------------------------------------------------------------------
# criterion 1: gradient suite


GRAD_ENC = vq.EncoderConfig(volume_side=4, latent_grid=2, latent_dim=3, codebook_size=4)
GRAD_FUS = fusion.FusionConfig(d_model=4, d_k=3, n_heads=1, patch_size=2,
                               channel_reduction=2, d_fused=5)


def _fd_pair(build, slot, h=1e-5):
    """Central finite difference and analytic gradient for one scalar slot."""
    base = slot.data.flat[0]
    with ad.no_grad():
        slot.data.flat[0] = base + h
        up = build().item()
        slot.data.flat[0] = base - h
        down = build().item()
    slot.data.flat[0] = base
    ad.reset_graph()
    loss = build()
    ad.backward(loss)
    return slot.grad.flat[0], (up - down) / (2 * h)


def _check_codebook_loss(seed):
    rng = np.random.default_rng([31, seed])
    z = ad.Tensor(rng.normal(0.0, 0.3, (1, 3, 8)))
    cb = ad.Tensor(rng.normal(0.0, 2.0, (4, 3)), requires_grad=True)

    def build():
        pair = vq.quantize(z, cb)
        diff = ad.detach(z) - pair.z_q
        return (diff * diff).mean()

    return _fd_pair(build, cb)


def _check_commitment_loss(seed):
    rng = np.random.default_rng([37, seed])
    z = ad.Tensor(rng.normal(0.0, 0.3, (1, 3, 8)), requires_grad=True)
    cb = ad.Tensor(rng.normal(0.0, 2.0, (4, 3)))

    def build():
        pair = vq.quantize(z, cb)
        diff = z - ad.detach(pair.z_q)
        return (diff * diff).mean()

    return _fd_pair(build, z)


def _check_reconstruction_loss(seed):
    rng = np.random.default_rng([41, seed])
    params = ad.init_params(vq.param_specs(GRAD_ENC), rng)
    latent = ad.Tensor(rng.normal(0.0, 0.5, (2, 3, 8)))
    target = ad.Tensor(rng.uniform(0.0, 1.0, (2, 64)))

    def build():
        recon = vq.decode(latent, params, GRAD_ENC)
        diff = target - recon
        return (diff * diff).mean()

    return _fd_pair(build, params["dec_out_w"])


def _fusion_state(seed):
    rng = np.random.default_rng([43, seed])
    params = ad.init_params(fusion.param_specs(GRAD_ENC, GRAD_FUS), rng)
    z_ct = ad.Tensor(rng.normal(0.0, 0.5, (2, 3, 8)))
    z_pet = ad.Tensor(rng.normal(0.0, 0.5, (2, 3, 8)))
    return params, z_ct, z_pet


def _check_alignment_loss(seed):
    params, z_ct, z_pet = _fusion_state(seed)

    def build():
        disc = fusion.discrete_fusion(z_ct, z_pet, params, GRAD_ENC, GRAD_FUS)
        return fusion.fusion_losses(disc, GRAD_FUS).alignment

    return _fd_pair(build, params["wq_ct"])


def _check_preservation_loss(seed):
    params, z_ct, z_pet = _fusion_state(seed)

    def build():
        disc = fusion.discrete_fusion(z_ct, z_pet, params, GRAD_ENC, GRAD_FUS)
        return fusion.fusion_losses(disc, GRAD_FUS).preservation

    return _fd_pair(build, params["mix_ct"])


def _check_fusion_total(seed):
    params, z_ct, z_pet = _fusion_state(seed)

    def build():
        disc = fusion.discrete_fusion(z_ct, z_pet, params, GRAD_ENC, GRAD_FUS)
        return fusion.fusion_losses(disc, GRAD_FUS).total

    return _fd_pair(build, params["wv_pet"])


def _head_state(seed, n_bins=4, n_risks=2):
    rng = np.random.default_rng([47, seed])
    params = ad.init_params(survival.param_specs(5, n_bins, n_risks, hidden=6), rng)
    params["head_b2"].data[...] = -3.0  # keeps the hazard cap inactive
    features = ad.Tensor(rng.normal(0.0, 0.5, (3, 5)))
    times = np.array([1, 3, 2])
    events = np.array([1, 0, 2])
    return params, features, times, events


def _check_likelihood_loss(seed):
    params, features, times, events = _head_state(seed)

    def build():
        hz = survival.hazard_forward(features, params, 4, 2)
        assert hz.raw.data.sum(axis=(1, 2)).max() < 1.0 - 1e-6
        return survival.likelihood_loss(hz, times, events)

    return _fd_pair(build, params["head_w2"])


def _check_ranking_loss(seed):
    params, features, times, events = _head_state(seed)

    def build():
        hz = survival.hazard_forward(features, params, 4, 2)
        assert hz.raw.data.sum(axis=(1, 2)).max() < 1.0 - 1e-6
        loss, pairs = survival.ranking_loss(survival.cif(hz), times, events, sigma=0.25)
        assert pairs > 0
        return loss

    return _fd_pair(build, params["head_w1"])


def _check_total_objective(seed):
    rng = np.random.default_rng([53, seed])
    enc = vq.EncoderConfig(volume_side=4, latent_grid=2, latent_dim=3, codebook_size=4)
    cfg = trainer.TrainConfig(encoder=enc, fusion=GRAD_FUS, epochs=1, batch_size=2,
                              folds=2, n_bins=4, seed=seed, use_quantization=False)
    model = trainer.SurvivalModel.init(cfg, rng, np.array([1.5, 2.5, 3.5]))
    model.params["head.head_b2"].data[...] = -2.5
    ct = rng.uniform(0.0, 1.0, (3, 64))
    pet = rng.uniform(0.0, 1.0, (3, 64))
    times = np.array([1, 4, 2])
    events = np.array([1, 1, 0])

    def build():
        fwd = model.forward(ct, pet)
        assert fwd.hazards.raw.data.sum(axis=(1, 2)).max() < 1.0 - 1e-6
        return model.losses(fwd, times, events).total

    return _fd_pair(build, model.params["ct.enc_in_w"])


GRADIENT_CHECKS = [
    ("codebook", _check_codebook_loss),
    ("commitment", _check_commitment_loss),
    ("reconstruction", _check_reconstruction_loss),
    ("alignment", _check_alignment_loss),
    ("preservation", _check_preservation_loss),
    ("fusion_total", _check_fusion_total),
    ("likelihood", _check_likelihood_loss),
    ("ranking", _check_ranking_loss),
    ("total_objective", _check_total_objective),
]


def test_criterion_01_gradient_suite():
    started = time.perf_counter()
    worst = 0.0
    failures = []
    for name, check in GRADIENT_CHECKS:
        for seed in range(10):
            ad.reset_graph()
            analytic, fd = check(seed)
            scale = max(abs(analytic), abs(fd), 1e-8)
            rel = abs(analytic - fd) / scale
            worst = max(worst, rel)
            if rel >= 1e-4:
                failures.append(f"{name}[{seed}] rel={rel:.2e}")
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60.0
    _verdict(1, ok,
             f"9 losses x 10 seeds, worst rel err {worst:.2e}, {elapsed:.1f}s"
             + (f"; failures: {failures}" if failures else ""))


# ---------------------------------------------------------------------------
# criterion 2: quantization properties


def test_criterion_02_vq_properties():
    problems = []
    rng = np.random.default_rng(202)
    for trial in range(20):
        z = ad.Tensor(rng.normal(0.0, 1.0, (2, 3, 6)))
        cb = ad.Tensor(rng.normal(0.0, 1.0, (5, 3)))
        pair = vq.quantize(z, cb)
        again = vq.quantize(pair.z_q, cb)
        if not np.array_equal(again.z_q.data, pair.z_q.data):
            problems.append(f"idempotence[{trial}]")
        rows = cb.data[pair.indices]  # (B, G, D)
        if not np.array_equal(np.transpose(rows, (0, 2, 1)), pair.z_q.data):
            problems.append(f"exact-rows[{trial}]")

    tie_cb = ad.Tensor(np.array([[0.0, 0.0], [1.0, 1.0]]))
    tie_z = ad.Tensor(np.full((1, 2, 1), 0.5))
    if vq.quantize(tie_z, tie_cb).indices.item() != 0:
        problems.append("tie-break")

    # gradient routing: codebook term reaches only the codebook,
    # commitment only the encoder side, reconstruction skips the codebook
    z = ad.Tensor(rng.normal(0.0, 1.0, (1, 3, 8)), requires_grad=True)
    cb = ad.Tensor(rng.normal(0.0, 2.0, (4, 3)), requires_grad=True)
    pair = vq.quantize(z, cb)
    diff = ad.detach(z) - pair.z_q
    ad.backward((diff * diff).mean())
    if cb.grad is None or z.grad is not None:
        problems.append("codebook-routing")
    ad.reset_graph()
    pair = vq.quantize(z, cb)
    diff = z - ad.detach(pair.z_q)
    ad.backward((diff * diff).mean())
    if z.grad is None or cb.grad is not None:
        problems.append("commitment-routing")
    ad.reset_graph()
    params = ad.init_params(vq.param_specs(GRAD_ENC), np.random.default_rng(7))
    vol = ad.Tensor(rng.uniform(0.0, 1.0, (2, 64)))
    z_e = vq.encode(vol, params, GRAD_ENC)
    pair = vq.quantize(z_e, params["codebook"])
    st = ad.straight_through(pair.z_e, pair.z_q)
    if not np.array_equal(st.data, pair.z_q.data):
        problems.append("straight-through-values")
    recon = vq.decode(st, params, GRAD_ENC)
    rdiff = vol - recon
    ad.backward((rdiff * rdiff).mean())
    if params["enc_in_w"].grad is None or params["dec_out_w"].grad is None:
        problems.append("recon-routing-missing")
    if params["codebook"].grad is not None:
        problems.append("recon-routing-codebook")

    x = ad.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    if not np.array_equal(ad.detach(x).data, x.data):
        problems.append("detach-transparency")

    _verdict(2, not problems,
             "idempotence, exact rows, tie-break, routing, detach"
             + (f"; failures: {problems}" if problems else " all hold"))


# ---------------------------------------------------------------------------
# criterion 3: CIF normalization


def test_criterion_03_cif_normalization():
    rng = np.random.default_rng(303)
    worst_gap = 0.0
    monotone = True
    with ad.no_grad():
        for _ in range(1000):
            p = int(rng.integers(1, 21))
            k = int(rng.integers(1, 4))
            b = int(rng.integers(1, 4))
            raw = ad.Tensor(rng.uniform(0.0, 1.0, (b, p, k)))
            inc = survival.cif(survival.HazardGrid(raw))
            total = inc.values.data[:, -1, :].sum(axis=1) + inc.survival.data
            worst_gap = max(worst_gap, float(np.abs(total - 1.0).max()))
            if p > 1:
                steps = np.diff(inc.values.data, axis=1)
                monotone = monotone and bool((steps >= 0.0).all())
        worked = survival.cif(survival.HazardGrid(
            ad.Tensor(np.array([[[0.1], [0.2]]]))))
    exact = worked.values.data.reshape(-1).tolist() == [0.1, 0.28]
    ok = worst_gap <= 1e-10 and monotone and exact
    _verdict(3, ok,
             f"1000 grids: worst |sum-1| = {worst_gap:.2e}, monotone={monotone}, "
             f"worked example exact={exact}")


# ---------------------------------------------------------------------------
# criterion 4: concordance oracle


def _loop_concordance(values, times, events, cause):
    num = den = 0.0
    n = len(times)
    for i in range(n):
        if events[i] != cause:
            continue
        own = values[i, times[i] - 1, cause - 1]
        for j in range(n):
            if times[i] >= times[j]:
                continue
            other = values[j, times[i] - 1, cause - 1]
            den += 1.0
            if own > other:
                num += 1.0
            elif own == other:
                num += 0.5
    if den == 0.0:
        raise UndefinedTestError("no pairs")
    return num / den


def test_criterion_04_concordance_oracle():
    rng = np.random.default_rng(404)
    mismatches = 0
    compared = 0
    for _ in range(100):
        n = int(rng.integers(4, 51))
        k = int(rng.integers(1, 3))
        p = int(rng.integers(2, 8))
        values = rng.integers(0, 5, size=(n, p, k)) / 4.0  # coarse grid forces ties
        times = rng.integers(1, p + 1, size=n)
        events = rng.integers(0, k + 1, size=n)
        for cause in range(1, k + 1):
            try:
                expected = _loop_concordance(values, times, events, cause)
            except UndefinedTestError:
                continue
            compared += 1
            if stats.concordance(values, times, events, cause=cause) != expected:
                mismatches += 1

    n = 6
    times = np.arange(1, n + 1)
    events = np.ones(n, dtype=int)
    risk = np.linspace(1.0, 0.0, n)
    perfect = np.repeat(risk[:, None], n, axis=1)[:, :, None]
    anchors = (
        stats.concordance(perfect, times, events),
        stats.concordance(perfect[::-1], times, events),
        stats.concordance(np.full((n, n, 1), 0.5), times, events),
    )
    ok = mismatches == 0 and compared > 50 and anchors == (1.0, 0.0, 0.5)
    _verdict(4, ok,
             f"{compared} cohort/cause cases bit-exact ({mismatches} mismatches); "
             f"perfect/reversed/constant = {anchors}")


# ---------------------------------------------------------------------------
# criterion 5: KM, log-rank, chi-square


def _permutation_p(times_a, events_a, times_b, events_b, draws, seed):
    observed = stats.logrank(times_a, events_a, times_b, events_b).statistic
    times = np.concatenate([times_a, times_b])
    events = np.concatenate([events_a, events_b])
    n_a = len(times_a)
    rng = np.random.default_rng(seed)
    hits = 0
    total = 0
    for _ in range(draws):
        perm = rng.permutation(len(times))
        ta, tb = times[perm[:n_a]], times[perm[n_a:]]
        ea, eb = events[perm[:n_a]], events[perm[n_a:]]
        try:
            stat = stats.logrank(ta, ea, tb, eb).statistic
        except UndefinedTestError:
            continue
        total += 1
        if stat >= observed - 1e-12:
            hits += 1
    return hits / total


def test_criterion_05_km_logrank_chi2():
    problems = []

    # hand computation carried out with the same product-limit factors
    km = stats.km_curve(np.array([1, 2, 3]), np.array([1, 1, 1]))
    if km.survival.tolist() != [1 - 1 / 3, (1 - 1 / 3) * (1 - 1 / 2), 0.0]:
        problems.append("km-all-events")
    km = stats.km_curve(np.array([1, 2, 2, 4]), np.array([1, 0, 1, 1]))
    if km.survival.tolist() != [1 - 1 / 4, (1 - 1 / 4) * (1 - 1 / 3), 0.0]:
        problems.append("km-censored-mix")

    rng = np.random.default_rng(505)
    gaps = []
    for _ in range(3):
        times = rng.integers(1, 9, size=20)
        events = rng.integers(0, 2, size=20)
        half = rng.permutation(20)
        a, b = half[:10], half[10:]
        try:
            analytic = stats.logrank(times[a], events[a], times[b], events[b]).p_value
        except UndefinedTestError:
            continue
        perm = _permutation_p(times[a], events[a], times[b], events[b],
                              draws=10_000, seed=55)
        gaps.append(abs(analytic - perm))
    if len(gaps) < 2 or max(gaps) > 0.05:
        problems.append(f"logrank-permutation gaps={gaps}")

    value = stats.chi2_sf(3.841, 1)
    oracle, err = scipy.integrate.quad(
        lambda x: np.exp(-x / 2.0) / np.sqrt(2.0 * np.pi * x), 3.841, np.inf)
    if abs(value - 0.050) > 1e-3:
        problems.append(f"chi2 vs 0.050: {value}")
    if abs(value - oracle) > max(1e-10, 10 * err):
        problems.append(f"chi2 vs quadrature: {value} vs {oracle}")

    detail = (f"KM exact, {len(gaps)} permutation gaps max "
              f"{max(gaps):.3f}, chi2_sf(3.841,1)={value:.6f}")
    _verdict(5, not problems, detail + (f"; failures: {problems}" if problems else ""))


# ---------------------------------------------------------------------------
# criteria 6-9: end-to-end runs (shared fixture)


ACC_SEEDS = (0, 1, 2, 3, 4)
ACC_NOISE = synthdata.NoiseSpec(ct_sigma=0.1, pet_level="high", noisy_fraction=0.5)
SWEEP_FRACTIONS = tuple(round(f, 1) for f in np.arange(0.1, 1.01, 0.1))


# a worker inherits these when it starts, before it imports numpy
BLAS_ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _worker_init():
    # pytest's filterwarnings setting does not reach child processes
    warnings.filterwarnings("error", category=RuntimeWarning, module=r"robsurv\.")


def _seed_run(seed):
    """Full and no-quantization trainings of one seed, with their held-out scores."""
    cohort = synthdata.generate_cohort(
        300, synthdata.CohortConfig(volume_side=16, censor_rate=0.3, seed=1000 + seed))
    train_co = cohort.subset(np.arange(200))
    held = cohort.subset(np.arange(200, 300))

    started = time.perf_counter()
    full_cfg = trainer.TrainConfig(seed=seed, epochs=40, folds=3)
    full, _ = trainer.train(train_co, full_cfg)
    clean = trainer.evaluate(full, held)
    full_secs = time.perf_counter() - started

    novq_cfg = trainer.TrainConfig(seed=seed, epochs=40, folds=3,
                                   use_quantization=False)
    novq, _ = trainer.train(train_co, novq_cfg)

    untrained = trainer.SurvivalModel.init(
        full_cfg, np.random.default_rng([seed, trainer.INIT_SALT]), full.bin_edges)

    return {
        "seed": seed,
        "secs": full_secs,
        "clean_ctd": clean.c_td[1],
        "logrank_p": clean.logrank_p,
        "untrained_ctd": trainer.evaluate(untrained, held).c_td[1],
        "full_noisy": trainer.evaluate(full, held, ACC_NOISE, noise_seed=seed).c_td[1],
        "novq_clean": trainer.evaluate(novq, held).c_td[1],
        "novq_noisy": trainer.evaluate(novq, held, ACC_NOISE, noise_seed=seed).c_td[1],
        "sweep": {
            frac: trainer.evaluate(
                full, held,
                synthdata.NoiseSpec(ct_sigma=0.1, pet_level="high", noisy_fraction=frac),
                noise_seed=seed).c_td[1]
            for frac in SWEEP_FRACTIONS
        },
    }


@pytest.fixture(scope="session")
def seed_runs():
    """One `_seed_run` per seed, in seed order; two run at a time, so each
    seed's time (criterion 6) is measured under contention."""
    with mock.patch.dict(os.environ, BLAS_ONE_THREAD), ProcessPoolExecutor(
            max_workers=2, mp_context=multiprocessing.get_context("spawn"),
            initializer=_worker_init) as pool:
        return list(pool.map(_seed_run, ACC_SEEDS))


def test_criterion_06_end_to_end_learning(seed_runs):
    trained = float(np.median([r["clean_ctd"] for r in seed_runs]))
    untrained = float(np.median([r["untrained_ctd"] for r in seed_runs]))
    slowest = max(r["secs"] for r in seed_runs)
    ok = trained >= 0.65 and 0.40 <= untrained <= 0.60 and slowest <= 600.0
    _verdict(6, ok,
             f"median held-out C_td {trained:.3f} (bar 0.65), untrained {untrained:.3f} "
             f"(band 0.40-0.60), slowest seed {slowest:.0f}s (budget 600s)")


def test_criterion_07_robustness_vs_ablation(seed_runs):
    full_drops = [r["clean_ctd"] - r["full_noisy"] for r in seed_runs]
    novq_drops = [r["novq_clean"] - r["novq_noisy"] for r in seed_runs]
    full_med = float(np.median(full_drops))
    novq_med = float(np.median(novq_drops))
    ok = full_med <= novq_med
    _verdict(7, ok,
             f"median C_td drop at half-noisy protocol: full {full_med:+.4f} vs "
             f"no-quantization {novq_med:+.4f}")


def test_criterion_08_sweep_trend(seed_runs):
    medians = [float(np.median([r["sweep"][f] for r in seed_runs]))
               for f in SWEEP_FRACTIONS]
    rho = float(scipy.stats.spearmanr(SWEEP_FRACTIONS, medians).statistic)
    ok = rho < 0.0
    _verdict(8, ok,
             f"median C_td by fraction {[round(m, 4) for m in medians]}, "
             f"Spearman rho {rho:+.3f}")


def test_criterion_09_stratification(seed_runs):
    p_values = [r["logrank_p"] for r in seed_runs]
    med = float(np.median(p_values))
    ok = med <= 0.05
    _verdict(9, ok, f"median held-out log-rank p {med:.2e} (bar 0.05); all: "
             + ", ".join(f"{p:.1e}" for p in p_values))


# ---------------------------------------------------------------------------
# criterion 10: CLI determinism


def test_criterion_10_cli_determinism(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "encoder": {"volume_side": 8, "latent_grid": 2, "latent_dim": 6,
                    "codebook_size": 8},
        "fusion": {"d_model": 16, "d_k": 8, "n_heads": 2, "patch_size": 2,
                   "channel_reduction": 2, "d_fused": 12},
        "epochs": 3, "batch_size": 4, "folds": 2, "n_bins": 5, "seed": 1,
    }))

    def tree(directory: Path) -> dict:
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    mismatched = []
    for label in ("a", "b"):
        data = tmp_path / f"data_{label}"
        assert cli.main(["gen", "--n", "12", "--side", "8", "--seed", "3",
                         "--out", str(data)]) == 0
        run = tmp_path / f"run_{label}"
        assert cli.main(["train", "--data", str(data), "--config", str(config),
                         "--out", str(run)]) == 0
        ev = tmp_path / f"eval_{label}"
        assert cli.main(["eval", "--model", str(run / "model.json"),
                         "--data", str(data), "--noise-ct", "0.1",
                         "--noise-pet", "high", "--noise-frac", "0.5",
                         "--out", str(ev)]) == 0
    for name in ("data", "run", "eval"):
        if tree(tmp_path / f"{name}_a") != tree(tmp_path / f"{name}_b"):
            mismatched.append(name)
    _verdict(10, not mismatched,
             "gen/train/eval artifact trees byte-identical across re-runs"
             + (f"; mismatches: {mismatched}" if mismatched else ""))
