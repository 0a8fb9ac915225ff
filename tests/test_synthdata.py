import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robsurv import cli, synthdata as sd
from robsurv.errors import ConfigError, DataFormatError, IncompatibleInputError, ShapeError


# ---------------------------------------------------------------------------
# specs and configs


def test_noise_spec_domains():
    sd.NoiseSpec(ct_sigma=0.05, pet_level="medium", noisy_fraction=0.5)
    with pytest.raises(ConfigError):
        sd.NoiseSpec(ct_sigma=0.2)
    with pytest.raises(ConfigError):
        sd.NoiseSpec(pet_level="extreme")
    with pytest.raises(ConfigError):
        sd.NoiseSpec(noisy_fraction=1.5)
    assert sd.NoiseSpec().is_clean
    assert sd.NoiseSpec(ct_sigma=0.1, pet_level="high", noisy_fraction=0.0).is_clean
    assert not sd.NoiseSpec(ct_sigma=0.1, pet_level="high", noisy_fraction=0.5).is_clean


def test_cohort_config_domains():
    with pytest.raises(ConfigError):
        sd.CohortConfig(volume_side=2)
    with pytest.raises(ConfigError):
        sd.CohortConfig(n_risks=3)
    with pytest.raises(ConfigError):
        sd.CohortConfig(censor_rate=1.0)
    with pytest.raises(ConfigError, match="seed"):
        sd.CohortConfig(seed=-1)
    with pytest.raises(ConfigError):
        sd.generate_cohort(1, sd.CohortConfig())


@pytest.mark.parametrize("cls, bad", [
    (sd.CohortConfig, dict(volume_side=16.0)),
    (sd.CohortConfig, dict(seed=np.int64(3))),
    (sd.CohortConfig, dict(censor_rate=float("nan"))),
    (sd.CohortConfig, dict(n_risks=True)),
    (sd.NoiseSpec, dict(ct_sigma=False)),
    (sd.NoiseSpec, dict(pet_level=1)),
    (sd.NoiseSpec, dict(noisy_fraction=float("inf"))),
])
def test_configs_reject_wrong_kinds(cls, bad):
    with pytest.raises(ConfigError, match=next(iter(bad))):
        cls(**bad)


# ---------------------------------------------------------------------------
# generation


def small_cohort(n=12, seed=0, **kw):
    return sd.generate_cohort(n, sd.CohortConfig(volume_side=8, seed=seed, **kw))


def test_generation_is_deterministic():
    a = small_cohort()
    b = small_cohort()
    for field in ("ct", "pet", "risk", "times", "events"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_volumes_live_in_unit_interval():
    c = small_cohort(n=6)
    for vol in (c.ct, c.pet):
        assert np.isfinite(vol).all()
        assert vol.min() >= 0.0 and vol.max() <= 1.0


def test_outcomes_valid():
    c = small_cohort(n=50, seed=3)
    assert np.all(c.times >= 1)
    assert set(np.unique(c.events)).issubset({0, 1})
    two = sd.generate_cohort(50, sd.CohortConfig(volume_side=8, n_risks=2, seed=3))
    assert set(np.unique(two.events)).issubset({0, 1, 2})


def test_zero_censor_rate_has_no_censoring():
    c = small_cohort(n=40, seed=4, censor_rate=0.0)
    assert np.all(c.events > 0)


def test_patient_streams_are_order_independent():
    # patient i's data must not depend on cohort size
    big = small_cohort(n=10, seed=7)
    small = small_cohort(n=3, seed=7)
    assert np.array_equal(big.ct[:3], small.ct)
    assert np.array_equal(big.times[:3], small.times)


# sha256 of generate_cohort(6, CohortConfig(side, n_risks, seed=1003)) over
# ct, pet and risk as <f8 bytes, then times and events as <i8 bytes
GOLDEN_COHORTS = {
    (4, 1): "c69eef4a957dc2c26679d035dcf5b1f6dbaf14b2f044d8f8b14a38142419c5de",
    (4, 2): "7a55d17956c9ec1d2030623c7cf4e7799ac305373d75ae350776cf3c1ba33bd7",
    (5, 1): "3897aec6289779ef4ac64b6d85daabee72ca625b7b9743da0e7caea1969e427e",
    (5, 2): "cf09ccd58cc497ba1c8fad572da9471cdc0536d6c35fe927a7804b831ae25770",
    (8, 1): "dd5eb0dcf81b973f8e818b18c107217f41849dd999c1b42e0d1aec2752c62ef5",
    (8, 2): "f394b0f9ae79cfdfd0af762d8094089a19464f0996da92e9111f15e4f742bff1",
    (16, 1): "afc5ec2b3bace3fea168a507dde519138286b27f20ba8a1f97a73b8bd3f8ed88",
    (16, 2): "368935311b2dfc88dce7af4a432919f0dbc6ada4cde8ed53e9c25ae9ad1285c3",
}


@pytest.mark.parametrize("side,n_risks", GOLDEN_COHORTS,
                         ids=[f"side{s}-risks{r}" for s, r in GOLDEN_COHORTS])
def test_generation_matches_golden_digest(side, n_risks):
    """Cohorts are rebuilt from (seed, config), so any change to the
    synthesis arithmetic or its draw order must show here."""
    c = sd.generate_cohort(6, sd.CohortConfig(volume_side=side, n_risks=n_risks, seed=1003))
    h = hashlib.sha256()
    for values in (c.ct, c.pet, c.risk):
        h.update(np.ascontiguousarray(values, dtype="<f8").tobytes())
    for values in (c.times, c.events):
        h.update(np.ascontiguousarray(values, dtype="<i8").tobytes())
    assert h.hexdigest() == GOLDEN_COHORTS[side, n_risks]


def test_gen_files_match_golden_digest(tmp_path, capsys):
    out = tmp_path / "gen"
    assert cli.main(["gen", "--n", "5", "--side", "6", "--risks", "2", "--seed", "17",
                     "--out", str(out)]) == 0
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    assert h.hexdigest() == "b77bbff694b8853060d5b6456de55f6649809690e157b585737f4029b90aa9bb"


def test_risk_drives_blob_size():
    # a high-risk patient's CT blob occupies more bright voxels
    cfg = sd.CohortConfig(volume_side=16, seed=0)
    c = sd.generate_cohort(400, cfg)
    lo = c.ct[c.risk < 0.2]
    hi = c.ct[c.risk > 0.8]
    assert (hi > 0.6).mean() > (lo > 0.6).mean() * 2


def test_risk_drives_pet_peak():
    c = small_cohort(n=200, seed=1)
    lo_peak = c.pet[c.risk < 0.2].max(axis=1).mean()
    hi_peak = c.pet[c.risk > 0.8].max(axis=1).mean()
    assert hi_peak > lo_peak + 0.3


def test_planted_signal_kendall_tau():
    scipy_stats = pytest.importorskip("scipy.stats")
    c = sd.generate_cohort(2000, sd.CohortConfig(volume_side=4, censor_rate=0.3, seed=11))
    mask = c.events > 0
    tau = scipy_stats.kendalltau(c.risk[mask], c.times[mask]).statistic
    assert tau < -0.3


def test_mean_time_decreases_across_risk_quartiles():
    c = sd.generate_cohort(1200, sd.CohortConfig(volume_side=4, censor_rate=0.0, seed=12))
    edges = np.quantile(c.risk, [0.25, 0.5, 0.75])
    quartile = np.digitize(c.risk, edges)
    means = [c.times[quartile == q].mean() for q in range(4)]
    assert all(means[i] > means[i + 1] for i in range(3))


# ---------------------------------------------------------------------------
# noise primitives


def test_gaussian_noise_zero_sigma_identity():
    x = np.random.default_rng(0).uniform(size=64)
    assert np.array_equal(sd.gaussian_noise(x, 0.0, 1), x)


def test_gaussian_noise_reproducible_and_scaled():
    x = np.random.default_rng(1).uniform(size=16 ** 3)
    a = sd.gaussian_noise(x, 0.1, 42)
    b = sd.gaussian_noise(x, 0.1, 42)
    assert np.array_equal(a, b)
    resid = a - x
    spread = x.max() - x.min()
    assert abs(resid.mean()) < 3 * 0.1 * spread / np.sqrt(x.size)
    assert 0.095 * spread < resid.std() < 0.105 * spread


def test_gaussian_noise_not_clipped():
    x = np.zeros(4096)
    x[0] = 1.0
    y = sd.gaussian_noise(x, 0.1, 3)
    assert y.min() < 0.0


def test_poisson_noise_zero_stays_zero():
    x = np.zeros(256)
    assert np.array_equal(sd.poisson_noise(x, "high", 5), x)


def test_poisson_noise_moments():
    x = np.full(4096, 0.5)
    y = sd.poisson_noise(x, "high", 6)
    assert 0.48 < y.mean() < 0.52
    var = y.var()
    assert 0.7 * 0.005 < var < 1.3 * 0.005


def test_poisson_noise_levels_ordered():
    x = np.full(4096, 0.5)
    spreads = [sd.poisson_noise(x, lvl, 7).std() for lvl in ("low", "medium", "high")]
    assert spreads[0] < spreads[1] < spreads[2]


def test_poisson_noise_clips_negative_inputs():
    x = np.array([-0.5, 0.25])
    y = sd.poisson_noise(x, "low", 8)
    assert y[0] == 0.0


def test_noise_validation():
    with pytest.raises(ConfigError):
        sd.gaussian_noise(np.zeros(4), -0.1, 0)
    with pytest.raises(ConfigError):
        sd.poisson_noise(np.zeros(4), "none", 0)
    for bad in (3e38, np.nan):
        with pytest.raises(IncompatibleInputError):
            sd.poisson_noise(np.array([0.5, bad]), "high", 0)


# ---------------------------------------------------------------------------
# cohort-level corruption


def test_mix_fraction_zero_is_identity():
    c = small_cohort()
    out = sd.apply_noise_mix(c, sd.NoiseSpec(0.1, "high", 0.0), seed=9)
    assert np.array_equal(out.ct, c.ct)
    assert np.array_equal(out.pet, c.pet)
    assert not out.noisy.any()


def test_mix_without_noise_levels_marks_no_one():
    """A spec with a fraction but no noise level changes no volume, so no row
    may be marked noisy either."""
    c = small_cohort()
    out = sd.apply_noise_mix(c, sd.NoiseSpec(0.0, None, 0.5), seed=9)
    assert out.ct.tobytes() == c.ct.tobytes() and out.pet.tobytes() == c.pet.tobytes()
    assert not out.noisy.any()
    assert sd.noisy_rows(c.n, sd.NoiseSpec(0.0, None, 0.5), seed=9).size == 0


def test_mix_fraction_one_marks_everyone():
    c = small_cohort()
    out = sd.apply_noise_mix(c, sd.NoiseSpec(0.1, "high", 1.0), seed=9)
    assert out.noisy.all()
    assert not np.array_equal(out.ct, c.ct)
    assert not np.array_equal(out.pet, c.pet)


def test_mix_counts_and_determinism():
    c = small_cohort(n=100, seed=2)
    spec = sd.NoiseSpec(0.05, "medium", 0.5)
    a = sd.apply_noise_mix(c, spec, seed=13)
    b = sd.apply_noise_mix(c, spec, seed=13)
    assert a.noisy.sum() == 50
    assert np.array_equal(a.noisy, b.noisy)
    assert np.array_equal(a.ct, b.ct)
    other = sd.apply_noise_mix(c, spec, seed=14)
    assert not np.array_equal(a.noisy, other.noisy)


def test_mix_leaves_outcomes_and_clean_rows_alone():
    c = small_cohort(n=20, seed=5)
    out = sd.apply_noise_mix(c, sd.NoiseSpec(0.1, "high", 0.5), seed=15)
    assert np.array_equal(out.times, c.times)
    assert np.array_equal(out.events, c.events)
    clean = ~out.noisy
    assert np.array_equal(out.ct[clean], c.ct[clean])
    assert np.array_equal(out.pet[clean], c.pet[clean])


def test_mix_ct_only_and_pet_only():
    c = small_cohort(n=10, seed=6)
    ct_only = sd.apply_noise_mix(c, sd.NoiseSpec(0.1, None, 1.0), seed=16)
    assert not np.array_equal(ct_only.ct, c.ct)
    assert np.array_equal(ct_only.pet, c.pet)
    pet_only = sd.apply_noise_mix(c, sd.NoiseSpec(0.0, "low", 1.0), seed=16)
    assert np.array_equal(pet_only.ct, c.ct)
    assert not np.array_equal(pet_only.pet, c.pet)


@pytest.fixture(scope="module")
def cohort40():
    return small_cohort(n=40, seed=21)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
       fracs=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted))
def test_mix_rows_nest_across_fractions(cohort40, n, seed, fracs):
    """A noise sweep builds every fraction from the cohort corrupted at the
    largest one, so the rows corrupted at f1 <= f2 must be a subset of those
    at f2, carry the same bytes at both, and be the floor(f*n)-prefix of
    ``noise_order``."""
    cohort = cohort40.subset(np.arange(n))
    order = sd.noise_order(n, seed)
    lo, hi = (sd.apply_noise_mix(cohort, sd.NoiseSpec(0.1, "high", f), seed) for f in fracs)
    for f, mixed in zip(fracs, (lo, hi)):
        assert np.array_equal(np.flatnonzero(mixed.noisy),
                              np.sort(order[:int(np.floor(f * n))]))
    rows = lo.noisy
    assert hi.noisy[rows].all()
    assert lo.ct[rows].tobytes() == hi.ct[rows].tobytes()
    assert lo.pet[rows].tobytes() == hi.pet[rows].tobytes()


# ---------------------------------------------------------------------------
# disk round trip


def test_save_load_roundtrip(tmp_path):
    c = small_cohort(n=5, seed=8)
    sd.save_cohort(c, tmp_path)
    files = sorted(p.name for p in tmp_path.iterdir())
    assert "manifest.json" in files and "outcomes.csv" in files
    assert sum(name.endswith(".f32") for name in files) == 10

    loaded = sd.load_cohort(tmp_path)
    assert loaded.n == 5
    assert loaded.config == c.config
    assert np.array_equal(loaded.times, c.times)
    assert np.array_equal(loaded.events, c.events)
    assert np.array_equal(loaded.noisy, c.noisy)
    np.testing.assert_allclose(loaded.risk, c.risk, rtol=0, atol=0)
    # volumes round through float32
    np.testing.assert_allclose(loaded.ct, c.ct, atol=1e-7)
    np.testing.assert_allclose(loaded.pet, c.pet, atol=1e-7)


def test_save_twice_is_byte_identical(tmp_path):
    c = small_cohort(n=3, seed=9)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    sd.save_cohort(c, dir_a)
    sd.save_cohort(c, dir_b)
    for path_a in sorted(dir_a.iterdir()):
        assert path_a.read_bytes() == (dir_b / path_a.name).read_bytes()


def test_load_rejects_missing_or_corrupt(tmp_path):
    with pytest.raises(DataFormatError):
        sd.load_cohort(tmp_path)
    c = small_cohort(n=3, seed=10)
    sd.save_cohort(c, tmp_path)
    (tmp_path / "manifest.json").write_text("{not json")
    with pytest.raises(DataFormatError):
        sd.load_cohort(tmp_path)
    sd.save_cohort(c, tmp_path)
    (tmp_path / "0_ct.f32").unlink()
    with pytest.raises(DataFormatError):
        sd.load_cohort(tmp_path)
    sd.save_cohort(c, tmp_path)
    (tmp_path / "1_pet.f32").write_bytes(b"\x00" * 12)
    with pytest.raises(DataFormatError):
        sd.load_cohort(tmp_path)


@pytest.mark.parametrize("key,value", [
    ("volume_side", 8.9), ("n", 3.0), ("n", "3"), ("n_risks", True), ("seed", "1"),
    ("seed", None), ("censor_rate", "0.3"), ("censor_rate", False),
])
def test_load_rejects_mistyped_manifest_field(tmp_path, key, value):
    sd.save_cohort(small_cohort(n=3, seed=10), tmp_path)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["cohort"][key] = value
    path.write_text(json.dumps(manifest))
    with pytest.raises(DataFormatError, match=key):
        sd.load_cohort(tmp_path)


def test_load_accepts_an_integral_censor_rate(tmp_path):
    c = small_cohort(n=3, seed=10)
    sd.save_cohort(c, tmp_path)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["cohort"]["censor_rate"] = 0
    path.write_text(json.dumps(manifest))
    assert sd.load_cohort(tmp_path).config.censor_rate == 0.0


def test_subset_preserves_alignment():
    c = small_cohort(n=8, seed=11)
    sub = c.subset([5, 2])
    assert sub.patient_ids.tolist() == [5, 2]
    assert np.array_equal(sub.ct[0], c.ct[5])
    assert np.array_equal(sub.pet[1], c.pet[2])
    assert sub.times.tolist() == [c.times[5], c.times[2]]


@pytest.mark.parametrize("indices", [np.array([6, 1, 3]), [6, 1, 3], range(1, 7, 2)],
                         ids=["array", "list", "range"])
def test_subset_copies_every_field(indices):
    c = small_cohort(n=8, seed=11)
    sub = c.subset(indices)
    rows = list(indices)
    for field in ("patient_ids", "ct", "pet", "risk", "times", "events", "noisy"):
        got, parent = getattr(sub, field), getattr(c, field)
        assert np.array_equal(got, parent[rows])
        assert not np.shares_memory(got, parent), field


def test_subset_rejects_a_scalar_index():
    with pytest.raises(ShapeError):  # a 0-d index would select one row as a view
        small_cohort(n=4).subset(np.int64(2))
