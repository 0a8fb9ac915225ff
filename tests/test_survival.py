import numpy as np
import pytest

from gradcheck import check_gradients
from robsurv import autodiff as ad
from robsurv import survival as sv
from robsurv.errors import ConfigError, InvalidOutcomeError, ShapeError
from robsurv.trainer import TrainConfig

SIGMA = TrainConfig().rank_sigma


@pytest.fixture(autouse=True)
def _fresh_graph():
    ad.reset_graph()
    yield
    ad.reset_graph()


def grid(data) -> sv.HazardGrid:
    return sv.HazardGrid(ad.Tensor(np.asarray(data, dtype=float)))


# ---------------------------------------------------------------------------
# hazard head


def test_zero_parameters_give_half_hazards():
    params = {
        "head_w1": ad.Tensor(np.zeros((3, 4))),
        "head_b1": ad.Tensor(np.zeros(4)),
        "head_w2": ad.Tensor(np.zeros((4, 6))),
        "head_b2": ad.Tensor(np.zeros(6)),
    }
    hz = sv.hazard_forward(ad.Tensor(np.ones((2, 3))), params, n_bins=3, n_risks=2)
    assert hz.raw.shape == (2, 3, 2)
    assert np.all(hz.raw.data == 0.5)


def test_hazards_strictly_inside_unit_interval():
    rng = np.random.default_rng(0)
    params = ad.init_params(sv.param_specs(4, n_bins=5, n_risks=2, hidden=6), rng)
    hz = sv.hazard_forward(ad.Tensor(rng.normal(size=(3, 4))), params, 5, 2)
    assert np.all(hz.raw.data > 0) and np.all(hz.raw.data < 1)


def test_head_shape_errors():
    rng = np.random.default_rng(1)
    params = ad.init_params(sv.param_specs(4, 5, 2, 6), rng)
    with pytest.raises(ShapeError):
        sv.hazard_forward(ad.Tensor(np.zeros((2, 4))), params, n_bins=5, n_risks=3)
    with pytest.raises(ShapeError):
        sv.hazard_forward(ad.Tensor(np.zeros(4)), params, 5, 2)
    with pytest.raises(ConfigError):
        sv.param_specs(0, 5, 2, 6)


# ---------------------------------------------------------------------------
# clamping


def test_clamp_rescales_overfull_bin():
    hz = grid([[[0.9, 0.9]]])
    clamped = hz.clamped.data
    ceiling = 1.0 - sv.HAZARD_EPSILON
    assert clamped.sum() == pytest.approx(ceiling, abs=1e-15)
    np.testing.assert_allclose(clamped[0, 0], 0.9 * ceiling / 1.8, rtol=1e-15)


def test_clamp_is_identity_below_ceiling():
    hz = grid([[[0.3, 0.2], [0.1, 0.05]]])
    assert np.array_equal(hz.clamped.data, hz.raw.data)


def test_clamp_is_cached():
    hz = grid([[[0.3, 0.2]]])
    assert hz.clamped is hz.clamped


def test_clamp_gradient_passes_through_unchanged():
    raw = ad.Tensor(np.array([[[0.9, 0.9], [0.1, 0.2]]]), requires_grad=True)
    hz = sv.HazardGrid(raw)
    weight = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    ad.backward((hz.clamped * ad.Tensor(weight)).sum())
    assert np.array_equal(raw.grad, weight)


# ---------------------------------------------------------------------------
# cumulative incidence


def test_cif_worked_example_exact():
    out = sv.cif(grid([[[0.1], [0.2]]]))
    assert out.values.data[0, 0, 0] == 0.1
    assert out.values.data[0, 1, 0] == 0.1 + 0.2 * 0.9
    assert out.values.data[0, 1, 0] == 0.28
    assert out.survival.data[0] == pytest.approx(0.9 * 0.8, abs=1e-15)


def test_cif_two_cause_worked_example():
    out = sv.cif(grid([[[0.2, 0.1], [0.3, 0.3]]]))
    v = out.values.data[0]
    assert v[0, 0] == pytest.approx(0.2, abs=1e-15)
    assert v[0, 1] == pytest.approx(0.1, abs=1e-15)
    # survival after bin 1 is 0.7
    assert v[1, 0] == pytest.approx(0.2 + 0.3 * 0.7, abs=1e-15)
    assert v[1, 1] == pytest.approx(0.1 + 0.3 * 0.7, abs=1e-15)
    assert out.survival.data[0] == pytest.approx(0.7 * 0.4, abs=1e-15)


def test_cif_normalization_and_monotonicity_bulk():
    rng = np.random.default_rng(2)
    with ad.no_grad():
        for _ in range(1000):
            b = int(rng.integers(1, 4))
            p = int(rng.integers(1, 21))
            k = int(rng.integers(1, 4))
            hz = grid(rng.uniform(size=(b, p, k)))
            out = sv.cif(hz)
            total = out.values.data[:, -1, :].sum(axis=1) + out.survival.data
            np.testing.assert_allclose(total, 1.0, atol=1e-10)
            diffs = np.diff(out.values.data, axis=1)
            assert np.all(diffs >= -1e-15)
            assert np.all(out.survival.data > 0)


def test_cif_single_bin():
    out = sv.cif(grid([[[0.25, 0.5]]]))
    assert np.array_equal(out.values.data[0, 0], [0.25, 0.5])
    assert out.survival.data[0] == pytest.approx(0.25, abs=1e-15)


def test_cif_tape_length_independent_of_bins():
    counts = []
    for n_bins in (3, 10):
        ad.reset_graph()
        raw = ad.Tensor(np.full((2, n_bins, 2), 0.3), requires_grad=True)
        sv.cif(sv.HazardGrid(raw))
        counts.append(len(ad.active_graph()))
    assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# likelihood


def test_likelihood_single_event_first_bin():
    loss = sv.likelihood_loss(grid([[[0.5]]]), np.array([1]), np.array([1]))
    assert loss.item() == pytest.approx(-np.log(0.5), rel=1e-12)


def test_likelihood_event_second_bin():
    loss = sv.likelihood_loss(grid([[[0.2], [0.5]]]), np.array([2]), np.array([1]))
    assert loss.item() == pytest.approx(-(np.log(0.5) + np.log(0.8)), rel=1e-12)


def test_likelihood_censored_first_bin_is_zero():
    loss = sv.likelihood_loss(grid([[[0.3], [0.4]]]), np.array([1]), np.array([0]))
    assert loss.item() == 0.0


def test_likelihood_censored_later_bin():
    loss = sv.likelihood_loss(grid([[[0.3], [0.4]]]), np.array([2]), np.array([0]))
    assert loss.item() == pytest.approx(-np.log(0.7), rel=1e-12)


def test_likelihood_competing_cause_selects_right_column():
    h = [[[0.2, 0.4]]]
    loss = sv.likelihood_loss(grid(h), np.array([1]), np.array([2]))
    assert loss.item() == pytest.approx(-np.log(0.4), rel=1e-12)


def test_likelihood_averages_over_batch():
    h = [[[0.5]], [[0.5]]]
    loss = sv.likelihood_loss(grid(h), np.array([1, 1]), np.array([1, 0]))
    assert loss.item() == pytest.approx(-np.log(0.5) / 2, rel=1e-12)


def test_outcome_validation():
    hz = grid([[[0.5], [0.5]]])
    with pytest.raises(InvalidOutcomeError):
        sv.likelihood_loss(hz, np.array([0]), np.array([1]))
    with pytest.raises(InvalidOutcomeError):
        sv.likelihood_loss(hz, np.array([3]), np.array([1]))
    with pytest.raises(InvalidOutcomeError):
        sv.likelihood_loss(hz, np.array([1]), np.array([2]))
    with pytest.raises(InvalidOutcomeError):
        sv.likelihood_loss(hz, np.array([1]), np.array([-1]))
    with pytest.raises(InvalidOutcomeError):
        sv.likelihood_loss(hz, np.array([1.0]), np.array([1]))
    with pytest.raises(ShapeError):
        sv.likelihood_loss(hz, np.array([1, 2]), np.array([1, 0]))


# ---------------------------------------------------------------------------
# ranking


def brute_force_rank(values, times, events, sigma, weights):
    b, p, k = values.shape
    loss, count = 0.0, 0
    for cause in range(1, k + 1):
        for i in range(b):
            if events[i] != cause:
                continue
            for j in range(b):
                if times[i] < times[j]:
                    count += 1
                    fi = values[i, times[i] - 1, cause - 1]
                    fj = values[j, times[i] - 1, cause - 1]
                    loss += weights[cause - 1] * np.exp((fj - fi) / sigma)
    return (loss / count if count else 0.0), count


def test_ranking_equal_curves_score_one():
    values = np.tile(np.array([[0.1], [0.2], [0.3]]), (4, 1, 1))
    inc = sv.CifGrid(values=ad.Tensor(values), survival=ad.Tensor(np.full(4, 0.7)))
    times = np.array([1, 2, 3, 2])
    events = np.array([1, 1, 0, 0])
    loss, pairs = sv.ranking_loss(inc, times, events, sigma=SIGMA)
    assert pairs == 4
    assert loss.item() == pytest.approx(1.0, rel=1e-12)


def test_ranking_no_comparable_pairs():
    values = np.random.default_rng(3).uniform(size=(3, 2, 1))
    inc = sv.CifGrid(values=ad.Tensor(values), survival=ad.Tensor(np.zeros(3)))
    loss, pairs = sv.ranking_loss(inc, np.array([1, 1, 1]), np.array([0, 0, 1]), sigma=SIGMA)
    assert pairs == 0
    assert loss.item() == 0.0


def test_ranking_rewards_concordant_curves():
    # patient 0 dies at bin 1; concordant grid gives it the higher curve
    concordant = np.array([[[0.9], [0.95]], [[0.1], [0.2]]])
    reversed_ = concordant[::-1].copy()
    times = np.array([1, 2])
    events = np.array([1, 0])
    surv = ad.Tensor(np.zeros(2))
    good, _ = sv.ranking_loss(sv.CifGrid(ad.Tensor(concordant), surv), times, events, sigma=SIGMA)
    bad, _ = sv.ranking_loss(sv.CifGrid(ad.Tensor(reversed_), surv), times, events, sigma=SIGMA)
    assert good.item() < bad.item()
    assert good.item() == pytest.approx(np.exp((0.1 - 0.9) / SIGMA), rel=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_ranking_matches_brute_force(seed):
    rng = np.random.default_rng((77, seed))
    b = int(rng.integers(2, 9))
    p = int(rng.integers(1, 6))
    k = int(rng.integers(1, 3))
    values = rng.uniform(size=(b, p, k))
    times = rng.integers(1, p + 1, size=b)
    events = rng.integers(0, k + 1, size=b)
    weights = rng.uniform(0.5, 2.0, size=k).tolist()
    inc = sv.CifGrid(values=ad.Tensor(values), survival=ad.Tensor(np.zeros(b)))
    loss, pairs = sv.ranking_loss(inc, times, events, sigma=0.3, risk_weights=weights)
    ref_loss, ref_pairs = brute_force_rank(values, times, events, 0.3, weights)
    assert pairs == ref_pairs
    assert loss.item() == pytest.approx(ref_loss, rel=1e-12, abs=1e-15)


def test_ranking_config_errors():
    inc = sv.CifGrid(values=ad.Tensor(np.zeros((2, 2, 1))), survival=ad.Tensor(np.zeros(2)))
    with pytest.raises(ConfigError):
        sv.ranking_loss(inc, np.array([1, 2]), np.array([1, 0]), sigma=0.0)
    with pytest.raises(ConfigError):
        sv.ranking_loss(inc, np.array([1, 2]), np.array([1, 0]), sigma=SIGMA,
                        risk_weights=[1.0, 2.0])


# ---------------------------------------------------------------------------
# finite differences through the full head
#
# Logits are pushed negative so no bin trips the clamp; in that regime the
# pass-through rescale is the identity in value and derivative and the
# losses are smooth, so central differences are a valid oracle.


def _head_state(seed, b=3, d=4, p=3, k=2):
    rng = np.random.default_rng((301, seed))
    params = ad.init_params(sv.param_specs(d, p, k, hidden=5), rng)
    params["head_b2"].data[...] = -1.5
    feats = ad.Tensor(rng.normal(size=(b, d)), requires_grad=True)
    times = rng.integers(1, p + 1, size=b)
    events = rng.integers(0, k + 1, size=b)
    leaves = [feats] + [params[n] for n in ("head_w1", "head_b1", "head_w2", "head_b2")]
    return params, feats, times, events, leaves, rng


@pytest.mark.parametrize("seed", range(5))
def test_likelihood_gradients_fd(seed):
    params, feats, times, events, leaves, _ = _head_state(seed)

    def build():
        hz = sv.hazard_forward(feats, params, 3, 2)
        assert np.all(hz.raw.data.sum(axis=2) < 1.0 - sv.HAZARD_EPSILON)
        return sv.likelihood_loss(hz, times, events)

    check_gradients(build, leaves)


@pytest.mark.parametrize("seed", range(5))
def test_cif_gradients_fd(seed):
    params, feats, times, events, leaves, rng = _head_state(seed)
    w_val = ad.Tensor(rng.normal(size=(3, 3, 2)))
    w_surv = ad.Tensor(rng.normal(size=(3,)))

    def build():
        out = sv.cif(sv.hazard_forward(feats, params, 3, 2))
        return (out.values * w_val).sum() + (out.survival * w_surv).sum()

    check_gradients(build, leaves)


@pytest.mark.parametrize("seed", range(5))
def test_ranking_gradients_fd(seed):
    params, feats, times, events, leaves, _ = _head_state(seed)
    if not ((events[:, None] > 0) & (times[:, None] < times[None, :])).any():
        times[0], events[0] = 1, 1
        times[1] = 3

    def build():
        out = sv.cif(sv.hazard_forward(feats, params, 3, 2))
        loss, _ = sv.ranking_loss(out, times, events, sigma=0.25)
        return loss

    check_gradients(build, leaves)
