import numpy as np
import pytest

from robsurv import stats
from robsurv.errors import (
    ConfigError,
    DegenerateGroupsError,
    DomainError,
    InvalidOutcomeError,
    UndefinedMetricError,
    UndefinedTestError,
)


# ---------------------------------------------------------------------------
# concordance


def loop_concordance(values, times, events, cause):
    num, den = 0.0, 0
    n = len(times)
    for i in range(n):
        if events[i] != cause:
            continue
        for j in range(n):
            if times[i] >= times[j]:
                continue
            den += 1
            fi = values[i, times[i] - 1, cause - 1]
            fj = values[j, times[i] - 1, cause - 1]
            if fi > fj:
                num += 1.0
            elif fi == fj:
                num += 0.5
    if den == 0:
        raise UndefinedMetricError("no pairs")
    return num / den


@pytest.mark.parametrize("seed", range(100))
def test_concordance_matches_loop_exactly(seed):
    rng = np.random.default_rng((57, seed))
    n = int(rng.integers(2, 12))
    p = int(rng.integers(1, 6))
    k = int(rng.integers(1, 3))
    # quantized values create plenty of exact ties across patients
    values = rng.integers(0, 4, size=(n, p, k)) / 4.0
    times = rng.integers(1, p + 1, size=n)
    events = rng.integers(0, k + 1, size=n)
    cause = int(rng.integers(1, k + 1))
    try:
        expected = loop_concordance(values, times, events, cause)
    except UndefinedMetricError:
        with pytest.raises(UndefinedMetricError):
            stats.concordance(values, times, events, cause)
        return
    assert stats.concordance(values, times, events, cause) == expected


def test_concordance_perfect_predictor():
    # earlier event gets the uniformly higher curve
    values = np.zeros((3, 3, 1))
    values[0, :, 0] = [0.9, 0.9, 0.9]
    values[1, :, 0] = [0.5, 0.5, 0.5]
    values[2, :, 0] = [0.1, 0.1, 0.1]
    times = np.array([1, 2, 3])
    events = np.array([1, 1, 0])
    assert stats.concordance(values, times, events) == 1.0


def test_concordance_reversed_predictor():
    values = np.zeros((3, 3, 1))
    values[0, :, 0] = [0.1, 0.1, 0.1]
    values[1, :, 0] = [0.5, 0.5, 0.5]
    values[2, :, 0] = [0.9, 0.9, 0.9]
    assert stats.concordance(values, np.array([1, 2, 3]), np.array([1, 1, 0])) == 0.0


def test_concordance_constant_curves_score_half():
    values = np.full((4, 2, 1), 0.3)
    c = stats.concordance(values, np.array([1, 1, 2, 2]), np.array([1, 1, 0, 0]))
    assert c == 0.5


def test_concordance_undefined_without_pairs():
    values = np.zeros((2, 2, 1))
    with pytest.raises(UndefinedMetricError):
        stats.concordance(values, np.array([2, 2]), np.array([1, 1]))
    with pytest.raises(UndefinedMetricError):
        stats.concordance(values, np.array([1, 2]), np.array([0, 0]))


def test_concordance_input_validation():
    values = np.zeros((2, 2, 1))
    with pytest.raises(ConfigError):
        stats.concordance(values, np.array([1, 2]), np.array([1, 0]), cause=2)
    with pytest.raises(InvalidOutcomeError):
        stats.concordance(values, np.array([1, 3]), np.array([1, 0]))
    with pytest.raises(InvalidOutcomeError):
        stats.concordance(values, np.array([1.0, 2.0]), np.array([1, 0]))


# ---------------------------------------------------------------------------
# product-limit curve


def loop_km(times, events):
    """Reference: the product-limit estimate built one event time at a time."""
    event_times = np.unique(times[events > 0])
    out_t, out_s, out_n, out_d = [], [], [], []
    s = 1.0
    for t in event_times:
        n_risk = int((times >= t).sum())
        d = int(((times == t) & (events > 0)).sum())
        s *= 1.0 - d / n_risk
        out_t.append(int(t))
        out_s.append(s)
        out_n.append(n_risk)
        out_d.append(d)
    return out_t, out_s, out_n, out_d


def edge_cohort(seed):
    """Random outcomes (codes 0-2, many tied times) plus rows that force an
    event at time 0, tied events with a censoring at the same time, and a
    last event with its subject alone at risk; returns the rows shuffled and
    a random two-group split with both groups nonempty."""
    rng = np.random.default_rng((62, seed))
    n = int(rng.integers(2, 20))
    times = np.concatenate([rng.integers(0, 6, size=n), [0, 3, 3, 3, 9]])
    events = np.concatenate([rng.integers(0, 3, size=n), [1, 1, 2, 0, 1]])
    order = rng.permutation(times.size)
    in_a = rng.random(times.size) < 0.5
    in_a[:2] = [True, False]
    return times[order], events[order], in_a


@pytest.mark.parametrize("seed", range(40))
def test_km_matches_loop_bitwise(seed):
    times, events, _ = edge_cohort(seed)
    t, s, n, d = loop_km(times, events)
    curve = stats.km_curve(times, events)
    assert t[0] == 0 and n[-1] == 1
    assert curve.times.tolist() == t
    assert curve.at_risk.tolist() == n
    assert curve.n_events.tolist() == d
    assert curve.survival.tobytes() == np.array(s).tobytes()


def test_km_three_events():
    curve = stats.km_curve(np.array([1, 2, 3]), np.array([1, 1, 1]))
    assert curve.times.tolist() == [1, 2, 3]
    np.testing.assert_allclose(curve.survival, [2 / 3, 1 / 3, 0.0])
    assert curve.at_risk.tolist() == [3, 2, 1]


def test_km_censored_then_event_hits_zero():
    curve = stats.km_curve(np.array([1, 2]), np.array([0, 1]))
    assert curve.times.tolist() == [2]
    assert curve.survival.tolist() == [0.0]


def test_km_censored_at_event_time_stays_at_risk():
    # the subject censored at time 1 counts in the risk set at time 1
    curve = stats.km_curve(np.array([1, 1, 2]), np.array([1, 0, 1]))
    np.testing.assert_allclose(curve.survival, [2 / 3, 0.0])
    assert curve.at_risk.tolist() == [3, 1]


def test_km_no_events_curve_stays_at_one():
    curve = stats.km_curve(np.array([1, 2, 3]), np.array([0, 0, 0]))
    assert curve.times.size == 0
    assert curve.survival.size == 0


def test_km_empty_cohort_rejected():
    with pytest.raises(InvalidOutcomeError):
        stats.km_curve(np.array([], dtype=int), np.array([], dtype=int))


def test_km_accepts_boolean_flags():
    curve = stats.km_curve(np.array([1, 2, 3]), np.array([True, True, True]))
    np.testing.assert_allclose(curve.survival, [2 / 3, 1 / 3, 0.0])


def test_km_mixed_cohort():
    curve = stats.km_curve(np.array([1, 1, 2, 3]), np.array([1, 0, 1, 0]))
    np.testing.assert_allclose(curve.survival, [3 / 4, 3 / 8])


def test_km_csv_roundtrip(tmp_path):
    curve = stats.km_curve(np.array([1, 2, 3]), np.array([1, 1, 0]))
    path = tmp_path / "km.csv"
    stats.write_km_csv(path, {"low": curve})
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "time,survival,at_risk,events,group"
    parsed = [r.split(",") for r in rows[1:]]
    assert [int(r[0]) for r in parsed] == curve.times.tolist()
    assert [float(r[1]) for r in parsed] == curve.survival.tolist()
    assert {r[4] for r in parsed} == {"low"}


def test_km_csv_failed_write_keeps_previous_file(tmp_path):
    curve = stats.km_curve(np.array([1, 2, 3]), np.array([1, 1, 0]))
    path = tmp_path / "km.csv"
    stats.write_km_csv(path, {"low": curve})
    before = path.read_bytes()

    class Unwritable:
        def __float__(self):
            raise RuntimeError("value fails mid-write")

    broken = stats.SurvCurve(times=np.array([1, 2]), survival=np.array([0.5, Unwritable()]),
                             at_risk=np.array([2, 1]), n_events=np.array([1, 1]))
    with pytest.raises(RuntimeError):
        stats.write_km_csv(path, {"low": curve, "high": broken})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["km.csv"]


# ---------------------------------------------------------------------------
# chi-squared tail


def test_chi2_sf_reference_points():
    assert stats.chi2_sf(3.841) == pytest.approx(0.05, abs=5e-4)
    assert stats.chi2_sf(0.0) == 1.0
    assert stats.chi2_sf(6.635) == pytest.approx(0.01, abs=5e-5)


def test_chi2_sf_against_quadrature():
    scipy = pytest.importorskip("scipy")
    from scipy.integrate import quad
    from math import gamma

    def pdf(x):
        return x ** -0.5 * np.exp(-x / 2) / (np.sqrt(2.0) * gamma(0.5))

    for x in (0.5, 1.0, 2.0, 3.841, 7.5):
        ref, err = quad(pdf, x, np.inf)
        assert stats.chi2_sf(x) == pytest.approx(ref, rel=1e-9, abs=err * 10)


def test_chi2_sf_validation():
    with pytest.raises(DomainError):
        stats.chi2_sf(-0.1)


# ---------------------------------------------------------------------------
# log-rank


def loop_logrank_stat(ta, ea, tb, eb):
    """Reference: the statistic summed one event time at a time."""
    pooled_t = np.concatenate([ta, tb])
    pooled_e = np.concatenate([ea, eb])
    observed_minus_expected = 0.0
    variance = 0.0
    for t in np.unique(pooled_t[pooled_e > 0]):
        n = int((pooled_t >= t).sum())
        n1 = int((ta >= t).sum())
        d = int(((pooled_t == t) & (pooled_e > 0)).sum())
        d1 = int(((ta == t) & (ea > 0)).sum())
        observed_minus_expected += d1 - d * n1 / n
        if n > 1:
            variance += d * (n1 / n) * (1.0 - n1 / n) * (n - d) / (n - 1)
    return observed_minus_expected ** 2 / variance  # ZeroDivisionError at zero variance


@pytest.mark.parametrize("seed", range(25))
def test_logrank_matches_reference_loop(seed):
    rng = np.random.default_rng((58, seed))
    na, nb = int(rng.integers(3, 15)), int(rng.integers(3, 15))
    ta = rng.integers(1, 8, size=na)
    tb = rng.integers(1, 8, size=nb)
    ea = rng.integers(0, 2, size=na)
    eb = rng.integers(0, 2, size=nb)
    if not (ea.any() or eb.any()):
        ea[0] = 1
    try:
        expected = loop_logrank_stat(ta, ea, tb, eb)
    except ZeroDivisionError:
        return
    result = stats.logrank(ta, ea, tb, eb)
    assert result.statistic == expected
    assert 0.0 <= result.p_value <= 1.0


@pytest.mark.parametrize("seed", range(40))
def test_logrank_matches_loop_bitwise_on_edge_cohorts(seed):
    times, events, in_a = edge_cohort(seed)
    ta, ea, tb, eb = times[in_a], events[in_a], times[~in_a], events[~in_a]
    try:
        expected = loop_logrank_stat(ta, ea, tb, eb)
    except ZeroDivisionError:
        with pytest.raises(UndefinedTestError):
            stats.logrank(ta, ea, tb, eb)
        return
    result = stats.logrank(ta, ea, tb, eb)
    assert result.statistic.hex() == expected.hex()
    assert result.p_value == stats.chi2_sf(expected)


def test_logrank_group_swap_keeps_statistic():
    rng = np.random.default_rng(59)
    ta, tb = rng.integers(1, 6, size=10), rng.integers(1, 6, size=8)
    ea, eb = rng.integers(0, 2, size=10), rng.integers(0, 2, size=8)
    ea[0] = eb[0] = 1
    fwd = stats.logrank(ta, ea, tb, eb)
    rev = stats.logrank(tb, eb, ta, ea)
    assert fwd.statistic == pytest.approx(rev.statistic, rel=1e-12)
    assert fwd.p_value == pytest.approx(rev.p_value, rel=1e-12)


def test_logrank_identical_groups_score_zero():
    t = np.array([1, 2, 3, 4, 5])
    e = np.array([1, 0, 1, 1, 0])
    result = stats.logrank(t, e, t.copy(), e.copy())
    assert result.statistic == pytest.approx(0.0, abs=1e-12)
    assert result.p_value == pytest.approx(1.0, abs=1e-12)


def test_logrank_separated_groups_are_significant():
    early_t = np.array([1, 1, 2, 2, 3])
    late_t = np.array([6, 7, 7, 8, 8])
    ones = np.ones(5, dtype=int)
    result = stats.logrank(early_t, ones, late_t, ones)
    assert result.p_value < 0.01


def test_logrank_degenerate_inputs():
    with pytest.raises(UndefinedTestError):
        stats.logrank(np.array([1, 2]), np.array([0, 0]), np.array([1]), np.array([0]))
    with pytest.raises(DegenerateGroupsError):
        stats.logrank(np.array([], dtype=int), np.array([], dtype=int),
                      np.array([1]), np.array([1]))


def test_logrank_hand_tabulated_separated_groups():
    # A events at 1 and 2, B events at 3 and 4, nobody censored
    # t=1: n=4, n1=2, d=1 -> E=0.5, V=(2/4)(2/4)(3/3)=0.25
    # t=2: n=3, n1=1, d=1 -> E=1/3, V=(1/3)(2/3)(2/2)=2/9
    # t=3: n=2, n1=0, d=1 -> E=0,   V=0
    # t=4: n=1 -> no variance contribution
    result = stats.logrank(np.array([1, 2]), np.array([1, 1]),
                           np.array([3, 4]), np.array([1, 1]))
    ome = (1 - 0.5) + (1 - 1 / 3) + (0 - 0.0) + 0.0
    var = 0.25 + 2 / 9
    assert result.statistic == pytest.approx(ome ** 2 / var, rel=1e-12)


def permutation_p_value(ta, ea, tb, eb, n_draws, seed):
    observed = stats.logrank(ta, ea, tb, eb).statistic
    pooled_t = np.concatenate([ta, tb])
    pooled_e = np.concatenate([ea, eb])
    rng = np.random.default_rng(seed)
    na = ta.size
    hits = 0
    for _ in range(n_draws):
        perm = rng.permutation(pooled_t.size)
        pa, pb = perm[:na], perm[na:]
        try:
            stat = stats.logrank(pooled_t[pa], pooled_e[pa], pooled_t[pb], pooled_e[pb]).statistic
        except UndefinedTestError:
            stat = 0.0
        if stat >= observed - 1e-12:
            hits += 1
    return hits / n_draws


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_logrank_p_close_to_permutation_test(seed):
    rng = np.random.default_rng((61, seed))
    ta = rng.integers(1, 9, size=10)
    tb = rng.integers(2, 11, size=10)
    ea = (rng.random(10) < 0.8).astype(int)
    eb = (rng.random(10) < 0.8).astype(int)
    ea[0] = eb[0] = 1
    analytic = stats.logrank(ta, ea, tb, eb).p_value
    empirical = permutation_p_value(ta, ea, tb, eb, n_draws=2000, seed=seed)
    assert abs(analytic - empirical) <= 0.05


# ---------------------------------------------------------------------------
# stratification


def test_stratify_median_split():
    groups = stats.stratify([0.2, 0.5, 0.8])
    assert groups.low.tolist() == [0, 1]
    assert groups.high.tolist() == [2]


def test_stratify_even_count():
    groups = stats.stratify([1.0, 2.0, 3.0, 4.0])
    assert groups.low.tolist() == [0, 1]
    assert groups.high.tolist() == [2, 3]


def test_stratify_ties_go_low():
    groups = stats.stratify([1.0, 2.0, 2.0, 3.0])
    assert groups.low.tolist() == [0, 1, 2]
    assert groups.high.tolist() == [3]


def test_stratify_degenerate():
    with pytest.raises(DegenerateGroupsError):
        stats.stratify([0.4, 0.4, 0.4])
    with pytest.raises(DegenerateGroupsError):
        stats.stratify([1.0])
