"""Evaluation statistics for discrete-time competing-risk predictions.

Everything here runs on plain numpy arrays; these routines score model
output and never participate in gradients.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateGroupsError,
    DomainError,
    InvalidOutcomeError,
    UndefinedMetricError,
    UndefinedTestError,
)
from .fileio import atomic_text


def _check_outcomes(times, events, min_time: int = 1) -> tuple[np.ndarray, np.ndarray]:
    times = np.asarray(times)
    events = np.asarray(events)
    if events.dtype == bool:
        events = events.astype(int)
    if times.shape != events.shape or times.ndim != 1:
        raise InvalidOutcomeError("times and events must be equal-length 1-d arrays")
    if not np.issubdtype(times.dtype, np.integer) or not np.issubdtype(events.dtype, np.integer):
        raise InvalidOutcomeError("times and events must be integer arrays")
    if times.size and times.min() < min_time:
        raise InvalidOutcomeError(f"times must be >= {min_time}")
    if events.size and events.min() < 0:
        raise InvalidOutcomeError("event codes are nonnegative")
    return times, events


def concordance(values: np.ndarray, times, events, cause: int = 1) -> float:
    """Time-dependent concordance for one cause.

    A pair (i, j) is comparable when i has an event of the given cause
    strictly before j's observed time.  The pair scores 1 when i's own
    incidence curve, read at i's event bin, exceeds j's curve at the same
    bin; an exact tie scores 0.5, so constant predictors land on chance
    level.  Every pair is scored: the comparable mask and the score are
    full n x n arrays.
    """
    values = np.asarray(values, dtype=float)
    times, events = _check_outcomes(times, events)
    if values.ndim != 3:
        raise InvalidOutcomeError(f"incidence grid must be (B, bins, risks), got {values.shape}")
    n = times.size
    if values.shape[0] != n:
        raise InvalidOutcomeError(f"{n} outcomes for {values.shape[0]} curves")
    if not (1 <= cause <= values.shape[2]):
        raise ConfigError(f"cause {cause} outside grid with {values.shape[2]} risks")
    if times.size and times.max() > values.shape[1]:
        raise InvalidOutcomeError("time bin beyond the incidence grid")

    comparable = (events[:, None] == cause) & (times[:, None] < times[None, :])
    n_pairs = int(comparable.sum())
    if n_pairs == 0:
        raise UndefinedMetricError(f"no comparable pairs for cause {cause}")

    own = values[np.arange(n), times - 1, cause - 1]           # (n,)
    at_i = values[:, times - 1, cause - 1].T                   # [i, j] = curve_j(t_i)
    score = (own[:, None] > at_i) + 0.5 * (own[:, None] == at_i)
    return float((score * comparable).sum() / n_pairs)


@dataclass(frozen=True)
class SurvCurve:
    times: np.ndarray      # distinct event times, ascending
    survival: np.ndarray   # product-limit estimate just after each
    at_risk: np.ndarray
    n_events: np.ndarray


def km_curve(times, events) -> SurvCurve:
    """Product-limit overall survival; any positive event code counts.

    Subjects censored at t stay in the risk set for events at t and leave
    afterwards, so tied events are processed before tied censorings.  The
    curve carries one point per distinct event time; a cohort with no
    events yields empty arrays (the curve stays at 1).
    """
    times, events = _check_outcomes(times, events, min_time=0)
    if times.size == 0:
        raise InvalidOutcomeError("empty cohort")
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
    return SurvCurve(
        times=np.asarray(out_t, dtype=int),
        survival=np.asarray(out_s, dtype=float),
        at_risk=np.asarray(out_n, dtype=int),
        n_events=np.asarray(out_d, dtype=int),
    )


def write_km_csv(path, curves: dict) -> None:
    """Write one or more named curves as time,survival,at_risk,events,group rows.

    The rows are built in memory and written atomically, so a failure
    leaves any previous file in place.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["time", "survival", "at_risk", "events", "group"])
    for group, curve in curves.items():
        for row in zip(curve.times, curve.survival, curve.at_risk, curve.n_events):
            writer.writerow([int(row[0]), repr(float(row[1])), int(row[2]), int(row[3]), group])
    atomic_text(path, buffer.getvalue())


def chi2_sf(x: float, dof: int = 1) -> float:
    """Chi-squared survival function; only one degree of freedom supported."""
    if dof != 1:
        raise ConfigError("only dof=1 is implemented")
    if x < 0:
        raise DomainError("chi-squared statistic must be nonnegative")
    return math.erfc(math.sqrt(x / 2.0))


@dataclass(frozen=True)
class LogRankResult:
    statistic: float
    p_value: float


def logrank(times_a, events_a, times_b, events_b) -> LogRankResult:
    """Two-group log-rank test on discrete event times.

    Uses the hypergeometric variance at each distinct event time; times
    where only one subject remains contribute no variance.  Raises when
    the pooled cohort has no events or the variance degenerates to zero.
    """
    ta, ea = _check_outcomes(times_a, events_a, min_time=0)
    tb, eb = _check_outcomes(times_b, events_b, min_time=0)
    if ta.size == 0 or tb.size == 0:
        raise DegenerateGroupsError("both groups must be nonempty")
    pooled_t = np.concatenate([ta, tb])
    pooled_e = np.concatenate([ea, eb])
    event_times = np.unique(pooled_t[pooled_e > 0])
    if event_times.size == 0:
        raise UndefinedTestError("no events in either group")

    observed_minus_expected = 0.0
    variance = 0.0
    for t in event_times:
        n = int((pooled_t >= t).sum())
        n1 = int((ta >= t).sum())
        d = int(((pooled_t == t) & (pooled_e > 0)).sum())
        d1 = int(((ta == t) & (ea > 0)).sum())
        observed_minus_expected += d1 - d * n1 / n
        if n > 1:
            variance += d * (n1 / n) * (1.0 - n1 / n) * (n - d) / (n - 1)
    if variance == 0.0:
        raise UndefinedTestError("log-rank variance is zero")
    stat = observed_minus_expected ** 2 / variance
    return LogRankResult(statistic=float(stat), p_value=chi2_sf(stat))


@dataclass(frozen=True)
class StratifiedGroups:
    low: np.ndarray        # indices, ascending
    high: np.ndarray


def stratify(scores) -> StratifiedGroups:
    """Median split of risk scores; scores at the median go low."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1 or scores.size < 2:
        raise DegenerateGroupsError("need at least two scores to stratify")
    threshold = float(np.median(scores))
    low = np.flatnonzero(scores <= threshold)
    high = np.flatnonzero(scores > threshold)
    if low.size == 0 or high.size == 0:
        raise DegenerateGroupsError("median split produced an empty group")
    return StratifiedGroups(low=low, high=high)
