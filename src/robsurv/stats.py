"""Evaluation statistics for discrete-time competing-risk predictions.

Everything here runs on plain numpy arrays; these routines score model
output and never participate in gradients.  The outcome check and the
comparable-pair rule are also the ones the training losses in
``survival`` apply, so C_td scores the same pairs the ranking loss trains.
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


def check_outcomes(times, events, min_time: int = 1, max_time: int | None = None,
                   max_event: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Times and event codes as equal-length 1-d integer arrays, boolean
    events read as 0/1.  Times must be at least ``min_time`` and event codes
    nonnegative; ``max_time`` and ``max_event`` add upper bounds."""
    times = np.asarray(times)
    events = np.asarray(events)
    if events.dtype == bool:
        events = events.astype(int)
    if times.shape != events.shape or times.ndim != 1:
        raise InvalidOutcomeError(f"times {times.shape} and events {events.shape} "
                                  "must be equal-length 1-d arrays")
    if not np.issubdtype(times.dtype, np.integer) or not np.issubdtype(events.dtype, np.integer):
        raise InvalidOutcomeError("times and events must be integer arrays")
    if times.size and (times.min() < min_time or (max_time is not None and times.max() > max_time)):
        raise InvalidOutcomeError(f"time bins must lie in [{min_time}, {max_time or 'inf'}]")
    if events.size and (events.min() < 0 or (max_event is not None and events.max() > max_event)):
        raise InvalidOutcomeError(f"event codes must lie in [0, {max_event or 'inf'}]")
    return times, events


def comparable(times: np.ndarray, events: np.ndarray, cause: int) -> np.ndarray:
    """The (n, n) mask of pairs (i, j) where i has an event of ``cause``
    strictly before j's observed time, whatever j's outcome."""
    return (events[:, None] == cause) & (times[:, None] < times[None, :])


def concordance(values: np.ndarray, times, events, cause: int = 1) -> float:
    """Time-dependent concordance for one cause.

    A pair is scored when ``comparable``.  It scores 1 when i's own
    incidence curve, read at i's event bin, exceeds j's curve at the same
    bin; an exact tie scores 0.5, so constant predictors land on chance
    level.  Every pair is scored: the comparable mask and the score are
    full n x n arrays.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 3:
        raise InvalidOutcomeError(f"incidence grid must be (B, bins, risks), got {values.shape}")
    times, events = check_outcomes(times, events, max_time=values.shape[1])
    n = times.size
    if values.shape[0] != n:
        raise InvalidOutcomeError(f"{n} outcomes for {values.shape[0]} curves")
    if not (1 <= cause <= values.shape[2]):
        raise ConfigError(f"cause {cause} outside grid with {values.shape[2]} risks")

    pairs = comparable(times, events, cause)
    n_pairs = int(pairs.sum())
    if n_pairs == 0:
        raise UndefinedMetricError(f"no comparable pairs for cause {cause}")

    own = values[np.arange(n), times - 1, cause - 1]           # (n,)
    at_i = values[:, times - 1, cause - 1].T                   # [i, j] = curve_j(t_i)
    score = (own[:, None] > at_i) + 0.5 * (own[:, None] == at_i)
    return float((score * pairs).sum() / n_pairs)


def risk_sets(times: np.ndarray, events: np.ndarray, at: np.ndarray | None = None):
    """Risk sets at the ascending times ``at``, by default the distinct
    event times (any positive code): those times, how many subjects are
    still observed there (time >= t, so a censoring at t stays at risk for
    the events at t) and how many have an event there."""
    died = np.sort(times[events > 0])
    if at is None:
        at = np.unique(died)
    at_risk = times.size - np.searchsorted(np.sort(times), at)
    n_events = np.searchsorted(died, at, side="right") - np.searchsorted(died, at)
    return at, at_risk, n_events


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
    events yields empty arrays (the curve stays at 1).  The product runs
    in time order, as a per-time loop would.
    """
    times, events = check_outcomes(times, events, min_time=0)
    if times.size == 0:
        raise InvalidOutcomeError("empty cohort")
    at, n, d = risk_sets(times, events)
    return SurvCurve(times=at.astype(int), survival=np.cumprod(1.0 - d / n),
                     at_risk=n, n_events=d)


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


def chi2_sf(x: float) -> float:
    """Chi-squared survival function with one degree of freedom."""
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
    ta, ea = check_outcomes(times_a, events_a, min_time=0)
    tb, eb = check_outcomes(times_b, events_b, min_time=0)
    if ta.size == 0 or tb.size == 0:
        raise DegenerateGroupsError("both groups must be nonempty")
    event_times, n, d = risk_sets(np.concatenate([ta, tb]), np.concatenate([ea, eb]))
    if event_times.size == 0:
        raise UndefinedTestError("no events in either group")
    _, n1, d1 = risk_sets(ta, ea, event_times)

    # cumsum adds in event-time order, as a per-time loop does; at n == 1
    # the one subject at risk has the event, so n - d = 0 zeroes the term
    observed_minus_expected = np.cumsum(d1 - d * n1 / n)[-1]
    variance = np.cumsum(d * (n1 / n) * (1.0 - n1 / n) * (n - d) / np.maximum(n - 1, 1))[-1]
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
