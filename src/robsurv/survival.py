"""Discrete-time competing-risk survival head.

The fused feature vector maps to a grid of per-bin, per-cause hazards.
Everything downstream (cumulative incidence, likelihood, ranking) runs on
a clamped copy of that grid whose per-bin total cause hazard is kept just
below one, so the survival products stay positive and incidence plus
residual survival telescopes to exactly one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, InvalidOutcomeError, ShapeError

HAZARD_EPSILON = 1e-6
LOG_FLOOR = 1e-12


def param_specs(d_in: int, n_bins: int, n_risks: int, hidden: int) -> dict[str, tuple]:
    """Hazard-head parameter table, in draw order: uniform weights, zero biases."""
    if min(d_in, n_bins, n_risks, hidden) < 1:
        raise ConfigError("head dimensions must all be positive")
    return {
        "head_w1": ad.linear_spec(d_in, hidden),
        "head_b1": ((hidden,), 0.0, 0.0),
        "head_w2": ad.linear_spec(hidden, n_bins * n_risks),
        "head_b2": ((n_bins * n_risks,), 0.0, 0.0),
    }


@dataclass
class HazardGrid:
    """Per-bin, per-cause hazards, (B, n_bins, n_risks), each in (0, 1).

    `clamped` rescales every bin whose total cause hazard exceeds
    1 - HAZARD_EPSILON back onto that ceiling.  The rescale factor is a
    constant computed from current values, and the clamp passes gradients
    through unchanged, so bins already under the ceiling are untouched in
    both value and derivative.
    """

    raw: ad.Tensor
    _clamped: ad.Tensor | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.raw.ndim != 3:
            raise ShapeError(f"hazard grid must be (B, bins, risks), got {self.raw.shape}")

    @property
    def n_bins(self) -> int:
        return self.raw.shape[1]

    @property
    def n_risks(self) -> int:
        return self.raw.shape[2]

    @property
    def clamped(self) -> ad.Tensor:
        if self._clamped is None:
            ceiling = 1.0 - HAZARD_EPSILON
            total = self.raw.data.sum(axis=2, keepdims=True)
            scale = ceiling / np.maximum(total, ceiling)
            self._clamped = ad.straight_through(self.raw, ad.Tensor(self.raw.data * scale))
        return self._clamped


def hazard_forward(features, params: dict, n_bins: int, n_risks: int) -> HazardGrid:
    """Two-layer net with a sigmoid output, reshaped to the hazard grid."""
    x = ad.as_tensor(features)
    if x.ndim != 2:
        raise ShapeError(f"features must be (B, d), got {x.shape}")
    hidden = ad.relu(x @ params["head_w1"] + params["head_b1"])
    logits = hidden @ params["head_w2"] + params["head_b2"]
    if logits.shape[1] != n_bins * n_risks:
        raise ShapeError(
            f"head produces {logits.shape[1]} outputs, grid wants {n_bins}x{n_risks}"
        )
    probs = ad.sigmoid(logits)
    return HazardGrid(ad.reshape(probs, (x.shape[0], n_bins, n_risks)))


def validate_outcomes(times, events, n_bins: int, n_risks: int) -> tuple[np.ndarray, np.ndarray]:
    times = np.asarray(times)
    events = np.asarray(events)
    if times.shape != events.shape or times.ndim != 1:
        raise InvalidOutcomeError(f"times {times.shape} and events {events.shape} must be equal 1-d")
    if not np.issubdtype(times.dtype, np.integer) or not np.issubdtype(events.dtype, np.integer):
        raise InvalidOutcomeError("times and events must be integer arrays")
    if times.size and (times.min() < 1 or times.max() > n_bins):
        raise InvalidOutcomeError(f"time bins must lie in [1, {n_bins}]")
    if events.size and (events.min() < 0 or events.max() > n_risks):
        raise InvalidOutcomeError(f"event codes must lie in [0, {n_risks}]")
    return times, events


@dataclass
class CifGrid:
    values: ad.Tensor      # (B, n_bins, n_risks), cumulative incidence
    survival: ad.Tensor    # (B,), probability of reaching past the last bin


def cif(hazards: HazardGrid) -> CifGrid:
    """Cumulative incidence per cause, built bin by bin.

    F_k(p) accumulates hazard at bin p times the probability of having
    survived all earlier bins; the running survival then absorbs the
    current bin's total cause hazard.
    """
    h = hazards.clamped
    b, p, _ = h.shape
    survival = ad.Tensor(np.ones((b, 1, 1)))
    running = None
    rows = []
    for bin_i in range(p):
        h_bin = ad.slice_along(h, 1, bin_i, bin_i + 1)            # (B, 1, K)
        increment = h_bin * survival
        running = increment if running is None else running + increment
        rows.append(running)
        total = ad.reshape(h_bin.sum(axis=2), (b, 1, 1))
        survival = survival * (1.0 - total)
    values = rows[0] if p == 1 else ad.concat(rows, axis=1)
    return CifGrid(values=values, survival=ad.reshape(survival, (b,)))


def likelihood_loss(hazards: HazardGrid, times, events) -> ad.Tensor:
    """Negative log-likelihood of the observed outcomes, averaged over B.

    A subject with event k at bin t contributes log hazard of cause k at
    t; every subject contributes log survival for bins before t.  A
    subject censored at bin 1 therefore contributes nothing.
    """
    h = hazards.clamped
    b, p, k = h.shape
    times, events = validate_outcomes(times, events, p, k)
    if times.size != b:
        raise ShapeError(f"{times.size} outcomes for a batch of {b}")

    ev_mask = np.zeros((b, p, k))
    sv_mask = np.zeros((b, p))
    for i in range(b):
        if events[i] > 0:
            ev_mask[i, times[i] - 1, events[i] - 1] = 1.0
        sv_mask[i, : times[i] - 1] = 1.0

    total = h.sum(axis=2)                                         # (B, P)
    log_h = ad.log(ad.clip_passthrough(h, LOG_FLOOR, 1.0))
    log_s = ad.log(ad.clip_passthrough(1.0 - total, LOG_FLOOR, 1.0))
    joint = (ad.Tensor(ev_mask) * log_h).sum() + (ad.Tensor(sv_mask) * log_s).sum()
    return joint * (-1.0 / b)


def ranking_loss(incidence: CifGrid, times, events, sigma: float,
                 risk_weights=None) -> tuple[ad.Tensor, int]:
    """Pairwise concordance penalty on the incidence grid.

    For each cause k and each comparable pair (i earlier event of cause k,
    j later outcome of any kind), penalize exp((F_k(t_i|j) - F_k(t_i|i)) / sigma).
    Returns the weighted mean over all comparable pairs and the pair count;
    a cohort with no comparable pairs scores exactly zero.
    """
    f = incidence.values
    b, p, k = f.shape
    times, events = validate_outcomes(times, events, p, k)
    if times.size != b:
        raise ShapeError(f"{times.size} outcomes for a batch of {b}")
    if sigma <= 0:
        raise ConfigError("sigma must be positive")
    if risk_weights is None:
        risk_weights = [1.0] * k
    if len(risk_weights) != k:
        raise ConfigError(f"{len(risk_weights)} risk weights for {k} causes")

    onehot = np.zeros((b, p))
    onehot[np.arange(b), times - 1] = 1.0
    oh = ad.Tensor(onehot)
    ones_row = ad.Tensor(np.ones((1, b)))

    total_pairs = 0
    weighted = None
    for cause in range(1, k + 1):
        comparable = (events[:, None] == cause) & (times[:, None] < times[None, :])
        count = int(comparable.sum())
        if count == 0:
            continue
        total_pairs += count
        f_cause = ad.reshape(ad.slice_along(f, 2, cause - 1, cause), (b, p))
        own = (f_cause * oh).sum(axis=1)                          # F_k(t_i | i)
        other = oh @ ad.transpose(f_cause)                        # [i,j] = F_k(t_i | j)
        own_grid = ad.reshape(own, (b, 1)) @ ones_row
        eta = ad.exp((other - own_grid) * (1.0 / sigma))
        term = (eta * ad.Tensor(comparable.astype(float))).sum() * float(risk_weights[cause - 1])
        weighted = term if weighted is None else weighted + term

    if total_pairs == 0:
        return ad.Tensor(0.0), 0
    return weighted * (1.0 / total_pairs), total_pairs
