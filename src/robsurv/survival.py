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
from .errors import ConfigError, ShapeError
from .stats import check_outcomes, comparable

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
    both value and derivative.  `keep`, (B, n_bins, 1), is the probability
    of surviving each bin, 1 - total clamped hazard; the clamp keeps it at
    least HAZARD_EPSILON, up to rounding.  Both are built once, here, and
    shared by `cif` and `likelihood_loss`.
    """

    raw: ad.Tensor
    clamped: ad.Tensor = field(init=False, repr=False, compare=False)
    keep: ad.Tensor = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.raw.ndim != 3:
            raise ShapeError(f"hazard grid must be (B, bins, risks), got {self.raw.shape}")
        ceiling = 1.0 - HAZARD_EPSILON
        total = self.raw.data.sum(axis=2, keepdims=True)
        scale = ceiling / np.maximum(total, ceiling)
        self.clamped = ad.straight_through(self.raw, ad.Tensor(self.raw.data * scale))
        self.keep = 1.0 - self.clamped.sum(axis=2, keepdims=True)


def hazard_forward(features, params: dict, n_bins: int, n_risks: int) -> HazardGrid:
    """Two-layer net with a sigmoid output, reshaped to the hazard grid."""
    x = ad.as_tensor(features)
    if x.ndim != 2:
        raise ShapeError(f"features must be (B, d), got {x.shape}")
    hidden = ad.relu(ad.linear(x, params["head_w1"], params["head_b1"]))
    logits = ad.linear(hidden, params["head_w2"], params["head_b2"])
    if logits.shape[1] != n_bins * n_risks:
        raise ShapeError(
            f"head produces {logits.shape[1]} outputs, grid wants {n_bins}x{n_risks}"
        )
    probs = ad.sigmoid(logits)
    return HazardGrid(ad.reshape(probs, (x.shape[0], n_bins, n_risks)))


@dataclass
class CifGrid:
    values: ad.Tensor      # (B, n_bins, n_risks), cumulative incidence
    survival: ad.Tensor    # (B,), probability of reaching past the last bin


def cif(hazards: HazardGrid) -> CifGrid:
    """Cumulative incidence per cause from two running accumulations.

    Survival past bin p is the running product of the per-bin `keep`
    probabilities.  F_k(p) is the running sum of h_k at each bin times the
    survival of all earlier bins.  numpy accumulates in bin order, so the
    values equal those of a bin-by-bin loop to the bit.
    """
    h = hazards.clamped
    b, p, _ = h.shape
    # entry j along axis 1 is the probability of surviving the first j bins
    survival = ad.cumprod(ad.concat([np.ones((b, 1, 1)), hazards.keep], axis=1), axis=1)
    values = ad.cumsum(h * ad.slice_along(survival, 1, 0, p), axis=1)
    last = ad.reshape(ad.slice_along(survival, 1, p, p + 1), (b,))
    return CifGrid(values=values, survival=last)


def likelihood_loss(hazards: HazardGrid, times, events) -> ad.Tensor:
    """Negative log-likelihood of the observed outcomes, averaged over B.

    A subject with event k at bin t contributes log hazard of cause k at
    t; every subject contributes log survival for bins before t.  A
    subject censored at bin 1 therefore contributes nothing.
    """
    h = hazards.clamped
    b, p, k = h.shape
    times, events = check_outcomes(times, events, max_time=p, max_event=k)
    if times.size != b:
        raise ShapeError(f"{times.size} outcomes for a batch of {b}")

    ev_mask = np.zeros((b, p, k))
    rows = np.flatnonzero(events > 0)
    ev_mask[rows, times[rows] - 1, events[rows] - 1] = 1.0
    sv_mask = (np.arange(p) < (times - 1)[:, None]).astype(np.float64)[:, :, None]

    # logs of values clamped into [LOG_FLOOR, 1], the gradient passed through the clamp
    log_h, log_s = (ad.log(ad.straight_through(x, ad.Tensor(np.clip(x.data, LOG_FLOOR, 1.0))))
                    for x in (h, hazards.keep))
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
    times, events = check_outcomes(times, events, max_time=p, max_event=k)
    if times.size != b:
        raise ShapeError(f"{times.size} outcomes for a batch of {b}")
    if sigma <= 0:
        raise ConfigError("sigma must be positive")
    if risk_weights is None:
        risk_weights = [1.0] * k
    if len(risk_weights) != k:
        raise ConfigError(f"{len(risk_weights)} risk weights for {k} causes")

    masks = {cause: comparable(times, events, cause) for cause in range(1, k + 1)}
    total_pairs = sum(int(mask.sum()) for mask in masks.values())
    if total_pairs == 0:
        return ad.Tensor(0.0), 0

    # row (k-1)*P + t-1 of by_bin holds F_k(t | j) for every subject j, and
    # row (i*P + t-1)*K + k-1 of flat holds F_k(t | i)
    by_bin = ad.rearrange(f, f.shape, (2, 1, 0), (k * p, b))
    flat = ad.reshape(f, (b * p * k, 1))
    own_rows = (np.arange(b) * p + times - 1) * k
    weighted = None
    for cause, mask in masks.items():
        if not mask.any():
            continue
        other = ad.take_rows(by_bin, (cause - 1) * p + times - 1)  # [i,j] = F_k(t_i | j)
        own = ad.take_rows(flat, own_rows + cause - 1)             # [i,0] = F_k(t_i | i)
        eta = ad.exp((other - own) * (1.0 / sigma))
        term = (eta * ad.Tensor(mask.astype(float))).sum() * float(risk_weights[cause - 1])
        weighted = term if weighted is None else weighted + term
    return weighted * (1.0 / total_pairs), total_pairs
