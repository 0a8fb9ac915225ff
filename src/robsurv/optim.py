"""Adam with bias correction, updating tensor buffers in place.

β1, β2 and ε are the defaults of Kingma & Ba (arXiv:1412.6980); only the
learning rate is set per run.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, ShapeError


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def adam_update(param: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
                step_index: int, lr: float,
                scratch: tuple[np.ndarray, np.ndarray]) -> None:
    """One bias-corrected Adam update, in place.  ``step_index`` is 1-based.

    ``scratch`` is a pair of 1-D float64 buffers of at least ``param.size``
    entries, so the update allocates nothing.  The operations run in the
    order of ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g``,
    ``p -= (lr*m_hat) / (sqrt(v_hat) + eps)``, so the result is the same to
    the bit as that out-of-place formula.
    """
    if grad.shape != param.shape or m.shape != param.shape or v.shape != param.shape:
        raise ShapeError(f"adam buffers disagree with param shape {param.shape}")
    a = scratch[0][:param.size].reshape(param.shape)
    b = scratch[1][:param.size].reshape(param.shape)
    np.multiply(grad, 1.0 - BETA1, out=a)
    m *= BETA1
    m += a
    np.multiply(grad, 1.0 - BETA2, out=a)
    a *= grad
    v *= BETA2
    v += a
    np.divide(v, 1.0 - BETA2 ** step_index, out=b)
    np.sqrt(b, out=b)
    b += EPS
    np.divide(m, 1.0 - BETA1 ** step_index, out=a)
    a *= lr
    a /= b
    param -= a


class Adam:
    """Holds first/second moment slots aligned with a fixed parameter list.

    Parameters whose ``grad`` is None at step time are skipped entirely,
    which leaves both their values and their moment buffers untouched.
    """

    def __init__(self, params: Sequence[Tensor], lr: float):
        if not lr > 0:  # written so that NaN fails too
            raise ConfigError("lr must be positive")
        self.params = list(params)
        self.lr = lr
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0
        largest = max((p.data.size for p in self.params), default=0)
        self._scratch = (np.empty(largest), np.empty(largest))

    def step(self) -> None:
        self.t += 1
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            adam_update(p.data, p.grad, m, v, self.t, self.lr, self._scratch)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
