"""Central finite-difference oracle used by the gradient tests.

``check_gradients`` rebuilds the loss graph from the current leaf values on
every probe, so the analytic tape and the numeric quotient never share
state.  The straight-through style primitives (detach, straight_through)
declare Jacobians that intentionally differ from their forward maps;
callers must keep those off the probed paths.
"""

from __future__ import annotations

import numpy as np

from robsurv import autodiff as ad

STEP = 1e-5
RTOL = 1e-4
FLOOR = 1e-8


def analytic_gradients(build, leaves):
    ad.reset_graph()
    loss = build()
    ad.backward(loss)
    grads = [np.zeros_like(l.data) if l.grad is None else l.grad.copy() for l in leaves]
    ad.reset_graph()
    return grads


def check_gradients(build, leaves, *, step=STEP, rtol=RTOL, floor=FLOOR,
                    samples=None, rng=None) -> int:
    """Assert analytic grads match central differences on every probed entry.

    ``build`` must return a scalar Tensor computed from the live ``leaves``.
    With ``samples`` set, at most that many coordinates per leaf are probed
    (chosen by ``rng``); otherwise every coordinate is.  Returns the number
    of coordinates checked.
    """
    grads = analytic_gradients(build, leaves)
    checked = 0
    with ad.no_grad():
        for leaf, grad in zip(leaves, grads):
            flat = leaf.data.reshape(-1)
            gflat = grad.reshape(-1)
            n = flat.size
            if samples is not None and n > samples:
                assert rng is not None, "sampling requires an rng"
                coords = rng.choice(n, size=samples, replace=False)
            else:
                coords = range(n)
            for i in coords:
                original = flat[i]
                flat[i] = original + step
                f_plus = build().item()
                flat[i] = original - step
                f_minus = build().item()
                flat[i] = original
                numeric = (f_plus - f_minus) / (2.0 * step)
                analytic = gflat[i]
                tol = max(rtol * max(abs(analytic), abs(numeric)), floor)
                assert abs(analytic - numeric) <= tol, (
                    f"grad mismatch at leaf shape {leaf.shape} flat index {i}: "
                    f"analytic {analytic!r} vs numeric {numeric!r}"
                )
                checked += 1
    ad.reset_graph()
    return checked
