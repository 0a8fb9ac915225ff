import math

import numpy as np
import pytest

from robsurv import autodiff as ad
from robsurv.errors import ConfigError, ShapeError
from robsurv.optim import Adam, adam_update

# Kingma & Ba defaults, written out independently of robsurv.optim
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

# relative tolerance of the restated update against the textbook formula:
# the two differ only by rounding (8e-14 at most over the 60 steps below)
TEXTBOOK_RTOL = 1e-12


def reference_adam(param, grads, lr):
    """Textbook loop-and-formula Adam (Kingma & Ba, Algorithm 1)."""
    p = param.copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        m = BETA1 * m + (1 - BETA1) * g
        v = BETA2 * v + (1 - BETA2) * g * g
        m_hat = m / (1 - BETA1 ** t)
        v_hat = v / (1 - BETA2 ** t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + EPS)
    return p


def restated_adam(param, grads, lr):
    """The restated recurrence (moments over 1-β, folded bias corrections),
    out of place; the bitwise oracle for ``adam_update``.  Returns p, m, v."""
    p = param.copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        m = BETA1 * m + g
        v = BETA2 * v + g * g
        c = math.sqrt((1 - BETA2) / (1 - BETA2 ** t))
        step = lr * (1 - BETA1) / ((1 - BETA1 ** t) * c)
        p = p - (m / (np.sqrt(v) + EPS / c)) * step
    return p, m, v


def mixed_grads(shape, steps, seed):
    """Gradients spanning 1e-9..1e3 in magnitude with one entry always zero."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-9, 4, size=shape)
    grads = []
    for _ in range(steps):
        g = rng.normal(size=shape) * scale
        g.flat[0] = 0.0
        grads.append(g)
    return grads


def run_adam(start, grads, lr):
    p = ad.Tensor(start, requires_grad=True)
    opt = Adam([p], lr=lr)
    for g in grads:
        p.grad = g.copy()
        opt.step()
    return p.data, opt


def test_matches_reference_over_steps():
    rng = np.random.default_rng(11)
    start = rng.normal(size=(6, 5))
    grads = mixed_grads(start.shape, 60, seed=11)
    got, opt = run_adam(start, grads, 1e-2)

    p, m, v = restated_adam(start, grads, 1e-2)
    assert np.array_equal(got, p)
    assert np.array_equal(opt.m[0], m) and np.array_equal(opt.v[0], v)

    # same update as the textbook formula up to rounding; the zero entry never moves
    expected = reference_adam(start, grads, 1e-2)
    np.testing.assert_allclose(got - start, expected - start, rtol=TEXTBOOK_RTOL, atol=0)
    assert got[0, 0] == start[0, 0]


def test_mixed_sizes_and_skipped_grad_bitwise():
    rng = np.random.default_rng(12)
    big_start, small_start = rng.normal(size=(5, 7)), rng.normal(size=(3,))
    grads = [rng.normal(size=(5, 7)) for _ in range(4)]
    big = ad.Tensor(big_start, requires_grad=True)
    small = ad.Tensor(small_start, requires_grad=True)
    opt = Adam([small, big], lr=3e-3)
    for g in grads:
        big.grad, small.grad = g.copy(), None
        opt.step()
    p, m, v = restated_adam(big_start, grads, 3e-3)
    assert np.array_equal(big.data, p)
    assert np.array_equal(opt.m[1], m) and np.array_equal(opt.v[1], v)
    assert np.array_equal(small.data, small_start)
    assert not opt.m[0].any() and not opt.v[0].any()


def test_zero_grad_leaves_params_unchanged():
    p = ad.Tensor([1.0, -2.0], requires_grad=True)
    opt = Adam([p], lr=0.1)
    p.grad = np.zeros(2)
    opt.step()
    assert np.array_equal(p.data, [1.0, -2.0])


def test_none_grad_skipped():
    p = ad.Tensor([3.0], requires_grad=True)
    opt = Adam([p], lr=1e-4)
    p.grad = None
    opt.step()
    assert np.array_equal(p.data, [3.0])
    assert not opt.m[0].any()


def test_first_step_is_signlike():
    p = ad.Tensor([0.0, 0.0], requires_grad=True)
    opt = Adam([p], lr=1e-3)
    p.grad = np.array([4.0, -0.25])
    opt.step()
    assert np.allclose(p.data, [-1e-3, 1e-3], rtol=1e-6)


def test_deterministic():
    def run():
        p = ad.Tensor(np.linspace(-1, 1, 6).reshape(2, 3), requires_grad=True)
        opt = Adam([p], lr=5e-3)
        for k in range(7):
            p.grad = np.sin(p.data + k)
            opt.step()
        return p.data

    assert np.array_equal(run(), run())


def test_shape_mismatch_rejected():
    p = np.zeros((2, 2))
    with pytest.raises(ShapeError):
        adam_update(p, np.zeros(3), np.zeros((2, 2)), np.zeros((2, 2)), 1, 1e-4,
                    (np.empty(4), np.empty(4)))


def test_bad_config_rejected():
    p = ad.Tensor([1.0], requires_grad=True)
    for lr in (0.0, -1e-3, float("nan")):
        with pytest.raises(ConfigError):
            Adam([p], lr=lr)
