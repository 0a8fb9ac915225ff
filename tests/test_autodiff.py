import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradcheck import check_gradients
from robsurv import autodiff as ad
from robsurv.errors import ContractError, DomainError, NumericsError, ShapeError


def rng_for(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# construction


def test_init_params_draws_in_table_order():
    specs = {"w": ad.linear_spec(4, 3), "b": ((3,), 0.0, 0.0), "mix": ((), 0.5, 0.5),
             "v": ((2, 5), -0.1, 0.1)}
    params = ad.init_params(specs, rng_for(7))
    assert list(params) == ["w", "b", "mix", "v"]
    assert all(t.requires_grad and t.data.dtype == np.float64 for t in params.values())
    assert params["w"].shape == (4, 3) and np.all(np.abs(params["w"].data) <= 0.5)
    assert np.array_equal(params["b"].data, np.zeros(3))
    assert params["mix"].shape == () and params["mix"].item() == 0.5
    # constants take no draws: the uniform entries consume the stream back to back
    rng = rng_for(7)
    assert np.array_equal(params["w"].data, rng.uniform(-0.5, 0.5, size=(4, 3)))
    assert np.array_equal(params["v"].data, rng.uniform(-0.1, 0.1, size=(2, 5)))


# ---------------------------------------------------------------------------
# forward values


def test_matmul_identity():
    m = ad.Tensor(np.arange(9.0).reshape(3, 3))
    eye = ad.Tensor(np.eye(3))
    assert np.array_equal(ad.linear(m, eye).data, m.data)
    assert np.array_equal(ad.linear(m, eye, ad.Tensor([1.0, 2.0, 3.0])).data, m.data + [1.0, 2.0, 3.0])


def test_sigmoid_at_zero():
    assert ad.sigmoid(ad.Tensor(0.0)).item() == 0.5


def test_l2norm_full_reduction():
    # a whole-tensor norm is the one-axis norm of a 1-D tensor
    assert ad.l2norm(ad.Tensor([3.0, 4.0]), axis=0).item() == 5.0


def _softmax_of(scores):
    """softmax(scores) computed by ``ad.attention``: one query against keys
    ``sqrt(n) * I`` gives the scores back, and values ``I`` read out the weights."""
    n = len(scores)
    query = ad.Tensor(np.reshape(scores, (1, 1, n)))
    keys = ad.Tensor(np.sqrt(n) * np.eye(n)[None])
    return ad.attention(query, keys, ad.Tensor(np.eye(n)[None]), 1).data.reshape(n)


def test_softmax_values():
    assert np.allclose(_softmax_of([0.0, 0.0]), [0.5, 0.5], atol=1e-15)
    big = _softmax_of([1000.0, 0.0])
    assert np.allclose(big, [1.0, 0.0])
    assert np.all(np.isfinite(big))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=6), st.floats(-5, 5))
def test_softmax_shift_invariance_and_sum(values, shift):
    base = _softmax_of(values)
    shifted = _softmax_of(np.asarray(values) + shift)
    assert abs(base.sum() - 1.0) <= 1e-12
    assert np.all(np.abs(base - shifted) <= 1e-12)
    ad.reset_graph()


def test_exp_overflow_raises():
    with pytest.raises(NumericsError):
        ad.exp(ad.Tensor(1e4))


def test_log_domain():
    with pytest.raises(DomainError):
        ad.log(ad.Tensor([1.0, -1.0]))


def test_cumprod_domain():
    with pytest.raises(DomainError):
        ad.cumprod(ad.Tensor([[1.0, 0.0, 2.0]]), axis=1)
    with pytest.raises(DomainError):
        ad.cumprod(ad.Tensor([0.5, -1.0]), axis=0)


def test_accumulations_match_sequential_loop():
    x = rng_for(12).uniform(0.1, 0.9, size=(2, 6, 3))
    run_sum, run_prod = x[:, 0], x[:, 0]
    sums, prods = [run_sum], [run_prod]
    for j in range(1, 6):
        run_sum, run_prod = run_sum + x[:, j], run_prod * x[:, j]
        sums.append(run_sum)
        prods.append(run_prod)
    assert np.array_equal(ad.cumsum(ad.Tensor(x), 1).data, np.stack(sums, axis=1))
    assert np.array_equal(ad.cumprod(ad.Tensor(x), 1).data, np.stack(prods, axis=1))


def test_non_scalar_backward_rejected():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    y = x * 2.0
    with pytest.raises(ContractError):
        ad.backward(y)
    ad.reset_graph()


# ---------------------------------------------------------------------------
# broadcasting rules


def test_broadcast_bias_and_gate():
    x = ad.Tensor(rng_for(0).normal(size=(2, 3, 4)), requires_grad=True)
    bias = ad.Tensor(rng_for(1).normal(size=(4,)), requires_grad=True)
    gate = ad.Tensor(rng_for(2).normal(size=(2, 3, 1)), requires_grad=True)
    out = ((x + bias) * gate).sum()
    ad.backward(out)
    assert x.grad.shape == x.shape
    assert bias.grad.shape == bias.shape
    assert gate.grad.shape == gate.shape
    ad.reset_graph()


def test_interior_broadcast_rejected():
    a = ad.Tensor(np.zeros((2, 3, 4)))
    b = ad.Tensor(np.zeros((1, 3, 1)))
    with pytest.raises(ShapeError):
        ad.add(a, b)


def test_mismatched_shapes_rejected():
    with pytest.raises(ShapeError):
        ad.add(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 4))))
    with pytest.raises(ShapeError):
        ad.linear(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((4, 2))))
    with pytest.raises(ShapeError):
        ad.linear(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((3, 2))), ad.Tensor(np.zeros((1, 2))))
    with pytest.raises(ShapeError):
        ad.linear(ad.Tensor(np.zeros((2, 3, 4))), ad.Tensor(np.zeros((2, 4, 2))))
    with pytest.raises(ShapeError):
        ad.rearrange(ad.Tensor(np.zeros((2, 6))), (2, 3, 2), (0, 1), (2, 6))
    with pytest.raises(ShapeError):
        ad.rearrange(ad.Tensor(np.zeros((2, 6))), (2, 3, 2), (0, 2, 1), (5, 2))


def test_rearrange_is_the_three_step_chain():
    x = ad.Tensor(rng_for(8).normal(size=(4, 2, 6)))
    xt = ad.transpose(x, (1, 0, 2))
    assert not xt.data.flags.c_contiguous
    got = ad.rearrange(xt, (2, 4, 3, 2), (0, 2, 3, 1), (2, 3, 8))
    assert np.array_equal(got.data, xt.data.reshape(2, 4, 3, 2).transpose(0, 2, 3, 1).reshape(2, 3, 8))


# ---------------------------------------------------------------------------
# backward semantics


def test_sum_gradient_is_ones():
    x = ad.Tensor(rng_for(3).normal(size=(3, 2)), requires_grad=True)
    ad.backward(x.sum())
    assert np.array_equal(x.grad, np.ones((3, 2)))
    ad.reset_graph()


def test_quadratic_gradient():
    x = ad.Tensor(rng_for(4).normal(size=(5,)), requires_grad=True)
    ad.backward((x * x).sum())
    assert np.allclose(x.grad, 2.0 * x.data, atol=1e-14)
    ad.reset_graph()


def test_backward_twice_identical():
    x = ad.Tensor(rng_for(5).normal(size=(4,)), requires_grad=True)
    loss = (ad.sigmoid(x) * x).mean()
    ad.backward(loss)
    first = x.grad.copy()
    ad.backward(loss)
    assert np.array_equal(first, x.grad)
    ad.reset_graph()


def test_non_finite_adjoint_mid_graph_raises():
    # d(a/b)/db = -a/b**2 overflows at the intermediate b although every
    # forward value is finite; only the leaf x is checked, and must catch it
    # without numpy printing a warning first
    x = ad.Tensor([1e-200, 1.0], requires_grad=True)
    b = x * 1.0
    loss = (ad.Tensor([1e-300, 1.0]) / b).sum()
    assert np.isfinite(loss.item())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericsError):
            ad.backward(loss)
    assert caught == []
    ad.reset_graph()


def test_detach_transparent_but_blocking():
    x = ad.Tensor([1.0, -2.0, 3.0], requires_grad=True)
    y = x.detach()
    assert np.array_equal(y.data, x.data)
    assert not y.requires_grad
    ad.backward(y.sum() + ad.Tensor(0.0, requires_grad=True))
    assert x.grad is None  # nothing flows through a detached value
    ad.reset_graph()

    # sum(detach(x) * x) differentiates like a linear map with frozen weights
    loss = (x.detach() * x).sum()
    ad.backward(loss)
    assert np.allclose(x.grad, x.data, atol=0)
    ad.reset_graph()


def test_straight_through_values_and_grad():
    flow = ad.Tensor([1.0, 2.0], requires_grad=True)
    values = ad.Tensor([10.0, 20.0], requires_grad=True)
    st_out = ad.straight_through(flow, values)
    assert np.array_equal(st_out.data, values.data)
    ad.backward(st_out.sum())
    assert np.array_equal(flow.grad, np.ones(2))
    assert values.grad is None
    ad.reset_graph()


def test_no_grad_records_nothing():
    before = len(ad.active_graph())
    with ad.no_grad():
        x = ad.Tensor([1.0], requires_grad=True)
        y = ad.sigmoid(x * 3.0)
    assert len(ad.active_graph()) == before
    assert not y.requires_grad


def test_tape_order_is_execution_order():
    ad.reset_graph()
    a = ad.Tensor([1.0], requires_grad=True)
    b = a * 2.0
    c = b + 1.0
    assert [r[0] for r in ad.active_graph()] == [b, c]
    ad.reset_graph()


# ---------------------------------------------------------------------------
# finite-difference checks, every differentiable primitive, 10 seeds each

PRIMITIVE_CASES = {
    "add": lambda r: _binary_case(r, ad.add),
    "add_broadcast": lambda r: _bias_case(r, ad.add),
    "sub": lambda r: _binary_case(r, ad.sub),
    "mul": lambda r: _binary_case(r, ad.mul),
    "mul_gate": lambda r: _gate_case(r),
    "div": lambda r: _div_case(r),
    # a bias-free linear is a plain matmul
    "matmul": lambda r: _linear_case(r, (3, 4), bias=False),
    "matmul_batched": lambda r: _linear_case(r, (2, 3, 4), bias=False),
    "linear": lambda r: _linear_case(r, (3, 4), bias=True),
    "linear_batched": lambda r: _linear_case(r, (2, 3, 4), bias=True),
    "attention": lambda r: _attention_case(r, 1),
    "attention_heads2": lambda r: _attention_case(r, 2),
    "softmax": lambda r: _softmax_case(r),
    "exp": lambda r: _unary_case(r, ad.exp, scale=0.5),
    "log": lambda r: _log_case(r),
    "sigmoid": lambda r: _unary_case(r, ad.sigmoid),
    "relu": lambda r: _unary_case(r, ad.relu),
    "sum_all": lambda r: _reduce_case(r, lambda x: x.sum()),
    "sum_axis": lambda r: _reduce_case(r, lambda x: (x.sum(axis=1) * x.sum(axis=1)).sum()),
    "mean_axis": lambda r: _reduce_case(r, lambda x: (x.mean(axis=0) * x.mean(axis=0)).sum()),
    "max_axis": lambda r: _reduce_case(r, lambda x: (x.max(axis=1) * x.max(axis=1)).sum()),
    "max_all": lambda r: _reduce_case(r, lambda x: _flat(x).max(axis=0) * _flat(x).max(axis=0)),
    "l2norm_full": lambda r: _reduce_case(r, lambda x: ad.l2norm(_flat(x), axis=0)),
    "l2norm_axis": lambda r: _reduce_case(r, lambda x: ad.l2norm(x, axis=1).sum()),
    "concat": lambda r: _concat_case(r),
    "reshape_transpose": lambda r: _reshape_case(r),
    "rearrange": lambda r: _rearrange_case(r, transposed=False),
    "rearrange_noncontiguous": lambda r: _rearrange_case(r, transposed=True),
    "slice": lambda r: _slice_case(r),
    "take_rows": lambda r: _take_case(r),
    "cumsum_axis0": lambda r: _accumulate_case(r, ad.cumsum, 0),
    "cumsum_axis1": lambda r: _accumulate_case(r, ad.cumsum, 1),
    "cumsum_axis-1": lambda r: _accumulate_case(r, ad.cumsum, -1),
    "cumprod_axis0": lambda r: _accumulate_case(r, ad.cumprod, 0),
    "cumprod_axis1": lambda r: _accumulate_case(r, ad.cumprod, 1),
    "cumprod_axis-1": lambda r: _accumulate_case(r, ad.cumprod, -1),
}


def _flat(x):
    return ad.reshape(x, (-1,))


def _leaf(r, shape, scale=1.0):
    return ad.Tensor(scale * r.normal(size=shape), requires_grad=True)


def _binary_case(r, op):
    a, b = _leaf(r, (3, 4)), _leaf(r, (3, 4))
    return (lambda: (op(a, b) * op(a, b)).sum()), [a, b]


def _bias_case(r, op):
    a, b = _leaf(r, (2, 3, 4)), _leaf(r, (4,))
    return (lambda: (op(a, b) * op(a, b)).mean()), [a, b]


def _gate_case(r):
    a, g = _leaf(r, (2, 3, 4)), _leaf(r, (2, 3, 1))
    return (lambda: (a * g).sum()), [a, g]


def _div_case(r):
    a = _leaf(r, (3, 3))
    b = ad.Tensor(r.uniform(0.5, 2.0, size=(3, 3)), requires_grad=True)
    return (lambda: (a / b).sum()), [a, b]


def _linear_case(r, x_shape, bias):
    x, w = _leaf(r, x_shape), _leaf(r, (4, 2))
    leaves = [x, w] + ([_leaf(r, (2,))] if bias else [])
    return (lambda: (ad.linear(*leaves) * ad.linear(*leaves)).sum()), leaves


def _attention_case(r, n_heads):
    # fewer queries than keys, so a transposed operand cannot pass unnoticed
    q, k, v = _leaf(r, (2, 3, 4)), _leaf(r, (2, 5, 4)), _leaf(r, (2, 5, 4))
    w = ad.Tensor(r.normal(size=(2, 3, 4)))
    return (lambda: (ad.attention(q, k, v, n_heads) * w).sum()), [q, k, v]


def _unary_case(r, op, scale=1.0):
    x = _leaf(r, (3, 4), scale)
    return (lambda: (op(x) * op(x)).mean()), [x]


def _log_case(r):
    x = ad.Tensor(r.uniform(0.2, 3.0, size=(3, 4)), requires_grad=True)
    return (lambda: ad.log(x).sum()), [x]


def _reduce_case(r, fn):
    x = _leaf(r, (3, 4))
    return (lambda: fn(x)), [x]


def _softmax_case(r):
    # values I make the attention output its softmax weights (see _softmax_of)
    q, k = _leaf(r, (2, 3, 5)), _leaf(r, (2, 5, 5))
    eye = ad.Tensor(np.tile(np.eye(5), (2, 1, 1)))
    w = ad.Tensor(r.normal(size=(2, 3, 5)))
    return (lambda: (ad.attention(q, k, eye, 1) * w).sum()), [q, k]


def _concat_case(r):
    a, b = _leaf(r, (2, 3)), _leaf(r, (2, 2))
    def build():
        c = ad.concat([a, b], axis=1)
        return (c * c).sum()
    return build, [a, b]


def _reshape_case(r):
    x = _leaf(r, (2, 6))
    def build():
        y = x.reshape((2, 3, 2)).transpose((1, 0, 2))
        return (y * y).sum()
    return build, [x]


def _rearrange_case(r, transposed):
    # a weighted sum, unlike a sum of squares, tells every output position apart
    x = _leaf(r, (4, 2, 6) if transposed else (2, 4, 6))
    w = ad.Tensor(r.normal(size=(2, 3, 8)))
    def build():
        src = ad.transpose(x, (1, 0, 2)) if transposed else x
        return (ad.rearrange(src, (2, 4, 3, 2), (0, 2, 3, 1), (2, 3, 8)) * w).sum()
    return build, [x]


def _slice_case(r):
    x = _leaf(r, (3, 5))
    def build():
        y = ad.slice_along(x, 1, 1, 4)
        return (y * y).sum()
    return build, [x]


def _take_case(r):
    m = _leaf(r, (5, 3))
    idx = np.array([0, 2, 2, 4, 1])
    def build():
        y = ad.take_rows(m, idx)
        return (y * y).sum()
    return build, [m]


def _accumulate_case(r, op, axis):
    # positive operands keep cumprod inside its domain; a 3-D leaf makes -1 differ from 1
    x = ad.Tensor(r.uniform(0.5, 1.5, size=(3, 4, 2)), requires_grad=True)
    w = ad.Tensor(r.normal(size=(3, 4, 2)))
    return (lambda: (op(x, axis) * w).sum()), [x]


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
@pytest.mark.parametrize("seed", range(10))
def test_primitive_gradients(name, seed):
    build, leaves = PRIMITIVE_CASES[name](np.random.default_rng((hash(name) % 2**32, seed)))
    check_gradients(build, leaves)


# names in ad.__all__ that are not differentiable primitives (constructors and
# graph helpers), or whose declared Jacobian is deliberately not the derivative
# of their forward map
NOT_FD_CHECKED = {
    "Tensor", "as_tensor", "linear_spec", "init_params",
    "active_graph", "reset_graph", "no_grad", "backward",
    "detach", "straight_through", "clip_passthrough",
}


def test_every_primitive_has_a_gradient_case(monkeypatch):
    """Each differentiable name in ad.__all__ runs inside some PRIMITIVE_CASES
    build, so a new primitive cannot land without a finite-difference check."""
    assert NOT_FD_CHECKED <= set(ad.__all__)
    primitives = set(ad.__all__) - NOT_FD_CHECKED
    called = set()

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    # Tensor methods and operators look the primitives up in the module, so they are spied too
    for name in primitives:
        monkeypatch.setattr(ad, name, spy(name, getattr(ad, name)))
    for case in PRIMITIVE_CASES.values():
        build, _ = case(np.random.default_rng(0))
        build()
    ad.reset_graph()
    assert sorted(primitives - called) == []


# ---------------------------------------------------------------------------
# pulls: exact scatter order, constant operands skipped


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 6), st.integers(1, 4), st.lists(st.integers(0, 4), max_size=12),
       st.integers(0, 2**32 - 1))
def test_take_rows_pull_matches_add_at(rows, width, picks, seed):
    """The scatter adds each row's contributions in index order, bit for bit as
    np.add.at does; the last row is never picked and the first pick repeats."""
    idx = np.array([p % (rows - 1) for p in picks + picks[:1]], dtype=np.intp)
    r = rng_for(seed)
    m = ad.Tensor(r.normal(size=(rows, width)), requires_grad=True)
    ad.reset_graph()
    ad.take_rows(m, idx)
    (_, _, pull), = ad.active_graph()
    # magnitudes far apart make the sum depend on the order of its terms
    g = r.normal(size=(len(idx), width)) * 10.0 ** r.integers(-8, 9, size=(len(idx), width))
    reference = np.zeros((rows, width))
    np.add.at(reference, idx, g)
    (got,) = pull(g)
    assert got.shape == reference.shape and got.tobytes() == reference.tobytes()
    ad.reset_graph()


CONSTANT_OPERAND_CASES = [(op, i) for op in ("add", "sub", "mul", "div") for i in (0, 1)] + [
    ("linear", i) for i in (0, 1, 2)]


@pytest.mark.parametrize("op,constant", CONSTANT_OPERAND_CASES)
def test_constant_operand_gets_no_gradient(op, constant):
    """A pull returns None for an operand without requires_grad, and the other
    operands' gradients are bitwise those of the all-trainable record."""
    r = rng_for(len(op) * 10 + constant)
    if op == "linear":
        arrays = [r.normal(size=(2, 3, 4)), r.normal(size=(4, 2)), r.normal(size=(2,))]
    else:  # a broadcast second operand, so its gradient is also reduced
        arrays = [r.normal(size=(2, 3, 4)), r.uniform(0.5, 2.0, size=(4,))]

    def pulled(trainable):
        ad.reset_graph()
        out = getattr(ad, op)(*(ad.Tensor(a, requires_grad=t) for a, t in zip(arrays, trainable)))
        (_, _, pull), = ad.active_graph()
        grads = pull(rng_for(99).normal(size=out.shape))
        ad.reset_graph()
        return grads

    partial = pulled([i != constant for i in range(len(arrays))])
    full = pulled([True] * len(arrays))
    assert partial[constant] is None
    for i, (got, want) in enumerate(zip(partial, full)):
        if i != constant:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _self_attention(t):
    # one tensor as queries, keys and values: its three adjoints must add up
    t3 = ad.reshape(t, (1,) + t.shape)
    return ad.reshape(ad.attention(t3, t3, t3, 1), t.shape)


@pytest.mark.parametrize("seed", range(10))
def test_random_composite_gradients(seed):
    """Random compositions of up to six primitives, checked against FD."""
    r = np.random.default_rng((77, seed))
    x = ad.Tensor(r.normal(size=(2, 3)), requires_grad=True)
    w = ad.Tensor(r.normal(size=(3, 3)), requires_grad=True)
    ops = [
        lambda t: ad.sigmoid(t),
        lambda t: t + 0.5,
        lambda t: t * t,
        lambda t: ad.relu(t),
        lambda t: _self_attention(t),
        lambda t: ad.linear(t, w),
    ]
    picks = r.integers(0, len(ops), size=int(r.integers(2, 7)))

    def build():
        t = x
        for p in picks:
            t = ops[p](t)
        return t.mean()

    check_gradients(build, [x, w])


# ---------------------------------------------------------------------------
# clip_passthrough


def test_clip_passthrough_values_and_grad():
    x = ad.Tensor([-1.0, 0.5, 2.0], requires_grad=True)
    y = ad.clip_passthrough(x, 0.0, 1.0)
    assert np.array_equal(y.data, [0.0, 0.5, 1.0])
    ad.backward(y.sum())
    assert np.array_equal(x.grad, np.ones(3))
    ad.reset_graph()
