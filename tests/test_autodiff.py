"""Engine tests: forward values, backward rules against finite differences,
graph bookkeeping, and the GRU cell."""

import gc

import numpy as np
import pytest

from refnms import autodiff as ad
from refnms.autodiff import GruParams, Node, backward, grad_check, gru_cell, init_gru_params

FD_TOL = 1e-4


def fd_check(build, *input_shapes, seed=0, n_points=20, scale=1.0):
    """Run grad_check on `n_points` random instances; return the worst error."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_points):
        inputs = [Node(scale * rng.normal(size=shape)) for shape in input_shapes]

        def f(inputs=inputs):
            return build(*inputs)

        worst = max(worst, grad_check(f, inputs))
    return worst


# forward values -------------------------------------------------------------


def test_sigmoid_at_zero():
    assert ad.sigmoid(Node(np.zeros(1))).value[0] == pytest.approx(0.5, abs=1e-15)


def test_softmax_of_equal_logits_is_uniform():
    out = ad.softmax(Node(np.full(4, 1.7)), axis=0)
    np.testing.assert_allclose(out.value, 0.25, atol=1e-15)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    x = Node(rng.normal(size=(5, 7)) * 10)
    out = ad.softmax(x, axis=1)
    np.testing.assert_allclose(out.value.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(out.value >= 0.0)


def test_l2_normalize_gives_unit_norm():
    rng = np.random.default_rng(4)
    for _ in range(20):
        v = rng.normal(size=6)
        v *= max(0.1, np.linalg.norm(v)) / np.linalg.norm(v)  # keep norms >= 0.1
        out = ad.l2_normalize(Node(v))
        assert np.linalg.norm(out.value) == pytest.approx(1.0, abs=1e-9)


def test_l2_normalize_of_zero_vector_is_finite():
    out = ad.l2_normalize(Node(np.zeros(3)))
    assert np.all(np.isfinite(out.value))
    np.testing.assert_allclose(out.value, 0.0, atol=1e-6)


def test_clamp_values():
    out = ad.clamp(Node(np.array([-1.0, 0.5, 2.0])), 0.0, 1.0)
    np.testing.assert_allclose(out.value, [0.0, 0.5, 1.0])


def test_shape_mismatch_names_operation_and_shapes():
    with pytest.raises(ValueError, match=r"add.*\(2,\).*\(3,\)"):
        ad.add(Node(np.zeros(2)), Node(np.zeros(3)))
    with pytest.raises(ValueError, match="matmul"):
        ad.matmul(Node(np.zeros((2, 3))), Node(np.zeros((4, 2))))
    with pytest.raises(ValueError, match=r"linear.*\(2, 3\).*\(3, 2\)"):
        ad.linear(Node(np.zeros((2, 3))), Node(np.zeros((3, 2))))
    with pytest.raises(ValueError, match=r"linear: bias \(2,\)"):
        ad.linear(Node(np.zeros((2, 3))), Node(np.zeros((4, 3))), Node(np.zeros(2)))


# backward basics ------------------------------------------------------------


def test_backward_of_sum_gives_ones():
    x = Node(np.array([1.0, -2.0, 3.0]))
    backward(ad.sum(x))
    np.testing.assert_allclose(x.grad, [1.0, 1.0, 1.0])


def test_backward_of_sum_of_squares():
    x = Node(np.array([1.0, 2.0]))
    backward(ad.sum(ad.mul(x, x)))
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


def test_diamond_graph_accumulates():
    x = Node(np.array(3.0))
    backward(ad.add(x, x))
    assert x.grad == pytest.approx(2.0)


def test_backward_rejects_non_scalar_loss():
    x = Node(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="scalar"):
        backward(ad.mul(x, x))


def test_backward_twice_on_same_node_is_an_error():
    x = Node(np.array([1.0, 2.0]))
    loss = ad.sum(x)
    backward(loss)
    with pytest.raises(RuntimeError, match="already"):
        backward(loss)


def test_backward_visits_each_node_exactly_once():
    x = Node(np.array([1.0, 2.0]))
    y = ad.mul(x, x)          # shared subexpression
    z = ad.add(y, y)
    loss = ad.sum(z)
    backward(loss)
    for node in (x, y, z, loss):
        assert node._visits == 1


def graph_through_every_op():
    """A scalar loss whose graph passes through every operation of the engine."""
    rng = np.random.default_rng(8)
    x = Node(rng.normal(size=(3, 4)))
    v = Node(rng.normal(size=4))
    h = ad.matmul(x, v)
    h = ad.add(ad.sub(ad.mul(h, h), h), ad.tanh(h))
    h = gru_cell(h, Node(np.zeros(2)), init_gru_params(3, 2, rng))
    h = ad.l2_normalize(ad.softmax(ad.concat([ad.relu(h), ad.sigmoid(h)])))
    rows = ad.linear(ad.take(ad.stack([h, h]), [0, 1, 1]), Node(np.eye(4)), Node(np.ones(4)))
    s = ad.broadcast_to(ad.reshape(ad.mean(rows), (1,)), (2,))
    return ad.sum(ad.log(ad.clamp(s, 1e-3, 10.0)))


@pytest.mark.parametrize("run_backward", [False, True], ids=["forward_only", "after_backward"])
def test_dropped_graph_is_freed_without_the_cycle_collector(run_backward):
    gc.collect()
    gc.disable()
    try:
        loss = graph_through_every_op()
        if run_backward:
            backward(loss)
        del loss
        assert gc.collect() == 0
    finally:
        gc.enable()


# finite differences per primitive -------------------------------------------


def test_fd_add_sub_mul():
    assert fd_check(lambda a, b: ad.sum(ad.add(a, b)), (4,), (4,)) < FD_TOL
    assert fd_check(lambda a, b: ad.sum(ad.sub(a, b)), (4,), (4,)) < FD_TOL
    assert fd_check(lambda a, b: ad.sum(ad.mul(a, b)), (4,), (4,)) < FD_TOL


def test_fd_matmul_all_rank_combinations():
    assert fd_check(lambda a, b: ad.sum(ad.matmul(a, b)), (3, 4), (4, 2)) < FD_TOL
    assert fd_check(lambda a, b: ad.sum(ad.matmul(a, b)), (3, 4), (4,)) < FD_TOL
    assert fd_check(lambda a, b: ad.sum(ad.matmul(a, b)), (4,), (4, 3)) < FD_TOL
    assert fd_check(lambda a, b: ad.matmul(a, b), (4,), (4,)) < FD_TOL


def test_fd_linear_with_and_without_bias():
    def square(y):
        return ad.sum(ad.mul(y, y))

    assert fd_check(lambda x, w: square(ad.linear(x, w)), (5, 4), (3, 4)) < FD_TOL
    assert fd_check(lambda x, w, b: square(ad.linear(x, w, b)), (5, 4), (3, 4), (3,)) < FD_TOL
    rng = np.random.default_rng(9)
    x, w, b = rng.normal(size=(5, 4)), rng.normal(size=(3, 4)), rng.normal(size=3)
    out = ad.linear(Node(x), Node(w), Node(b))
    np.testing.assert_allclose(out.value, x @ w.T + b, rtol=0.0, atol=1e-15)


def test_fd_concat_stack_reshape_broadcast_take():
    assert fd_check(lambda a, b: ad.sum(ad.mul(c := ad.concat([a, b]), c)), (3,), (2,)) < FD_TOL
    assert (
        fd_check(lambda a, b: ad.sum(ad.mul(s := ad.stack([a, b]), s)), (3,), (3,)) < FD_TOL
    )
    assert fd_check(lambda a: ad.sum(ad.mul(r := ad.reshape(a, (6,)), r)), (2, 3)) < FD_TOL
    assert (
        fd_check(lambda a: ad.sum(ad.mul(b := ad.broadcast_to(a, (4, 3)), b)), (1, 3)) < FD_TOL
    )
    assert fd_check(lambda a: ad.sum(ad.mul(b := ad.broadcast_to(a, (5,)), b)), (1,)) < FD_TOL
    assert (
        fd_check(lambda a: ad.sum(ad.mul(t := ad.take(a, [0, 2, 2, 1]), t)), (4, 3)) < FD_TOL
    )


def test_fd_activations_and_reductions():
    assert fd_check(lambda a: ad.sum(ad.sigmoid(a)), (5,)) < FD_TOL
    assert fd_check(lambda a: ad.sum(ad.tanh(a)), (5,)) < FD_TOL
    assert fd_check(lambda a: ad.sum(ad.mul(r := ad.relu(a), r)), (5,), scale=2.0) < FD_TOL
    assert fd_check(lambda a: ad.mean(ad.mul(a, a)), (5,)) < FD_TOL
    # plain sum of a softmax is constant; weight the entries to get a real gradient
    w5 = ad.constant(np.arange(1.0, 6.0))
    assert fd_check(lambda a: ad.sum(ad.mul(w5, ad.softmax(a, axis=0))), (5,)) < FD_TOL
    assert (
        fd_check(lambda a: ad.sum(ad.mul(s := ad.softmax(a, axis=1), s)), (3, 4)) < FD_TOL
    )


def test_fd_log_clamp_l2norm():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(20):
        x = Node(rng.uniform(0.5, 3.0, size=5))

        def f(x=x):
            return ad.sum(ad.log(x))

        worst = max(worst, grad_check(f, [x]))
    assert worst < FD_TOL
    # clamp gradient away from the boundaries
    assert fd_check(lambda a: ad.sum(ad.clamp(a, -0.5, 0.5)), (5,), scale=0.1) < FD_TOL
    assert fd_check(lambda a: ad.sum(ad.l2_normalize(a)), (5,)) < FD_TOL


def test_fd_sigmoid_derivative_at_zero():
    x = Node(np.zeros(1))
    loss = ad.sum(ad.sigmoid(x))
    backward(loss)
    assert x.grad[0] == pytest.approx(0.25, abs=1e-10)
    step = 1e-5
    numeric = (
        (1 / (1 + np.exp(-step))) - (1 / (1 + np.exp(step)))
    ) / (2 * step)
    assert x.grad[0] == pytest.approx(numeric, rel=1e-4)


# grad_check contract ---------------------------------------------------------


def test_grad_check_linear_function_is_exact():
    rng = np.random.default_rng(21)
    w = rng.normal(size=5)
    x = Node(rng.normal(size=5))

    def f():
        return ad.matmul(ad.constant(w), x)

    assert grad_check(f, [x]) < 1e-9


def test_grad_check_sigmoid_matmul_chain():
    rng = np.random.default_rng(22)
    w = Node(rng.normal(size=(3, 5)))
    x = Node(rng.normal(size=5))

    def f():
        return ad.sum(ad.sigmoid(ad.matmul(w, x)))

    assert grad_check(f, [w, x]) < FD_TOL


def test_grad_check_l2_normalize_then_sum():
    rng = np.random.default_rng(23)
    x = Node(rng.normal(size=6))

    def f():
        return ad.sum(ad.l2_normalize(x))

    assert grad_check(f, [x]) < FD_TOL


# GRU cell --------------------------------------------------------------------


def zero_gru(d_in, d_h):
    z = lambda *shape: Node(np.zeros(shape))
    return GruParams(
        w_z=z(d_h, d_in), u_z=z(d_h, d_h), b_z=z(d_h),
        w_r=z(d_h, d_in), u_r=z(d_h, d_h), b_r=z(d_h),
        w_h=z(d_h, d_in), u_h=z(d_h, d_h), b_h=z(d_h),
    )


def test_gru_zero_params_halves_the_state():
    # zero weights: z = r = 0.5, candidate = 0, so h' = 0.5 * h
    params = zero_gru(3, 4)
    h_prev = Node(np.array([1.0, -2.0, 0.5, 4.0]))
    x = Node(np.ones(3))
    out = gru_cell(x, h_prev, params)
    np.testing.assert_allclose(out.value, 0.5 * h_prev.value, atol=1e-15)


def test_gru_zero_state_and_zero_candidate_weights():
    rng = np.random.default_rng(31)
    params = init_gru_params(3, 4, rng)
    params.w_h = Node(np.zeros((4, 3)))
    params.u_h = Node(np.zeros((4, 4)))
    params.b_h = Node(np.zeros(4))
    out = gru_cell(Node(rng.normal(size=3)), Node(np.zeros(4)), params)
    np.testing.assert_allclose(out.value, 0.0, atol=1e-15)


def test_gru_gradients_match_finite_differences():
    rng = np.random.default_rng(32)
    params = init_gru_params(3, 4, rng)
    x = Node(rng.normal(size=3))
    h = Node(rng.normal(size=4))
    inputs = [x, h] + list(params.nodes().values())

    def f():
        return ad.sum(ad.mul(out := gru_cell(x, h, params), out))

    assert grad_check(f, inputs) < FD_TOL


def test_gru_init_is_seeded_and_shaped():
    a = init_gru_params(3, 5, np.random.default_rng(7))
    b = init_gru_params(3, 5, np.random.default_rng(7))
    for (name, na), nb in zip(a.nodes().items(), b.nodes().values()):
        np.testing.assert_array_equal(na.value, nb.value)
        if name.startswith("b_"):
            np.testing.assert_array_equal(na.value, 0.0)
    assert a.w_z.value.shape == (5, 3)
    assert a.u_h.value.shape == (5, 5)
