"""Engine tests: forward values, backward rules against finite differences,
graph bookkeeping, and the fused GRU sequence op against a per-step reference."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import init_gru_params
from refnms import autodiff as ad
from refnms.autodiff import GruParams, Node, backward, grad_check, gru_sequence

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
    out = oracles.softmax(Node(np.full(4, 1.7)), axis=0)
    np.testing.assert_allclose(out.value, 0.25, atol=1e-15)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    x = Node(rng.normal(size=(5, 7)) * 10)
    out = oracles.softmax(x, axis=1)
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
        oracles.matmul(Node(np.zeros((2, 3))), Node(np.zeros((4, 2))))
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
    h = ad.linear(x, Node(rng.normal(size=(2, 4))), Node(rng.normal(size=2)))
    h = ad.add(ad.sub(ad.mul(h, h), h), ad.relu(h))
    states = gru_sequence(h, init_gru_params(2, 2, rng))
    # the (3, 2) states as the logits of two columns, of lengths 3 and 2
    weights = ad.masked_softmax(states, [3, 2])
    values = ad.reshape(ad.concat([states, states], axis=1), (3, 2, 2))
    h = ad.l2_normalize(ad.sigmoid(ad.weighted_sum(weights, values)), axis=1)
    s = ad.reshape(ad.mean(ad.take(h, [0, 1, 1])), (1,))
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
    assert fd_check(lambda a, b: ad.sum(oracles.matmul(a, b)), (3, 4), (4, 2)) < FD_TOL
    assert fd_check(lambda a, b: ad.sum(oracles.matmul(a, b)), (3, 4), (4,)) < FD_TOL
    assert fd_check(lambda a, b: ad.sum(oracles.matmul(a, b)), (4,), (4, 3)) < FD_TOL
    assert fd_check(lambda a, b: oracles.matmul(a, b), (4,), (4,)) < FD_TOL


def test_fd_linear_with_and_without_bias():
    def square(y):
        return ad.sum(ad.mul(y, y))

    assert fd_check(lambda x, w: square(ad.linear(x, w)), (5, 4), (3, 4)) < FD_TOL
    assert fd_check(lambda x, w, b: square(ad.linear(x, w, b)), (5, 4), (3, 4), (3,)) < FD_TOL
    rng = np.random.default_rng(9)
    x, w, b = rng.normal(size=(5, 4)), rng.normal(size=(3, 4)), rng.normal(size=3)
    out = ad.linear(Node(x), Node(w), Node(b))
    np.testing.assert_allclose(out.value, x @ w.T + b, rtol=0.0, atol=1e-15)


def test_linear_of_a_plain_array_treats_it_as_a_constant():
    rng = np.random.default_rng(10)
    x, w, b = rng.normal(size=(5, 4)), Node(rng.normal(size=(3, 4))), Node(rng.normal(size=3))
    out = ad.linear(x, w, b)
    assert out._parents == (w, b)
    backward(ad.sum(ad.mul(out, out)))
    np.testing.assert_array_equal(w.grad, (2.0 * out.value).T @ x)
    np.testing.assert_array_equal(b.grad, (2.0 * out.value).sum(axis=0))


def test_fd_concat_stack_reshape_broadcast_take():
    assert fd_check(lambda a, b: ad.sum(ad.mul(c := ad.concat([a, b]), c)), (3,), (2,)) < FD_TOL
    assert (
        fd_check(lambda a, b: ad.sum(ad.mul(s := oracles.stack([a, b]), s)), (3,), (3,))
        < FD_TOL
    )
    assert fd_check(lambda a: ad.sum(ad.mul(r := ad.reshape(a, (6,)), r)), (2, 3)) < FD_TOL
    assert (
        fd_check(lambda a: ad.sum(ad.mul(b := oracles.broadcast_to(a, (4, 3)), b)), (1, 3))
        < FD_TOL
    )
    assert (
        fd_check(lambda a: ad.sum(ad.mul(b := oracles.broadcast_to(a, (5,)), b)), (1,)) < FD_TOL
    )
    assert (
        fd_check(lambda a: ad.sum(ad.mul(t := ad.take(a, [0, 2, 2, 1]), t)), (4, 3)) < FD_TOL
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 4),
    picks=st.lists(st.integers(0, 5), min_size=1, max_size=12),
    accumulated=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_take_gradient_is_bit_equal_to_a_dense_scatter(rows, cols, picks, accumulated, seed):
    # the reference is the dense backward: scatter into a zero table, then add it
    rng = np.random.default_rng(seed)
    idx = [p % rows for p in picks]
    x = Node(rng.normal(size=(rows, cols)))
    prior = rng.normal(size=(rows, cols))
    x.grad = prior.copy() if accumulated else None
    upstream = rng.normal(size=(len(idx), cols))
    backward(ad.sum(ad.mul(ad.take(x, idx), Node(upstream))))
    dense = np.zeros((rows, cols))
    np.add.at(dense, np.asarray(idx), upstream)
    expected = prior + dense if accumulated else dense
    assert x.grad.tobytes() == expected.tobytes()


# gradients with signed zeros, where adding onto a zero block and adding
# straight onto the rows could differ
GRADIENTS = st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(-1e6, 1e6)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), rows=st.integers(1, 6), cols=st.integers(1, 3),
       repeats=st.booleans(), accumulated=st.booleans(), column=st.booleans())
def test_take_backward_is_bit_equal_to_the_block_oracle(data, rows, cols, repeats, accumulated,
                                                         column):
    # indices with and without repeats, as a vector or a column of them
    if repeats:
        idx = data.draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=10))
    else:
        idx = data.draw(st.permutations(range(rows)).flatmap(
            lambda p: st.integers(0, rows).map(lambda k: p[:k])))
    idx = np.array(idx, dtype=np.intp).reshape((-1, 1) if column else (-1,))
    arrays = st.lists(GRADIENTS, min_size=rows * cols, max_size=rows * cols)
    prior = np.array(data.draw(arrays)).reshape(rows, cols) if accumulated else None
    upstream = np.array(data.draw(st.lists(GRADIENTS, min_size=idx.size * cols,
                                           max_size=idx.size * cols))).reshape(*idx.shape, cols)
    grads = []
    for take in (ad.take, oracles.take):
        x = Node(np.zeros((rows, cols)))
        x.grad = None if prior is None else prior.copy()
        out = take(x, idx)
        out.grad = upstream
        out._backward(out)
        grads.append(x.grad.tobytes())
    assert grads[0] == grads[1]


def test_fd_activations_and_reductions():
    assert fd_check(lambda a: ad.sum(ad.sigmoid(a)), (5,)) < FD_TOL
    assert fd_check(lambda a: ad.sum(oracles.tanh(a)), (5,)) < FD_TOL
    assert fd_check(lambda a: ad.sum(ad.mul(r := ad.relu(a), r)), (5,), scale=2.0) < FD_TOL
    assert fd_check(lambda a: ad.mean(ad.mul(a, a)), (5,)) < FD_TOL
    # plain sum of a softmax is constant; weight the entries to get a real gradient
    w5 = ad.constant(np.arange(1.0, 6.0))
    assert fd_check(lambda a: ad.sum(ad.mul(w5, oracles.softmax(a, axis=0))), (5,)) < FD_TOL
    assert (
        fd_check(lambda a: ad.sum(ad.mul(s := oracles.softmax(a, axis=1), s)), (3, 4)) < FD_TOL
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
        return oracles.matmul(ad.constant(w), x)

    assert grad_check(f, [x]) < 1e-9


def test_grad_check_sigmoid_matmul_chain():
    rng = np.random.default_rng(22)
    w = Node(rng.normal(size=(3, 5)))
    x = Node(rng.normal(size=5))

    def f():
        return ad.sum(ad.sigmoid(oracles.matmul(w, x)))

    assert grad_check(f, [w, x]) < FD_TOL


def test_grad_check_l2_normalize_then_sum():
    rng = np.random.default_rng(23)
    x = Node(rng.normal(size=6))

    def f():
        return ad.sum(ad.l2_normalize(x))

    assert grad_check(f, [x]) < FD_TOL


def scaled_identity(x, factor):
    """The identity, whose backward multiplies the gradient by `factor`."""
    out = Node(x.value.copy(), (x,))

    def _bw(out):
        ad._accumulate(x, factor * out.grad)

    out._backward = _bw
    return out


@pytest.mark.parametrize("size", [1.0, 1e-7])
def test_grad_check_flags_a_planted_wrong_gradient_however_small(size):
    # f = 1 + size * sum(x^2): the gradient is ~size while f's rounding noise
    # stays at ~eps; a gradient 1% off fails even at components of 1e-7
    x = Node(np.random.default_rng(24).uniform(0.5, 1.5, size=4))

    def f(factor):
        y = scaled_identity(x, factor)
        return ad.add(Node(np.array(1.0)), ad.sum(ad.mul(ad.mul(y, y), Node(np.full(4, size)))))

    assert grad_check(lambda: f(1.0), [x]) < FD_TOL
    assert grad_check(lambda: f(1.01), [x]) > FD_TOL


# GRU sequence ------------------------------------------------------------------


def gru_cell(x, h_prev, params):
    """Reference GRU step from primitive ops, the oracle for `gru_sequence`.

    z = sigmoid((w_z x + b_z) + u_z h), r = sigmoid((w_r x + b_r) + u_r h),
    cand = tanh((w_h x + b_h) + u_h (r * h)), h' = (1 - z) * h + z * cand,
    for the rows of x (B, input) and h_prev (B, hidden) at once: the input
    terms as row products, the state terms one matrix-vector product per row.
    """
    p = params

    def gate(w, x, u, h, b):
        rows, width = h.value.shape
        state = oracles.stack(
            [oracles.matmul(u, ad.reshape(ad.take(h, [i]), (width,))) for i in range(rows)]
        )
        return ad.add(ad.linear(x, w, b), state)

    z = ad.sigmoid(gate(p.w_z, x, p.u_z, h_prev, p.b_z))
    r = ad.sigmoid(gate(p.w_r, x, p.u_r, h_prev, p.b_r))
    cand = oracles.tanh(gate(p.w_h, x, p.u_h, ad.mul(r, h_prev), p.b_h))
    keep = ad.sub(ad.constant(np.ones_like(z.value)), z)
    return ad.add(ad.mul(keep, h_prev), ad.mul(z, cand))


def reference_sequence(xs, params):
    """One `gru_cell` per step of `xs` (T, B, input), from a zero state, stacked."""
    steps, batch, width = xs.value.shape
    h = ad.constant(np.zeros((batch, params.u_z.value.shape[0])))
    states = []
    for t in range(steps):
        h = gru_cell(ad.reshape(ad.take(xs, [t]), (batch, width)), h, params)
        states.append(h)
    return oracles.stack(states)


def zero_gru(d_in, d_h):
    z = lambda *shape: Node(np.zeros(shape))
    return GruParams(
        w_z=z(d_h, d_in), u_z=z(d_h, d_h), b_z=z(d_h),
        w_r=z(d_h, d_in), u_r=z(d_h, d_h), b_r=z(d_h),
        w_h=z(d_h, d_in), u_h=z(d_h, d_h), b_h=z(d_h),
    )


def test_gru_zero_params_halves_the_state():
    # zero weights: z = r = 0.5 and cand = tanh(b_h), so h' = 0.5 * h + 0.5 * tanh(b_h):
    # the gap to tanh(b_h) halves every step, and h_t = (1 - 0.5**t) * tanh(b_h)
    params = zero_gru(3, 4)
    params.b_h = Node(np.array([1.0, -2.0, 0.5, 4.0]))
    xs = Node(np.random.default_rng(30).normal(size=(6, 3)))
    states = gru_sequence(xs, params).value
    t = np.arange(1, 7)[:, None]
    np.testing.assert_allclose(states, (1.0 - 0.5**t) * np.tanh(params.b_h.value), atol=1e-15)


def test_gru_zero_state_and_zero_candidate_weights():
    # from the zero state with a zero candidate, every state is a mix of zeros
    rng = np.random.default_rng(31)
    params = init_gru_params(3, 4, rng)
    params.w_h = Node(np.zeros((4, 3)))
    params.u_h = Node(np.zeros((4, 4)))
    params.b_h = Node(np.zeros(4))
    states = gru_sequence(Node(rng.normal(size=(5, 3))), params)
    np.testing.assert_array_equal(states.value, 0.0)


def test_gru_gradients_match_finite_differences():
    rng = np.random.default_rng(32)
    params = init_gru_params(3, 4, rng)
    for node in params.nodes().values():
        node.value += 0.3 * rng.normal(size=node.value.shape)  # nonzero biases too
    xs = Node(rng.normal(size=(5, 3)))
    inputs = [xs] + list(params.nodes().values())

    def f():
        return ad.sum(ad.mul(out := gru_sequence(xs, params), out))

    assert grad_check(f, inputs) < FD_TOL


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    steps=st.integers(1, 10),
    batch=st.integers(1, 4),
    input_dim=st.one_of(st.integers(1, 6), st.just(40)),
    hidden=st.one_of(st.integers(1, 6), st.just(33)),
    seed=st.integers(0, 2**16),
)
def test_gru_sequence_matches_the_per_step_reference(steps, batch, input_dim, hidden, seed):
    # states bit-equal, though the input products of all steps are one product
    # and the reference makes one per step; gradients through another
    # summation order, within 1e-10
    rng = np.random.default_rng(seed)
    params = init_gru_params(input_dim, hidden, rng)
    for node in params.nodes().values():
        node.value += 0.5 * rng.normal(size=node.value.shape)
    xs = Node(rng.normal(size=(steps, batch, input_dim)))
    coefficients = ad.constant(rng.normal(size=(steps, batch, hidden)))
    inputs = [xs] + list(params.nodes().values())
    results = []
    for run in (gru_sequence, reference_sequence):
        for node in inputs:
            node.grad = None
        states = run(xs, params)
        backward(ad.sum(ad.mul(states, coefficients)))
        results.append((states.value, [node.grad for node in inputs]))
    (states, grads), (ref_states, ref_grads) = results
    np.testing.assert_array_equal(states, ref_states)
    for name, grad, ref in zip(["xs", *params.nodes()], grads, ref_grads):
        assert np.linalg.norm(grad - ref) <= 1e-10 * np.linalg.norm(ref), name


def test_gru_sequences_side_by_side_match_each_run_alone():
    # a sequence's states are bit-equal whatever sequences share its call
    rng = np.random.default_rng(34)
    params = init_gru_params(40, 33, rng)
    xs = rng.normal(size=(6, 5, 40))
    together = gru_sequence(Node(xs), params).value
    for b in range(5):
        alone = gru_sequence(Node(xs[:, b]), params).value
        np.testing.assert_array_equal(together[:, b], alone)


def test_gru_sequence_rejects_input_that_does_not_fit():
    params = init_gru_params(3, 2, np.random.default_rng(33))
    for shape in ((4, 2), (3,), (0, 3)):
        with pytest.raises(ValueError, match=r"gru_sequence: input"):
            gru_sequence(Node(np.zeros(shape)), params)


def test_gru_init_is_seeded_and_shaped():
    a = init_gru_params(3, 5, np.random.default_rng(7))
    b = init_gru_params(3, 5, np.random.default_rng(7))
    for (name, na), nb in zip(a.nodes().items(), b.nodes().values()):
        np.testing.assert_array_equal(na.value, nb.value)
        if name.startswith("b_"):
            np.testing.assert_array_equal(na.value, 0.0)
    assert a.w_z.value.shape == (5, 3)
    assert a.u_h.value.shape == (5, 5)
