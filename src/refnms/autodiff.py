"""Reverse-mode automatic differentiation over dense float64 arrays.

A small tape-free engine: every operation returns a :class:`Node` holding the
forward value, the parent nodes, and a closure that routes the upstream
gradient to those parents. :func:`backward` runs the closures once each in
reverse topological order. A closure receives its node as an argument
instead of capturing it, so a graph holds no reference cycle and is freed by
reference counting as soon as it is dropped. Only the operations the relatedness model and its
losses need are provided, and everything is 64-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np


class Node:
    """One value in the computation graph.

    ``grad`` stays ``None`` until a backward pass reaches the node; afterwards
    it holds d(loss)/d(node) with the same shape as ``value``. ``_visits``
    counts how many times a backward pass processed the node (exactly once per
    pass, by construction) and exists for instrumentation.
    """

    __slots__ = ("value", "grad", "_parents", "_backward", "_visits", "_backward_done")

    def __init__(self, value, _parents: tuple = ()):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._parents = _parents
        self._backward: Callable[[Node], None] | None = None
        self._visits = 0
        self._backward_done = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def item(self) -> float:
        return float(self.value.item())

    def __repr__(self) -> str:
        tag = "set" if self.grad is not None else "unset"
        return f"Node(shape={self.value.shape}, grad={tag})"


def constant(value) -> Node:
    """Leaf node holding `value`; gradients may still accumulate into it."""
    return Node(value)


def _accumulate(node: Node, g: np.ndarray) -> None:
    if node.grad is None:
        # one pass that gives the bits of adding g to a zero gradient
        node.grad = np.add(0.0, g, out=np.empty_like(node.value))
    else:
        node.grad += g


def _require_same_shape(op: str, a: Node, b: Node) -> None:
    if a.value.shape != b.value.shape:
        raise ValueError(f"{op}: shape mismatch {a.value.shape} vs {b.value.shape}")


def add(a: Node, b: Node) -> Node:
    _require_same_shape("add", a, b)
    out = Node(a.value + b.value, (a, b))

    def _bw(out: Node) -> None:
        _accumulate(a, out.grad)
        _accumulate(b, out.grad)

    out._backward = _bw
    return out


def sub(a: Node, b: Node) -> Node:
    _require_same_shape("sub", a, b)
    out = Node(a.value - b.value, (a, b))

    def _bw(out: Node) -> None:
        _accumulate(a, out.grad)
        _accumulate(b, -out.grad)

    out._backward = _bw
    return out


def mul(a: Node, b: Node) -> Node:
    """Element-wise product."""
    _require_same_shape("mul", a, b)
    out = Node(a.value * b.value, (a, b))

    def _bw(out: Node) -> None:
        _accumulate(a, b.value * out.grad)
        _accumulate(b, a.value * out.grad)

    out._backward = _bw
    return out


# BLAS picks a kernel by the shape of a product, and its kernels round
# differently. OpenBLAS 0.3.31 (Haswell kernels, one thread) sends a one-row
# product to GEMV, a one-column product to GEMV with rows in blocks, and, for
# an inner dimension of 32 or more, a product of up to ~1,200 output floats to
# a small-matrix kernel. `_product` keeps every product on one kernel.
_SMALL_KERNEL_MIN_INNER = 32
_MIN_PRODUCT_FLOATS = 2048


def _product(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w.T`` for x (m, k) and w (n, k), each row computed the same way
    whatever the rows beside it.

    A one-output product is a multiply and a row sum. Otherwise x is padded
    with zero rows up to the shape of the main GEMM kernel, so that a row of
    a batch is bit-equal to the same row scored alone.
    """
    m, k = x.shape
    n = w.shape[0]
    if n == 1:
        return np.multiply(x, w).sum(axis=1, keepdims=True)
    rows = max(2, -(-_MIN_PRODUCT_FLOATS // n)) if k >= _SMALL_KERNEL_MIN_INNER else 2
    if m >= rows:
        return x @ w.T
    padded = np.zeros((rows, k))
    padded[:m] = x
    return (padded @ w.T)[:m]


def _rowwise_product(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w.T`` as one matrix-vector product per row of x, so each row's
    value is what it would be alone. For the few rows of a GRU state this
    costs less than `_product`'s padding: one (1, 256) row is one GEMV, not
    an (8, 256) GEMM."""
    return np.matmul(x[:, None, :], w.T)[:, 0, :]


def linear(x: Node | np.ndarray, w: Node, b: Node | None = None) -> Node:
    """Row-wise affine map ``x @ w.T + b``: x (n, in), w (out, in), b (out,).

    The weight is used as stored, so the gradient with respect to it is one
    ``g.T @ x`` product over all rows, with no transposed copy in the graph.
    A plain array `x` is a constant input: no gradient is computed for it.
    Each output row is computed as `_product` computes it, whatever the
    number of rows.
    """
    xv, wv = (x.value if isinstance(x, Node) else x), w.value
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[1]:
        raise ValueError(f"linear: input {xv.shape} does not fit weight {wv.shape}")
    if b is not None and b.value.shape != (wv.shape[0],):
        raise ValueError(f"linear: bias {b.value.shape} does not fit weight {wv.shape}")
    value = _product(xv, wv)
    if b is not None:
        value += b.value
    parents = tuple(n for n in (x, w, b) if isinstance(n, Node))
    out = Node(value, parents)

    def _bw(out: Node) -> None:
        g = out.grad
        if isinstance(x, Node):
            _accumulate(x, g @ wv)
        _accumulate(w, g.T @ xv)
        if b is not None:
            _accumulate(b, g.sum(axis=0))

    out._backward = _bw
    return out


def concat(nodes: Sequence[Node], axis: int = 0) -> Node:
    if not nodes:
        raise ValueError("concat: need at least one node")
    vals = [n.value for n in nodes]
    try:
        joined = np.concatenate(vals, axis=axis)
    except ValueError as exc:
        raise ValueError(f"concat: {exc}") from None
    out = Node(joined, tuple(nodes))
    cuts = np.cumsum([v.shape[axis] for v in vals])[:-1]

    def _bw(out: Node) -> None:
        for n, piece in zip(nodes, np.split(out.grad, cuts, axis=axis)):
            _accumulate(n, piece)

    out._backward = _bw
    return out


def reshape(x: Node, shape) -> Node:
    out = Node(x.value.reshape(shape), (x,))

    def _bw(out: Node) -> None:
        _accumulate(x, out.grad.reshape(x.value.shape))

    out._backward = _bw
    return out


def take(x: Node, indices) -> Node:
    """Select rows of `x` along axis 0; repeated indices accumulate gradient.

    The result has the shape of `indices` followed by the shape of a row.
    Backward touches the selected rows only, so its cost follows the number
    of indices, not the size of `x`. With no index repeated it adds each
    gradient row to its row; otherwise it sums the gradient rows of each
    selected row into a compact block, in index order, and adds the block.
    """
    idx = np.asarray(indices, dtype=np.intp)
    out = Node(x.value[idx], (x,))

    def _bw(out: Node) -> None:
        # not np.unique, whose first call in a process takes ~16 ms with numpy 2.4
        flat = np.sort(idx, axis=None)
        distinct = np.concatenate(([True], flat[1:] != flat[:-1]))
        # each "+ 0.0" gives the bits of a sum onto zeros, which turns -0.0 into +0.0
        if not distinct.all():
            rows = flat[distinct]
            block = np.zeros((rows.size,) + x.value.shape[1:])
            np.add.at(block, np.searchsorted(rows, idx), out.grad)
            if x.grad is None:
                x.grad = np.zeros_like(x.value)
            x.grad[rows] += block
        elif x.grad is None:
            x.grad = np.zeros_like(x.value)
            x.grad[idx] = out.grad + 0.0
        else:
            x.grad[idx] += out.grad + 0.0

    out._backward = _bw
    return out


def _sum_over_steps(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=0)``, added one step at a time in order: a column's sum
    is the same whatever the number of steps or columns, since every padded
    step adds an exact zero."""
    total = a[0].copy()
    for row in a[1:]:
        total += row
    return total


def masked_softmax(x: Node, lengths) -> Node:
    """Softmax down each column b of x (T, B) over its first ``lengths[b]``
    entries; the entries after them get weight exactly 0 and no gradient."""
    xv = x.value
    lengths = np.asarray(lengths)
    if xv.ndim != 2 or lengths.shape != (xv.shape[1],):
        raise ValueError(f"masked_softmax: {lengths.shape} lengths for logits {xv.shape}")
    if lengths.size and not (1 <= lengths.min() and lengths.max() <= xv.shape[0]):
        raise ValueError(f"masked_softmax: lengths must lie in [1, {xv.shape[0]}]")
    valid = np.arange(xv.shape[0])[:, None] < lengths
    top = np.where(valid, xv, -np.inf).max(axis=0, initial=-np.inf)
    e = np.exp(np.where(valid, xv - top, -np.inf))
    s = e / _sum_over_steps(e)
    out = Node(s, (x,))

    def _bw(out: Node) -> None:
        g = out.grad
        _accumulate(x, s * (g - _sum_over_steps(g * s)))

    out._backward = _bw
    return out


def weighted_sum(weights: Node, values: Node) -> Node:
    """``sum_t weights[t, b] * values[t, b]`` for each b: weights (T, B) and
    values (T, B, k) give (B, k), added one step at a time in order."""
    wv, vv = weights.value, values.value
    if wv.ndim != 2 or vv.ndim != 3 or vv.shape[:2] != wv.shape:
        raise ValueError(f"weighted_sum: weights {wv.shape} do not fit values {vv.shape}")
    out = Node(_sum_over_steps(wv[:, :, None] * vv), (weights, values))

    def _bw(out: Node) -> None:
        g = out.grad
        _accumulate(weights, (vv * g).sum(axis=2))
        _accumulate(values, wv[:, :, None] * g)

    out._backward = _bw
    return out


def _sigmoid(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # tanh form is stable across the whole float64 range: 0.5 * (1 + tanh(0.5 * a))
    out = np.multiply(0.5, a, out=out)
    np.tanh(out, out=out)
    np.add(1.0, out, out=out)
    return np.multiply(0.5, out, out=out)


def sigmoid(x: Node) -> Node:
    out = Node(_sigmoid(x.value), (x,))

    def _bw(out: Node) -> None:
        _accumulate(x, out.value * (1.0 - out.value) * out.grad)

    out._backward = _bw
    return out


def relu(x: Node) -> Node:
    out = Node(np.maximum(x.value, 0.0), (x,))

    def _bw(out: Node) -> None:
        _accumulate(x, (x.value > 0.0) * out.grad)

    out._backward = _bw
    return out


def log(x: Node) -> Node:
    out = Node(np.log(x.value), (x,))

    def _bw(out: Node) -> None:
        _accumulate(x, out.grad / x.value)

    out._backward = _bw
    return out


def clamp(x: Node, lo: float, hi: float) -> Node:
    """Clip to [lo, hi]; gradient passes only where the input lies inside."""
    out = Node(np.clip(x.value, lo, hi), (x,))
    mask = (x.value >= lo) & (x.value <= hi)

    def _bw(out: Node) -> None:
        _accumulate(x, out.grad * mask)

    out._backward = _bw
    return out


def l2_normalize(x: Node, axis: int = -1, eps: float = 1e-12) -> Node:
    """Scale `x` to unit L2 norm along `axis`; eps guards the zero vector."""
    norm = np.sqrt((x.value**2).sum(axis=axis, keepdims=True) + eps)
    out = Node(x.value / norm, (x,))

    def _bw(out: Node) -> None:
        g = out.grad
        inner = (g * x.value).sum(axis=axis, keepdims=True)
        _accumulate(x, g / norm - x.value * inner / norm**3)

    out._backward = _bw
    return out


def mean(x: Node) -> Node:
    out = Node(x.value.mean(), (x,))

    def _bw(out: Node) -> None:
        _accumulate(x, np.full_like(x.value, out.grad / x.value.size))

    out._backward = _bw
    return out


def sum(x: Node) -> Node:
    out = Node(x.value.sum(), (x,))

    def _bw(out: Node) -> None:
        _accumulate(x, np.broadcast_to(out.grad, x.value.shape).copy())

    out._backward = _bw
    return out


def backward(loss: Node) -> None:
    """Populate gradients of every node reachable from `loss`.

    `loss` must hold a single scalar. A given node can only be differentiated
    once; rebuilding the graph (re-running the forward pass) is the reset.
    """
    if loss.value.size != 1:
        raise ValueError(f"backward: loss must be scalar-shaped, got shape {loss.value.shape}")
    if loss._backward_done:
        raise RuntimeError(
            "backward: gradients for this node were already computed; rebuild the graph to rerun"
        )
    topo: list[Node] = []
    seen: set[int] = set()
    work: list[tuple[Node, bool]] = [(loss, False)]
    while work:
        node, expanded = work.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        work.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                work.append((parent, False))
    loss.grad = np.ones_like(loss.value)
    for node in reversed(topo):
        node._visits += 1
        if node._backward is not None and node.grad is not None:
            node._backward(node)
    loss._backward_done = True


@dataclass
class GruParams:
    """Weights of one GRU direction: w_* map the input, u_* map the state."""

    w_z: Node
    u_z: Node
    b_z: Node
    w_r: Node
    u_r: Node
    b_r: Node
    w_h: Node
    u_h: Node
    b_h: Node

    def nodes(self) -> dict[str, Node]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def gru_sequence(xs: Node, params: GruParams) -> Node:
    """Run one GRU direction from a zero state over the steps of `xs`.

    `xs` is (T, input) for one sequence or (T, B, input) for B sequences side
    by side; the states come back with the same leading axes, (T, hidden) or
    (T, B, hidden). Step t computes, with h the previous state and x the
    step's input: z = sigmoid((w_z x + b_z) + u_z h), r = sigmoid((w_r x +
    b_r) + u_r h), cand = tanh((w_h x + b_h) + u_h (r * h)), h' = (1 - z) * h
    + z * cand. The input terms of all steps are one `_product` per gate, the
    state terms one `_rowwise_product` per gate and step, so a sequence's
    states do not depend on the sequences beside it. Sequences of different lengths share a call by padding each at its
    end: padded steps come after its real ones and change none of its
    states. Backward is backpropagation through time: only the recurrent
    gradient runs step by step; the input gradient and every weight
    gradient are one product over all steps.
    """
    p = params
    xv = xs.value
    w_z, u_z, b_z = p.w_z.value, p.u_z.value, p.b_z.value
    w_r, u_r, b_r = p.w_r.value, p.u_r.value, p.b_r.value
    w_h, u_h, b_h = p.w_h.value, p.u_h.value, p.b_h.value
    if xv.ndim not in (2, 3) or 0 in xv.shape[:-1] or xv.shape[-1] != w_z.shape[1]:
        raise ValueError(f"gru_sequence: input {xv.shape} does not fit weight {w_z.shape}")
    steps, hidden = xv.shape[0], u_z.shape[0]
    flat_x = xv.reshape(-1, xv.shape[-1])
    batch = flat_x.shape[0] // steps
    x_z, x_r, x_h = (
        np.add(_product(flat_x, w), b).reshape(steps, batch, hidden)
        for w, b in ((w_z, b_z), (w_r, b_r), (w_h, b_h))
    )
    # states[t] is the state before step t, states[t + 1] the one after it
    states = np.zeros((steps + 1, batch, hidden))
    zs, rs, cands, reset = (np.empty((steps, batch, hidden)) for _ in range(4))
    for t in range(steps):
        h, z, r, rh, cand, h_next = states[t], zs[t], rs[t], reset[t], cands[t], states[t + 1]
        _sigmoid(np.add(x_z[t], _rowwise_product(h, u_z), out=z), out=z)
        _sigmoid(np.add(x_r[t], _rowwise_product(h, u_r), out=r), out=r)
        np.multiply(r, h, out=rh)
        np.tanh(np.add(x_h[t], _rowwise_product(rh, u_h), out=cand), out=cand)
        np.multiply(np.subtract(1.0, z, out=h_next), h, out=h_next)
        h_next += z * cand
    prev = states[:-1]
    out = Node(states[1:].reshape(xv.shape[:-1] + (hidden,)), (xs, *p.nodes().values()))

    def _bw(out: Node) -> None:
        grad = out.grad.reshape(steps, batch, hidden)
        # per-step factors that do not depend on the recurrent gradient
        dz_pre = (cands - prev) * (zs * (1.0 - zs))
        dc_pre = zs * (1.0 - cands * cands)
        dr_pre = prev * (rs * (1.0 - rs))
        keep = 1.0 - zs
        da_z, da_r, da_c = (np.empty((steps, batch, hidden)) for _ in range(3))
        dh = np.zeros((batch, hidden))
        for t in range(steps - 1, -1, -1):
            dh = dh + grad[t]
            a_c = dh * dc_pre[t]
            d_rh = a_c @ u_h
            a_z = dh * dz_pre[t]
            a_r = d_rh * dr_pre[t]
            dh = dh * keep[t] + d_rh * rs[t] + a_z @ u_z + a_r @ u_r
            da_z[t], da_r[t], da_c[t] = a_z, a_r, a_c
        da_z, da_r, da_c = (a.reshape(-1, hidden) for a in (da_z, da_r, da_c))
        _accumulate(xs, (da_z @ w_z + da_r @ w_r + da_c @ w_h).reshape(xv.shape))
        for (w, u, b), da, h_in in (
            ((p.w_z, p.u_z, p.b_z), da_z, prev),
            ((p.w_r, p.u_r, p.b_r), da_r, prev),
            ((p.w_h, p.u_h, p.b_h), da_c, reset),
        ):
            _accumulate(w, da.T @ flat_x)
            _accumulate(u, da.T @ h_in.reshape(-1, hidden))
            _accumulate(b, da.sum(axis=0))

    out._backward = _bw
    return out


_EPS = float(np.finfo(np.float64).eps)
# the largest relative error that finite-difference rounding alone may read as
_ROUNDING_SHARE = 1e-5


def grad_check(f: Callable[[], Node], inputs: Sequence[Node], step: float = 1e-5) -> float:
    """Compare analytic gradients of ``f()`` against central finite differences.

    ``f`` must rebuild its graph on every call and read the given input nodes;
    their values are perturbed in place. Returns the worst relative error
    |a - n| / max(|a|, |n|, floor) over every component of every input.

    Rounding f(x +- step) costs the central difference an absolute error of
    about eps * |f| / step, whatever the size of the gradient. The floor is
    that noise over `_ROUNDING_SHARE`, so a component too small for the
    difference to resolve is judged by its absolute error, and rounding alone
    reads as at most ~`_ROUNDING_SHARE`.
    """
    for node in inputs:
        node.grad = None
    backward(f())
    analytic = [np.zeros_like(n.value) if n.grad is None else n.grad.copy() for n in inputs]
    worst = 0.0
    for node, a in zip(inputs, analytic):
        flat_a = a.reshape(-1)
        for i in range(node.value.size):
            orig = node.value.flat[i]
            node.value.flat[i] = orig + step
            f_plus = f().value.item()
            node.value.flat[i] = orig - step
            f_minus = f().value.item()
            node.value.flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            noise = _EPS * max(abs(f_plus), abs(f_minus)) / step
            scale = max(abs(flat_a[i]), abs(numeric), noise / _ROUNDING_SHARE)
            if scale > 0.0:
                worst = max(worst, abs(flat_a[i] - numeric) / scale)
    return worst
