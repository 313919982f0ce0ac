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
from typing import Callable, Iterable, Sequence

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

    def __add__(self, other):
        return add(self, _lift(other, self))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _lift(other, self))

    def __rsub__(self, other):
        return sub(_lift(other, self), self)

    def __mul__(self, other):
        return mul(self, _lift(other, self))

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, _lift(-1.0, self))

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self) -> str:
        tag = "set" if self.grad is not None else "unset"
        return f"Node(shape={self.value.shape}, grad={tag})"


def constant(value) -> Node:
    """Leaf node holding `value`; gradients may still accumulate into it."""
    return Node(value)


def _lift(x, like: Node) -> Node:
    if isinstance(x, Node):
        return x
    return Node(np.full_like(like.value, float(x)))


def _accumulate(node: Node, g: np.ndarray) -> None:
    if node.grad is None:
        node.grad = np.zeros_like(node.value)
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


def matmul(a: Node, b: Node) -> Node:
    """Matrix/vector product for 1-D and 2-D operands."""
    av, bv = a.value, b.value
    if av.ndim == 0 or bv.ndim == 0 or av.ndim > 2 or bv.ndim > 2:
        raise ValueError(f"matmul: unsupported ranks {av.shape} @ {bv.shape}")
    if av.shape[-1] != bv.shape[0]:
        raise ValueError(f"matmul: inner dimensions disagree {av.shape} @ {bv.shape}")
    out = Node(av @ bv, (a, b))

    def _bw(out: Node) -> None:
        g = out.grad
        if av.ndim == 1 and bv.ndim == 1:
            _accumulate(a, g * bv)
            _accumulate(b, g * av)
        elif av.ndim == 2 and bv.ndim == 1:
            _accumulate(a, np.outer(g, bv))
            _accumulate(b, av.T @ g)
        elif av.ndim == 1 and bv.ndim == 2:
            _accumulate(a, bv @ g)
            _accumulate(b, np.outer(av, g))
        else:
            _accumulate(a, g @ bv.T)
            _accumulate(b, av.T @ g)

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


def stack(nodes: Sequence[Node]) -> Node:
    """Stack equally shaped nodes along a new leading axis."""
    return concat([reshape(n, (1,) + n.value.shape) for n in nodes], axis=0)


def reshape(x: Node, shape) -> Node:
    out = Node(x.value.reshape(shape), (x,))

    def _bw(out: Node) -> None:
        _accumulate(x, out.grad.reshape(x.value.shape))

    out._backward = _bw
    return out


def broadcast_to(x: Node, shape) -> Node:
    out = Node(np.broadcast_to(x.value, shape).copy(), (x,))

    def _bw(out: Node) -> None:
        g = out.grad
        extra = g.ndim - x.value.ndim
        if extra:
            g = g.sum(axis=tuple(range(extra)))
        squeezed = tuple(
            i for i, (gs, xs) in enumerate(zip(g.shape, x.value.shape)) if xs == 1 and gs != 1
        )
        if squeezed:
            g = g.sum(axis=squeezed, keepdims=True)
        _accumulate(x, g)

    out._backward = _bw
    return out


def take(x: Node, indices) -> Node:
    """Select rows of `x` along axis 0; repeated indices accumulate gradient."""
    idx = np.asarray(indices, dtype=np.intp)
    out = Node(x.value[idx], (x,))

    def _bw(out: Node) -> None:
        g = np.zeros_like(x.value)
        np.add.at(g, idx, out.grad)
        _accumulate(x, g)

    out._backward = _bw
    return out


def softmax(x: Node, axis: int = -1) -> Node:
    shifted = x.value - x.value.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    out = Node(s, (x,))

    def _bw(out: Node) -> None:
        g = out.grad
        _accumulate(x, s * (g - (g * s).sum(axis=axis, keepdims=True)))

    out._backward = _bw
    return out


def sigmoid(x: Node) -> Node:
    # tanh form is stable across the whole float64 range
    s = 0.5 * (1.0 + np.tanh(0.5 * x.value))
    out = Node(s, (x,))

    def _bw(out: Node) -> None:
        _accumulate(x, out.value * (1.0 - out.value) * out.grad)

    out._backward = _bw
    return out


def tanh(x: Node) -> Node:
    t = np.tanh(x.value)
    out = Node(t, (x,))

    def _bw(out: Node) -> None:
        _accumulate(x, (1.0 - out.value**2) * out.grad)

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


def zero_gradients(nodes: Iterable[Node]) -> None:
    for n in nodes:
        n.grad = None


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


def init_gru_params(input_dim: int, hidden_dim: int, rng: np.random.Generator) -> GruParams:
    """Uniform(-k, k) weights with k = 1/sqrt(hidden_dim), zero biases."""
    k = 1.0 / np.sqrt(hidden_dim)

    def w(rows: int, cols: int) -> Node:
        return Node(rng.uniform(-k, k, size=(rows, cols)))

    def b() -> Node:
        return Node(np.zeros(hidden_dim))

    return GruParams(
        w_z=w(hidden_dim, input_dim), u_z=w(hidden_dim, hidden_dim), b_z=b(),
        w_r=w(hidden_dim, input_dim), u_r=w(hidden_dim, hidden_dim), b_r=b(),
        w_h=w(hidden_dim, input_dim), u_h=w(hidden_dim, hidden_dim), b_h=b(),
    )


def gru_cell(x: Node, h_prev: Node, params: GruParams) -> Node:
    """One GRU step.

    z = sigmoid(w_z x + u_z h + b_z), r = sigmoid(w_r x + u_r h + b_r),
    cand = tanh(w_h x + u_h (r * h) + b_h), h' = (1 - z) * h + z * cand.
    """
    z = sigmoid(add(add(matmul(params.w_z, x), matmul(params.u_z, h_prev)), params.b_z))
    r = sigmoid(add(add(matmul(params.w_r, x), matmul(params.u_r, h_prev)), params.b_r))
    cand = tanh(add(add(matmul(params.w_h, x), matmul(params.u_h, mul(r, h_prev))), params.b_h))
    keep = sub(constant(np.ones_like(z.value)), z)
    return add(mul(keep, h_prev), mul(z, cand))


def grad_check(f: Callable[[], Node], inputs: Sequence[Node], step: float = 1e-5) -> float:
    """Compare analytic gradients of ``f()`` against central finite differences.

    ``f`` must rebuild its graph on every call and read the given input nodes;
    their values are perturbed in place. Returns the worst relative error
    |a - n| / max(|a|, |n|, 1e-8) over every component of every input.
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
            err = abs(flat_a[i] - numeric) / max(abs(flat_a[i]), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
