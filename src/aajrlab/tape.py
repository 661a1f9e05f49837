"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Node`` wraps a value together with links to its parents; each link
carries the local vector-Jacobian product. ``backward`` walks the graph
once in reverse topological order and accumulates adjoints into ``.grad``.

Matrix products take 1-D to 3-D operands, so a whole minibatch of states
stacked as rows flows through one node per operation, and so does a stack
of models: a 3-D operand is one matrix per model, with its own adjoint.

The module-level helpers (``tanh``, ``softplus``, ``dot``, ``matvec``, ...)
accept both ``Node`` and plain ndarray arguments, so the same objective
code can run untaped for cheap value evaluation and taped when gradients
are needed.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError

Array = np.ndarray


def _as_value(x) -> Array:
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(g: Array, shape: tuple) -> Array:
    """Reduce an adjoint back to the shape of a broadcast operand."""
    g = np.asarray(g, dtype=np.float64)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


class Node:
    """One value in the computation graph."""

    __slots__ = ("value", "grad", "op", "_parents")
    __array_ufunc__ = None  # ndarray (op) Node defers to the Node's reflected method

    def __init__(self, value, parents=(), op="leaf"):
        self.value = _as_value(value)
        if not np.isfinite(self.value).all():
            raise NumericError(f"non-finite value produced by op '{op}'")
        self.grad = None
        self.op = op
        self._parents = tuple(parents)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        ov, onode = _split(other)
        links = [(self, lambda g, s=self.value.shape: _unbroadcast(g, s))]
        if onode is not None:
            links.append((onode, lambda g, s=ov.shape: _unbroadcast(g, s)))
        return Node(self.value + ov, links, "add")

    __radd__ = __add__

    def __sub__(self, other):
        ov, onode = _split(other)
        links = [(self, lambda g, s=self.value.shape: _unbroadcast(g, s))]
        if onode is not None:
            links.append((onode, lambda g, s=ov.shape: -_unbroadcast(g, s)))
        return Node(self.value - ov, links, "sub")

    def __rsub__(self, other):
        ov, _ = _split(other)
        return Node(
            ov - self.value,
            [(self, lambda g, s=self.value.shape: -_unbroadcast(g, s))],
            "rsub",
        )

    def __mul__(self, other):
        ov, onode = _split(other)
        sv = self.value
        links = [(self, lambda g, o=ov, s=sv.shape: _unbroadcast(g * o, s))]
        if onode is not None:
            links.append((onode, lambda g, o=sv, s=ov.shape: _unbroadcast(g * o, s)))
        return Node(sv * ov, links, "mul")

    __rmul__ = __mul__

    def __matmul__(self, other):
        return _matmul(self, other)

    def __rmatmul__(self, other):
        return _matmul(other, self)

    @property
    def shape(self) -> tuple:
        return self.value.shape

    @property
    def T(self):
        """Transpose of the last two axes (of every model's matrix)."""
        return Node(_mT(self.value), [(self, _mT)], "transpose")

    # -- elementwise functions --------------------------------------------

    def tanh(self):
        y = np.tanh(self.value)
        return Node(y, [(self, lambda g: g * (1.0 - y * y))], "tanh")

    def softplus(self):
        v = self.value
        return Node(np.logaddexp(0.0, v), [(self, lambda g: g * _sigmoid(v))], "softplus")

    def relu(self):
        v = self.value
        return Node(np.maximum(v, 0.0), [(self, lambda g: g * (v > 0.0))], "relu")

    def sqrt(self):
        y = np.sqrt(self.value)

        def back(g, y=y):
            # y == 0 only when the input is exactly 0; pick subgradient 0 there
            safe = np.where(y > 0.0, y, 1.0)
            return np.where(y > 0.0, 0.5 * g / safe, 0.0)

        return Node(y, [(self, back)], "sqrt")

    def vsum(self, axis=None):
        shape, kept = self.value.shape, () if axis is None else axis
        return Node(self.value.sum(axis=axis), [(self, lambda g: np.expand_dims(g, kept) * np.ones(shape))], "sum")

    def __repr__(self):
        return f"Node(op={self.op!r}, value={self.value!r})"


def _split(x):
    """Return (value, node-or-None) for an operand that may be a constant."""
    if isinstance(x, Node):
        return x.value, x
    return _as_value(x), None


def _matmul(x, y):
    """x @ y for 1-D to 3-D operands, either of which may be a constant; for
    the adjoints a 1-D left operand is one row, a 1-D right one a column and
    a 3-D operand a stack of matrices, one per model."""
    xv, xn = _split(x)
    yv, yn = _split(y)
    if not (0 < xv.ndim < 4 and 0 < yv.ndim < 4):
        raise TypeError("matmul supports 1-D to 3-D operands only")
    x2 = xv[None] if xv.ndim == 1 else xv
    y2 = yv[:, None] if yv.ndim == 1 else yv
    out = xv @ yv
    shape = out.shape[: out.ndim - (xv.ndim > 1) - (yv.ndim > 1)] + (x2.shape[-2], y2.shape[-1])  # of x2 @ y2
    links = []
    if xn is not None:
        links.append((xn, lambda g: _unbroadcast(np.reshape(g, shape) @ _mT(y2), x2.shape).reshape(xv.shape)))
    if yn is not None:
        links.append((yn, lambda g: _unbroadcast(_mT(x2) @ np.reshape(g, shape), y2.shape).reshape(yv.shape)))
    return Node(out, links, "matmul")


def _mT(x: Array) -> Array:
    return np.swapaxes(x, -1, -2)


def _sigmoid(x: Array) -> Array:
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


def _topo(root: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order  # parents precede children


def backward(out: Node) -> None:
    """Fill ``.grad`` for every node reachable from a scalar output."""
    if out.value.shape != ():
        raise ValueError(f"backward requires a scalar output, got shape {out.value.shape}")
    order = _topo(out)
    out.grad = np.asarray(1.0)
    for node in reversed(order):
        g = node.grad
        if g is None:
            continue
        for parent, vjp_fn in node._parents:
            contrib = vjp_fn(g)
            parent.grad = contrib if parent.grad is None else parent.grad + contrib


# -- generic helpers: work on Node or ndarray ------------------------------


def tanh(x):
    return x.tanh() if isinstance(x, Node) else np.tanh(x)


def softplus(x):
    return x.softplus() if isinstance(x, Node) else np.logaddexp(0.0, x)


def relu(x):
    return x.relu() if isinstance(x, Node) else np.maximum(x, 0.0)


def sqrt(x):
    return x.sqrt() if isinstance(x, Node) else np.sqrt(x)


def vsum(x, axis=None):
    return x.vsum(axis) if isinstance(x, Node) else np.sum(x, axis=axis)


def dot(a, b, axis=None):
    return vsum(a * b, axis)


def matvec(W, x):
    """W @ x for a 1-D x or for every row of a stacked x. On plain arrays
    each row is its own matrix-vector product, so a row never depends on the
    rows batched with it; the leading axes of a stacked W index the leading
    axes of x (one matrix per row, or per model of (M, ..., in) rows)."""
    if isinstance(W, Node) or isinstance(x, Node):
        return x @ W.T
    x = np.asarray(x, dtype=np.float64)
    if W.ndim > 2:
        W = W.reshape(W.shape[:-2] + (1,) * (x.ndim + 1 - W.ndim) + W.shape[-2:])
    return np.matmul(W, x[..., None])[..., 0]


def sigmoid(x):
    return _sigmoid(np.asarray(x, dtype=np.float64))
