"""A small reverse-mode tape over numpy float64 arrays.

Every differentiable computation in the package is built from the
primitives in this module. Primitives dispatch on their argument types:
called on plain ndarrays they return plain ndarrays (no recording), so
forward-only evaluation pays no tape overhead and training/inference
share one code path.

Gradients of untouched leaves are exact zeros; all values are float64.

``backward`` consumes the graph it walks: once a node has passed its
gradient on, the node drops that gradient, its VJP closure (and with it
the activations the closure saved) and its parent links, so the tape
shrinks while the backward pass runs. Leaves (nodes without a VJP) keep
their ``.grad``; every value stays readable. A second ``backward`` over
a consumed node raises ContractViolation.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation, NumericError


class Var:
    """A node in the computation graph."""

    __slots__ = ("value", "grad", "_parents", "_vjp")

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._vjp = vjp

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape})"

    # light sugar; the functional forms below are the primary API
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)


def is_var(x) -> bool:
    return isinstance(x, Var)


def val(x) -> np.ndarray:
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over the axes numpy broadcast when producing it."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _binary(a, b, out_val, vjp):
    if not (is_var(a) or is_var(b)):
        return out_val
    parents = tuple(x for x in (a, b) if is_var(x))

    def wired(g):
        ga, gb = vjp(g)
        grads = []
        if is_var(a):
            grads.append(_unbroadcast(ga, a.value.shape))
        if is_var(b):
            grads.append(_unbroadcast(gb, b.value.shape))
        return tuple(grads)

    return Var(out_val, parents, wired)


def add(a, b):
    return _binary(a, b, val(a) + val(b), lambda g: (g, g))


def sub(a, b):
    return _binary(a, b, val(a) - val(b), lambda g: (g, -g))


def mul(a, b):
    av, bv = val(a), val(b)
    return _binary(a, b, av * bv, lambda g: (g * bv, g * av))


def tanh(x):
    out = np.tanh(val(x))
    if not is_var(x):
        return out
    return Var(out, (x,), lambda g: (g * (1.0 - out * out),))


def sigmoid(x):
    xv = val(x)
    out = 1.0 / (1.0 + np.exp(-xv))
    if not is_var(x):
        return out
    return Var(out, (x,), lambda g: (g * out * (1.0 - out),))


def exp(x):
    out = np.exp(val(x))
    if not is_var(x):
        return out
    return Var(out, (x,), lambda g: (g * out,))


def matmul(a, b):
    """a @ b for (n,k)@(k,m), (B,n)@(n,m), (n,)@(n,m) and (B,n)@(n,)."""
    av, bv = val(a), val(b)
    out = av @ bv

    def vjp(g):
        if av.ndim == 1 and bv.ndim == 2:
            return bv @ g, np.outer(av, g)
        if av.ndim == 2 and bv.ndim == 1:
            return g[:, None] * bv[None, :], av.T @ g
        return g @ bv.swapaxes(-1, -2), av.swapaxes(-1, -2) @ g

    return _binary(a, b, out, vjp)


def bmatvec(w, x):
    """Per-sample matrix-vector product: (B,o,i) x (B,i) -> (B,o)."""
    wv, xv = val(w), val(x)
    out = np.einsum("boi,bi->bo", wv, xv)

    def vjp(g):
        gw = np.einsum("bo,bi->boi", g, xv)
        gx = np.einsum("boi,bo->bi", wv, g)
        return gw, gx

    return _binary(w, x, out, vjp)


def sum_all(x):
    """Sum of all entries, as a scalar."""
    out = np.sum(val(x))
    if not is_var(x):
        return out
    shape = x.value.shape
    return Var(out, (x,), lambda g: (np.broadcast_to(g, shape).copy(),))


def concat(parts, axis=0):
    vals = [val(p) for p in parts]
    out = np.concatenate(vals, axis=axis)
    if not any(is_var(p) for p in parts):
        return out
    sizes = [v.shape[axis] for v in vals]
    offsets = np.cumsum([0] + sizes)
    var_parents = tuple(p for p in parts if is_var(p))

    def vjp(g):
        grads = []
        for p, off, size in zip(parts, offsets, sizes):
            if is_var(p):
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(off, off + size)
                grads.append(g[tuple(sl)])
        return tuple(grads)

    return Var(out, var_parents, vjp)


def narrow(x, axis, start, length):
    """Contiguous slice along one axis."""
    xv = val(x)
    sl = [slice(None)] * xv.ndim
    sl[axis] = slice(start, start + length)
    out = xv[tuple(sl)]
    if not is_var(x):
        return out

    def vjp(g):
        full = np.zeros_like(xv)
        full[tuple(sl)] = g
        return (full,)

    return Var(out, (x,), vjp)


def reshape(x, shape):
    xv = val(x)
    out = xv.reshape(shape)
    if not is_var(x):
        return out
    return Var(out, (x,), lambda g: (g.reshape(xv.shape),))


def backward(root: Var) -> None:
    """Accumulate d(root)/d(leaf) into .grad, consuming the graph."""
    if not is_var(root):
        raise ContractViolation("backward needs a Var")
    if root.value.shape != ():
        raise ContractViolation("backward starts from a scalar loss")
    if not np.isfinite(root.value):
        raise NumericError("loss is non-finite")

    topo: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node._parents is None:
            raise ContractViolation("graph was already consumed by backward")
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    root.grad = np.ones(())
    while topo:
        node = topo.pop()
        if node._vjp is None:
            continue
        for parent, g in zip(node._parents, node._vjp(node.grad)):
            if parent.grad is None:
                parent.grad = np.zeros_like(parent.value)
            parent.grad += g
        node.grad = node._vjp = node._parents = None
