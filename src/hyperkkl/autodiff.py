"""A small reverse-mode tape over numpy float64 arrays.

A differentiable computation is built from the primitives in this
module or is one node with a hand-written VJP (a ``Var`` made with its
parents and a VJP, as ``nets`` does for an MLP layer, the low-rank
linear map and the LSTM window). Both dispatch on their argument types:
called on plain ndarrays they return plain ndarrays (no recording), so
a network's forward-only evaluation pays no tape overhead and one
forward serves training and inference. The latent filter is not built
on them: its plain form (``kkl.simulate_latent_nodes``) is numpy, and
the static training rollout, the one filter a gradient goes through,
tapes its own (``training._segment_nodes``). A sample is a row of a
2-D block: nothing reshapes a node, and a ``Var`` has no operators;
the functions are the API.

Gradients of untouched leaves are exact zeros; all values are float64.
A VJP may hand back an ``AddInto`` instead of an array: a gradient that
adds itself into its parent's ``.grad`` in place, so it need not exist
as one parent-sized array. A ``narrow`` passes back its slice's
gradient that way.

``backward`` consumes the graph it walks: once a node has passed its
gradient on, the node drops that gradient, its VJP closure (and with it
the activations the closure saved) and its parent links, so the tape
shrinks while the backward pass runs. Leaves (nodes without a VJP) keep
their ``.grad``; every value stays readable. A second ``backward`` over
a consumed node raises ContractViolation.

A leaf may arrive with ``.grad`` already set, for example to a view of
a flat gradient buffer (``params.ParamVars``): ``backward`` only ever
adds into an existing ``.grad`` in place, so the gradient lands in that
buffer and no per-leaf array is made. A preset ``FactoredGrad`` goes
further: it takes only ``AddInto`` gradients that carry their factors
and keeps those factors, so the leaf's gradient is never formed at all
(the hypernetwork readouts U_l, one per targeted layer, whose
gradients are sums of rank-one terms as large as U_l itself). Such a
gradient is only its factors, an ``AddInto`` with nothing to add, and
``backward`` refuses it anywhere but on a factored leaf; a factored
leaf in turn refuses any other gradient, so a ``narrow`` of one is
refused like any dense use. ``optim`` forms the entries one chunk at a
time and sums their norm from the factors, in another order, so the
norm's last bits can differ from a formed gradient's.

A VJP hands over the arrays it returns. Where a parent has no ``.grad``
yet, ``backward`` takes a returned array as that ``.grad`` when it is a
fresh float64 array of the parent's shape (owns its memory, writable,
once in the VJP's result) and adds later gradients into it in place, so
a VJP must not return an array it or anything else still reads; a view
(``g.T``, a slice) is never taken. Taking g instead of adding it into
zeros can only turn a +0.0 into -0.0. Gradients then equal the
zero-filled walk's as numbers, and a preset buffer, which starts at
+0.0 and so never holds -0.0, gets the same bytes; a bare leaf's
``.grad`` may show -0.0 where that walk gave +0.0.

A VJP may overwrite the gradient it is handed. That is its node's own
``.grad``: an array ``backward`` zero-filled or adopted, never a view,
and by the rule above nothing else reads it. ``backward`` drops it,
with the VJP's results, once the VJP returns, so only what the VJP
returns reads the overwritten values (``nets``' tanh layers write their
backward there, and their W gradient reads it).
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


def is_var(x) -> bool:
    return isinstance(x, Var)


def val(x) -> np.ndarray:
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _binary(a, b, out_val, vjp):
    if not (is_var(a) or is_var(b)):
        return out_val
    parents = tuple(x for x in (a, b) if is_var(x))

    def wired(g):
        return tuple(gr for x, gr in zip((a, b), vjp(g)) if is_var(x))

    return Var(out_val, parents, wired)


def _elementwise(a, b, out_val, vjp):
    """``_binary`` for an elementwise op. A plain operand may broadcast;
    a taped one must have the result's shape, so the VJP's g-shaped
    gradient is its own as it is."""
    for x in (a, b):
        if is_var(x) and x.value.shape != out_val.shape:
            raise ContractViolation(
                f"a taped operand of shape {x.value.shape} is broadcast to "
                f"{out_val.shape}")
    return _binary(a, b, out_val, vjp)


def add(a, b):
    return _elementwise(a, b, val(a) + val(b), lambda g: (g, g))


def sub(a, b):
    return _elementwise(a, b, val(a) - val(b), lambda g: (g, -g))


def mul(a, b):
    av, bv = val(a), val(b)
    return _elementwise(a, b, av * bv, lambda g: (g * bv, g * av))


def matmul(a, b):
    """a @ b for (n, k) @ (k, m) operands."""
    av, bv = val(a), val(b)
    if av.ndim != 2 or bv.ndim != 2:
        raise ContractViolation("matmul takes 2-D operands")
    return _binary(a, b, av @ bv, lambda g: (g @ bv.T, av.T @ g))


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


class AddInto:
    """A gradient that adds itself into its parent's gradient array.

    ``backward`` calls ``add(acc)`` with the parent's ``.grad`` (zeros if
    it had none yet); ``add`` adds the gradient into ``acc`` in place.
    ``factors``, when given, are what the gradient is made of, and a
    leaf whose ``.grad`` is a ``FactoredGrad`` keeps them instead; it
    refuses an ``AddInto`` without them, such as a ``narrow``'s. A
    readout u's gradient (``nets._linear_grads``) is only its factors,
    the (g, x, s) of Σ_b g_b ⊗ x_b ⊗ s_b: its ``add`` is None, and
    ``backward`` refuses it where no ``FactoredGrad`` takes it.
    """

    __slots__ = ("add", "factors")

    def __init__(self, add, factors=None):
        self.add = add
        self.factors = factors


class FactoredGrad:
    """A leaf's gradient kept as the factors of its terms, never formed:
    ``terms`` lists the ``AddInto.factors`` delivered, in arrival order."""

    __slots__ = ("terms",)

    def __init__(self):
        self.terms = []

    def append(self, g) -> None:
        if not isinstance(g, AddInto) or g.factors is None:
            raise ContractViolation("a factored gradient takes only factors")
        self.terms.append(g.factors)


def narrow(x, axis, start, length):
    """Contiguous slice along one axis: a node whose gradient adds into
    its parent's slice (an ``AddInto``)."""
    xv = val(x)
    sl = [slice(None)] * xv.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    out = xv[sl]
    if not is_var(x):
        return out

    def vjp(g):
        def add(acc):
            acc[sl] += g

        return (AddInto(add),)

    return Var(out, (x,), vjp)


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
        grads = node._vjp(node.grad)
        for parent, g in zip(node._parents, grads):
            if parent.grad is None:
                if _adoptable(g, parent, grads):
                    parent.grad = g
                    continue
                parent.grad = np.zeros_like(parent.value)
            if isinstance(parent.grad, FactoredGrad):
                parent.grad.append(g)
            elif isinstance(g, AddInto):
                if g.add is None:
                    raise ContractViolation(
                        "a gradient of factors only reaches a factored leaf")
                g.add(parent.grad)
            else:
                parent.grad += g
        # the VJP's results may hold the node's gradient (in AddInto
        # closures), so they go with it, before the next VJP runs
        node.grad = node._vjp = node._parents = grads = g = None


def _adoptable(g, parent, grads) -> bool:
    """Whether g can be parent's first .grad as it is (module docstring)."""
    return (isinstance(g, np.ndarray) and g.base is None
            and g.flags.writeable and g.dtype == np.float64
            and g.shape == parent.value.shape
            and sum(x is g for x in grads) == 1)
