"""Adam with bias correction and global-norm gradient clipping.

``adam_step`` works in place: it walks the parameter slices in layout
order and updates m, v and each slice in blocks of at most ADAM_BLOCK
entries, and each block runs the textbook expressions in their usual
order. Adam is elementwise, so where the block boundaries fall changes
no bit: the result is bitwise the out-of-place update's. The
temporaries are written into two work blocks made once per step, so no
block allocates. ``clip_grad_norm`` walks the gradient buffer in blocks
of ADAM_BLOCK entries to find the norm and rescales in place, so no
step of an epoch holds a second parameter-sized array. ``AdamState``
also owns the run's one gradient buffer, which every step's
``ParamVars`` fills.

Factored slices. The hypernetwork readouts, one slice U_l per targeted
layer, have gradients as large as U_l, each a sum of rank-one terms,
which exist only as the terms' factors (``autodiff.FactoredGrad``) and
get no room in the buffer. ``clip_grad_norm`` adds each slice's squared
norm from the factors' Gram matrices, and ``adam_step`` forms each
slice's gradient one chunk at a time (``nets.u_grad_chunks``), scales
the chunk by the clip factor it is handed (``clip_factor``) and updates
m, v and U_l on strided views of at most ADAM_BLOCK entries. The norm is
summed in another order than the chunks' entries, so it, and a clip
factor, can differ in the last bits from the formed gradient's (within
1e-13 relative).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NumericError
from .nets import IN_BLOCK, u_grad_chunks, u_grad_sq_norm
from .params import ParamStore

ADAM_BLOCK = 1 << 16  # entries per in-place update block


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    grad: ParamStore
    step: int = 0

    @classmethod
    def for_params(cls, params: ParamStore, factored=()) -> "AdamState":
        """Zero m and v, and a gradient buffer with no room for the
        ``factored`` slices: its layout is the one record of which
        slices those are (``params.ParamVars`` reads them from it)."""
        # np.zeros maps zero pages without writing them; zeros_like fills
        shape = params.data.shape
        return cls(m=np.zeros(shape), v=np.zeros(shape),
                   grad=ParamStore(params.layout.without(factored)))


def clip_factor(norm: float, max_norm: float) -> float | None:
    """The factor ``clip_grad_norm`` scales a gradient of ``norm`` by,
    None if it leaves it as it is."""
    return max_norm / norm if norm > max_norm else None


def _spans(lo, hi, size=ADAM_BLOCK):
    for a in range(lo, hi, size):
        yield slice(a, min(a + size, hi))


def _check_terms(name, spec, fg, data):
    """Refuse ``fg``'s terms unless each fits ``spec``, an (o·i, r) slice,
    and no factor shares memory with the parameters ``data``."""
    for g, xv, sv in fg.terms:
        if (g.shape[1] * xv.shape[1], sv.shape[1]) != spec.shape:
            raise ContractViolation(f"factors do not fit {name}")
        if any(np.may_share_memory(f, data) for f in (g, xv, sv)):
            raise ContractViolation(
                f"factors of {name} share memory with the parameters")


def adam_step(
    state: AdamState,
    params: ParamStore,
    grads: ParamStore,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    factored=None,
    grad_scale: float | None = None,
) -> ParamStore:
    """One Adam update, in place on ``params``; advances the step count.

    ``grads`` has the layout of ``state.grad``: every slice but those
    ``factored`` maps to their ``autodiff.FactoredGrad`` (module
    docstring). Each chunk formed from those is scaled by ``grad_scale``,
    the ``clip_factor`` that ``clip_grad_norm`` applied to ``grads``, if
    any. A factored slice that no term reached steps with a zero
    gradient.

    One walk over the slices in layout order updates each in turn: a
    buffered slice from its stretch of ``grads``, a factored one from the
    chunks formed from its factors. So a factor must not share memory
    with the parameters: one that did could be read after its update.
    Such a factor, like a layout that does not match or terms that do
    not fit, is refused before anything changes.
    """
    factored = factored or {}
    if grads.layout != state.grad.layout:
        raise ContractViolation("params and grads have different layouts")
    if state.m.shape != params.data.shape:
        raise ContractViolation("optimizer state does not match params")
    if set(factored) != {s.name for s in params.layout.slices
                         if s.name not in grads.layout}:
        raise ContractViolation("factored gradients are not the slices "
                                "grads has no room for")
    if grads.layout != params.layout.without(factored):
        raise ContractViolation("params and grads have different layouts")
    for name, fg in factored.items():
        _check_terms(name, params.layout[name], fg, params.data)
    state.step += 1
    m_scale = 1.0 - beta1**state.step
    v_scale = 1.0 - beta2**state.step
    # update's two temporaries: every operand it gets is at most
    # ADAM_BLOCK entries or one row of a factored chunk (IN_BLOCK·r wide)
    widest = max((IN_BLOCK * params.layout[name].shape[1]
                  for name in factored), default=0)
    work = np.empty((2, min(params.data.size, max(ADAM_BLOCK, widest))))

    def update(g, m, v, p):
        """The textbook update, each expression in its usual order,
        written into m, v, p and the two work blocks."""
        a, b = (w[:m.size].reshape(m.shape) for w in work)
        np.add(np.multiply(beta1, m, out=a),
               np.multiply(1.0 - beta1, g, out=b), out=m)
        np.multiply(np.multiply(1.0 - beta2, g, out=b), g, out=b)
        np.add(np.multiply(beta2, v, out=a), b, out=v)
        np.multiply(lr, np.divide(m, m_scale, out=a), out=a)  # lr · m̂
        np.add(np.sqrt(np.divide(v, v_scale, out=b), out=b), eps, out=b)
        p -= np.divide(a, b, out=a)

    def update_flat(lo, hi, g=None):
        """Entries [lo, hi) with gradient g, or a zero one if g is None."""
        for block in _spans(lo, hi):
            gb = 0.0 if g is None else g[block.start - lo:block.stop - lo]
            update(gb, state.m[block], state.v[block], params.data[block])

    for spec in params.layout.slices:
        lo, hi = spec.offset, spec.offset + spec.size
        terms = factored[spec.name].terms if spec.name in factored else None
        if terms is None:
            g = grads.layout[spec.name]
            update_flat(lo, hi, grads.data[g.offset:g.offset + g.size])
        elif not terms:
            update_flat(lo, hi)
        else:
            n_out = terms[0][0].shape[1]
            m_r, v_r, p_r = (a[lo:hi].reshape(n_out, -1)
                             for a in (state.m, state.v, params.data))
            for cols, chunk in u_grad_chunks(terms):
                if grad_scale is not None:
                    chunk *= grad_scale
                rows_per = max(1, ADAM_BLOCK // chunk.shape[1])
                for rows in _spans(0, n_out, rows_per):
                    update(chunk[rows], m_r[rows, cols], v_r[rows, cols],
                           p_r[rows, cols])
    return params


def clip_grad_norm(grads: ParamStore, max_norm: float, factored=None) -> float:
    """Scale grads so the global L2 norm is at most max_norm (in place).

    Returns the norm before clipping: the square root of ``np.sum(g * g)``
    over fixed slices of ADAM_BLOCK entries, added in slice order. The
    temporaries are block-sized, no BLAS reduction (whose order may follow
    the thread count) is used, and a single block's norm is the one-pass
    numpy value bit for bit. A non-finite norm (an inf or NaN entry)
    raises NumericError: Adam would write it into every parameter.

    Each ``factored`` gradient then adds its squared norm from the
    factors (``nets.u_grad_sq_norm``, GEMMs whose sums may follow the
    thread count; a rounded value below 0 counts as 0), in slice order.
    They are not scaled here: ``adam_step`` scales each chunk
    it forms by the ``grad_scale`` it is handed.
    """
    if max_norm <= 0:
        raise ContractViolation("max_norm must be positive")
    factored = factored or {}
    g = grads.data
    total = 0.0
    for block in _spans(0, g.size):
        total += np.sum(g[block] * g[block])
    for fg in factored.values():
        if fg.terms:
            total += max(u_grad_sq_norm(fg.terms), 0.0)
    norm = float(np.sqrt(total))
    if not np.isfinite(norm):
        raise NumericError("gradient norm is non-finite")
    scale = clip_factor(norm, max_norm)
    if scale is not None:
        g *= scale
    return norm
