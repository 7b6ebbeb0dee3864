"""Adam with bias correction and global-norm gradient clipping.

``adam_step`` works in place: m, v and the parameters are updated
block by block over fixed slices of ADAM_BLOCK entries, and each block
runs the textbook expressions in their usual order, so the result is
bitwise the out-of-place update's while the temporaries stay
block-sized. ``clip_grad_norm`` walks the same slices to find the norm
and rescales in place, so no step of an epoch holds a second
parameter-sized array. ``AdamState`` also owns the run's one gradient
buffer, which every step's ``ParamVars`` fills.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NumericError
from .params import ParamStore

ADAM_BLOCK = 1 << 16  # entries per in-place update block


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    grad: ParamStore
    step: int = 0

    @classmethod
    def for_params(cls, params: ParamStore) -> "AdamState":
        # np.zeros maps zero pages without writing them; zeros_like fills
        shape = params.data.shape
        return cls(m=np.zeros(shape), v=np.zeros(shape),
                   grad=ParamStore(params.layout))


def adam_step(
    state: AdamState,
    params: ParamStore,
    grads: ParamStore,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> ParamStore:
    """One Adam update, in place on ``params``; advances the step count."""
    if params.layout != grads.layout:
        raise ContractViolation("params and grads have different layouts")
    if state.m.shape != params.data.shape:
        raise ContractViolation("optimizer state does not match params")
    state.step += 1
    m_scale = 1.0 - beta1**state.step
    v_scale = 1.0 - beta2**state.step
    for lo in range(0, params.data.size, ADAM_BLOCK):
        block = slice(lo, lo + ADAM_BLOCK)
        g, m, v, p = (a[block] for a in (grads.data, state.m, state.v,
                                         params.data))
        m[:] = beta1 * m + (1.0 - beta1) * g
        v[:] = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / m_scale
        v_hat = v / v_scale
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return params


def clip_grad_norm(grads: ParamStore, max_norm: float) -> float:
    """Scale grads so the global L2 norm is at most max_norm (in place).

    Returns the norm before clipping: the square root of ``np.sum(g * g)``
    over fixed slices of ADAM_BLOCK entries, added in slice order. The
    temporaries are block-sized, no BLAS reduction (whose order may follow
    the thread count) is used, and a single block's norm is the one-pass
    numpy value bit for bit. A non-finite norm (an inf or NaN entry)
    raises NumericError: Adam would write it into every parameter.
    """
    if max_norm <= 0:
        raise ContractViolation("max_norm must be positive")
    g = grads.data
    total = 0.0
    for lo in range(0, g.size, ADAM_BLOCK):
        block = g[lo:lo + ADAM_BLOCK]
        total += np.sum(block * block)
    norm = float(np.sqrt(total))
    if not np.isfinite(norm):
        raise NumericError("gradient norm is non-finite")
    if norm > max_norm:
        g *= max_norm / norm
    return norm
