"""MLP and LSTM forward passes over ParamStore slices.

Forwards accept either a ParamStore (plain evaluation) or ParamVars
(recorded for reverse-mode gradients) — see autodiff. Hidden activations
are tanh by default; an "identity" activation is also supported, which
turns an MLP into an exact affine map (used to plant closed-form
immersion maps in tests and diagnostics).

The physics residuals need the encoder's input Jacobian only along the
drift, J·f(x, u). ``mlp_forward_with_jacobian`` pushes that one tangent
through each layer's linear map and tanh derivative next to the value
(forward-mode AD): one extra row per sample whatever n_x is. The value
and tangent rows are stacked into one array, and each layer is one tape
node with a hand-written VJP (``_mlp_layer``) that keeps only its
output, so the tangent stays differentiable w.r.t. the parameters at
one stacked array per layer. Both forwards run one layer loop; a plain
forward tapes nothing.

Per-sample weights come as rank factors: layer l of sample b uses
W_l + reshape(U_l s[b], (n_out, n_in)) with U_l (n_out·n_in, r) shared
and s (B, r) per sample. ``lowrank_linear`` applies that as two GEMMs,
so no (B, n_out, n_in) weight is formed; ``_mlp_layer``, the one node
that tapes it, differentiates it through ``_linear_grads``. Forward
and backward walk the same fixed chunks of IN_BLOCK input columns, the
forward chunk by chunk over fixed blocks of ROW_BLOCK rows: the
forward's transients grow with neither the batch nor the weight's size,
the backward's only with the batch. The forward needs one chunk
of U_l at a time, so it also takes U_l as a chunk source that reads
each chunk when it is wanted: eval's list of them, one per decoder
layer, each reading its layer's readout from the checkpoint file one
IN_BLOCK chunk at a time (``checkpoints.Readout.layers``). Every LSTM
forward, plain or taped, runs one block of LSTM_BLOCK rows at a time
(``_row_blocks``) for the same reason, and eval's decode
(``evaluation.run_observer``) ROW_BLOCK steps of a run at a time. The
taped LSTM keeps only segment checkpoints and backpropagates in the
same row blocks, replaying each from its checkpoint, so neither pass's
transients grow with the batch (``lstm_forward``). U's gradient is a
sum of rank-one terms g_b ⊗ x_b ⊗ s_b and exists only as their factors;
``u_grad_chunks`` and ``u_grad_sq_norm`` give its chunks and its norm
from them, so no run holds it whole (``optim``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import seeding
from .errors import ContractViolation
from .params import ParamStore

# Rows per forward block of lowrank_linear, per block of tanh's backward
# and per block of steps of eval's decode (evaluation.run_observer, whose
# estimates' last bits follow it) and of a plain step injection's
# contexts (hypernet.make_step_injection), and input columns per chunk of
# lowrank_linear (see there).
ROW_BLOCK = 256
IN_BLOCK = 16
# Rows per block of every LSTM forward and of the taped LSTM's backward,
# which replays and reverses one block at a time (lstm_forward). A block
# must give the whole batch's bits, and OpenBLAS gives a GEMM of 1-4 rows
# other bits than the same rows of a larger product, so a tail of fewer
# than MIN_REPLAY_ROWS rows joins the block before it (_row_blocks).
LSTM_BLOCK = ROW_BLOCK // 4
MIN_REPLAY_ROWS = 8


@dataclass(frozen=True)
class MlpSpec:
    """widths[0] inputs -> hidden layers -> widths[-1] outputs."""

    widths: tuple[int, ...]
    activation: str = "tanh"

    def __post_init__(self):
        if len(self.widths) < 3:
            raise ContractViolation("MLP needs at least one hidden layer")
        if any(w < 1 for w in self.widths):
            raise ContractViolation("MLP widths must be positive")
        if self.activation not in ("tanh", "identity"):
            raise ContractViolation(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1


@dataclass(frozen=True)
class LstmSpec:
    """Standard 4-gate cell; gate order is (input, forget, cell, output)."""

    input_size: int
    hidden_size: int

    def __post_init__(self):
        if self.input_size < 1 or self.hidden_size < 1:
            raise ContractViolation("LSTM sizes must be positive")


def mlp_layout_entries(spec: MlpSpec, prefix: str):
    entries = []
    for i in range(spec.n_layers):
        n_in, n_out = spec.widths[i], spec.widths[i + 1]
        entries.append((f"{prefix}.W{i}", (n_out, n_in)))
        entries.append((f"{prefix}.b{i}", (n_out,)))
    return entries


def lstm_layout_entries(spec: LstmSpec, prefix: str):
    h, m = spec.hidden_size, spec.input_size
    return [
        (f"{prefix}.Wx", (4 * h, m)),
        (f"{prefix}.Wh", (4 * h, h)),
        (f"{prefix}.b", (4 * h,)),
    ]


def mlp_weight_names(spec: MlpSpec, prefix: str):
    """Names of the weight matrices only (biases never receive deltas)."""
    return [f"{prefix}.W{i}" for i in range(spec.n_layers)]


def init_mlp(params: ParamStore, spec: MlpSpec, prefix: str, seed: int) -> None:
    """Uniform fan-in init, +-sqrt(1/fan_in) on weights, zero biases."""
    rng = seeding.stream(seed, seeding.STREAM_PARAM_INIT)
    for i in range(spec.n_layers):
        n_in, n_out = spec.widths[i], spec.widths[i + 1]
        bound = np.sqrt(1.0 / n_in)
        params.set(f"{prefix}.W{i}", rng.uniform(-bound, bound, (n_out, n_in)))
        params.set(f"{prefix}.b{i}", np.zeros(n_out))


def init_lstm(params: ParamStore, spec: LstmSpec, prefix: str, seed: int) -> None:
    rng = seeding.stream(seed, seeding.STREAM_PARAM_INIT)
    h, m = spec.hidden_size, spec.input_size
    params.set(f"{prefix}.Wx", rng.uniform(-np.sqrt(1.0 / m), np.sqrt(1.0 / m), (4 * h, m)))
    params.set(f"{prefix}.Wh", rng.uniform(-np.sqrt(1.0 / h), np.sqrt(1.0 / h), (4 * h, h)))
    params.set(f"{prefix}.b", np.zeros(4 * h))


def transpose2d(x):
    xv = ad.val(x)
    out = xv.T
    if not ad.is_var(x):
        return out
    return ad.Var(out, (x,), lambda g: (g.T,))


def _outer(a, b):
    """Row-wise a[k] ⊗ b[k], flattened to (rows, a_cols · b_cols)."""
    return (a[:, :, None] * b[:, None, :]).reshape(
        a.shape[0], a.shape[1] * b.shape[1])


def _in_chunks(n_in, rank):
    """Slices of IN_BLOCK input columns and of their columns of P and u_r."""
    for i0 in range(0, n_in, IN_BLOCK):
        i1 = min(i0 + IN_BLOCK, n_in)
        yield slice(i0, i1), slice(i0 * rank, i1 * rank)


def _u_values(u, others):
    """The values of u: u's array, or u itself if it is a chunk source.

    A chunk source is a read-only object with u's (o·i, r) ``shape``
    whose ``chunk(cols_r)`` returns the (o, |cols_r|) columns ``cols_r``
    of u's (o, i·r) view u_r, the values of u_r[:, cols_r]. Its chunks
    may share one buffer, so it is refused beside a taped input of
    ``others``.
    """
    if not hasattr(u, "chunk"):
        return ad.val(u)
    if any(ad.is_var(a) for a in others):
        raise ContractViolation("a readout read in chunks cannot be taped")
    return u


def lowrank_linear(x, w, u, s, out=None):
    """x Wᵀ with sample b's weight W + reshape(u s[b], (o, i)), unformed.

    x is (B, i), W (o, i), u (o·i, r) the readout U_l that maps onto W's
    entries in C order, and s (B, r) the per-sample coordinates: arrays,
    but u may be a chunk source (``_u_values``). Computed as two GEMMs,
    x Wᵀ + P u_rᵀ, with P[b] = x[b] ⊗ s[b] of shape (B, i·r) and u_r the
    (o, i·r) view of u; no (B, o, i) weight exists. The result is
    written into ``out`` when one is given. This is the forward kernel
    of ``_mlp_layer``, the one node that tapes it; its gradients are
    ``_linear_grads``.

    It walks the inputs IN_BLOCK columns at a time: columns [i0, i1) of
    x own columns [i0·r, i1·r) of P and of u_r, a strided view that BLAS
    takes as it is. It takes each chunk of u_r once and, for each block
    of ROW_BLOCK rows, adds P[rows, chunk] u_r[:, chunk]ᵀ into out[rows]:
    each block gets the GEMMs, of the same shapes and in the same chunk
    order, that a loop over blocks outside the chunks gives it, so the
    bits do not depend on the loop order. Its transient is
    ROW_BLOCK·IN_BLOCK·r floats whatever B and i are.
    """
    batch, n_in = x.shape
    n_out, rank = w.shape[0], s.shape[1]
    if u.shape != (n_out * n_in, rank) or s.shape[0] != batch:
        raise ContractViolation(
            f"low-rank factors {u.shape} and {s.shape} do not fit a "
            f"({n_out}, {n_in}) weight on {batch} samples"
        )
    if hasattr(u, "chunk"):
        chunk = u.chunk
    else:
        u_r = u.reshape(n_out, n_in * rank)

        def chunk(cols_r):
            return u_r[:, cols_r]

    out = np.matmul(x, w.T, out=out)
    for cols, cols_r in _in_chunks(n_in, rank):
        u_chunk = chunk(cols_r)
        for lo in range(0, batch, ROW_BLOCK):
            rows = slice(lo, lo + ROW_BLOCK)
            out[rows] += _outer(x[rows, cols], s[rows]) @ u_chunk.T
    return out


def _linear_grads(g, xv, wv, factors, taped):
    """Gradients of the rows x Wᵀ (+ P u_rᵀ) for the output gradient g.

    ``factors`` is (u, s) as arrays, one s row per row of x, or None;
    ``taped`` flags which of x, W, u and s want a gradient. Returns their
    four gradients in that order, None where not wanted: x's and s's as
    arrays, W's and u's as ``autodiff.AddInto``. Per IN_BLOCK chunk of
    inputs the x and s terms come from g u_r's columns, so no (rows, i·r)
    array is formed. u's gradient exists only as its factors (g, x, s),
    the terms of Σ_b g_b ⊗ x_b ⊗ s_b: an ``AddInto`` with nothing to
    add, which only a factored leaf (``autodiff.FactoredGrad``) takes;
    ``u_grad_chunks`` forms its chunks from them.
    """
    want_x, want_w, want_u, want_s = taped
    gx = g @ wv if want_x else None
    gw = gu = gs = None
    if want_w:
        gw = ad.AddInto(lambda acc: np.add(acc, g.T @ xv, out=acc))
    if factors is None:
        return gx, gw, gu, gs
    uv, sv = factors
    (rows, n_in), rank = xv.shape, sv.shape[1]
    if want_u:
        gu = ad.AddInto(None, factors=(g, xv, sv))
    if want_s:
        gs = np.zeros_like(sv)
    if want_x or want_s:
        u_r = uv.reshape(len(wv), n_in * rank)
        for cols, cols_r in _in_chunks(n_in, rank):
            gp = (g @ u_r[:, cols_r]).reshape(rows, cols.stop - cols.start,
                                               rank)
            if want_x:
                gx[:, cols] += np.einsum("bir,br->bi", gp, sv)
            if want_s:
                gs += np.einsum("bir,bi->br", gp, xv[:, cols])
    return gx, gw, gu, gs


def _add_u_chunk(acc, terms, cols):
    """Add input columns ``cols`` of u's gradient into the (o, |cols|·r)
    ``acc``: gᵀ (x[:, cols] ⊗ s) for each (g, x, s) of ``terms``, in order."""
    for g, xv, sv in terms:
        acc += g.T @ _outer(xv[:, cols], sv)


def u_grad_chunks(terms):
    """u's gradient from the factors of its terms, one input chunk at a time.

    ``terms`` are the ``AddInto.factors`` (g, x, s) that ``_linear_grads``
    hands one (o·i, r) u, in the order they arrived. Yields
    ``(cols_r, chunk)``: the (o, |cols|·r) columns ``cols_r`` of u's
    (o, i·r) view, each summed from zeros term by term, gᵀ (x[:, cols] ⊗
    s) per term (``_add_u_chunk``). One chunk exists at a time.
    """
    g, xv, sv = terms[0]
    n_out, n_in, rank = g.shape[1], xv.shape[1], sv.shape[1]
    for cols, cols_r in _in_chunks(n_in, rank):
        chunk = np.zeros((n_out, cols_r.stop - cols_r.start))
        _add_u_chunk(chunk, terms, cols)
        yield cols_r, chunk


def u_grad_sq_norm(terms) -> float:
    """The squared Frobenius norm of u's gradient from its factors.

    With G, X and S the terms' g, x and s stacked row-wise, the gradient
    is Σ_b g_b ⊗ x_b ⊗ s_b, so its squared norm is
    Σ_ab (G Gᵀ)_ab (X Xᵀ)_ab (S Sᵀ)_ab (the Gram form of per-example
    gradient norms, Goodfellow, arXiv:1510.01799). Taken ROW_BLOCK rows
    of a at a time, so the transient is ROW_BLOCK rows of the Gram
    matrices. Equal to the formed gradient's norm up to rounding: the
    sum runs in another order.
    """
    g, xv, sv = (np.concatenate(f) for f in zip(*terms))
    total = 0.0
    for lo in range(0, len(g), ROW_BLOCK):
        rows = slice(lo, lo + ROW_BLOCK)
        gram = g[rows] @ g.T
        gram *= xv[rows] @ xv.T
        gram *= sv[rows] @ sv.T
        total += np.sum(gram)
    return total


def _tanh_grad(g, y, tangent_lin=None):
    """The gradient at a tanh layer's linear outputs, written into g.

    g is the gradient at the layer's outputs. Its first len(y) rows are
    at y = tanh(v); the rest, when ``tangent_lin`` t is given, at the
    tangent t ⊙ (1 − y²), whose factor depends on y as well:
    dL/dv = (g_y − 2 y t g_t)(1 − y²). g is the node's own ``.grad``,
    which ``backward`` drops once the VJP returns (``autodiff``), so the
    result overwrites it and no second g-sized array is made; 1 − y² is
    formed ROW_BLOCK rows at a time, once for both halves, and each
    block's g_t is read into the second-order term before it is
    overwritten. ``tangent_lin`` is overwritten too.
    """
    n = len(y)
    for lo in range(0, n, ROW_BLOCK):
        values = slice(lo, min(lo + ROW_BLOCK, n))
        d = np.multiply(y[values], y[values])
        np.subtract(1.0, d, out=d)
        if tangent_lin is not None:
            g_t = g[n + values.start : n + values.stop]
            second = tangent_lin[values]
            second *= y[values]
            second *= g_t
            second *= 2.0
            g_t *= d
            g[values] -= second
        g[values] *= d
    return g


def _mlp_layer(x, n, w, b, factors, squash):
    """One MLP layer over stacked rows, as one tape node.

    x is (R, n_in): rows [:n] hold the values and rows [n:], if R > n,
    the tangent. Rows [:n] of the (R, n_out) result are x[:n] Wᵀ + b,
    through tanh when ``squash``; rows [n:] are x[n:] Wᵀ, times tanh's
    derivative 1 − y² at the value rows when ``squash``. ``factors``, a
    (u, s) pair or None, gives every row block its sample's low-rank
    weight through ``lowrank_linear``, run once on the value rows and
    once on the tangent rows; u may be a chunk source, which no taped
    input may join.

    The result is written in place in the order x[:n] Wᵀ, + b, tanh,
    x[n:] Wᵀ, · (1 − y²): the operations of the chain of tape primitives
    this node replaces, on the same row blocks, so the values and the
    tangent are that chain's, bit for bit. The node keeps only its
    result. Its VJP recomputes x[n:] Wᵀ for the tangent's second-order
    term, writes tanh's backward into the gradient it is handed
    (``_tanh_grad``), takes the linear map's gradients over all R rows
    at once (s repeated per row block), adds W's and b's gradients into
    their arrays (``autodiff.AddInto``) and hands u's on as its factors
    (``_linear_grads``).
    """
    u, s = factors or (None, None)
    xv, wv, bv = (ad.val(a) for a in (x, w, b))
    uv, sv = (None, None) if factors is None else (
        _u_values(u, (x, w, b, s)), ad.val(s))
    rows = len(xv)
    values, tangent = slice(0, n), slice(n, rows)

    def linear(part, out=None):
        if factors is None:
            return np.matmul(xv[part], wv.T, out=out)
        return lowrank_linear(xv[part], wv, uv, sv, out)

    out = np.empty((rows, len(wv)))
    y = linear(values, out[values])
    y += bv
    if squash:
        np.tanh(y, out=y)
    if rows > n:
        linear(tangent, out[tangent])
        if squash:
            out[tangent] *= 1.0 - y * y
    inputs = (x, w, b, u, s)
    if not any(ad.is_var(a) for a in inputs):
        return out

    def vjp(g):
        if squash:
            g = _tanh_grad(g, y, linear(tangent) if rows > n else None)
        stacked = None if factors is None else (
            uv, np.concatenate([sv] * (rows // n)))
        gx, gw, gu, gs = _linear_grads(
            g, xv, wv, stacked, [ad.is_var(a) for a in (x, w, u, s)])
        if gs is not None:
            gs = gs.reshape(rows // n, n, -1).sum(axis=0)
        gb = ad.AddInto(lambda acc: np.add(acc, g[values].sum(axis=0),
                                           out=acc))
        grads = (gx, gw, gb, gu, gs)
        return tuple(gr for a, gr in zip(inputs, grads) if ad.is_var(a))

    return ad.Var(out, tuple(a for a in inputs if ad.is_var(a)), vjp)


def _mlp_layers(params, spec: MlpSpec, x, n, prefix: str, weight_deltas):
    """The layer loop of both MLP forwards, one ``_mlp_layer`` node each.

    x is (R, n_in) stacked rows: the n value rows, then the tangent rows
    if R > n. Returns the last layer's (R, n_out) result in the same
    layout. Hidden layers squash with tanh unless the activation is
    "identity"; the last layer is affine.
    """
    if ad.val(x).shape[-1] != spec.widths[0]:
        raise ContractViolation(
            f"MLP expects input width {spec.widths[0]}, got {ad.val(x).shape[-1]}"
        )
    squash_hidden = spec.activation == "tanh"
    for i in range(spec.n_layers):
        x = _mlp_layer(
            x, n, params.get(f"{prefix}.W{i}"), params.get(f"{prefix}.b{i}"),
            None if weight_deltas is None else weight_deltas[i],
            squash_hidden and i < spec.n_layers - 1)
    return x


def mlp_forward(params, spec: MlpSpec, x, prefix: str, weight_deltas=None):
    """Forward pass over a (B, n_in) batch; one sample is a (1, n_in) row.

    ``weight_deltas`` is an optional per-layer list of ``(U_l, s)``
    factors or None (U_l an array or a chunk source, ``lowrank_linear``):
    layer l of sample b then uses the weight
    W_l + reshape(U_l s[b], (n_out, n_in)), applied by lowrank_linear
    without forming it (biases stay shared).
    """
    xv = ad.val(x)
    if xv.ndim != 2:
        raise ContractViolation(f"MLP expects a (B, n_in) batch, got {xv.ndim}-D")
    return _mlp_layers(params, spec, x, len(xv), prefix, weight_deltas)


def mlp_forward_with_jacobian(params, spec: MlpSpec, x, prefix: str, tangent,
                              weight_deltas=None):
    """Forward pass plus the input-Jacobian product along ``tangent``.

    x and tangent are (B, n_in) batches. Returns (out, jvp), both
    (B, n_out), with jvp[s] = d out[s] / d x[s] · tangent[s]; both stay
    differentiable w.r.t. the parameters. The layers run on x and tangent
    stacked into (2B, n_in) rows, and out and jvp are the two halves
    (``autodiff.narrow``) of the last layer's (2B, n_out) result.
    ``weight_deltas`` is as in mlp_forward: the tangent goes through each
    layer's weights with the same per-sample factors.
    """
    xv = ad.val(x)
    if xv.ndim != 2 or ad.val(tangent).shape != xv.shape:
        raise ContractViolation("jacobian forward expects (B, n_in) batches")
    n = len(xv)
    out = _mlp_layers(params, spec, ad.concat([x, tangent]), n, prefix,
                      weight_deltas)
    return ad.narrow(out, 0, 0, n), ad.narrow(out, 0, n, n)


def _sigmoid(z, out=None):
    """1 / (1 + exp(-z)), written into ``out``."""
    return np.divide(1.0, 1.0 + np.exp(-z), out=out)


def _lstm_step(x_t, h, c, wx, wh, b, hsz, out=(None,) * 7):
    """One cell step: (i, f, g, o) gate activations, tanh(c_t), c_t, h_t.

    ``out`` names seven (B, h) arrays to write these into; by default
    they are fresh. The forward of ``lstm_forward`` and the replay in its
    backward both run this step on the same inputs, and where a ufunc
    writes its result does not change the result's bits, so every
    replayed state and gate is the forward's, bit for bit.
    """
    gi, gf, gc, go, tanh_c, c_t, h_t = out
    gates = x_t @ wx.T
    gates += h @ wh.T
    gates += b
    gi = _sigmoid(gates[:, :hsz], gi)
    gf = _sigmoid(gates[:, hsz : 2 * hsz], gf)
    gc = np.tanh(gates[:, 2 * hsz : 3 * hsz], out=gc)
    go = _sigmoid(gates[:, 3 * hsz :], go)
    c_t = np.multiply(gf, c, out=c_t)
    c_t += gi * gc
    tanh_c = np.tanh(c_t, out=tanh_c)
    return gi, gf, gc, go, tanh_c, c_t, np.multiply(go, tanh_c, out=h_t)


def _lstm_span(w: int, batch: int) -> int:
    """Steps per checkpointed segment of a taped w-step window over
    ``batch`` rows.

    Between forward and backward the window holds the (h, c) entering
    each segment but the first, 2·(⌈w/span⌉ − 1) arrays of B rows; the
    forward runs one row block at a time, and the backward replays one
    segment of one row block at a time, 7·span arrays of
    R = min(B, LSTM_BLOCK) rows. ⌈√(2·w·B/(7·R))⌉ balances the
    two: the time trade of Chen et al. (arXiv 1604.06174) and Gruslys et
    al. (arXiv 1606.03401), taken over rows as well. It is 6 at w = 100
    for B ≤ LSTM_BLOCK, 11 at B = 256 and 22 at B = 1001.
    """
    rows = min(batch, LSTM_BLOCK)
    return math.ceil(math.sqrt(2 * w * batch / (7 * rows)))


def _row_blocks(batch: int) -> list[slice]:
    """The row blocks of every LSTM pass: LSTM_BLOCK rows each,
    and a tail of fewer than MIN_REPLAY_ROWS rows joins the block before
    it, so no block but a whole batch of fewer rows has fewer."""
    starts = list(range(0, batch, LSTM_BLOCK))
    if len(starts) > 1 and batch - starts[-1] < MIN_REPLAY_ROWS:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [batch])]


def _lstm_run(seq, wx, wh, b, hsz, checkpoints=()):
    """Final h of the LSTM run over the (B, w, m) windows ``seq`` from
    zero state, one ``_row_blocks`` block of rows after another.

    ``checkpoints`` holds one pair of (B, h) arrays for each segment of
    ``_lstm_span(w, B)`` steps but the first; each block writes its rows
    of the (h, c) entering that segment into them. Rows are independent
    and a block's GEMMs give the whole batch's bits (LSTM_BLOCK), so the
    result and the checkpoints are those of one whole-batch pass, bit for
    bit, and a step's transients grow with LSTM_BLOCK, not with B.
    """
    batch, w, _ = seq.shape
    span = _lstm_span(w, batch)
    out = np.empty((batch, hsz))
    for rows in _row_blocks(batch):
        block = seq[rows]
        h = np.zeros((len(block), hsz))
        c = np.zeros((len(block), hsz))
        for t in range(w):
            if t and t % span == 0 and checkpoints:
                h_k, c_k = checkpoints[t // span - 1]
                h_k[rows], c_k[rows] = h, c
            *_, c, h = _lstm_step(block[:, t, :], h, c, wx, wh, b, hsz)
        out[rows] = h
    return out


def _lstm_replay(seq, t0, t1, h, c, wx, wh, b, hsz, spare):
    """Steps t0..t1-1 again from their checkpoint (h, c), as the forward
    ran them; returns each step's x_t, h_{t-1}, c_{t-1}, (i, f, g, o) and
    tanh(c_t) for ``_lstm_step_back``. The results are written into the
    arrays of ``spare`` while it has any; they must have the rows of h."""
    steps = []
    for t in range(t0, t1):
        x_t = seq[:, t, :]
        out = [spare.pop() if spare else None for _ in range(7)]
        *acts, c_t, h_t = _lstm_step(x_t, h, c, wx, wh, b, hsz, out)
        steps.append((x_t, h, c, *acts))
        h, c = h_t, c_t
    return steps


def _lstm_step_back(dh, dc, step, wh, grads):
    """One reverse step from dL/dh_t and the running dL/dc_t.

    Adds the step's terms to the (Wx, Wh, b) gradients in ``grads`` and
    returns dL/dh_{t-1} and the running dL/dc_{t-1}.
    """
    x_t, h_prev, c_prev, gi, gf, gc, go, tanh_c = step
    dc = dc + dh * go * (1.0 - tanh_c * tanh_c)
    dz = np.concatenate([
        dc * gc * gi * (1.0 - gi),
        dc * c_prev * gf * (1.0 - gf),
        dc * gi * (1.0 - gc * gc),
        dh * tanh_c * go * (1.0 - go),
    ], axis=1)
    gwx, gwh, gb = grads
    gwx += dz.T @ x_t
    gwh += dz.T @ h_prev
    gb += dz.sum(axis=0)
    return dz @ wh, dc * gf


def lstm_forward(params, spec: LstmSpec, sequence, prefix: str):
    """Final hidden state of the LSTM over (B, w, m) input windows.

    Zero initial hidden and cell state; returns (B, hidden_size). The
    forward runs the ``_row_blocks`` blocks one after another
    (``_lstm_run``), so a step's transients grow with LSTM_BLOCK, not
    with B; rows are independent, and each block's rows are the whole
    batch's, bit for bit. On plain parameters nothing else is kept. When
    the weights are tape leaves the whole batch is one tape node, and
    the forward writes each block's rows of the (h, c) entering each
    segment of ``_lstm_span(w, B)`` steps into whole-batch checkpoint
    arrays (the first segment starts from zeros). The hand-written
    backward-through-time pass walks the same row blocks. For each block
    it takes the segments from last to first: it replays one segment's
    forward from the block's rows of its checkpoint, keeping each step's
    h_{t-1}, c_{t-1}, gates and tanh(c_t), then runs that segment's
    reverse steps. So the replay holds one segment of one block,
    whatever B is. Every gate is computed twice, once in the forward and
    once in the replay, and since the replay is the forward's own step
    on the forward's own rows, every replayed state is the forward's,
    bit for bit, whatever the span. The weight gradients are those of
    keeping every step, summed block by block: the same products as one
    whole-batch reverse pass, added in another order.
    """
    seq = np.asarray(ad.val(sequence), dtype=np.float64)
    if seq.ndim != 3 or seq.shape[1] < 1:
        raise ContractViolation("LSTM needs a non-empty (B, w, m) sequence")
    if seq.shape[2] != spec.input_size:
        raise ContractViolation(
            f"LSTM expects input size {spec.input_size}, got {seq.shape[2]}"
        )
    batch, w, _ = seq.shape
    hsz = spec.hidden_size
    weights = [params.get(f"{prefix}.{n}") for n in ("Wx", "Wh", "b")]
    wx, wh, b = (ad.val(p) for p in weights)
    if not any(ad.is_var(p) for p in weights):
        return _lstm_run(seq, wx, wh, b, hsz)
    span = _lstm_span(w, batch)
    checkpoints = [(np.empty((batch, hsz)), np.empty((batch, hsz)))
                   for _ in range(math.ceil(w / span) - 1)]
    h = _lstm_run(seq, wx, wh, b, hsz, checkpoints)

    def vjp(g):
        # A reversed step's arrays are spare: the next replay of a block of
        # as many rows writes into them, so the backward does not allocate
        # each step's arrays anew. A segment's entering (h, c) is not spare:
        # it is the checkpoint, which the other blocks still read.
        grads = (np.zeros_like(wx), np.zeros_like(wh), np.zeros_like(b))
        spare = []
        for rows in _row_blocks(batch):
            n = rows.stop - rows.start
            if spare and len(spare[0]) != n:
                spare = []
            block = seq[rows]
            dh, dc = g[rows], np.zeros((n, hsz))
            for t0 in reversed(range(0, w, span)):
                h0, c0 = (tuple(a[rows] for a in checkpoints[t0 // span - 1])
                          if t0 else (np.zeros((n, hsz)), np.zeros((n, hsz))))
                steps = _lstm_replay(block, t0, min(t0 + span, w), h0, c0,
                                     wx, wh, b, hsz, spare)
                while steps:
                    step = steps.pop()
                    dh, dc = _lstm_step_back(dh, dc, step, wh, grads)
                    spare.extend(step[1:] if steps else step[3:])
        return tuple(gr for p, gr in zip(weights, grads) if ad.is_var(p))

    return ad.Var(h, tuple(p for p in weights if ad.is_var(p)), vjp)
