"""MLP and LSTM forward passes over ParamStore slices.

Forwards accept either a ParamStore (plain evaluation) or ParamVars
(recorded for reverse-mode gradients) — see autodiff. Hidden activations
are tanh by default; an "identity" activation is also supported, which
turns an MLP into an exact affine map (used to plant closed-form
immersion maps in tests and diagnostics).

The MLP Jacobian with respect to its input is assembled column-by-column
from directional-derivative passes built out of the same tape primitives,
so the Jacobian is itself differentiable with respect to the parameters
(needed by the physics residuals, n_x <= 3 columns for the shipped
systems).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import seeding
from .errors import ContractViolation
from .params import Layout, ParamStore


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


def _act(spec: MlpSpec, pre):
    return ad.tanh(pre) if spec.activation == "tanh" else pre


def _layer_weight(params, prefix, i, deltas):
    w = params.get(f"{prefix}.W{i}")
    if deltas is not None and deltas[i] is not None:
        w = ad.add(w, deltas[i])  # (o,i) + (B,o,i) broadcasts per sample
    return w


def transpose2d(x):
    xv = ad.val(x)
    out = xv.T
    if not ad.is_var(x):
        return out
    return ad.Var(out, (x,), lambda g: (g.T,))


def _maybe_t(w):
    return transpose2d(w) if ad.is_var(w) else w.T


def mlp_forward(params, spec: MlpSpec, x, prefix: str, weight_deltas=None):
    """Forward pass; x is (B, n_in) or (n_in,).

    ``weight_deltas`` is an optional per-layer list of (B, n_out, n_in)
    per-sample weight perturbations (biases stay shared).
    """
    xv = ad.val(x)
    single = xv.ndim == 1
    a = ad.reshape(x, (1, xv.shape[0])) if single else x
    if ad.val(a).shape[-1] != spec.widths[0]:
        raise ContractViolation(
            f"MLP expects input width {spec.widths[0]}, got {ad.val(a).shape[-1]}"
        )
    for i in range(spec.n_layers):
        w = _layer_weight(params, prefix, i, weight_deltas)
        b = params.get(f"{prefix}.b{i}")
        if ad.val(w).ndim == 3:
            pre = ad.add(ad.bmatvec(w, a), b)
        else:
            pre = ad.add(ad.matmul(a, _maybe_t(w)), b)
        a = _act(spec, pre) if i < spec.n_layers - 1 else pre
    if single:
        a = ad.reshape(a, (spec.widths[-1],))
    return a


def mlp_forward_with_jacobian(params, spec: MlpSpec, x, prefix: str,
                              weight_deltas=None):
    """Forward pass plus input-Jacobian columns.

    Returns (out, cols) with out (B, n_out) and cols a list of n_in
    tensors of shape (B, n_out); cols[j][s] = d out[s] / d x[s, j]. Both
    stay differentiable w.r.t. the parameters.
    """
    xv = ad.val(x)
    if xv.ndim != 2:
        raise ContractViolation("jacobian forward expects a (B, n_in) batch")
    n_in = spec.widths[0]
    if xv.shape[1] != n_in:
        raise ContractViolation(
            f"MLP expects input width {n_in}, got {xv.shape[1]}"
        )
    batch = xv.shape[0]
    a = x
    cols = []
    for j in range(n_in):
        seed = np.zeros((batch, n_in))
        seed[:, j] = 1.0
        cols.append(seed)
    for i in range(spec.n_layers):
        w = _layer_weight(params, prefix, i, weight_deltas)
        b = params.get(f"{prefix}.b{i}")
        batched = ad.val(w).ndim == 3
        if batched:
            pre = ad.add(ad.bmatvec(w, a), b)
            cols = [ad.bmatvec(w, c) for c in cols]
        else:
            wt = _maybe_t(w)
            pre = ad.add(ad.matmul(a, wt), b)
            cols = [ad.matmul(c, wt) for c in cols]
        if i < spec.n_layers - 1 and spec.activation == "tanh":
            a = ad.tanh(pre)
            dact = ad.sub(1.0, ad.mul(a, a))
            cols = [ad.mul(c, dact) for c in cols]
        else:
            a = pre
    return a, cols


def lstm_forward(params, spec: LstmSpec, sequence, prefix: str):
    """Final hidden state of the LSTM over (B, w, m) input windows.

    Zero initial hidden and cell state; returns (B, hidden_size). The
    whole window is one tape node: when the weights are tape leaves, the
    forward keeps each step's gate activations, tanh(c) and c, and a
    hand-written backward-through-time pass reads them back. On plain
    parameters nothing is kept.
    """
    seq = np.asarray(ad.val(sequence), dtype=np.float64)
    if seq.ndim == 2:
        seq = seq[None]
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
    taped = any(ad.is_var(p) for p in weights)
    acts, tanh_cs, c_prevs = [], [], []
    h = np.zeros((batch, hsz))
    c = np.zeros((batch, hsz))
    for t in range(w):
        gates = seq[:, t, :] @ wx.T + h @ wh.T + b
        gi = ad.sigmoid(gates[:, :hsz])
        gf = ad.sigmoid(gates[:, hsz : 2 * hsz])
        gc = np.tanh(gates[:, 2 * hsz : 3 * hsz])
        go = ad.sigmoid(gates[:, 3 * hsz :])
        if taped:
            c_prevs.append(c)
        c = gf * c + gi * gc
        tanh_c = np.tanh(c)
        h = go * tanh_c
        if taped:
            acts.append(np.concatenate([gi, gf, gc, go], axis=1))
            tanh_cs.append(tanh_c)
    if not taped:
        return h

    def vjp(g):
        # Pops the saved steps as it goes, so they are freed step by step.
        gwx, gwh, gb = np.zeros_like(wx), np.zeros_like(wh), np.zeros_like(b)
        dh, dc = g, np.zeros_like(g)
        for t in reversed(range(w)):
            gi, gf, gc, go = np.split(acts.pop(), 4, axis=1)
            tanh_c, c_prev = tanh_cs.pop(), c_prevs.pop()
            # h_{t-1} = o_{t-1} tanh(c_{t-1}), bit for bit as in the forward
            h_prev = (acts[-1][:, 3 * hsz :] * tanh_cs[-1] if t
                      else np.zeros_like(g))
            dc = dc + dh * go * (1.0 - tanh_c * tanh_c)
            dz = np.concatenate([
                dc * gc * gi * (1.0 - gi),
                dc * c_prev * gf * (1.0 - gf),
                dc * gi * (1.0 - gc * gc),
                dh * tanh_c * go * (1.0 - go),
            ], axis=1)
            gwx += dz.T @ seq[:, t, :]
            gwh += dz.T @ h_prev
            gb += dz.sum(axis=0)
            dh = dz @ wh
            dc = dc * gf
        return tuple(gr for p, gr in zip(weights, (gwx, gwh, gb))
                     if ad.is_var(p))

    return ad.Var(h, tuple(p for p in weights if ad.is_var(p)), vjp)
