"""Input-conditioned observer components.

Two conditioning mechanisms live here:

* a residual hypernetwork that reads a sliding input window through a
  shared LSTM and emits additive weight perturbations for the encoder
  and decoder through two rank-factorized readout heads, and
* an injection network that adds a learned drive term to the latent
  observer dynamics, conditioned on the latent state and the same kind
  of windowed input context.

Both are gated by g(u) = 1 - exp(-|u_window|^2 / tau), which vanishes
identically on all-zero windows. On exactly zero input the perturbations
and the injection are exactly zero, so the conditioned observer is the
autonomous one, bit for bit — that recovery claim is enforced rather
than merely trained for.

Each readout head is rank-factorized: a (rank, d_h) matrix V projects
the LSTM state to rank coordinates, and one (total, rank) matrix U maps
them onto the flat entry space of the target's weight matrices, in
layout order. The whole head evaluates as two dense products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractViolation
from .kkl import DEC, ENC, KklMaps, decoder_layout, encoder_layout
from .nets import (
    LstmSpec,
    MlpSpec,
    init_lstm,
    init_mlp,
    lstm_forward,
    lstm_layout_entries,
    mlp_forward,
    mlp_layout_entries,
    mlp_weight_names,
    transpose2d,
)
from .params import Layout, ParamStore
from .seeding import STREAM_PARAM_INIT, stream

DEFAULT_TAU = 1e-2


@dataclass(frozen=True)
class HeadSpec:
    """A rank-factorized readout onto the weights of one base layout."""

    name: str                   # parameter prefix, e.g. "hyper.enc_head"
    target_layout: Layout       # full base layout (weights + biases)
    weight_names: tuple         # targeted weight slices, in layout order
    total: int                  # total targeted entries
    rank: int


@dataclass(frozen=True)
class HyperNetSpec:
    lstm: LstmSpec
    window: int
    enc_head: HeadSpec
    dec_head: HeadSpec
    tau: float = DEFAULT_TAU

    def __post_init__(self):
        if self.window < 1:
            raise ContractViolation("window must be >= 1")
        if self.tau <= 0:
            raise ContractViolation("tau must be positive")


def _head(name, target_layout, weight_names, rank):
    return HeadSpec(
        name=name, target_layout=target_layout,
        weight_names=tuple(weight_names),
        total=sum(target_layout[w].size for w in weight_names), rank=rank,
    )


def build_hypernet_spec(
    maps: KklMaps,
    window: int,
    lstm_hidden: int,
    rank: int,
    tau: float = DEFAULT_TAU,
    input_size: int = 1,
) -> HyperNetSpec:
    enc_head = _head(
        "hyper.enc_head", encoder_layout(maps), mlp_weight_names(maps.enc, ENC),
        rank,
    )
    dec_head = _head(
        "hyper.dec_head", decoder_layout(maps), mlp_weight_names(maps.dec, DEC),
        rank,
    )
    return HyperNetSpec(
        lstm=LstmSpec(input_size=input_size, hidden_size=lstm_hidden),
        window=window, enc_head=enc_head, dec_head=dec_head, tau=tau,
    )


def hypernet_layout(spec: HyperNetSpec) -> Layout:
    entries = lstm_layout_entries(spec.lstm, "hyper.lstm")
    for head in (spec.enc_head, spec.dec_head):
        entries.append((f"{head.name}.V", (head.rank, spec.lstm.hidden_size)))
        entries.append((f"{head.name}.U", (head.total, head.rank)))
    return Layout(entries)


def init_hypernet_params(spec: HyperNetSpec, seed: int) -> ParamStore:
    """LSTM and V get fan-in inits; the U readouts start at exact zero.

    Zero readouts make the initial perturbations vanish for every input,
    so conditioned training starts exactly at the frozen base observer.
    """
    psi = ParamStore(hypernet_layout(spec))
    init_lstm(psi, spec.lstm, "hyper.lstm", seed)
    rng = stream(seed + 1, STREAM_PARAM_INIT)
    bound = np.sqrt(1.0 / spec.lstm.hidden_size)
    for head in (spec.enc_head, spec.dec_head):
        psi.set(
            f"{head.name}.V",
            rng.uniform(-bound, bound, (head.rank, spec.lstm.hidden_size)),
        )
        # U stays zero
    return psi


def window_energy(windows) -> np.ndarray:
    """Per-sample squared L2 norm of (B, w, m) input windows."""
    w = np.asarray(windows, dtype=np.float64)
    if w.ndim == 2:
        w = w[None]
    return np.sum(w * w, axis=(1, 2), keepdims=False).reshape(-1, 1)


def gate_values(windows, tau: float) -> np.ndarray:
    """g(u) = 1 - exp(-|u|^2 / tau), in [0, 1), exactly 0 on zero windows."""
    return 1.0 - np.exp(-window_energy(windows) / tau)


def encode_context(psi, spec: HyperNetSpec, windows):
    """Shared LSTM summary of (B, w, m) input windows -> (B, d_h)."""
    w = np.asarray(ad.val(windows), dtype=np.float64)
    if w.ndim == 2:
        w = w[None]
    if w.shape[1] != spec.window:
        raise ContractViolation(
            f"window length {w.shape[1]} does not match spec window {spec.window}"
        )
    return lstm_forward(psi, spec.lstm, w, "hyper.lstm")


def head_deltas(psi, head: HeadSpec, context, gates):
    """Gated (B, total) flat perturbations of one head for (B, d_h) contexts."""
    v = psi.get(f"{head.name}.V")
    u = psi.get(f"{head.name}.U")
    s = ad.matmul(context, transpose2d(v))          # (B, rank)
    return ad.mul(ad.matmul(s, transpose2d(u)), gates)


def generate_deltas(psi, spec: HyperNetSpec, windows):
    """Gated weight perturbations for both heads.

    Returns (d_theta, d_phi) as (B, total) flat entry tensors; rows whose
    window is identically zero are exactly zero.
    """
    context = encode_context(psi, spec, windows)
    g = gate_values(windows, spec.tau)
    return (head_deltas(psi, spec.enc_head, context, g),
            head_deltas(psi, spec.dec_head, context, g))


def head_layer_deltas(head: HeadSpec, maps_spec: MlpSpec, prefix: str, flat):
    """Scatter a (B, total) flat delta tensor into per-layer (B, o, i) blocks."""
    out = []
    offset = 0
    for i in range(maps_spec.n_layers):
        sspec = head.target_layout[f"{prefix}.W{i}"]
        block = ad.narrow(flat, 1, offset, sspec.size)
        b = ad.val(flat).shape[0]
        out.append(ad.reshape(block, (b, *sspec.shape)))
        offset += sspec.size
    if offset != head.total:
        raise ContractViolation("MLP layers do not match the head's targets")
    return out


def delta_store(head: HeadSpec, flat_row: np.ndarray) -> ParamStore:
    """A full-layout ParamStore holding one flat delta row (biases zero)."""
    store = ParamStore(head.target_layout)
    offset = 0
    for wname in head.weight_names:
        sspec = head.target_layout[wname]
        store.set(wname, flat_row[offset : offset + sspec.size].reshape(sspec.shape))
        offset += sspec.size
    return store


@dataclass(frozen=True)
class InjectionSpec:
    """Latent drive network: (z, input context) -> n_z vector."""

    lstm: LstmSpec
    mlp: MlpSpec
    window: int
    tau: float = DEFAULT_TAU

    def __post_init__(self):
        if self.mlp.widths[0] != self.mlp.widths[-1] + self.lstm.hidden_size:
            raise ContractViolation(
                "injection MLP input must be n_z + context size"
            )
        if self.window < 1:
            raise ContractViolation("window must be >= 1")
        if self.tau <= 0:
            raise ContractViolation("tau must be positive")

    @property
    def n_z(self) -> int:
        return self.mlp.widths[-1]


def build_injection_spec(
    n_z: int, window: int, lstm_hidden: int, mlp_hidden,
    tau: float = DEFAULT_TAU, input_size: int = 1,
) -> InjectionSpec:
    mlp_hidden = tuple(int(h) for h in mlp_hidden)
    return InjectionSpec(
        lstm=LstmSpec(input_size=input_size, hidden_size=lstm_hidden),
        mlp=MlpSpec(widths=(n_z + lstm_hidden, *mlp_hidden, n_z)),
        window=window, tau=tau,
    )


def injection_layout(spec: InjectionSpec) -> Layout:
    entries = lstm_layout_entries(spec.lstm, "inj.lstm")
    entries.extend(mlp_layout_entries(spec.mlp, "inj.mlp"))
    return Layout(entries)


def init_injection_params(spec: InjectionSpec, seed: int) -> ParamStore:
    """Standard inits, except the final MLP layer starts at exact zero."""
    xi = ParamStore(injection_layout(spec))
    init_lstm(xi, spec.lstm, "inj.lstm", seed)
    init_mlp(xi, spec.mlp, "inj.mlp", seed + 1)
    xi.set(f"inj.mlp.W{spec.mlp.n_layers - 1}", np.zeros_like(
        xi.get(f"inj.mlp.W{spec.mlp.n_layers - 1}")
    ))
    return xi


def injection_context(xi, spec: InjectionSpec, windows):
    w = np.asarray(ad.val(windows), dtype=np.float64)
    if w.ndim == 2:
        w = w[None]
    if w.shape[1] != spec.window:
        raise ContractViolation(
            f"window length {w.shape[1]} does not match spec window {spec.window}"
        )
    return lstm_forward(xi, spec.lstm, w, "inj.lstm")


def make_step_injection(xi, spec: InjectionSpec, u_seq, dt: float):
    """Per-step injection callable for simulate_latent.

    Precomputes the window contexts for every sample in u_seq; the
    returned callable evaluates the injection MLP at (z, context_k).
    Steps whose window is identically zero short-circuit to None, so the
    latent update is the autonomous one, bit for bit.
    """
    from .signals import window_matrix

    windows = window_matrix(np.asarray(u_seq, dtype=np.float64), spec.window)
    gates = gate_values(windows, spec.tau)[:, 0]
    nonzero = gates != 0.0
    contexts = None
    if np.any(nonzero):
        contexts = injection_context(xi, spec, windows)

    def inject(z, k):
        if not nonzero[k]:
            return None
        ctx = ad.reshape(ad.narrow(contexts, 0, k, 1), (spec.lstm.hidden_size,))
        inp = ad.concat([z, ctx], axis=0)
        out = mlp_forward(xi, spec.mlp, inp, "inj.mlp")
        return ad.mul(out, float(gates[k]))

    return inject
