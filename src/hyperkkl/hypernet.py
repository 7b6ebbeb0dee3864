"""Input-conditioned observer components.

Two conditioning mechanisms live here:

* a residual hypernetwork that reads a sliding input window through a
  shared LSTM and emits additive weight perturbations for the encoder
  and decoder through two rank-factorized readout heads, and
* an injection network that adds a learned drive term to the latent
  observer dynamics, conditioned on the latent state and the same kind
  of windowed input context.

Each network's slices are named under its spec's ``PREFIX``, and
``encode_context`` is the one context encoder: it runs either's LSTM.

Both are gated by g(u) = 1 - exp(-|u_window|^2 / tau), which vanishes
identically on all-zero windows. On exactly zero input the perturbations
and the injection are exactly zero, so the conditioned observer is the
autonomous one, bit for bit — that recovery claim is enforced rather
than merely trained for.

Each readout head is rank-factorized: a (rank, d_h) matrix V projects
the LSTM state h to rank coordinates s = g · h Vᵀ, and one
(o_l·i_l, rank) slice U_l per targeted weight W_l of shape (o_l, i_l),
named ``{head}.U{l}`` (``HeadSpec.u_names``), maps them onto that
weight's entries in C order. Training and inference keep the factors:
``head_layer_deltas`` pairs s with each layer's U_l, and the MLP applies
W x + Σ_r s_r (U_l,r x) through ``nets.lowrank_linear``, so no
(B, o_l·i_l) delta or (B, o, i) weight is formed. The U_l are ψ's
slices, or in eval chunk sources that read U_l from the checkpoint file
one IN_BLOCK chunk of input columns at a time as its layer runs
(``checkpoints.Readout.layers``). ``generate_deltas`` and
``delta_store`` give the dense form of the same perturbations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .config import defaults
from .errors import ContractViolation
from .kkl import DEC, ENC, KklMaps, decoder_layout, encoder_layout
from .nets import (
    ROW_BLOCK,
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
from .signals import window_matrix

DEFAULT_TAU = defaults("train")["tau"]  # its config.SETTINGS row's


def _check_windows(window: int, tau: float) -> None:
    """The window length and gate width both conditioning specs take."""
    if window < 1:
        raise ContractViolation("window must be >= 1")
    if not (math.isfinite(tau) and tau > 0):
        raise ContractViolation(f"tau must be finite and positive, got {tau!r}")


@dataclass(frozen=True)
class HeadSpec:
    """A rank-factorized readout onto the weights of one base layout."""

    name: str                   # parameter prefix, e.g. "hyper.enc_head"
    target_layout: Layout       # full base layout (weights + biases)
    weight_names: tuple         # targeted weight slices, in layout order
    rank: int

    @property
    def u_names(self) -> tuple:
        """ψ's readout slices U_l, one per name of ``weight_names``."""
        return tuple(f"{self.name}.U{l}"
                     for l in range(len(self.weight_names)))


@dataclass(frozen=True)
class HyperNetSpec:
    lstm: LstmSpec
    window: int
    enc_head: HeadSpec
    dec_head: HeadSpec
    tau: float = DEFAULT_TAU
    PREFIX = "hyper."  # not a field: every ψ slice name starts with it

    def __post_init__(self):
        _check_windows(self.window, self.tau)
        if min(self.enc_head.rank, self.dec_head.rank) < 1:
            raise ContractViolation("rank must be >= 1")

    def settings(self) -> dict:
        """build_hypernet_spec's keyword arguments for this spec."""
        return {"window": self.window, "lstm_hidden": self.lstm.hidden_size,
                "rank": self.enc_head.rank, "tau": self.tau,
                "input_size": self.lstm.input_size}


def _head(target_layout, mlp: MlpSpec, prefix: str, rank: int) -> HeadSpec:
    """The readout onto the ``prefix`` map's weights in ``target_layout``."""
    return HeadSpec(
        name=f"{HyperNetSpec.PREFIX}{prefix}_head", target_layout=target_layout,
        weight_names=tuple(mlp_weight_names(mlp, prefix)), rank=rank,
    )


def build_hypernet_spec(
    maps: KklMaps,
    window: int,
    lstm_hidden: int,
    rank: int,
    tau: float = DEFAULT_TAU,
    input_size: int = 1,
) -> HyperNetSpec:
    enc_head = _head(encoder_layout(maps), maps.enc, ENC, rank)
    dec_head = _head(decoder_layout(maps), maps.dec, DEC, rank)
    return HyperNetSpec(
        lstm=LstmSpec(input_size=input_size, hidden_size=lstm_hidden),
        window=window, enc_head=enc_head, dec_head=dec_head, tau=tau,
    )


def hypernet_layout(spec: HyperNetSpec) -> Layout:
    entries = lstm_layout_entries(spec.lstm, spec.PREFIX + "lstm")
    for head in (spec.enc_head, spec.dec_head):
        entries.append((f"{head.name}.V", (head.rank, spec.lstm.hidden_size)))
        entries.extend((u, (head.target_layout[w].size, head.rank))
                       for u, w in zip(head.u_names, head.weight_names))
    return Layout(entries)


def init_hypernet_params(spec: HyperNetSpec, seed: int) -> ParamStore:
    """LSTM and V get fan-in inits; the U readouts start at exact zero.

    Zero readouts make the initial perturbations vanish for every input,
    so conditioned training starts exactly at the frozen base observer.
    """
    psi = ParamStore(hypernet_layout(spec))
    init_lstm(psi, spec.lstm, spec.PREFIX + "lstm", seed)
    rng = stream(seed + 1, STREAM_PARAM_INIT)
    bound = np.sqrt(1.0 / spec.lstm.hidden_size)
    for head in (spec.enc_head, spec.dec_head):
        psi.set(
            f"{head.name}.V",
            rng.uniform(-bound, bound, (head.rank, spec.lstm.hidden_size)),
        )
        # U stays zero
    return psi


def gate_values(windows, tau: float) -> np.ndarray:
    """g(u) = 1 - exp(-|u|^2 / tau) of each of (B, w, m) input windows as
    a (B, 1) column, in [0, 1), exactly 0 on zero windows."""
    w = np.asarray(windows, dtype=np.float64)
    if w.ndim != 3:
        raise ContractViolation(f"expected (B, w, m) windows, got {w.ndim}-D")
    return 1.0 - np.exp(-np.sum(w * w, axis=(1, 2)).reshape(-1, 1) / tau)


def encode_context(params, spec: HyperNetSpec | InjectionSpec, windows):
    """LSTM summary of (B, w, m) input windows -> (B, d_h): the one context
    encoder, run on the LSTM of ``params`` (ψ or ξ) under spec.PREFIX."""
    w = np.asarray(windows, dtype=np.float64)
    if w.ndim != 3 or w.shape[1] != spec.window:
        raise ContractViolation(
            f"expected (B, {spec.window}, m) windows, got shape {w.shape}")
    return lstm_forward(params, spec.lstm, w, spec.PREFIX + "lstm")


def generate_deltas(psi, spec: HyperNetSpec, windows):
    """Gated weight perturbations for both heads, in dense form.

    Returns (d_theta, d_phi) as (B, Σ_l o_l·i_l) flat entry tensors,
    each ((h Vᵀ) U_lᵀ) · g for the layers in order; rows whose window is
    identically zero are exactly zero. Training and inference use
    head_layer_deltas instead, which never forms these tensors.
    """
    context = encode_context(psi, spec, windows)
    g = gate_values(windows, spec.tau)
    out = []
    for head in (spec.enc_head, spec.dec_head):
        s = ad.matmul(context, transpose2d(psi.get(f"{head.name}.V")))
        out.append(ad.mul(ad.concat(
            [ad.matmul(s, transpose2d(psi.get(u))) for u in head.u_names],
            axis=1), g))
    return tuple(out)


def head_layer_deltas(psi, head: HeadSpec, context, gates, u_rows=None):
    """One head as per-layer (U_l, s) weight-delta factors for mlp_forward.

    s = g · h Vᵀ is the gated (B, rank) projection of the (B, d_h)
    contexts, shared by every layer; U_l is the head's readout slice of
    layer l, so sample b's layer-l delta is reshape(U_l s[b], (o, i)).
    Rows whose gate is 0 get s = 0.

    ``u_rows`` lists each layer's U_l, in layer order, for a psi that
    holds none: an observer read's chunk sources
    (``checkpoints.Readout.layers``), which read a layer's U_l only as
    it runs and which no taped input may join (``nets._mlp_layer``).
    By default the U_l are psi's slices ``head.u_names``.
    """
    s = ad.mul(ad.matmul(context, transpose2d(psi.get(f"{head.name}.V"))),
               gates)
    if u_rows is None:
        u_rows = [psi.get(u) for u in head.u_names]
    return [(u_l, s) for u_l in u_rows]


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
    PREFIX = "inj."  # not a field: every ξ slice name starts with it

    def __post_init__(self):
        if self.mlp.widths[0] != self.mlp.widths[-1] + self.lstm.hidden_size:
            raise ContractViolation(
                "injection MLP input must be n_z + context size"
            )
        _check_windows(self.window, self.tau)

    def settings(self) -> dict:
        """build_injection_spec's keyword arguments for this spec."""
        return {"window": self.window, "lstm_hidden": self.lstm.hidden_size,
                "mlp_hidden": list(self.mlp.widths[1:-1]), "tau": self.tau,
                "input_size": self.lstm.input_size}


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
    entries = lstm_layout_entries(spec.lstm, spec.PREFIX + "lstm")
    entries.extend(mlp_layout_entries(spec.mlp, spec.PREFIX + "mlp"))
    return Layout(entries)


def init_injection_params(spec: InjectionSpec, seed: int) -> ParamStore:
    """Standard inits, except the final MLP layer starts at exact zero."""
    xi = ParamStore(injection_layout(spec))
    mlp = spec.PREFIX + "mlp"
    init_lstm(xi, spec.lstm, spec.PREFIX + "lstm", seed)
    init_mlp(xi, spec.mlp, mlp, seed + 1)
    last = f"{mlp}.W{spec.mlp.n_layers - 1}"
    xi.set(last, np.zeros_like(xi.get(last)))
    return xi


def make_step_injection(xi, spec: InjectionSpec, u_seq):
    """Per-step injection ``(z, k)`` callable for the latent filter: step
    k reads sample k of the (N+1, m) input sequence ``u_seq``, and the
    step size is the filter's own, so none is taken here. With a
    ``ParamStore`` ξ it returns arrays, for the plain
    ``kkl.simulate_latent`` (eval); with ``ParamVars`` it returns tape
    nodes, for the static training rollout, which calls it at the
    run's absolute step.

    The steps come in blocks: ``nets.ROW_BLOCK`` steps from step 0 for a
    plain ξ, the whole run for a taped one. A block's ``window_matrix``
    windows, their gates and their contexts (``encode_context``) are
    built when a step of the block is first asked for, and only one
    block is held: block 0 before this returns, each later one as the
    filter reaches it, so a plain run holds one block's contexts
    whatever its length. A block is encoded as one batch; the LSTM's
    rows are independent, so a context's bits follow only its window and
    the row blocks of its block's batch (``nets.lstm_forward``): a plain
    run's contexts are those of encoding it ROW_BLOCK windows at a time
    from step 0, however the filter walks it.

    The returned callable evaluates the injection MLP at the
    (1, n_z + d_h) row [z, context_k] for a (1, n_z) latent row z. Steps
    whose window is identically zero short-circuit to None, so the
    latent update is the autonomous one, bit for bit; a block whose
    windows are all zero encodes nothing.
    """
    n = len(u_seq)
    size = n if ad.is_var(xi.get(spec.PREFIX + "lstm.Wx")) else ROW_BLOCK
    lo = gates = contexts = None

    def encode(start):
        nonlocal lo, gates, contexts
        contexts = None  # the block held so far goes first
        windows = window_matrix(u_seq, spec.window, start,
                                min(start + size, n))
        lo, gates = start, gate_values(windows, spec.tau)[:, 0]
        if np.any(gates):
            contexts = encode_context(xi, spec, windows)

    def inject(z, k):
        if not lo <= k < lo + size:
            encode(k - k % size)
        gate = gates[k - lo]
        if gate == 0.0:
            return None
        inp = ad.concat([z, ad.narrow(contexts, 0, k - lo, 1)], axis=1)
        out = mlp_forward(xi, spec.mlp, inp, spec.PREFIX + "mlp")
        return ad.mul(out, float(gate))

    encode(0)
    return inject
