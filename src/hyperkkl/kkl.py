"""Observer machinery: latent pair construction, latent simulation,
encoder/decoder maps, and the physics residuals.

The latent system is z' = A z + B y with A Hurwitz and (A, B)
controllable; the shipped construction uses A = diag(-1, ..., -n_z) and
an all-ones B, which satisfies both conditions for any size (distinct
real eigenvalues give a Vandermonde controllability matrix). The encoder
approximates the immersion map from state to latent space, the decoder
its left inverse.

Two residuals measure how far the encoder is from an exact immersion:
the stationary one (phase 1's: zero input, no conditioning) penalizes
dT/dx f - A T - B h, and the dynamic one adds a finite-difference
estimate of the map's own time derivative under a moving input window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .dynamics import eval_vector_field
from .errors import ContractViolation, NumericError
from .nets import (
    MlpSpec,
    init_mlp,
    mlp_forward,
    mlp_forward_with_jacobian,
    mlp_layout_entries,
)
from .params import Layout, ParamStore

ENC = "enc"
DEC = "dec"


def latent_dim(n_x: int, n_y: int) -> int:
    return n_y * (2 * n_x + 1)


@dataclass(frozen=True)
class ObserverMatrices:
    A: np.ndarray
    B: np.ndarray
    n_z: int

    def __post_init__(self):
        a = np.asarray(self.A, dtype=np.float64)
        b = np.asarray(self.B, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ContractViolation("A must be square")
        if a.shape[0] != self.n_z or b.shape[0] != self.n_z:
            raise ContractViolation("A and B must have n_z rows")
        if b.ndim != 2:
            raise ContractViolation("B must be n_z x n_y")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)

    @property
    def n_y(self) -> int:
        return self.B.shape[1]


def check_hurwitz(a) -> tuple[bool, float]:
    """(is Hurwitz, spectral abscissa). Strict threshold at -1e-9."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractViolation("A must be square")
    abscissa = float(np.max(np.real(np.linalg.eigvals(a))))
    return abscissa < -1e-9, abscissa


def check_controllable(a, b) -> tuple[bool, int]:
    """(is controllable, Krylov rank) for the pair (A, B)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = a.shape[0]
    blocks = [b]
    for _ in range(n - 1):
        blocks.append(a @ blocks[-1])
    rank = int(np.linalg.matrix_rank(np.concatenate(blocks, axis=1)))
    return rank == n, rank


def verify_observer(obs: ObserverMatrices) -> None:
    ok, abscissa = check_hurwitz(obs.A)
    if not ok:
        raise ContractViolation(
            f"A is not Hurwitz (spectral abscissa {abscissa:.3g})"
        )
    ok, rank = check_controllable(obs.A, obs.B)
    if not ok:
        raise ContractViolation(
            f"(A, B) not controllable (rank {rank} < {obs.n_z})"
        )


def build_observer_matrices(
    n_x: int, n_y: int, n_z: int | None = None
) -> ObserverMatrices:
    """A = diag(-1..-n_z), B all ones; verified before returning.

    n_z defaults to n_y (2 n_x + 1); overriding it is for experiments only
    and still goes through the Hurwitz/controllability verification.
    """
    if n_x < 1 or n_y < 1:
        raise ContractViolation("n_x and n_y must be >= 1")
    if n_z is None:
        n_z = latent_dim(n_x, n_y)
    if n_z < 1:
        raise ContractViolation("n_z must be >= 1")
    a = np.diag(-np.arange(1.0, n_z + 1.0))
    b = np.ones((n_z, n_y))
    obs = ObserverMatrices(A=a, B=b, n_z=n_z)
    verify_observer(obs)
    return obs


@dataclass(frozen=True)
class KklMaps:
    """Encoder (n_x -> n_z) and decoder (n_z -> n_x) architectures."""

    enc: MlpSpec
    dec: MlpSpec

    def __post_init__(self):
        if self.enc.widths[-1] != self.dec.widths[0]:
            raise ContractViolation("encoder output and decoder input disagree")
        if self.enc.widths[0] != self.dec.widths[-1]:
            raise ContractViolation("decoder output and encoder input disagree")

    @property
    def n_x(self) -> int:
        return self.enc.widths[0]

    @property
    def n_z(self) -> int:
        return self.enc.widths[-1]


def make_maps(n_x: int, n_z: int, hidden, activation: str = "tanh") -> KklMaps:
    hidden = tuple(int(h) for h in hidden)
    return KklMaps(
        enc=MlpSpec(widths=(n_x, *hidden, n_z), activation=activation),
        dec=MlpSpec(widths=(n_z, *hidden, n_x), activation=activation),
    )


def encoder_layout(maps: KklMaps) -> Layout:
    return Layout(mlp_layout_entries(maps.enc, ENC))


def decoder_layout(maps: KklMaps) -> Layout:
    return Layout(mlp_layout_entries(maps.dec, DEC))


def init_encoder(maps: KklMaps, seed: int) -> ParamStore:
    """A fresh encoder θ, initialised on the stream of ``seed``."""
    theta = ParamStore(encoder_layout(maps))
    init_mlp(theta, maps.enc, ENC, seed)
    return theta


def init_decoder(maps: KklMaps, seed: int) -> ParamStore:
    """A fresh decoder φ, initialised on the stream of ``seed + 1`` so that
    the two maps of one seed draw different values."""
    phi = ParamStore(decoder_layout(maps))
    init_mlp(phi, maps.dec, DEC, seed + 1)
    return phi


def encode(maps: KklMaps, theta, x, weight_deltas=None):
    return mlp_forward(theta, maps.enc, x, ENC, weight_deltas=weight_deltas)


def decode(maps: KklMaps, phi, z, weight_deltas=None):
    return mlp_forward(phi, maps.dec, z, DEC, weight_deltas=weight_deltas)


def encode_with_jacobian(maps: KklMaps, theta, x, tangent, weight_deltas=None):
    """(encode(x), dT/dx · tangent) from one forward-mode pass."""
    return mlp_forward_with_jacobian(
        theta, maps.enc, x, ENC, tangent, weight_deltas=weight_deltas
    )


def simulate_latent_nodes(obs: ObserverMatrices, y_seq, dt: float) -> np.ndarray:
    """RK4 integration of the latent filter z' = A z + B y_k from z = 0:
    the states as one (N+1, count, n_z) array, in plain numpy.

    y is held constant over each step (zero-order hold). ``y_seq`` is a
    time-major (N+1, count, n_y) block of runs on one grid, stepped as
    one (count, n_z) array; one run is a count-1 block (``y[:, None]``).
    The shipped A is diagonal and n_y is 1, so each column is bit for
    bit its run filtered alone; a non-finite state in any run raises at
    that step. Each step's state is written into the preallocated output
    and B y_k is formed a step at a time, so the run holds its output and
    O(1) more per step. Nothing is taped; the static observer's filter
    is ``simulate_latent_injected``.
    """
    if dt <= 0:
        raise ContractViolation("dt must be positive")
    y = np.asarray(y_seq, dtype=np.float64)
    if y.ndim != 3 or y.shape[2] != obs.n_y:
        raise ContractViolation(
            f"y must be an (N+1, count, {obs.n_y}) block, got shape {y.shape}")
    a_t, b_t = obs.A.T, obs.B.T
    z = np.zeros((y.shape[1], obs.n_z))
    zs = np.empty((len(y), *z.shape))
    zs[0] = z
    for k in range(len(y) - 1):
        by = y[k] @ b_t
        k1 = z @ a_t + by
        k2 = (z + k1 * (0.5 * dt)) @ a_t + by
        k3 = (z + k2 * (0.5 * dt)) @ a_t + by
        k4 = (z + k3 * dt) @ a_t + by
        z = z + (k1 + (k2 + k3) * 2.0 + k4) * (dt / 6.0)
        if not np.all(np.isfinite(z)):
            raise NumericError(f"latent state became non-finite at step {k + 1}")
        zs[k + 1] = z
    return zs


def simulate_latent(obs, y_seq, dt) -> np.ndarray:
    """The latent filter's states: ``simulate_latent_nodes``."""
    return simulate_latent_nodes(obs, y_seq, dt)


def simulate_latent_injected(obs: ObserverMatrices, y, dt: float, inject, k0=0):
    """The static observer's latent filter z' = A z + B y_k + inject(z, k)
    from z = 0 over one run's (N+1, 1, n_y) outputs ``y`` from step ``k0``
    of the run on: yields its N+1 (1, n_z) states in turn, tape nodes once
    ``inject`` (called at the run's absolute step, None to add nothing)
    returns one (static training), plain arrays otherwise (static eval).
    With ``inject`` always None they are ``simulate_latent_nodes``' states
    bit for bit: the same operations in the same order."""
    a_t, b_t = obs.A.T, obs.B.T
    z = np.zeros((1, obs.n_z))
    yield z
    for k in range(len(y) - 1):
        by = y[k] @ b_t

        def deriv(zz):
            dz = ad.add(ad.matmul(zz, a_t), by)
            inj = inject(zz, k0 + k)
            return dz if inj is None else ad.add(dz, inj)

        k1 = deriv(z)
        k2 = deriv(ad.add(z, ad.mul(k1, 0.5 * dt)))
        k3 = deriv(ad.add(z, ad.mul(k2, 0.5 * dt)))
        k4 = deriv(ad.add(z, ad.mul(k3, dt)))
        incr = ad.add(ad.add(k1, ad.mul(ad.add(k2, k3), 2.0)), k4)
        z = ad.add(z, ad.mul(incr, dt / 6.0))
        if not np.all(np.isfinite(ad.val(z))):
            raise NumericError(f"latent state became non-finite at step {k + 1}")
        yield z


def _stationary_residual_vec(obs, system, x, f_scale, t_out, jf, fd_term):
    """dT/dx f (+ fd_term) - A T - B h from the encoder output and its
    Jacobian product ``jf`` along the drift f."""
    if fd_term is not None:
        jf = ad.add(jf, fd_term)
    at = ad.matmul(t_out, obs.A.T)
    bh = np.asarray(system.h(x), dtype=np.float64).reshape(len(x), -1) @ obs.B.T
    r = ad.sub(ad.sub(jf, at), bh)
    if f_scale is not None and f_scale != 1.0:
        r = ad.mul(r, 1.0 / float(f_scale))
    return r


def _state_batch(x_batch):
    x = np.asarray(x_batch, dtype=np.float64)
    if x.ndim != 2:
        raise ContractViolation("expected a (B, n_x) state batch")
    return x


def mean_square(r, batch):
    """sum(r²) / batch; a non-finite value raises ``NumericError``."""
    loss = ad.mul(ad.sum_all(ad.mul(r, r)), 1.0 / batch)
    if not np.isfinite(ad.val(loss)):
        raise NumericError("loss is non-finite")
    return loss


def autonomous_pde_residual(maps, theta, obs, system, x_batch, f_scale=None):
    """Mean squared stationary residual over a state batch, the drift
    at zero input and the encoder unconditioned (phase 1)."""
    x = _state_batch(x_batch)
    f = eval_vector_field(system, x)
    t_out, jf = encode_with_jacobian(maps, theta, x, f)
    r = _stationary_residual_vec(obs, system, x, f_scale, t_out, jf, None)
    return mean_square(r, len(x))


def dynamic_pde_residual_batch(
    maps, theta, obs, system, x_batch, u_now, deltas_pre, deltas_post, dt,
    f_scale=None,
):
    """Dynamic residual over a batch with per-sample window conditioning.

    ``deltas_pre``/``deltas_post`` are per-layer encoder weight-delta
    factors (see mlp_forward) for the windows ending at t and t + dt;
    the spatial terms are evaluated at the pre-window parameters. The
    time derivative is the finite difference of the encoder output
    between the two conditions, divided by the window step.

    Returns (loss, t_pre): t_pre is the encoder output at the pre-window
    parameters, which the reconstruction term can reuse.
    """
    x = _state_batch(x_batch)
    f = eval_vector_field(system, x, u_now)
    t_pre, jf = encode_with_jacobian(maps, theta, x, f, weight_deltas=deltas_pre)
    t_post = encode(maps, theta, x, weight_deltas=deltas_post)
    fd = ad.mul(ad.sub(t_post, t_pre), 1.0 / dt)
    r = _stationary_residual_vec(obs, system, x, f_scale, t_pre, jf, fd)
    return mean_square(r, len(x)), t_pre


def reconstruction_loss(maps, theta, phi, x_batch, enc_deltas=None,
                        dec_deltas=None, z=None):
    """Mean squared round-trip error |x - decode(encode(x))|^2.

    ``z``, when given, is encode(x) at ``enc_deltas`` already computed.
    """
    x = _state_batch(x_batch)
    if z is None:
        z = encode(maps, theta, x, weight_deltas=enc_deltas)
    xhat = decode(maps, phi, z, weight_deltas=dec_deltas)
    r = ad.sub(x, xhat)
    return mean_square(r, len(x))
