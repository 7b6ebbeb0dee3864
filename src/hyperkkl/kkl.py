"""Observer machinery: latent pair construction, latent simulation,
encoder/decoder maps, and the physics residuals.

The latent system is z' = A z + B y with A Hurwitz and (A, B)
controllable; the shipped construction uses A = diag(-1, ..., -n_z) and
an all-ones B, which satisfies both conditions for any size (distinct
real eigenvalues give a Vandermonde controllability matrix). The encoder
approximates the immersion map from state to latent space, the decoder
its left inverse.

Two residuals measure how far the encoder is from an exact immersion:
the stationary one penalizes dT/dx f - A T - B h, and the dynamic one
adds a finite-difference estimate of the map's own time derivative under
a moving input window.
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


def init_map_params(maps: KklMaps, seed: int) -> tuple[ParamStore, ParamStore]:
    theta = ParamStore(encoder_layout(maps))
    phi = ParamStore(decoder_layout(maps))
    init_mlp(theta, maps.enc, ENC, seed)
    init_mlp(phi, maps.dec, DEC, seed + 1)
    return theta, phi


def encode(maps: KklMaps, theta, x, weight_deltas=None):
    return mlp_forward(theta, maps.enc, x, ENC, weight_deltas=weight_deltas)


def decode(maps: KklMaps, phi, z, weight_deltas=None):
    return mlp_forward(phi, maps.dec, z, DEC, weight_deltas=weight_deltas)


def encode_with_jacobian(maps: KklMaps, theta, x, weight_deltas=None):
    return mlp_forward_with_jacobian(
        theta, maps.enc, x, ENC, weight_deltas=weight_deltas
    )


def simulate_latent_nodes(
    obs: ObserverMatrices,
    y_seq,
    dt: float,
    injection=None,
    z0=None,
):
    """RK4 integration of the latent observer, returning per-step nodes.

    z' = A z + B y_k (+ injection(z, k)), with y held constant over each
    step (zero-order hold); an injection returning None adds nothing.
    Elements are Vars when the injection closes over tape leaves, plain
    arrays otherwise; callers that only need numbers use simulate_latent.
    """
    if dt <= 0:
        raise ContractViolation("dt must be positive")
    y = np.asarray(y_seq, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    if y.shape[1] != obs.n_y:
        raise ContractViolation(
            f"y has {y.shape[1]} channels, observer expects {obs.n_y}"
        )
    n_steps = len(y) - 1
    a_t = obs.A.T
    by = y @ obs.B.T  # (N+1, n_z)

    z = np.zeros(obs.n_z) if z0 is None else np.asarray(z0, dtype=np.float64)
    zs = [z]

    for k in range(n_steps):

        def deriv(zz):
            dz = ad.add(ad.matmul(zz, a_t), by[k])
            if injection is not None:
                inj = injection(zz, k)
                if inj is not None:
                    dz = ad.add(dz, inj)
            return dz

        k1 = deriv(z)
        k2 = deriv(ad.add(z, ad.mul(k1, 0.5 * dt)))
        k3 = deriv(ad.add(z, ad.mul(k2, 0.5 * dt)))
        k4 = deriv(ad.add(z, ad.mul(k3, dt)))
        incr = ad.add(ad.add(k1, ad.mul(ad.add(k2, k3), 2.0)), k4)
        z = ad.add(z, ad.mul(incr, dt / 6.0))
        zv = ad.val(z)
        if not np.all(np.isfinite(zv)):
            raise NumericError(f"latent state became non-finite at step {k + 1}")
        zs.append(z)
    return zs


def simulate_latent(obs, y_seq, dt, **kwargs) -> np.ndarray:
    """Like simulate_latent_nodes but stacked into an (N+1, n_z) array."""
    nodes = simulate_latent_nodes(obs, y_seq, dt, **kwargs)
    return np.stack([np.asarray(ad.val(z)) for z in nodes])


def _stationary_residual_vec(
    obs, system, x, u_batch, f_scale, t_out, cols, fd_term
):
    """dT/dx f (+ fd_term) - A T - B h from the encoder output and Jacobian."""
    f = eval_vector_field(system, x, u_batch)
    jf = ad.mul(cols[0], f[:, 0:1])
    for j in range(1, system.n_x):
        jf = ad.add(jf, ad.mul(cols[j], f[:, j : j + 1]))
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
        raise ContractViolation("residual expects a (B, n_x) state batch")
    return x


def _mean_sq(r, batch):
    loss = ad.mul(ad.sum_all(ad.mul(r, r)), 1.0 / batch)
    if not np.isfinite(ad.val(loss)):
        raise NumericError("residual loss is non-finite")
    return loss


def autonomous_pde_residual(
    maps, theta, obs, system, x_batch, u_batch=None, f_scale=None,
    weight_deltas=None,
):
    """Mean squared stationary residual over a state batch.

    With the default u_batch=None the drift is evaluated at zero input;
    passing inputs gives the forced stationary form (the dynamic residual
    reduces to it when consecutive windows coincide).
    """
    x = _state_batch(x_batch)
    t_out, cols = encode_with_jacobian(maps, theta, x, weight_deltas=weight_deltas)
    r = _stationary_residual_vec(obs, system, x, u_batch, f_scale, t_out, cols,
                                 None)
    return _mean_sq(r, len(x))


def dynamic_pde_residual_batch(
    maps, theta, obs, system, x_batch, u_now, deltas_pre, deltas_post, dt,
    f_scale=None,
):
    """Dynamic residual over a batch with per-sample window conditioning.

    ``deltas_pre``/``deltas_post`` are per-layer (B, out, in) encoder
    weight perturbations for the windows ending at t and t + dt; the
    spatial terms are evaluated at the pre-window parameters. The time
    derivative is the finite difference of the encoder output between
    the two conditions, divided by the window step.
    """
    x = _state_batch(x_batch)
    t_pre, cols = encode_with_jacobian(maps, theta, x, weight_deltas=deltas_pre)
    t_post = encode(maps, theta, x, weight_deltas=deltas_post)
    fd = ad.mul(ad.sub(t_post, t_pre), 1.0 / dt)
    r = _stationary_residual_vec(obs, system, x, u_now, f_scale, t_pre, cols, fd)
    return _mean_sq(r, len(x))


def reconstruction_loss(maps, theta, phi, x_batch, enc_deltas=None,
                        dec_deltas=None):
    """Mean squared round-trip error |x - decode(encode(x))|^2."""
    x = np.asarray(x_batch, dtype=np.float64)
    if x.ndim != 2:
        raise ContractViolation("reconstruction expects a (B, n_x) batch")
    z = encode(maps, theta, x, weight_deltas=enc_deltas)
    xhat = decode(maps, phi, z, weight_deltas=dec_deltas)
    r = ad.sub(x, xhat)
    return _mean_sq(r, len(x))
