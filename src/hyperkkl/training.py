"""Training procedures: autonomous pretraining, conditioned-observer
training on forced data, and the adaptive-curriculum baseline.

One "epoch" everywhere means one optimizer step on a freshly drawn
batch: a seeded subsample of the trajectory data plus, where a physics
residual is active, a fresh draw of collocation points from the domain
box. All draws come from fixed streams of the configured seed, so a
training run is a pure function of (data, config) down to the checkpoint
bits.

Pretraining is sequential to keep the encoder and decoder objectives
from fighting each other: the encoder is fitted first against simulated
latent targets plus the stationary residual, then frozen while the
decoder learns the inverse on reconstruction alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import seeding
from .dynamics import SystemSpec, Trajectory, simulate
from .errors import ContractViolation, NumericError
from .hypernet import (
    HyperNetSpec,
    InjectionSpec,
    encode_context,
    gate_values,
    generate_deltas,
    head_deltas,
    head_layer_deltas,
    init_hypernet_params,
    init_injection_params,
    make_step_injection,
)
from .kkl import (
    KklMaps,
    ObserverMatrices,
    autonomous_pde_residual,
    decode,
    dynamic_pde_residual_batch,
    encode,
    reconstruction_loss,
    simulate_latent,
    simulate_latent_nodes,
)
from .optim import AdamState, adam_step, clip_grad_norm, global_norm
from .params import ParamStore, ParamVars

LATENT_TARGET_DISCARD = 0.2  # transient fraction dropped from z labels


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 2000
    batch: int = 256
    lr: float = 1e-3
    lam: float = 0.1            # physics-residual weight
    clip_norm: float = 1.0
    seed: int = 0
    collocation: int = 256
    normalize: bool = True
    segment_steps: int = 120    # latent BPTT segment (injection training)
    segment_discard: int = 40   # latent transient dropped from segment loss
    segment_batch: int = 2

    def __post_init__(self):
        if self.lam < 0:
            raise ContractViolation("lambda must be >= 0")
        if self.clip_norm <= 0:
            raise ContractViolation("clip norm must be positive")
        if self.epochs < 1 or self.batch < 1:
            raise ContractViolation("epochs and batch must be >= 1")


@dataclass(frozen=True)
class CurriculumConfig:
    epsilon: float = 0.01
    patience: int = 10
    level_epochs: int = 500

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ContractViolation("epsilon must lie in (0, 1)")
        if self.patience < 1:
            raise ContractViolation("patience must be >= 1")


@dataclass(frozen=True)
class LogRow:
    epoch: int
    loss_rec: float
    loss_pde: float
    grad_norm: float
    level: int


@dataclass(frozen=True)
class Abort:
    """A numeric failure that stopped training at ``epoch``."""

    epoch: int
    reason: str


@dataclass
class Phase1Result:
    theta: ParamStore
    phi: ParamStore
    f_scale: float
    log: list
    abort: Abort | None = None


@dataclass
class Phase2Result:
    params: ParamStore
    variant: str
    log: list
    base_hash_before: str = ""
    base_hash_after: str = ""
    abort: Abort | None = None


@dataclass
class CurriculumResult:
    phi: ParamStore
    log: list
    transitions: list = field(default_factory=list)  # (level, first_epoch)
    abort: Abort | None = None


def store_hash(store: ParamStore) -> str:
    return hashlib.sha256(store.data.tobytes()).hexdigest()


def normalize_vector_field(f_values) -> tuple[np.ndarray, float]:
    """Scale drift samples by s = max(1, 95th percentile of |f|).

    The residuals divide every term by the same s, which leaves the
    minimizer unchanged while keeping the loss magnitude tame on
    large-drift systems.
    """
    f = np.asarray(f_values, dtype=np.float64)
    if f.size == 0:
        raise ContractViolation("empty drift batch")
    norms = np.sqrt(np.sum(f.reshape(len(f), -1) ** 2, axis=1))
    s = max(1.0, float(np.percentile(norms, 95)))
    return f / s, s


def plateau_detect(loss_history, epsilon: float, patience: int) -> bool:
    """True when the best loss stopped improving relative to the window.

    Compares the best value before the last ``patience`` entries with the
    best value inside them: relative improvement below ``epsilon`` is a
    plateau.
    """
    hist = list(loss_history)
    if len(hist) < patience + 1:
        raise ContractViolation(
            f"need at least patience+1={patience + 1} entries, got {len(hist)}"
        )
    best_before = min(hist[:-patience])
    best_in = min(hist[-patience:])
    return (best_before - best_in) / max(best_before, 1e-12) < epsilon


def _mse(diff, batch):
    loss = ad.mul(ad.sum_all(ad.mul(diff, diff)), 1.0 / batch)
    if not np.isfinite(ad.val(loss)):
        raise NumericError("loss is non-finite")
    return loss


def total_loss(
    maps: KklMaps,
    theta,
    phi,
    obs: ObserverMatrices,
    system: SystemSpec,
    x_batch,
    lam: float,
    mode: str = "autonomous",
    u_now=None,
    enc_deltas_pre=None,
    enc_deltas_post=None,
    dec_deltas=None,
    dt: float | None = None,
    f_scale: float | None = None,
):
    """Reconstruction plus weighted physics residual; returns (total, rec, pde)."""
    if mode not in ("autonomous", "dynamic"):
        raise ContractViolation(f"unknown loss mode {mode!r}")
    try:
        rec = reconstruction_loss(
            maps, theta, phi, x_batch,
            enc_deltas=enc_deltas_pre, dec_deltas=dec_deltas,
        )
    except NumericError as e:
        raise NumericError(f"reconstruction component: {e}") from e
    if lam == 0.0:
        return rec, rec, 0.0
    try:
        if mode == "autonomous":
            pde = autonomous_pde_residual(
                maps, theta, obs, system, x_batch, u_batch=u_now,
                f_scale=f_scale, weight_deltas=enc_deltas_pre,
            )
        else:
            if dt is None:
                raise ContractViolation("dynamic mode needs dt")
            pde = dynamic_pde_residual_batch(
                maps, theta, obs, system, x_batch, u_now,
                enc_deltas_pre, enc_deltas_post, dt, f_scale=f_scale,
            )
    except NumericError as e:
        raise NumericError(f"physics component: {e}") from e
    return ad.add(rec, ad.mul(pde, lam)), rec, pde


def latent_targets(
    system: SystemSpec,
    obs: ObserverMatrices,
    trajectories,
    discard: float = LATENT_TARGET_DISCARD,
):
    """(states, latents) pairs for the autonomous data-fit term.

    Each trajectory is re-integrated without noise from its recorded
    initial condition, the latent filter is run along the clean outputs
    from z(0) = 0, and the first ``discard`` fraction (the filter
    transient) is dropped.
    """
    xs, zs = [], []
    for tr in trajectories:
        if not np.all(tr.inputs == 0.0):
            raise ContractViolation("autonomous pretraining needs u == 0 data")
        clean = simulate(
            system, tr.x0, None, tr.dt, tr.n_steps * tr.dt, 0.0, tr.seed
        )
        z = simulate_latent(obs, clean.outputs, tr.dt)
        k0 = int(np.ceil(discard * len(z)))
        xs.append(clean.states[k0:])
        zs.append(z[k0:])
    return np.concatenate(xs), np.concatenate(zs)


def compute_f_scale(system: SystemSpec, states: np.ndarray) -> float:
    u = np.zeros((len(states), system.m)) if system.m else None
    f = system.f(np.asarray(states, dtype=np.float64), u)
    return normalize_vector_field(f)[1]


def _sample_box(rng, system: SystemSpec, count: int) -> np.ndarray:
    lo, hi = system.domain[:, 0], system.domain[:, 1]
    return lo + rng.random((count, system.n_x)) * (hi - lo)


def phase1_train(
    system: SystemSpec,
    obs: ObserverMatrices,
    maps: KklMaps,
    theta: ParamStore,
    phi: ParamStore,
    trajectories,
    config: TrainConfig,
) -> Phase1Result:
    """Sequential autonomous pretraining of the base maps (in place).

    Encoder stage: latent data fit plus stationary residual on fresh
    collocation points, ``config.epochs`` steps. Decoder stage: frozen
    encoder, reconstruction on data states plus collocation points,
    another ``config.epochs`` steps.
    """
    x_data, z_data = latent_targets(system, obs, trajectories)
    f_scale = compute_f_scale(system, x_data) if config.normalize else 1.0

    batch_rng = seeding.stream(config.seed, seeding.STREAM_BATCH)
    colloc_rng = seeding.stream(config.seed, seeding.STREAM_COLLOCATION)
    log: list[LogRow] = []

    theta_hash_after_stage_a = None
    state = AdamState.for_params(theta)
    snapshot = theta.data.copy()
    abort = None
    for epoch in range(1, config.epochs + 1):
        idx = batch_rng.integers(0, len(x_data), size=config.batch)
        colloc = _sample_box(colloc_rng, system, config.collocation)
        try:
            pv = ParamVars(theta)
            fit = _mse(ad.sub(encode(maps, pv, x_data[idx]), z_data[idx]),
                       config.batch)
            pde = autonomous_pde_residual(
                maps, pv, obs, system, colloc, f_scale=f_scale
            )
            loss = ad.add(fit, ad.mul(pde, config.lam))
            ad.backward(loss)
        except NumericError as e:
            theta.data[:] = snapshot
            abort = Abort(epoch, str(e))
            break
        snapshot[:] = theta.data
        grads = clip_grad_norm(pv.grads(), config.clip_norm)
        adam_step(state, theta, grads, lr=config.lr)
        log.append(LogRow(epoch, float(ad.val(fit)), float(ad.val(pde)),
                          global_norm(grads), 0))

    theta_hash_after_stage_a = store_hash(theta)
    state = AdamState.for_params(phi)
    snapshot = phi.data.copy()
    for epoch in range(config.epochs + 1, 2 * config.epochs + 1):
        if abort is not None:
            break
        idx = batch_rng.integers(0, len(x_data), size=config.batch)
        colloc = _sample_box(colloc_rng, system, config.collocation)
        x_rec = np.concatenate([x_data[idx], colloc])
        z_rec = encode(maps, theta, x_rec)  # frozen encoder, plain arrays
        try:
            pv = ParamVars(phi)
            rec = _mse(ad.sub(decode(maps, pv, z_rec), x_rec), len(x_rec))
            ad.backward(rec)
        except NumericError as e:
            phi.data[:] = snapshot
            abort = Abort(epoch, str(e))
            break
        snapshot[:] = phi.data
        grads = clip_grad_norm(pv.grads(), config.clip_norm)
        adam_step(state, phi, grads, lr=config.lr)
        log.append(LogRow(epoch, float(ad.val(rec)), 0.0, global_norm(grads), 0))

    if store_hash(theta) != theta_hash_after_stage_a:
        raise NumericError("encoder changed during the decoder stage")
    return Phase1Result(theta=theta, phi=phi, f_scale=f_scale, log=log,
                        abort=abort)


def _gather_windows(trajectories, picks, w: int, shift: int = 0):
    """Stack input windows ending at step k+shift for each (traj, k) pick."""
    rows = []
    for t_idx, k in picks:
        u = trajectories[t_idx].inputs
        idx = np.clip(k + shift + np.arange(w) - (w - 1), 0, len(u) - 1)
        rows.append(u[idx])
    return np.stack(rows)


def _check_zero_input_gating(maps, spec, psi):
    zero_win = np.zeros((2, spec.window, spec.lstm.input_size))
    d_theta, d_phi = generate_deltas(psi, spec, zero_win)
    if np.any(ad.val(d_theta) != 0.0) or np.any(ad.val(d_phi) != 0.0):
        raise NumericError("zero-input gating violated: deltas not exactly 0")


def phase2_train(
    system: SystemSpec,
    obs: ObserverMatrices,
    maps: KklMaps,
    theta_base: ParamStore,
    phi_base: ParamStore,
    spec,
    trajectories,
    config: TrainConfig,
    variant: str,
    f_scale: float = 1.0,
) -> Phase2Result:
    """Train the conditioning parameters on forced data; bases stay frozen.

    Every trajectory must share one dt and one length: both variants
    take them from the first trajectory.
    """
    grids = sorted({(tr.dt, tr.n_steps) for tr in trajectories})
    if len(grids) > 1:
        raise ContractViolation(
            "phase 2 needs trajectories on one time grid, got (dt, n_steps) "
            f"{grids}"
        )
    if variant == "dynamic":
        if not isinstance(spec, HyperNetSpec):
            raise ContractViolation("dynamic variant needs a HyperNetSpec")
        return _train_dynamic(
            system, obs, maps, theta_base, phi_base, spec, trajectories,
            config, f_scale,
        )
    if variant == "static":
        if not isinstance(spec, InjectionSpec):
            raise ContractViolation("static variant needs an InjectionSpec")
        return _train_static(
            system, obs, maps, theta_base, phi_base, spec, trajectories, config
        )
    raise ContractViolation(f"unknown variant {variant!r}")


def _train_dynamic(system, obs, maps, theta_base, phi_base, spec, trajectories,
                   config, f_scale):
    base_hash = store_hash(theta_base) + store_hash(phi_base)
    psi = init_hypernet_params(spec, config.seed)
    _check_zero_input_gating(maps, spec, psi)

    dt = trajectories[0].dt
    n_steps = trajectories[0].n_steps
    batch_rng = seeding.stream(config.seed, seeding.STREAM_BATCH)
    state = AdamState.for_params(psi)
    snapshot = psi.data.copy()
    log: list[LogRow] = []
    abort = None

    for epoch in range(1, config.epochs + 1):
        t_idx = batch_rng.integers(0, len(trajectories), size=config.batch)
        k_idx = batch_rng.integers(0, n_steps, size=config.batch)
        picks = list(zip(t_idx, k_idx))
        x = np.stack([trajectories[t].states[k] for t, k in picks])
        u_now = np.stack([trajectories[t].inputs[k] for t, k in picks])
        win_pre = _gather_windows(trajectories, picks, spec.window, 0)
        win_post = _gather_windows(trajectories, picks, spec.window, 1)
        windows = np.concatenate([win_pre, win_post])

        try:
            pv = ParamVars(psi)
            b = config.batch
            context = encode_context(pv, spec, windows)
            gates = gate_values(windows, spec.tau)
            pre, post = ad.narrow(context, 0, 0, b), ad.narrow(context, 0, b, b)
            enc_pre = head_layer_deltas(
                spec.enc_head, maps.enc, "enc",
                head_deltas(pv, spec.enc_head, pre, gates[:b]),
            )
            enc_post = head_layer_deltas(
                spec.enc_head, maps.enc, "enc",
                head_deltas(pv, spec.enc_head, post, gates[b:]),
            )
            # the decoder head reads only the pre-windows
            dec_pre = head_layer_deltas(
                spec.dec_head, maps.dec, "dec",
                head_deltas(pv, spec.dec_head, pre, gates[:b]),
            )
            loss, rec, pde = total_loss(
                maps, theta_base, phi_base, obs, system, x, config.lam,
                mode="dynamic", u_now=u_now, enc_deltas_pre=enc_pre,
                enc_deltas_post=enc_post, dec_deltas=dec_pre, dt=dt,
                f_scale=f_scale,
            )
            ad.backward(loss)
        except NumericError as e:
            psi.data[:] = snapshot
            abort = Abort(epoch, str(e))
            break
        snapshot[:] = psi.data
        grads = clip_grad_norm(pv.grads(), config.clip_norm)
        adam_step(state, psi, grads, lr=config.lr)
        log.append(LogRow(epoch, float(ad.val(rec)), float(ad.val(pde)),
                          global_norm(grads), 0))

    return Phase2Result(
        params=psi, variant="dynamic", log=log,
        base_hash_before=base_hash,
        base_hash_after=store_hash(theta_base) + store_hash(phi_base),
        abort=abort,
    )


def _train_static(system, obs, maps, theta_base, phi_base, spec, trajectories,
                  config):
    base_hash = store_hash(theta_base) + store_hash(phi_base)
    xi = init_injection_params(spec, config.seed)

    dt = trajectories[0].dt
    n_steps = trajectories[0].n_steps
    seg = min(config.segment_steps, n_steps)
    discard = min(config.segment_discard, seg - 1)
    batch_rng = seeding.stream(config.seed, seeding.STREAM_BATCH)
    state = AdamState.for_params(xi)
    snapshot = xi.data.copy()
    log: list[LogRow] = []
    abort = None

    for epoch in range(1, config.epochs + 1):
        t_idx = batch_rng.integers(0, len(trajectories), size=config.segment_batch)
        k_idx = batch_rng.integers(0, n_steps - seg + 1, size=config.segment_batch)
        try:
            pv = ParamVars(xi)
            total = None
            count = 0
            for t, k0 in zip(t_idx, k_idx):
                tr = trajectories[t]
                inject_full = make_step_injection(pv, spec, tr.inputs, dt)
                nodes = simulate_latent_nodes(
                    obs, tr.outputs[k0 : k0 + seg + 1], dt,
                    injection=lambda z, k: inject_full(z, k0 + k),
                )
                kept = nodes[discard:]
                zmat = ad.concat(
                    [ad.reshape(z, (1, obs.n_z)) for z in kept], axis=0
                )
                xhat = decode(maps, phi_base, zmat)
                target = tr.states[k0 + discard : k0 + seg + 1]
                diff = ad.sub(xhat, target)
                part = ad.sum_all(ad.mul(diff, diff))
                total = part if total is None else ad.add(total, part)
                count += len(target)
            loss = ad.mul(total, 1.0 / count)
            if not np.isfinite(ad.val(loss)):
                raise NumericError("segment loss is non-finite")
            ad.backward(loss)
        except NumericError as e:
            xi.data[:] = snapshot
            abort = Abort(epoch, str(e))
            break
        snapshot[:] = xi.data
        grads = clip_grad_norm(pv.grads(), config.clip_norm)
        adam_step(state, xi, grads, lr=config.lr)
        log.append(LogRow(epoch, float(ad.val(loss)), 0.0, global_norm(grads), 0))

    return Phase2Result(
        params=xi, variant="static", log=log,
        base_hash_before=base_hash,
        base_hash_after=store_hash(theta_base) + store_hash(phi_base),
        abort=abort,
    )


def observer_pairs(obs: ObserverMatrices, trajectories,
                   discard: float = LATENT_TARGET_DISCARD):
    """(latent, state) pairs seen by the inverse map at estimation time.

    Runs the latent filter along each trajectory's recorded outputs and
    pairs it with the true states, dropping the filter transient. Under
    forcing this relation is one-to-many: the same filtered latent can
    correspond to different states depending on the input history, which
    is exactly the gap the training-only baseline attempts to close.
    """
    zs, xs = [], []
    for tr in trajectories:
        z = simulate_latent(obs, tr.outputs, tr.dt)
        k0 = int(np.ceil(discard * len(z)))
        zs.append(z[k0:])
        xs.append(tr.states[k0:])
    return np.concatenate(zs), np.concatenate(xs)


def curriculum_train(
    system: SystemSpec,
    obs: ObserverMatrices,
    maps: KklMaps,
    theta_frozen: ParamStore,
    phi: ParamStore,
    level_datasets,
    config: TrainConfig,
    schedule: CurriculumConfig,
) -> CurriculumResult:
    """Decoder-only fine-tuning on difficulty levels in index order.

    The decoder retrains against the latent filter's own trajectory
    (observer_pairs) on each level until the loss plateaus (relative
    improvement below ``schedule.epsilon`` over ``schedule.patience``
    epochs) or the per-level budget runs out, then the next level starts.
    The encoder and the latent pair are untouched.
    """
    if len(level_datasets) < 1:
        raise ContractViolation("need at least one curriculum level")
    theta_hash = store_hash(theta_frozen)
    batch_rng = seeding.stream(config.seed, seeding.STREAM_BATCH)
    state = AdamState.for_params(phi)
    snapshot = phi.data.copy()
    log: list[LogRow] = []
    transitions = []
    epoch = 0
    abort = None

    for level_idx, trajectories in enumerate(level_datasets, start=1):
        z_data, x_data = observer_pairs(obs, trajectories)
        transitions.append((level_idx, epoch + 1))
        history: list[float] = []
        for _ in range(schedule.level_epochs):
            epoch += 1
            idx = batch_rng.integers(0, len(x_data), size=config.batch)
            try:
                pv = ParamVars(phi)
                rec = _mse(ad.sub(decode(maps, pv, z_data[idx]), x_data[idx]),
                           config.batch)
                ad.backward(rec)
            except NumericError as e:
                phi.data[:] = snapshot
                abort = Abort(epoch, str(e))
                break
            snapshot[:] = phi.data
            grads = clip_grad_norm(pv.grads(), config.clip_norm)
            adam_step(state, phi, grads, lr=config.lr)
            history.append(float(ad.val(rec)))
            log.append(LogRow(epoch, history[-1], 0.0, global_norm(grads),
                              level_idx))
            if len(history) >= schedule.patience + 1 and plateau_detect(
                history, schedule.epsilon, schedule.patience
            ):
                break
        if abort is not None:
            break

    if store_hash(theta_frozen) != theta_hash:
        raise NumericError("encoder changed during curriculum training")
    return CurriculumResult(phi=phi, log=log, transitions=transitions,
                            abort=abort)
