"""Training procedures: autonomous pretraining, conditioned-observer
training on forced data, and the adaptive-curriculum baseline.

One "epoch" everywhere means one optimizer step on a freshly drawn
batch: a seeded subsample of the trajectory data plus, where a physics
residual is active, a fresh draw of collocation points from the domain
box. All draws come from fixed streams of the configured seed, so a
training run is a pure function of (data, config) down to the checkpoint
bits.

The data of each dataset arrive as one ``TrajectorySet``. Phase 1 and
the curriculum take their (state, latent) pairs from each set in turn;
phase 2 indexes one set with (run, step) arrays, the sets of several
datasets joined into one copy first.

Pretraining is sequential to keep the encoder and decoder objectives
from fighting each other: the encoder is fitted first against simulated
latent targets plus the stationary residual, then frozen while the
decoder learns the inverse on reconstruction alone.

Every loop hands its epochs to one ``_Fit``, which holds the policy they
share: tape the loss, backpropagate, clip, take an Adam step and log a
row with the gradient norm found before clipping and the epoch's wall
seconds (``LogRow.wall_s``: it is not in the loss CSV, whose bytes are a
function of data and config, and rows compare equal without it). A loss
that reaches no parameter (a static epoch of unforced runs) is not
taped: its epoch steps on a zero gradient and logs a norm of 0.0. A
``NumericError`` while taping the loss or clipping the gradient ends the
run with an ``Abort`` at that epoch k, before its Adam step, so no
rollback copy is needed: the stores are those of the k - 1 completed
steps, each taken on a finite, clipped gradient (the CLI writes no
output for an aborted run, only its manifest record).
The stores a run declares frozen are hashed when it starts and checked
when it ends; a changed one raises ``NumericError``.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import seeding
from .config import defaults
from .dynamics import SystemSpec, TrajectorySet, eval_vector_field, simulate
from .errors import ContractViolation, NumericError
from .hypernet import (
    HyperNetSpec,
    InjectionSpec,
    encode_context,
    gate_values,
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
    init_decoder,
    init_encoder,
    mean_square,
    reconstruction_loss,
    simulate_latent,
    simulate_latent_injected,
)
from .optim import AdamState, adam_step, clip_factor, clip_grad_norm
from .params import ParamStore, ParamVars
from .signals import window_index

LATENT_TARGET_DISCARD = 0.2  # transient fraction dropped from z labels
_DEFAULT = defaults("train")  # each default is its config.SETTINGS row's


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = _DEFAULT["epochs"]
    batch: int = _DEFAULT["batch"]
    lr: float = _DEFAULT["lr"]
    lam: float = _DEFAULT["lambda"]          # physics-residual weight
    clip_norm: float = _DEFAULT["clip"]
    seed: int = _DEFAULT["seed"]
    collocation: int = _DEFAULT["collocation"]
    normalize: bool = _DEFAULT["normalize"]
    # latent BPTT segment (injection training) and its dropped transient
    segment_steps: int = _DEFAULT["segment_steps"]
    segment_discard: int = _DEFAULT["segment_discard"]
    segment_batch: int = _DEFAULT["segment_batch"]

    def __post_init__(self):
        if not (self.lam >= 0 and math.isfinite(self.lam)):
            raise ContractViolation("lambda must be finite and >= 0")
        if not self.clip_norm > 0:  # also refuses NaN, which never clips
            raise ContractViolation("clip must be positive")
        if self.epochs < 1 or self.batch < 1:
            raise ContractViolation("epochs and batch must be >= 1")
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ContractViolation("lr must be positive and finite")
        for name in ("collocation", "segment_steps", "segment_batch"):
            if getattr(self, name) < 1:
                raise ContractViolation(f"{name} must be >= 1")
        if self.segment_discard < 0:
            raise ContractViolation("segment_discard must be >= 0")


@dataclass(frozen=True)
class CurriculumConfig:
    epsilon: float = _DEFAULT["epsilon"]
    patience: int = _DEFAULT["patience"]
    level_epochs: int = _DEFAULT["level_epochs"]

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ContractViolation("epsilon must lie in (0, 1)")
        if self.patience < 1:
            raise ContractViolation("patience must be >= 1")
        if self.level_epochs < 1:
            raise ContractViolation("level_epochs must be >= 1")


@dataclass(frozen=True)
class LogRow:
    epoch: int
    loss_rec: float
    loss_pde: float
    grad_norm: float
    level: int
    wall_s: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class Abort:
    """A numeric failure that stopped training at ``epoch``."""

    epoch: int
    reason: str


@dataclass
class Phase1Result:
    theta: ParamStore
    phi: ParamStore | None
    f_scale: float
    log: list
    abort: Abort | None = None


@dataclass
class Phase2Result:
    params: ParamStore
    log: list
    abort: Abort | None = None


@dataclass
class CurriculumResult:
    phi: ParamStore
    log: list
    transitions: list = field(default_factory=list)  # (level, first_epoch)
    abort: Abort | None = None


def store_hash(store: ParamStore) -> str:
    return hashlib.sha256(store.data).hexdigest()


def plateau_detect(loss_history, epsilon: float, patience: int) -> bool:
    """True when the best loss stopped improving relative to the window.

    Compares the best value before the last ``patience`` entries with the
    best value inside them: relative improvement below ``epsilon`` is a
    plateau. A history of at most ``patience`` entries has nothing before
    the window, so it is no plateau yet.
    """
    hist = list(loss_history)
    if len(hist) <= patience:
        return False
    best_before = min(hist[:-patience])
    best_in = min(hist[-patience:])
    return (best_before - best_in) / max(best_before, 1e-12) < epsilon


class _Fit:
    """One Adam run over ``params`` in place: m, v and one gradient buffer,
    and no copy of the parameters (see the module docstring).

    The dynamic run names its readout slices U_l ``factored``: the gradient
    buffer has no room for them, so ``ParamVars`` keeps their gradients
    as factors, never formed (``optim``), and the run holds ψ, m and v
    and no fourth ψ-sized array. Their norm is summed from the factors
    in another order than the formed entries, so the norm and the clip
    factor handed to ``adam_step`` can differ in the last bits.
    """

    def __init__(self, params: ParamStore, config: TrainConfig, frozen=(),
                 factored=()):
        self.params = params
        self.config = config
        self.state = AdamState.for_params(params, factored)
        self.frozen = [(store, store_hash(store)) for store in frozen]
        self.log: list[LogRow] = []
        self.abort: Abort | None = None

    def epoch(self, epoch: int, step, level: int = 0) -> LogRow | None:
        """Step on the loss ``step(pv)`` tapes; the row, or None on abort.

        ``step`` returns ``(loss, rec, pde)``: the loss to differentiate
        and the two components the row records.
        """
        started = time.perf_counter()
        try:
            pv = ParamVars(self.params, self.state.grad)
            loss, rec, pde = step(pv)
            if ad.is_var(loss):  # an untaped loss leaves the gradient 0
                ad.backward(loss)
            norm = clip_grad_norm(pv.grads(), self.config.clip_norm,
                                  pv.factored)
        except NumericError as e:
            self.abort = Abort(epoch, str(e))
            return None
        adam_step(self.state, self.params, self.state.grad, lr=self.config.lr,
                  factored=pv.factored,
                  grad_scale=clip_factor(norm, self.config.clip_norm))
        self.log.append(LogRow(epoch, float(ad.val(rec)), float(ad.val(pde)),
                               norm, level, time.perf_counter() - started))
        return self.log[-1]

    def check_frozen(self) -> None:
        if any(store_hash(store) != digest for store, digest in self.frozen):
            raise NumericError("a frozen parameter store changed in training")


def total_loss(
    maps: KklMaps,
    theta,
    phi,
    obs: ObserverMatrices,
    system: SystemSpec,
    x_batch,
    lam: float,
    dt: float,
    u_now=None,
    enc_deltas_pre=None,
    enc_deltas_post=None,
    dec_deltas=None,
    f_scale: float | None = None,
):
    """Reconstruction plus weighted dynamic residual; returns (total, rec, pde).

    The residual is ``dynamic_pde_residual_batch`` over the window step
    ``dt``; without deltas its finite-difference term is exactly zero.
    The reconstruction decodes the encoder output of the residual's
    Jacobian pass, so x is encoded once at the pre-window parameters.
    At ``lam`` 0 no residual is taped.
    """
    pde = z = None
    if lam != 0.0:
        try:
            pde, z = dynamic_pde_residual_batch(
                maps, theta, obs, system, x_batch, u_now,
                enc_deltas_pre, enc_deltas_post, dt, f_scale=f_scale,
            )
        except NumericError as e:
            raise NumericError(f"physics component: {e}") from e
    try:
        rec = reconstruction_loss(
            maps, theta, phi, x_batch,
            enc_deltas=enc_deltas_pre, dec_deltas=dec_deltas, z=z,
        )
    except NumericError as e:
        raise NumericError(f"reconstruction component: {e}") from e
    if lam == 0.0:
        return rec, rec, 0.0
    return ad.add(rec, ad.mul(pde, lam)), rec, pde


def latent_targets(system: SystemSpec, obs: ObserverMatrices, sets):
    """(states, latents) pairs for the autonomous data-fit term.

    Each trajectory set is re-integrated without noise from its recorded
    initial conditions in one ``simulate`` call; the pairs are
    ``observer_pairs`` of those, in (state, latent) order.
    """
    if not all(np.all(runs.inputs == 0.0) for runs in sets):
        raise ContractViolation("autonomous pretraining needs u == 0 data")
    clean = [simulate(system, runs.states[:, 0], None, runs.dt,
                      runs.n_steps * runs.dt, 0.0, 0) for runs in sets]
    zs, xs = observer_pairs(obs, clean)
    return xs, zs


def compute_f_scale(system: SystemSpec, states: np.ndarray) -> float:
    """s = max(1, 95th percentile of |f|) over ``states``: the residuals
    divide every term by s, which leaves their minimizer unchanged and
    keeps the loss tame on large-drift systems. The percentile is
    ``percentile_95``, numpy's own bit for bit."""
    f = eval_vector_field(system, states)
    if len(f) == 0:
        raise ContractViolation("empty drift batch")
    norms = np.sqrt(np.sum(f.reshape(len(f), -1) ** 2, axis=1))
    return max(1.0, percentile_95(norms))


def percentile_95(values: np.ndarray) -> float:
    """``np.percentile(values, 95)`` of a non-empty 1-D array, bit for bit.

    numpy's "linear" method: with v = (n − 1)·0.95, the order statistics
    a = x₍⌊v⌋₎ and b = x₍⌊v⌋+1₎ are interpolated as numpy's ``_lerp``
    does, a + d·t, or b − d·(1 − t) where t ≥ 0.5, with d = b − a and
    t = v − ⌊v⌋. Where v reaches n − 1 (n = 1), a and b are both the
    largest entry and t = v + 1, as in numpy. With a NaN entry the result
    is the partition's last entry, a NaN. The partition takes numpy's kth
    list, so even a NaN's bits are numpy's. ``np.percentile`` builds that
    list with ``np.unique``, which imports ``numpy.ma``; this builds it
    in Python, so no command loads that package.
    """
    n = len(values)
    v = (n - 1) * 0.95
    lo = hi = -1
    if v < n - 1:
        lo = math.floor(v)
        hi = lo + 1
    x = np.partition(values, sorted({0, -1, lo, hi}))
    if np.isnan(x[-1]):
        return float(x[-1])
    a, b, t = float(x[lo]), float(x[hi]), v - lo
    d = b - a
    return b - d * (1.0 - t) if t >= 0.5 else a + d * t


def _sample_box(rng, system: SystemSpec, count: int) -> np.ndarray:
    lo, hi = system.domain[:, 0], system.domain[:, 1]
    return lo + rng.random((count, system.n_x)) * (hi - lo)


def phase1_train(
    system: SystemSpec,
    obs: ObserverMatrices,
    maps: KklMaps,
    sets: list,
    config: TrainConfig,
) -> Phase1Result:
    """Sequential autonomous pretraining of the base maps, from scratch.

    Encoder stage: θ fresh from ``init_encoder`` at ``config.seed``,
    latent data fit plus stationary residual on fresh collocation points,
    ``config.epochs`` steps. Decoder stage: frozen encoder, φ fresh from
    ``init_decoder`` at ``config.seed``, reconstruction on data states
    plus collocation points, another ``config.epochs`` steps.

    Each stage holds only what its steps read. The list ``sets`` is
    emptied once the latent targets are drawn from it, so its
    trajectories are freed unless the caller keeps them elsewhere; the z
    labels go when the encoder stage ends, with its Adam state; and φ is
    made only when the decoder stage starts, so a run aborted in the
    encoder stage returns ``phi`` None.
    """
    x_data, z_data = latent_targets(system, obs, sets)
    sets.clear()
    f_scale = compute_f_scale(system, x_data) if config.normalize else 1.0

    batch_rng = seeding.stream(config.seed, seeding.STREAM_BATCH)
    colloc_rng = seeding.stream(config.seed, seeding.STREAM_COLLOCATION)

    theta = init_encoder(maps, config.seed)
    run = _Fit(theta, config)
    for epoch in range(1, config.epochs + 1):
        idx = batch_rng.integers(0, len(x_data), size=config.batch)
        colloc = _sample_box(colloc_rng, system, config.collocation)

        def step(pv):
            fit = mean_square(ad.sub(encode(maps, pv, x_data[idx]),
                                     z_data[idx]), config.batch)
            pde = autonomous_pde_residual(
                maps, pv, obs, system, colloc, f_scale=f_scale
            )
            return ad.add(fit, ad.mul(pde, config.lam)), fit, pde

        if run.epoch(epoch, step) is None:
            return Phase1Result(theta=theta, phi=None, f_scale=f_scale,
                                log=run.log, abort=run.abort)

    encoder_log = run.log
    del z_data, run
    phi = init_decoder(maps, config.seed)
    run = _Fit(phi, config, frozen=(theta,))
    for epoch in range(config.epochs + 1, 2 * config.epochs + 1):
        idx = batch_rng.integers(0, len(x_data), size=config.batch)
        colloc = _sample_box(colloc_rng, system, config.collocation)
        x_rec = np.concatenate([x_data[idx], colloc])
        z_rec = encode(maps, theta, x_rec)  # frozen encoder, plain arrays

        def step(pv):
            rec = mean_square(ad.sub(decode(maps, pv, z_rec), x_rec),
                              len(x_rec))
            return rec, rec, 0.0

        if run.epoch(epoch, step) is None:
            break
    run.check_frozen()
    return Phase1Result(theta=theta, phi=phi, f_scale=f_scale,
                        log=encoder_log + run.log, abort=run.abort)


def _check_zero_input_gating(spec, psi):
    """Zero windows must give the exact zero s factors training applies."""
    zero_win = np.zeros((2, spec.window, spec.lstm.input_size))
    context = encode_context(psi, spec, zero_win)
    gates = gate_values(zero_win, spec.tau)
    for head in (spec.enc_head, spec.dec_head):
        factors = head_layer_deltas(psi, head, context, gates)
        if any(np.any(ad.val(s) != 0.0) for _, s in factors):
            raise NumericError("zero-input gating violated: deltas not exactly 0")


def phase2_train(
    system: SystemSpec,
    obs: ObserverMatrices,
    maps: KklMaps,
    theta_base: ParamStore | None,
    phi_base: ParamStore,
    spec,
    sets,
    config: TrainConfig,
    f_scale: float = 1.0,
) -> Phase2Result:
    """Train the conditioning parameters on forced data; bases stay frozen.

    The spec's type names the variant: a HyperNetSpec trains the dynamic
    hypernetwork, an InjectionSpec the static injection network. Only the
    dynamic variant runs the base encoder ``theta_base``: the static one
    never receives it, so it may be None there (the CLI passes an
    observer read's None). Every trajectory set must share one dt and one
    length; several sets are joined into one before training.
    """
    grids = sorted({(runs.dt, runs.n_steps) for runs in sets})
    if len(grids) > 1:
        raise ContractViolation(
            "phase 2 needs trajectories on one time grid, got (dt, n_steps) "
            f"{grids}"
        )
    # one set is used as it is; several are joined into one copy
    runs = sets[0] if len(sets) == 1 else TrajectorySet(
        sets[0].dt, sets[0].times,
        *(np.concatenate([getattr(s, name) for s in sets])
          for name in ("states", "inputs", "outputs")),
        sum((s.signals for s in sets), ()))
    if isinstance(spec, HyperNetSpec):
        if theta_base is None:
            raise ContractViolation("dynamic phase 2 needs the base encoder")
        return _train_dynamic(
            system, obs, maps, theta_base, phi_base, spec, runs, config,
            f_scale,
        )
    if isinstance(spec, InjectionSpec):
        return _train_static(obs, maps, phi_base, spec, runs, config)
    raise ContractViolation(
        f"phase 2 needs a HyperNetSpec or an InjectionSpec, got "
        f"{type(spec).__name__}"
    )


def _train_dynamic(system, obs, maps, theta_base, phi_base, spec, runs,
                   config, f_scale):
    psi = init_hypernet_params(spec, config.seed)
    _check_zero_input_gating(spec, psi)

    dt, n_steps = runs.dt, runs.n_steps
    batch_rng = seeding.stream(config.seed, seeding.STREAM_BATCH)
    run = _Fit(psi, config, frozen=(theta_base, phi_base),
               factored=spec.enc_head.u_names + spec.dec_head.u_names)
    for epoch in range(1, config.epochs + 1):
        t_idx = batch_rng.integers(0, runs.count, size=config.batch)
        k_idx = batch_rng.integers(0, n_steps, size=config.batch)
        x = runs.states[t_idx, k_idx]
        u_now = runs.inputs[t_idx, k_idx]
        # the input windows ending at steps k (pre) and k + 1 (post)
        ends = np.concatenate([k_idx, k_idx + 1])
        windows = runs.inputs[np.tile(t_idx, 2)[:, None],
                              window_index(ends, spec.window)]

        def step(pv):
            b = config.batch
            context = encode_context(pv, spec, windows)
            gates = gate_values(windows, spec.tau)
            pre, post = ad.narrow(context, 0, 0, b), ad.narrow(context, 0, b, b)
            enc_pre = head_layer_deltas(pv, spec.enc_head, pre, gates[:b])
            enc_post = head_layer_deltas(pv, spec.enc_head, post, gates[b:])
            # the decoder head reads only the pre-windows
            dec_pre = head_layer_deltas(pv, spec.dec_head, pre, gates[:b])
            return total_loss(
                maps, theta_base, phi_base, obs, system, x, config.lam, dt,
                u_now=u_now, enc_deltas_pre=enc_pre, enc_deltas_post=enc_post,
                dec_deltas=dec_pre, f_scale=f_scale,
            )

        if run.epoch(epoch, step) is None:
            break
    run.check_frozen()
    return Phase2Result(params=psi, log=run.log, abort=run.abort)


def _train_static(obs, maps, phi_base, spec, runs, config):
    """The injection network on latent rollouts decoded by the frozen
    ``phi_base``; the loss never reaches the encoder, so θ is not taken.
    Each segment is rolled out by ``kkl.simulate_latent_injected``, the
    static eval cell's filter, on a taped ξ: the one latent filter a
    gradient goes through. Its injection encodes the whole run's windows
    (``hypernet.make_step_injection``), but the backward reverses only
    the LSTM row blocks that hold the segment's windows
    (``nets.lstm_forward``)."""
    xi = init_injection_params(spec, config.seed)

    dt, n_steps = runs.dt, runs.n_steps
    seg = min(config.segment_steps, n_steps)
    discard = min(config.segment_discard, seg - 1)
    batch_rng = seeding.stream(config.seed, seeding.STREAM_BATCH)
    run = _Fit(xi, config, frozen=(phi_base,))
    for epoch in range(1, config.epochs + 1):
        t_idx = batch_rng.integers(0, runs.count, size=config.segment_batch)
        k_idx = batch_rng.integers(0, n_steps - seg + 1, size=config.segment_batch)

        def step(pv):
            total = None
            count = 0
            for t, k0 in zip(t_idx, k_idx):
                nodes = list(simulate_latent_injected(
                    obs, runs.outputs[t, k0 : k0 + seg + 1, None], dt,
                    make_step_injection(pv, spec, runs.inputs[t]), k0))
                xhat = decode(maps, phi_base, ad.concat(nodes[discard:]))
                target = runs.states[t, k0 + discard : k0 + seg + 1]
                diff = ad.sub(xhat, target)
                part = ad.sum_all(ad.mul(diff, diff))
                total = part if total is None else ad.add(total, part)
                count += len(target)
            loss = ad.mul(total, 1.0 / count)
            if not np.isfinite(ad.val(loss)):
                raise NumericError("segment loss is non-finite")
            return loss, loss, 0.0

        if run.epoch(epoch, step) is None:
            break
    run.check_frozen()
    return Phase2Result(params=xi, log=run.log, abort=run.abort)


def observer_pairs(obs: ObserverMatrices, sets):
    """(latent, state) pairs seen by the inverse map at estimation time.

    Runs the latent filter along each trajectory's recorded outputs, one
    time-major block per trajectory set, and pairs it with the true
    states, dropping the filter transient; the pairs are run-major, set
    after set. Under forcing this relation is one-to-many: the same
    filtered latent can correspond to different states depending on the
    input history, which is exactly the gap the training-only baseline
    attempts to close.
    """
    zs, xs = [], []
    for runs in sets:
        z = simulate_latent(obs, runs.outputs.swapaxes(0, 1), runs.dt)
        k0 = int(np.ceil(LATENT_TARGET_DISCARD * len(z)))
        zs.append(z[k0:].swapaxes(0, 1).reshape(-1, obs.n_z))
        xs.append(runs.states[:, k0:].reshape(-1, runs.states.shape[2]))
    return np.concatenate(zs), np.concatenate(xs)


def curriculum_train(
    obs: ObserverMatrices,
    maps: KklMaps,
    phi: ParamStore,
    level_sets,
    config: TrainConfig,
    schedule: CurriculumConfig,
) -> CurriculumResult:
    """Decoder-only fine-tuning on difficulty levels in index order.

    The decoder retrains against the latent filter's own trajectory
    (observer_pairs) on each level until the loss plateaus (relative
    improvement below ``schedule.epsilon`` over ``schedule.patience``
    epochs) or the per-level budget runs out, then the next level starts.
    The loss never reaches the encoder, so θ is not taken; the latent
    pair is untouched.
    """
    if len(level_sets) < 1:
        raise ContractViolation("need at least one curriculum level")
    batch_rng = seeding.stream(config.seed, seeding.STREAM_BATCH)
    run = _Fit(phi, config)
    transitions = []
    epoch = 0

    for level_idx, runs in enumerate(level_sets, start=1):
        z_data, x_data = observer_pairs(obs, [runs])
        transitions.append((level_idx, epoch + 1))
        history: list[float] = []
        for _ in range(schedule.level_epochs):
            epoch += 1
            idx = batch_rng.integers(0, len(x_data), size=config.batch)

            def step(pv):
                rec = mean_square(ad.sub(decode(maps, pv, z_data[idx]),
                                         x_data[idx]), config.batch)
                return rec, rec, 0.0

            row = run.epoch(epoch, step, level_idx)
            if row is None:
                break
            history.append(row.loss_rec)
            if plateau_detect(history, schedule.epsilon, schedule.patience):
                break
        if run.abort is not None:
            break
    return CurriculumResult(phi=phi, log=run.log, transitions=transitions,
                            abort=run.abort)
