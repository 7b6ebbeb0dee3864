import json
import math
import struct
import tracemalloc

import numpy as np
import pytest

import hyperkkl.autodiff as ad
from hyperkkl import nets, seeding
from hyperkkl.dynamics import (
    SystemSpec,
    TrajectorySet,
    eval_vector_field,
    n_steps_for,
)
from hyperkkl.errors import ContractViolation, DivergenceError, NumericError
from hyperkkl.kkl import (
    KklMaps,
    ObserverMatrices,
    decoder_layout,
    encoder_layout,
    init_decoder,
    init_encoder,
    verify_observer,
)
from hyperkkl.nets import MlpSpec
from hyperkkl.params import Layout, ParamStore, ParamVars
from hyperkkl.signals import InputSignal, eval_signal


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def linear_test_system():
    """x' = -x, y = x on [-1, 1]; admits a closed-form immersion."""
    return SystemSpec(
        name="linear1d", n_x=1, n_y=1, m=0,
        f=lambda x, u: -x, h=lambda x: x,
        domain=np.array([[-1.0, 1.0]]),
    )


def analytic_linear_observer():
    """Shifted-diagonal pair avoiding the resonance of -1 with the drift."""
    a = np.diag([-2.0, -3.0, -4.0])
    b = np.ones((3, 1))
    obs = ObserverMatrices(A=a, B=b, n_z=3)
    verify_observer(obs)
    c = np.array([1.0 / (-1.0 - a[i, i]) for i in range(3)])
    return obs, c


def analytic_linear_maps(c):
    """Identity-activation MLPs realizing T(x) = c x and its left inverse."""
    maps = KklMaps(
        enc=MlpSpec(widths=(1, 1, 3), activation="identity"),
        dec=MlpSpec(widths=(3, 1, 1), activation="identity"),
    )
    theta = ParamStore(encoder_layout(maps))
    theta.set("enc.W0", [[1.0]])
    theta.set("enc.W1", c[:, None])
    phi = ParamStore(decoder_layout(maps))
    phi.set("dec.W0", (c / (c @ c))[None, :])
    phi.set("dec.W1", [[1.0]])
    return maps, theta, phi


def make_store(named_arrays):
    """Build a ParamStore from an ordered list of (name, array)."""
    layout = Layout([(n, np.asarray(a).shape) for n, a in named_arrays])
    store = ParamStore(layout)
    for n, a in named_arrays:
        store.set(n, a)
    return store


def copy_store(store):
    """A ParamStore of ``store``'s layout holding a copy of its values."""
    return ParamStore(store.layout, store.data.copy())


def central_diff(fn, x, eps=1e-6):
    """Finite-difference gradient of scalar fn at ndarray x (independent oracle)."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn(x)
        flat[i] = orig - eps
        down = fn(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return g


def tanh(x):
    """tanh as one tape node: the oracle primitive of the fused MLP layer."""
    out = np.tanh(ad.val(x))
    if not ad.is_var(x):
        return out
    return ad.Var(out, (x,), lambda g: (g * (1.0 - out * out),))


def exp(x):
    """exp as one tape node, for tape tests."""
    out = np.exp(ad.val(x))
    if not ad.is_var(x):
        return out
    return ad.Var(out, (x,), lambda g: (g * out,))


def reshape(x, shape):
    """reshape as one tape node, for oracles that form a dense weight."""
    xv = ad.val(x)
    out = xv.reshape(shape)
    if not ad.is_var(x):
        return out
    return ad.Var(out, (x,), lambda g: (g.reshape(xv.shape),))


def broadcast_add(x, b):
    """x + b for a b of x's shape less its first axis (a bias row, a weight
    shared by a batch of samples) as one tape node, whose VJP sums b's
    gradient over that axis: the broadcast that ``autodiff``'s elementwise
    primitives refuse a taped operand. For the oracles that need it."""
    out = ad.val(x) + ad.val(b)
    if not (ad.is_var(x) or ad.is_var(b)):
        return out

    def vjp(g):
        return tuple(gr for p, gr in ((x, g), (b, g.sum(axis=0)))
                     if ad.is_var(p))

    return ad.Var(out, tuple(p for p in (x, b) if ad.is_var(p)), vjp)


def traced_peak(fn, *args):
    """``fn(*args)`` and the most bytes tracemalloc saw held at once during
    the call beyond those held when it began."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return out, peak


def zero_fill_backward(root) -> None:
    """``autodiff.backward`` as it was before it adopted VJP arrays: a
    parent without ``.grad`` gets zeros, and every gradient is added in."""
    topo, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents
                         if id(p) not in seen)
    root.grad = np.ones(())
    while topo:
        node = topo.pop()
        if node._vjp is None:
            continue
        for parent, g in zip(node._parents, node._vjp(node.grad)):
            if parent.grad is None:
                parent.grad = np.zeros_like(parent.value)
            if isinstance(g, ad.AddInto):
                g.add(parent.grad)
            else:
                parent.grad += g
        node.grad = node._vjp = node._parents = None


def dense_u_grad(factors):
    """A readout u's gradient term as a dense ``AddInto``, the oracle of
    the factored one: it adds gᵀ (x ⊗ s) into a formed (o·i, r) array,
    one chunk of input columns at a time (``nets._add_u_chunk``), and
    keeps ``factors`` for a leaf that takes them instead."""
    g, xv, sv = factors
    n_out, n_in, rank = g.shape[1], xv.shape[1], sv.shape[1]

    def add(acc):
        acc_r = acc.reshape(n_out, n_in * rank, copy=False)
        for cols, cols_r in nets._in_chunks(n_in, rank):
            nets._add_u_chunk(acc_r[:, cols_r], [factors], cols)

    return ad.AddInto(add, factors=factors)


_linear_grads = nets._linear_grads  # the original, which dense_u_grads patches


def dense_linear_grads(*args):
    """``nets._linear_grads`` with u's gradient dense as well
    (``dense_u_grad``), so a full-layout gradient buffer takes it."""
    gx, gw, gu, gs = _linear_grads(*args)
    return gx, gw, None if gu is None else dense_u_grad(gu.factors), gs


@pytest.fixture
def dense_u_grads(monkeypatch):
    """Every taped MLP layer hands u's gradient over dense as well."""
    monkeypatch.setattr(nets, "_linear_grads", dense_linear_grads)


def taped_lowrank_linear(x, w, u, s):
    """``nets.lowrank_linear`` as a tape node of its own: the kernel's rows,
    with ``dense_linear_grads`` as its VJP. The low-rank primitive of the
    fused layer's reference chain."""
    inputs = (x, w, u, s)
    xv, wv, uv, sv = (ad.val(a) for a in inputs)
    out = nets.lowrank_linear(xv, wv, uv, sv)
    taped = [ad.is_var(a) for a in inputs]
    if not any(taped):
        return out

    def vjp(g):
        grads = dense_linear_grads(g, xv, wv, (uv, sv), taped)
        return tuple(gr for t, gr in zip(taped, grads) if t)

    return ad.Var(out, tuple(a for a in inputs if ad.is_var(a)), vjp)


def factored_vars(store, names=("U",)):
    """ParamVars over ``store`` whose slices ``names`` keep their gradients
    as factors (``autodiff.FactoredGrad``); the rest go into a buffer."""
    return ParamVars(store, ParamStore(store.layout.without(
        [n for n in names if n in store.layout])))


def formed_grads(pv) -> np.ndarray:
    """``pv``'s gradients as one vector in its store's layout, each factored
    slice formed chunk by chunk from its factors (``nets.u_grad_chunks``)."""
    out = ParamStore(pv.layout)
    for spec in pv.layout.slices:
        if spec.name not in pv.factored:
            out.set(spec.name, pv.grads().get(spec.name))
            continue
        terms = pv.factored[spec.name].terms
        if terms:
            u_r = out.get(spec.name).reshape(terms[0][0].shape[1], -1)
            for cols, chunk in nets.u_grad_chunks(terms):
                u_r[:, cols] = chunk
    return out.data


def grad_check(loss_fn, params: ParamStore, eps: float = 1e-6,
               factored=()) -> float:
    """Max relative error between tape gradients and central differences.

    ``loss_fn`` is called once with ParamVars (recorded; the slices
    ``factored`` keep factored gradients, ``factored_vars``) and then with
    the plain ParamStore while each coordinate is perturbed by +-eps. The
    relative error per coordinate is |fd - g| / (|fd| + |g| + 1e-12).
    """
    if eps <= 0:
        raise ContractViolation("eps must be positive")

    pv = factored_vars(params, factored)
    out = loss_fn(pv)
    if not ad.is_var(out):
        raise ContractViolation("loss must depend on the parameters")
    if not np.isfinite(out.value):
        raise NumericError("loss is non-finite")
    ad.backward(out)
    analytic = formed_grads(pv)

    def scalar_loss():
        v = loss_fn(params)
        v = float(ad.val(v))
        if not np.isfinite(v):
            raise NumericError("loss is non-finite during finite differences")
        return v

    worst = 0.0
    flat = params.data
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = scalar_loss()
        flat[i] = orig - eps
        down = scalar_loss()
        flat[i] = orig
        fd = (up - down) / (2.0 * eps)
        g = analytic[i]
        err = abs(fd - g) / (abs(fd) + abs(g) + 1e-12)
        if err > worst:
            worst = err
    return worst


def signal_window(signal: InputSignal, t: float, w: int, dt: float) -> np.ndarray:
    """The w samples u(t-(w-1)dt) .. u(t), oldest first; t<0 clamps to u(0).

    The pointwise oracle of ``signals.window_matrix``.
    """
    if w <= 0:
        raise ContractViolation("window length must be >= 1")
    ts = t + dt * (np.arange(w) - (w - 1))
    ts = np.maximum(ts, 0.0)
    return eval_signal(signal, ts)


def poison_backward(monkeypatch, at_call):
    """Make the ``at_call``-th backward leave an inf in one leaf gradient.

    The loss stays finite, so only the gradient check can catch it.
    """
    real = ad.backward
    calls = []

    def backward(root):
        leaves, seen, stack = [], {id(root)}, [root]
        while stack:
            node = stack.pop()
            if node._vjp is None:
                leaves.append(node)
            for p in node._parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)
        real(root)
        calls.append(None)
        if len(calls) == at_call:
            leaf = next(n for n in leaves if n.grad is not None)
            leaf.grad.flat[0] = np.inf

    monkeypatch.setattr(ad, "backward", backward)



def oracle_rk4_step(system, x, u_of_t, t: float, dt: float) -> np.ndarray:
    """One scalar RK4 step of one state, the input read from ``u_of_t``.

    The oracle of the batched ``dynamics.rk4_step``: each stage goes
    through ``eval_vector_field`` and its checks.
    """
    if dt <= 0:
        raise ContractViolation("dt must be positive")
    x = np.asarray(x, dtype=np.float64)

    def u_at(tt):
        if system.m == 0 or u_of_t is None:
            return None
        return np.atleast_1d(np.asarray(u_of_t(tt), dtype=np.float64))

    def f(xx, uu):  # the state as a one-row batch
        return eval_vector_field(
            system, xx[None], None if uu is None else uu[None])[0]

    u0, um, u1 = u_at(t), u_at(t + 0.5 * dt), u_at(t + dt)
    k1 = f(x, u0)
    k2 = f(x + 0.5 * dt * k1, um)
    k3 = f(x + 0.5 * dt * k2, um)
    k4 = f(x + dt * k3, u1)
    for i, k in enumerate((k1, k2, k3, k4)):
        if not np.all(np.isfinite(k)):
            raise NumericError(f"non-finite RK4 stage {i + 1} at t={t}")
    return x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def oracle_simulate(system, x0, signal, dt, horizon, sigma, seed):
    """One run integrated alone, step by step with ``oracle_rk4_step``,
    as a one-run ``TrajectorySet``.

    The oracle of the batched ``dynamics.simulate``: the input is the
    signal evaluated at each stage's own time, the noise is drawn from
    the Philox streams of ``seed``.
    """
    n = n_steps_for(horizon, dt)
    x = np.asarray(x0, dtype=np.float64)
    times = np.arange(n + 1) * dt
    if system.m == 0 or signal is None:
        inputs = np.zeros((n + 1, system.m))
        u_of_t = None
    else:
        inputs = eval_signal(signal, times).reshape(n + 1, 1)

        def u_of_t(tt):
            return np.array([eval_signal(signal, tt)])

    if sigma > 0:
        proc = seeding.stream(seed, seeding.STREAM_PROCESS_NOISE)
        meas = seeding.stream(seed, seeding.STREAM_MEASUREMENT_NOISE)
        xi = proc.standard_normal((n, system.n_x))
        eta = meas.standard_normal((n + 1, system.n_y))
    span = system.domain[:, 1] - system.domain[:, 0]
    limit = 1e3 * float(np.sqrt(np.sum(span**2)))
    center = 0.5 * (system.domain[:, 0] + system.domain[:, 1])
    states = np.empty((n + 1, system.n_x))
    states[0] = x
    for k in range(n):
        x = oracle_rk4_step(system, x, u_of_t, times[k], dt)
        if sigma > 0:
            x = x + sigma * math.sqrt(dt) * xi[k]
        if np.sqrt(np.sum((x - center) ** 2)) > limit:
            raise DivergenceError(f"escaped at step {k + 1}", step=k + 1)
        states[k + 1] = x
    outputs = np.asarray(system.h(states)).reshape(n + 1, system.n_y)
    if sigma > 0:
        outputs = outputs + sigma * eta
    return TrajectorySet(dt, times, states[None], inputs[None], outputs[None],
                         (signal,))


def oracle_latent(obs, y, dt: float, z0=None) -> np.ndarray:
    """The plain latent filter on one run's (N+1, n_y) outputs, (N+1, n_z).

    The oracle of ``kkl.simulate_latent`` on a time-major block: the same
    RK4 operations, one trajectory at a time. The filter starts at z = 0,
    the oracle at ``z0`` if one is given.
    """
    by = np.asarray(y, dtype=np.float64) @ obs.B.T
    z = np.zeros(obs.n_z) if z0 is None else np.asarray(z0, dtype=np.float64)
    zs = [z]
    for k in range(len(by) - 1):

        def deriv(zz):
            return zz @ obs.A.T + by[k]

        k1 = deriv(z)
        k2 = deriv(z + k1 * (0.5 * dt))
        k3 = deriv(z + k2 * (0.5 * dt))
        k4 = deriv(z + k3 * dt)
        z = z + (k1 + (k2 + k3) * 2.0 + k4) * (dt / 6.0)
        zs.append(z)
    return np.stack(zs)


def oracle_observer_pairs(obs, sets, discard: float = 0.2):
    """``training.observer_pairs`` one trajectory at a time."""
    zs, xs = [], []
    for runs in sets:
        for y, states in zip(runs.outputs, runs.states):
            z = oracle_latent(obs, y, runs.dt)
            k0 = int(np.ceil(discard * len(z)))
            zs.append(z[k0:])
            xs.append(states[k0:])
    return np.concatenate(zs), np.concatenate(xs)


def oracle_latent_targets(system, obs, sets):
    """``training.latent_targets`` one trajectory at a time."""
    clean = [oracle_simulate(system, states[0], None, runs.dt,
                             runs.n_steps * runs.dt, 0.0, 0)
             for runs in sets for states in runs.states]
    zs, xs = oracle_observer_pairs(obs, clean)
    return xs, zs


def init_map_params(maps, seed):
    """A fresh (θ, φ) pair of one seed, as phase 1 makes them."""
    return init_encoder(maps, seed), init_decoder(maps, seed)


def raw_checkpoint(path, meta, slices):
    """An HKKP file at ``path`` holding the (name, array) ``slices`` in
    the given order, each stored where the ones before it end."""
    text = json.dumps(meta, sort_keys=True).encode()
    out = [b"HKKP", struct.pack("<HI", 1, len(text)), text,
           struct.pack("<I", len(slices))]
    at = 0
    for name, a in slices:
        out += [struct.pack("<H", len(name)), name.encode(),
                struct.pack(f"<B{a.ndim}IQ", a.ndim, *a.shape, at)]
        at += a.size
    out.append(struct.pack("<Q", at))
    out += [np.ascontiguousarray(a, "<f8").tobytes() for _, a in slices]
    path.write_bytes(b"".join(out))
