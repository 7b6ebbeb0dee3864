import numpy as np
import pytest

import hyperkkl.autodiff as ad
from hyperkkl.dynamics import SystemSpec
from hyperkkl.errors import ContractViolation, NumericError
from hyperkkl.kkl import (
    KklMaps,
    ObserverMatrices,
    decoder_layout,
    encoder_layout,
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


def grad_check(loss_fn, params: ParamStore, eps: float = 1e-6) -> float:
    """Max relative error between tape gradients and central differences.

    ``loss_fn`` is called once with ParamVars (recorded) and then with the
    plain ParamStore while each coordinate is perturbed by +-eps. The
    relative error per coordinate is |fd - g| / (|fd| + |g| + 1e-12).
    """
    if eps <= 0:
        raise ContractViolation("eps must be positive")

    pv = ParamVars(params)
    out = loss_fn(pv)
    if not ad.is_var(out):
        raise ContractViolation("loss must depend on the parameters")
    if not np.isfinite(out.value):
        raise NumericError("loss is non-finite")
    ad.backward(out)
    analytic = pv.grads().data

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

