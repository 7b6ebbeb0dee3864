import numpy as np
import pytest

from conftest import central_diff

import hyperkkl.autodiff as ad
from hyperkkl.errors import ContractViolation, NumericError


def tape_grad(fn, x):
    """Gradient of scalar fn(Var) at ndarray x via the tape."""
    v = ad.Var(x)
    out = fn(v)
    ad.backward(out)
    return v.grad


def check(fn, x, tol=1e-7):
    x = np.asarray(x, dtype=np.float64)
    g = tape_grad(fn, x)
    fd = central_diff(lambda a: float(ad.val(fn(ad.Var(a)))), x)
    assert np.allclose(g, fd, atol=tol, rtol=1e-5), f"{g} vs {fd}"


class TestElementwise:
    def test_quadratic_exact(self):
        x = np.array([1.0, -2.0, 3.5])
        g = tape_grad(lambda v: ad.mul(ad.sum_all(ad.mul(v, v)), 0.5), x)
        assert np.array_equal(g, x)

    def test_tanh_sigmoid_exp(self, rng):
        x = rng.normal(size=(3, 4))
        check(lambda v: ad.sum_all(ad.tanh(v)), x)
        check(lambda v: ad.sum_all(ad.sigmoid(v)), x)
        check(lambda v: ad.sum_all(ad.exp(ad.mul(v, 0.3))), x)

    def test_mul_broadcast(self, rng):
        x = rng.normal(size=(4, 3))
        s = rng.normal(size=(4, 1))
        check(lambda v: ad.sum_all(ad.mul(v, s)), x)
        check(lambda v: ad.sum_all(ad.mul(x, v)), s)

    def test_add_bias_broadcast(self, rng):
        b = rng.normal(size=3)
        a = rng.normal(size=(5, 3))
        check(lambda v: ad.sum_all(ad.mul(ad.add(a, v), ad.add(a, v))), b)


class TestMatmul:
    def test_2d_2d(self, rng):
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(3, 2))
        check(lambda v: ad.sum_all(ad.matmul(v, b)), a)
        check(lambda v: ad.sum_all(ad.matmul(a, v)), b)

    def test_1d_2d(self, rng):
        a = rng.normal(size=3)
        b = rng.normal(size=(3, 2))
        check(lambda v: ad.sum_all(ad.matmul(v, b)), a)
        check(lambda v: ad.sum_all(ad.matmul(a, v)), b)

    def test_2d_1d(self, rng):
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        check(lambda v: ad.sum_all(ad.matmul(v, b)), a)
        check(lambda v: ad.sum_all(ad.matmul(a, v)), b)

    def test_bmatvec(self, rng):
        w = rng.normal(size=(5, 3, 2))
        x = rng.normal(size=(5, 2))
        out = ad.bmatvec(w, x)
        assert out.shape == (5, 3)
        for i in range(5):
            assert np.allclose(out[i], w[i] @ x[i])
        check(lambda v: ad.sum_all(ad.mul(ad.bmatvec(v, x), ad.bmatvec(v, x))), w)
        check(lambda v: ad.sum_all(ad.mul(ad.bmatvec(w, v), ad.bmatvec(w, v))), x)


class TestStructural:
    def test_concat_narrow_reshape(self, rng):
        a = rng.normal(size=(2, 3))

        def fn(v):
            joined = ad.concat([v, ad.mul(v, 2.0)], axis=1)  # (2, 6)
            part = ad.narrow(joined, 1, 2, 3)
            flat = ad.reshape(part, (6,))
            return ad.sum_all(ad.mul(flat, flat))

        check(fn, a)

    def test_shared_subexpression_accumulates(self, rng):
        x = rng.normal(size=4)

        def fn(v):
            y = ad.tanh(v)
            return ad.sum_all(ad.add(ad.mul(y, y), ad.mul(y, 3.0)))

        check(fn, x)

    def test_plain_arrays_pass_through(self):
        a = np.ones((2, 2))
        out = ad.matmul(ad.add(a, a), a)
        assert isinstance(out, np.ndarray)
        assert np.array_equal(out, 4 * np.ones((2, 2)))


class TestBackwardContract:
    def test_requires_scalar(self):
        v = ad.Var(np.ones(3))
        with pytest.raises(ContractViolation):
            ad.backward(v)

    def test_nonfinite_loss(self):
        v = ad.Var(np.array(np.inf))
        with pytest.raises(NumericError):
            ad.backward(v)

    def test_untouched_leaf_left_alone(self):
        a = ad.Var(np.ones(2))
        b = ad.Var(np.ones(2))
        ad.backward(ad.sum_all(ad.mul(a, a)))
        assert b.grad is None
        assert np.allclose(a.grad, 2 * np.ones(2))

    def test_backward_releases_interior_nodes(self):
        a = ad.Var(np.array([0.5, -1.0]))
        b = ad.Var(np.array([2.0, 3.0]))
        prod = ad.mul(a, b)
        act = ad.tanh(prod)
        loss = ad.sum_all(act)
        ad.backward(loss)
        for node in (prod, act, loss):
            assert node.grad is None
            assert node._parents is None
            assert node._vjp is None
        assert np.array_equal(act.value, np.tanh(a.value * b.value))
        dact = 1.0 - np.tanh(a.value * b.value) ** 2
        assert np.array_equal(a.grad, dact * b.value)
        assert np.array_equal(b.grad, dact * a.value)

    def test_second_backward_is_refused(self):
        a = ad.Var(np.ones(2))
        mid = ad.mul(a, a)
        loss = ad.sum_all(mid)
        ad.backward(loss)
        with pytest.raises(ContractViolation, match="consumed"):
            ad.backward(loss)
        # a fresh root over a consumed node is refused too
        with pytest.raises(ContractViolation, match="consumed"):
            ad.backward(ad.sum_all(ad.add(mid, a)))
        assert np.array_equal(a.grad, 2 * np.ones(2))
