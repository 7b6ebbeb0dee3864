import numpy as np
import pytest

from conftest import central_diff, exp, tanh, zero_fill_backward

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

    def test_tanh_exp(self, rng):
        x = rng.normal(size=(3, 4))
        check(lambda v: ad.sum_all(tanh(v)), x)
        check(lambda v: ad.sum_all(exp(ad.mul(v, 0.3))), x)

    def test_mul_broadcast(self, rng):
        # a plain operand may broadcast; a taped one may not
        x = rng.normal(size=(4, 3))
        s = rng.normal(size=(4, 1))
        check(lambda v: ad.sum_all(ad.mul(v, s)), x)
        with pytest.raises(ContractViolation, match=r"\(4, 1\) is broadcast"):
            ad.mul(x, ad.Var(s))

    def test_add_bias_broadcast_is_refused(self, rng):
        # a taped bias row is not summed over the batch: it is refused
        b = rng.normal(size=(1, 3))
        a = rng.normal(size=(5, 3))
        for op in (ad.add, ad.sub, ad.mul):
            with pytest.raises(ContractViolation, match="broadcast to"):
                op(a, ad.Var(b))
            with pytest.raises(ContractViolation, match="broadcast to"):
                op(ad.Var(b), ad.Var(a))


class TestMatmul:
    def test_2d_2d(self, rng):
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(3, 2))
        check(lambda v: ad.sum_all(ad.matmul(v, b)), a)
        check(lambda v: ad.sum_all(ad.matmul(a, v)), b)

    def test_refuses_1d_operands(self):
        # one sample is a (1, n) row; no 1-D product is taped
        for a, b in ((np.ones(3), np.ones((3, 2))),
                     (np.ones((4, 3)), np.ones(3))):
            with pytest.raises(ContractViolation, match="2-D operands"):
                ad.matmul(ad.Var(a), b)


class TestStructural:
    def test_concat_narrow(self, rng):
        a = rng.normal(size=(2, 3))

        def fn(v):
            joined = ad.concat([v, ad.mul(v, 2.0)], axis=1)  # (2, 6)
            part = ad.narrow(joined, 1, 2, 3)
            return ad.sum_all(ad.mul(part, part))

        check(fn, a)

    def test_narrows_add_into_their_slices_only(self, rng):
        # overlapping blocks of one leaf, plus a direct use of the leaf
        x = rng.normal(size=(5, 3))
        g = tape_grad(lambda v: ad.add(
            ad.add(ad.sum_all(ad.mul(ad.narrow(v, 0, 0, 3), 2.0)),
                   ad.sum_all(ad.mul(ad.narrow(v, 0, 2, 2), 3.0))),
            ad.sum_all(v)), x)
        assert np.array_equal(g, [[3.0] * 3] * 2 + [[6.0] * 3] + [[4.0] * 3]
                              + [[1.0] * 3])

    @staticmethod
    def total(x):
        """Sum of all entries; its gradient adds itself into the parent's."""
        def vjp(g):
            return (ad.AddInto(lambda acc: np.add(acc, g, out=acc)),)

        return ad.Var(np.sum(x.value), (x,), vjp)

    def test_narrow_of_a_preset_leaf_adds_into_the_buffer(self):
        # a dense preset leaf narrows through a node like any other
        n = 5
        buffer = np.zeros(2 * n)
        leaf = ad.Var(np.ones((2, n)))
        leaf.grad = buffer.reshape(2, n)
        part = ad.narrow(leaf, 0, 1, 1)
        assert part._parents == (leaf,)
        loss = self.total(ad.mul(ad.narrow(leaf, 1, 0, 3), 2.0))
        loss = ad.add(loss, self.total(part))
        ad.backward(ad.add(loss, self.total(part)))
        expect = np.zeros((2, n))
        expect[:, :3] = 2.0
        expect[1] += 2.0
        assert np.array_equal(buffer.reshape(2, n), expect)
        assert leaf.grad.base is buffer

    def test_narrow_of_a_node_or_a_bare_leaf_is_a_node(self):
        x = np.arange(6.0).reshape(3, 2)
        bare = ad.Var(x)
        part = ad.narrow(bare, 0, 1, 2)
        assert part._parents == (bare,)
        ad.backward(self.total(part))
        assert np.array_equal(bare.grad, [[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        leaf = ad.Var(x)
        node = ad.mul(leaf, 3.0)
        part = ad.narrow(node, 1, 1, 1)
        assert part._parents == (node,)
        ad.backward(self.total(part))
        assert np.array_equal(leaf.grad, [[0.0, 3.0]] * 3)

    def test_shared_subexpression_accumulates(self, rng):
        x = rng.normal(size=4)

        def fn(v):
            y = tanh(v)
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
        act = tanh(prod)
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


def handing_back(x, arrays):
    """A node over x whose VJP returns ``arrays``, one per parent slot."""
    return ad.Var(np.sum(x.value), (x,) * len(arrays), lambda g: arrays)


class TestAdoptedGradients:
    def test_a_fresh_array_becomes_the_parents_grad(self):
        x = ad.Var(np.zeros(3))
        fresh = np.arange(3.0)
        ad.backward(handing_back(x, (fresh,)))
        assert x.grad is fresh

    @pytest.mark.parametrize("make", [
        pytest.param(lambda a: (a, a), id="returned-twice"),
        pytest.param(lambda a: (a[::-1],), id="view"),
        pytest.param(lambda a: (a.astype(np.float32),), id="float32"),
        pytest.param(lambda a: (np.broadcast_to(a, (3,)),), id="read-only"),
    ])
    def test_other_arrays_are_added_into_zeros(self, make):
        x = ad.Var(np.zeros(3))
        arrays = make(np.arange(3.0))
        ad.backward(handing_back(x, arrays))
        assert not any(np.shares_memory(x.grad, a) for a in arrays)
        assert np.array_equal(x.grad, sum(arrays))

    def test_a_broadcast_gradient_is_added_into_zeros(self):
        x = ad.Var(np.zeros((2, 3)))
        row = np.arange(3.0)
        ad.backward(handing_back(x, (row,)))
        assert np.array_equal(x.grad, [row, row])

    def test_later_children_add_into_an_adopted_array(self, rng):
        xv = rng.normal(size=(4, 3))
        grads = []
        for walk in (ad.backward, zero_fill_backward):
            x = ad.Var(xv)
            mid = ad.mul(x, 2.0)
            loss = ad.sum_all(ad.add(ad.mul(mid, mid), ad.sub(mid, mid)))
            walk(ad.add(loss, ad.sum_all(ad.mul(mid, 3.0))))
            grads.append(x.grad)
        assert grads[0].tobytes() == grads[1].tobytes()
        assert np.allclose(grads[0], 8.0 * xv + 6.0, rtol=1e-15, atol=0)

    def test_a_negative_zero_does_not_reach_a_preset_buffer(self):
        # mid's gradient is -0.0 where the zero-filled walk had +0.0; the
        # leaf's preset buffer starts at +0.0 and stays +0.0 either way
        buffers = []
        for walk in (ad.backward, zero_fill_backward):
            leaf = ad.Var(np.array([1.0, -2.0]))
            leaf.grad = np.zeros(2)
            mid = ad.mul(leaf, 1.0)
            walk(ad.sum_all(ad.mul(mid, -0.0)))
            buffers.append(leaf.grad.tobytes())
        assert buffers[0] == buffers[1] == np.zeros(2).tobytes()
