import numpy as np
import pytest

from conftest import make_store, param_vars

import hyperkkl.autodiff as ad
from hyperkkl.errors import ContractViolation
from hyperkkl.params import Layout, ParamStore, ParamVars


def test_layout_tiles_exactly():
    layout = Layout([("a", (2, 3)), ("b", (4,)), ("c", ())])
    assert layout.total == 11
    assert layout["a"].offset == 0
    assert layout["b"].offset == 6
    assert layout["c"].offset == 10
    covered = sum(s.size for s in layout.slices)
    assert covered == layout.total


def test_duplicate_name_rejected():
    with pytest.raises(ContractViolation):
        Layout([("a", (2,)), ("a", (3,))])


def test_get_set_roundtrip():
    store = make_store([("w", np.arange(6.0).reshape(2, 3)), ("b", np.ones(2))])
    assert np.array_equal(store.get("w"), np.arange(6.0).reshape(2, 3))
    store.set("b", np.array([5.0, 6.0]))
    assert np.array_equal(store.data[6:], [5.0, 6.0])
    with pytest.raises(ContractViolation):
        store.set("b", np.ones(3))
    with pytest.raises(ContractViolation):
        store.get("nope")


def test_paramvars_grads_cover_untouched_with_zeros():
    store = make_store([("w", np.full((2, 2), 0.5)), ("b", np.ones(2))])
    pv = param_vars(store)
    w = pv.get("w")
    loss = ad.sum_all(ad.mul(w, w))
    ad.backward(loss)
    g = pv.grads()
    assert np.array_equal(g.get("w"), 2 * store.get("w"))
    assert np.all(g.get("b") == 0.0)



def test_paramvars_leaf_grads_are_views_of_the_buffer():
    store = make_store([("w", np.full((2, 2), 0.5)), ("b", np.ones(2))])
    buf = ParamStore(store.layout, np.full(store.layout.total, 7.0))
    pv = ParamVars(store, buf)
    assert np.all(buf.data == 0.0)  # the constructor zeroes it
    w, b = pv.get("w"), pv.get("b")
    assert np.shares_memory(w.grad, buf.data)
    assert np.shares_memory(b.grad, buf.data)
    # narrow's gradient lands in its slice of b's view, in place
    ad.backward(ad.add(ad.sum_all(ad.mul(w, w)),
                       ad.sum_all(ad.narrow(b, 0, 0, 1))))
    assert pv.grads() is buf
    assert np.array_equal(buf.get("w"), 2 * store.get("w"))
    assert np.array_equal(buf.get("b"), [1.0, 0.0])


def test_paramvars_reuse_zeroes_the_buffer():
    store = make_store([("w", np.full(3, 2.0))])
    buf = ParamStore(store.layout)
    for _ in range(2):
        pv = ParamVars(store, buf)
        ad.backward(ad.sum_all(ad.mul(pv.get("w"), pv.get("w"))))
        assert np.array_equal(pv.grads().data, [4.0, 4.0, 4.0])


def test_paramvars_buffer_must_share_the_layout():
    store = make_store([("w", np.ones(3))])
    with pytest.raises(ContractViolation):
        ParamVars(store, make_store([("v", np.ones(3))]))


def test_layout_without_drops_named_slices_in_order():
    layout = Layout([("a", (2, 3)), ("U", (4, 2)), ("b", (4,)), ("c", ())])
    assert layout.without(()) is layout
    rest = layout.without(("U",))
    assert [(s.name, s.shape, s.offset, s.size) for s in rest.slices] == [
        ("a", (2, 3), 0, 6), ("b", (4,), 6, 4), ("c", (), 10, 1)]
    with pytest.raises(ContractViolation):
        layout.without(("nope",))


def test_paramvars_factored_slices_keep_factors_not_buffer_room():
    store = make_store([("w", np.ones(2)), ("U", np.ones((6, 2)))])
    # the buffer's layout alone says which slices keep factors
    buf = ParamStore(store.layout.without(("U",)), np.full(2, 7.0))
    pv = ParamVars(store, buf)
    assert np.all(buf.data == 0.0)
    assert list(pv.factored) == ["U"]
    fg = pv.factored["U"]
    assert isinstance(fg, ad.FactoredGrad) and pv.get("U").grad is fg
    assert fg.terms == []
    # a narrow of the leaf is a node like any other, not a leaf of its own
    part = ad.narrow(pv.get("U"), 0, 2, 4)
    assert part._parents == (pv.get("U"),) and part.grad is None
    assert ParamVars(store, ParamStore(store.layout)).factored == {}
    # the buffer's slices must be the store's others, with their shapes
    with pytest.raises(ContractViolation, match="different layouts"):
        ParamVars(store, make_store([("w", np.ones(3))]))
    with pytest.raises(ContractViolation, match="different layouts"):
        ParamVars(store, make_store([("U", np.ones((6, 2))),
                                     ("w", np.ones(2))]))
