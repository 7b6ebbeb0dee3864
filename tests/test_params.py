import numpy as np
import pytest

from conftest import make_store

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


def test_add_requires_same_layout():
    a = make_store([("w", np.ones(3))])
    b = make_store([("v", np.ones(3))])
    with pytest.raises(ContractViolation):
        a + b


def test_add_then_subtract_is_bitwise_identity():
    # integer-valued floats keep every intermediate sum exactly representable
    layout = Layout([("w", (3, 3)), ("b", (3,))])
    rng = np.random.default_rng(0)
    a = ParamStore(layout, rng.integers(-50, 50, 12).astype(np.float64))
    d = ParamStore(layout, rng.integers(-50, 50, 12).astype(np.float64))
    back = (a + d).data - d.data
    assert np.array_equal(back, a.data)
    z = a + ParamStore(a.layout)
    assert np.array_equal(z.data, a.data)


def test_paramvars_grads_cover_untouched_with_zeros():
    store = make_store([("w", np.full((2, 2), 0.5)), ("b", np.ones(2))])
    pv = ParamVars(store)
    w = pv.get("w")
    loss = ad.sum_all(ad.mul(w, w))
    ad.backward(loss)
    g = pv.grads()
    assert np.array_equal(g.get("w"), 2 * store.get("w"))
    assert np.all(g.get("b") == 0.0)

