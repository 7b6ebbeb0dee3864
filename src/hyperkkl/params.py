"""Flat parameter storage with a named-slice layout.

A ParamStore is one contiguous float64 vector plus an ordered layout of
named slices (one per weight/bias tensor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import FactoredGrad, Var
from .errors import ContractViolation


@dataclass(frozen=True)
class SliceSpec:
    name: str
    shape: tuple[int, ...]
    offset: int
    size: int  # entries, math.prod(shape): stored once, read on every get


class Layout:
    """Ordered, disjoint named slices tiling [0, total) exactly."""

    def __init__(self, named_shapes):
        slices = []
        offset = 0
        seen = set()
        for name, shape in named_shapes:
            if name in seen:
                raise ContractViolation(f"duplicate slice name {name!r}")
            seen.add(name)
            shape = tuple(int(s) for s in shape)
            spec = SliceSpec(name=name, shape=shape, offset=offset,
                             size=math.prod(shape))
            slices.append(spec)
            offset += spec.size
        self.slices = tuple(slices)
        self.total = offset
        self._by_name = {s.name: s for s in self.slices}

    def without(self, names) -> "Layout":
        """The layout of every other slice, in order; ``self`` if none."""
        if not names:
            return self
        for name in names:
            self[name]  # refuses an unknown name
        return Layout((s.name, s.shape) for s in self.slices
                      if s.name not in names)

    def __contains__(self, name):
        return name in self._by_name

    def __getitem__(self, name) -> SliceSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise ContractViolation(f"no slice named {name!r}") from None

    def __eq__(self, other):
        return isinstance(other, Layout) and self.slices == other.slices


class ParamStore:
    """Flat float64 parameter vector addressed through a Layout."""

    def __init__(self, layout: Layout, data: np.ndarray | None = None):
        self.layout = layout
        if data is None:
            data = np.zeros(layout.total)
        else:
            data = np.asarray(data, dtype=np.float64)
            if data.shape != (layout.total,):
                raise ContractViolation(f"data length {data.shape} does not "
                                        f"match layout total {layout.total}")
        self.data = data

    def get(self, name: str) -> np.ndarray:
        s = self.layout[name]
        return self.data[s.offset : s.offset + s.size].reshape(s.shape)

    def set(self, name: str, value) -> None:
        s = self.layout[name]
        value = np.asarray(value, dtype=np.float64)
        if value.shape != s.shape:
            raise ContractViolation(
                f"slice {name!r} has shape {s.shape}, got {value.shape}"
            )
        self.data[s.offset : s.offset + s.size] = value.ravel()


class ParamVars:
    """Tape leaves for a ParamStore, one Var per named slice.

    ``get`` returns the leaf Var for a slice, so forward code written
    against ``.get`` runs identically on a ParamStore (plain arrays) and
    on ParamVars (recorded graph).

    Leaf gradients live in one flat ``grad`` store: the constructor
    zeroes it, each leaf's ``.grad`` is a view of its slice, ``backward``
    adds into those views, and ``grads`` returns the store itself, so a
    training run that passes the same buffer every step holds one
    gradient vector and copies none. Without ``grad`` a fresh zero store
    is used.

    The factored slices are the slices a ``grad`` store lacks (the
    hypernetwork readouts, one U_l per targeted layer;
    ``optim.AdamState.for_params``): its layout must be the store's
    ``Layout.without`` them. Their leaves get an ``autodiff.FactoredGrad``
    each, which keeps the factors of the rank-one terms that reach it and
    is never formed; ``factored`` maps each such name to its own. A
    readout's gradient exists only as those factors, so a U_l that a
    backward reaches must be factored, and is used whole. ``optim``
    takes their norm from the factors, in another summation order, so
    its last bits can differ from a formed gradient's.
    """

    def __init__(self, store: ParamStore, grad: ParamStore | None = None):
        self.factored: dict[str, FactoredGrad] = {}
        if grad is None:
            grad = ParamStore(store.layout)
        else:
            self.factored = {s.name: FactoredGrad()
                             for s in store.layout.slices
                             if s.name not in grad.layout}
            if grad.layout != store.layout.without(self.factored):
                raise ContractViolation("param stores have different layouts")
            grad.data.fill(0.0)
        self.store = store
        self.layout = store.layout
        self._grad = grad
        self._vars: dict[str, Var] = {}

    def get(self, name: str) -> Var:
        if name not in self._vars:
            var = Var(self.store.get(name))
            var.grad = (self.factored[name] if name in self.factored
                        else self._grad.get(name))
            self._vars[name] = var
        return self._vars[name]

    def grads(self) -> ParamStore:
        """The gradient buffer; slices no leaf reached are 0."""
        return self._grad
