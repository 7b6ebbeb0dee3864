"""Flat parameter storage with a named-slice layout.

A ParamStore is one contiguous float64 vector plus an ordered layout of
named slices (one per weight/bias tensor). Adding two stores requires
bit-identical layouts, which is what lets a hypernetwork delta be added
onto base weights without any reshaping ambiguity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Var
from .errors import ContractViolation


@dataclass(frozen=True)
class SliceSpec:
    name: str
    shape: tuple[int, ...]
    offset: int

    @property
    def size(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1


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
            spec = SliceSpec(name=name, shape=shape, offset=offset)
            slices.append(spec)
            offset += spec.size
        self.slices = tuple(slices)
        self.total = offset
        self._by_name = {s.name: s for s in self.slices}

    def __contains__(self, name):
        return name in self._by_name

    def __getitem__(self, name) -> SliceSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise ContractViolation(f"no slice named {name!r}") from None

    def __eq__(self, other):
        return isinstance(other, Layout) and self.slices == other.slices

    def __hash__(self):
        return hash(self.slices)

    def __repr__(self):
        return f"Layout({len(self.slices)} slices, total={self.total})"


def _check_same_layout(a, b):
    if a.layout != b.layout:
        raise ContractViolation("param stores have different layouts")


class ParamStore:
    """Flat float64 parameter vector addressed through a Layout."""

    def __init__(self, layout: Layout, data: np.ndarray | None = None):
        self.layout = layout
        if data is None:
            data = np.zeros(layout.total)
        else:
            data = np.asarray(data, dtype=np.float64)
            if data.shape != (layout.total,):
                raise ContractViolation(
                    f"data length {data.shape} does not match layout total "
                    f"{layout.total}"
                )
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

    def copy(self) -> "ParamStore":
        return ParamStore(self.layout, self.data.copy())

    def __add__(self, other: "ParamStore") -> "ParamStore":
        _check_same_layout(self, other)
        return ParamStore(self.layout, self.data + other.data)

    def __repr__(self):
        return f"ParamStore({self.layout!r})"


class ParamVars:
    """Tape leaves for a ParamStore, one Var per named slice.

    ``get`` returns the leaf Var for a slice, so forward code written
    against ``.get`` runs identically on a ParamStore (plain arrays) and
    on ParamVars (recorded graph).
    """

    def __init__(self, store: ParamStore):
        self.store = store
        self.layout = store.layout
        self._vars: dict[str, Var] = {}

    def get(self, name: str) -> Var:
        if name not in self._vars:
            self._vars[name] = Var(self.store.get(name))
        return self._vars[name]

    def grads(self) -> ParamStore:
        """Collect leaf gradients into a flat store; untouched slices are 0."""
        out = ParamStore(self.layout)
        for name, var in self._vars.items():
            if var.grad is not None:
                s = self.layout[name]
                out.data[s.offset : s.offset + s.size] += var.grad.ravel()
        return out
