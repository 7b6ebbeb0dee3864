"""The HKKP checkpoint format and the bundle it carries.

A checkpoint stores everything needed to run an observer variant: the
latent pair, the base encoder/decoder parameters, optional conditioning
parameters (hypernetwork or injection network), architecture metadata,
the frozen drift normalization scale, and the training seed range (used
by the evaluation harness to refuse train/test seed overlap).

File layout (little-endian):

    magic "HKKP", u16 version (1)
    u32 metadata length, then that many bytes of UTF-8 JSON
        (sorted keys; architecture, system name, seeds, scale, variant)
    u32 slice count, then per slice:
        u16 name length + UTF-8 name, u8 ndim, ndim * u32 dims, u64 offset
    u64 total f64 count, then the raw little-endian f64 data

Parameter slices are tagged by component through their name prefixes
(enc., dec., hyper., inj., obs.). Files round-trip bitwise. The
hypernetwork block is laid out from the spec in the metadata, so only
its value count has to match; files that split each head's U readout
into several slices load unchanged, since the values sit in the same
order. A file that ends early or has bytes past the data is refused
with the byte offset.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .binfile import Reader
from .errors import ContractViolation
from .hypernet import (
    HyperNetSpec,
    InjectionSpec,
    build_hypernet_spec,
    build_injection_spec,
    hypernet_layout,
)
from .kkl import KklMaps, ObserverMatrices, make_maps, verify_observer
from .params import Layout, ParamStore

MAGIC = b"HKKP"
VERSION = 1

VARIANTS = ("autonomous", "curriculum", "static", "dynamic")


@dataclass
class CheckpointBundle:
    variant: str
    system_name: str
    maps: KklMaps
    obs: ObserverMatrices
    theta: ParamStore
    phi: ParamStore
    f_scale: float = 1.0
    train_seed_range: tuple[int, int] | None = None
    hyper_spec: HyperNetSpec | None = None
    psi: ParamStore | None = None
    injection_spec: InjectionSpec | None = None
    xi: ParamStore | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ContractViolation(f"unknown variant {self.variant!r}")
        if self.variant == "dynamic" and (self.hyper_spec is None or self.psi is None):
            raise ContractViolation("dynamic checkpoint needs hypernet params")
        if self.variant == "static" and (
            self.injection_spec is None or self.xi is None
        ):
            raise ContractViolation("static checkpoint needs injection params")


def _meta_for(bundle: CheckpointBundle) -> dict:
    maps = bundle.maps
    meta = {
        "variant": bundle.variant,
        "system": bundle.system_name,
        "enc_hidden": list(maps.enc.widths[1:-1]),
        "activation": maps.enc.activation,
        "n_x": maps.n_x,
        "n_z": maps.n_z,
        "n_y": bundle.obs.n_y,
        "f_scale": bundle.f_scale,
        "train_seed_range": list(bundle.train_seed_range)
        if bundle.train_seed_range
        else None,
        "extra": bundle.extra,
    }
    if bundle.hyper_spec is not None:
        hs = bundle.hyper_spec
        meta["hyper"] = {
            "window": hs.window,
            "lstm_hidden": hs.lstm.hidden_size,
            "input_size": hs.lstm.input_size,
            "rank": hs.enc_head.rank,
            "tau": hs.tau,
        }
    if bundle.injection_spec is not None:
        isp = bundle.injection_spec
        meta["injection"] = {
            "window": isp.window,
            "lstm_hidden": isp.lstm.hidden_size,
            "input_size": isp.lstm.input_size,
            "mlp_hidden": list(isp.mlp.widths[1:-1]),
            "tau": isp.tau,
        }
    return meta


def _stores_of(bundle: CheckpointBundle):
    stores = [bundle.theta, bundle.phi]
    if bundle.psi is not None:
        stores.append(bundle.psi)
    if bundle.xi is not None:
        stores.append(bundle.xi)
    obs_layout = Layout(
        [("obs.A", bundle.obs.A.shape), ("obs.B", bundle.obs.B.shape)]
    )
    obs_store = ParamStore(
        obs_layout,
        np.concatenate([bundle.obs.A.ravel(), bundle.obs.B.ravel()]),
    )
    stores.append(obs_store)
    return stores


def write_checkpoint(bundle: CheckpointBundle, path) -> None:
    meta_bytes = json.dumps(_meta_for(bundle), sort_keys=True).encode()
    stores = _stores_of(bundle)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", VERSION))
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)
        entries = []
        offset = 0
        for store in stores:
            for s in store.layout.slices:
                entries.append((s.name, s.shape, offset + s.offset))
            offset += store.layout.total
        fh.write(struct.pack("<I", len(entries)))
        for name, shape, off in entries:
            nb = name.encode()
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", len(shape)))
            for d in shape:
                fh.write(struct.pack("<I", d))
            fh.write(struct.pack("<Q", off))
        data = np.concatenate([s.data for s in stores])
        fh.write(struct.pack("<Q", data.size))
        fh.write(np.ascontiguousarray(data, dtype="<f8").tobytes())


def read_checkpoint(path) -> CheckpointBundle:
    with open(path, "rb") as fh:
        r = Reader(fh, path)
        if fh.read(4) != MAGIC:
            raise ContractViolation(f"{path}: not an HKKP checkpoint")
        (version,) = r.unpack("<H")
        if version != VERSION:
            raise ContractViolation(f"{path}: unsupported version {version}")
        (meta_len,) = r.unpack("<I")
        meta_offset = fh.tell()
        try:
            meta = json.loads(r.text(meta_len))
        except json.JSONDecodeError as e:
            raise ContractViolation(
                f"{path}: bad metadata at byte offset {meta_offset}: {e}"
            ) from None
        (n_entries,) = r.unpack("<I")
        entries = []
        for _ in range(n_entries):
            (name_len,) = r.unpack("<H")
            name = r.text(name_len)
            (ndim,) = r.unpack("<B")
            shape = r.unpack(f"<{ndim}I")
            (off,) = r.unpack("<Q")
            entries.append((name, shape, off))
        (total,) = r.unpack("<Q")
        data = r.f64(total).astype(np.float64)
        r.finish()

    def take(prefix, layout=None):
        named = [(n, sh) for n, sh, _ in entries if n.startswith(prefix)]
        if not named:
            return None
        stored = Layout(named)
        if layout is None:
            layout = stored
        elif stored.total != layout.total:
            raise ContractViolation(
                f"{path}: stored {prefix} block holds {stored.total} values, "
                f"its spec needs {layout.total}"
            )
        first_off = next(off for n, _, off in entries if n.startswith(prefix))
        return ParamStore(layout, data[first_off : first_off + layout.total])

    maps = make_maps(
        meta["n_x"], meta["n_z"], hidden=meta["enc_hidden"],
        activation=meta["activation"],
    )
    obs_store = take("obs.")
    n_z = meta["n_z"]
    obs = ObserverMatrices(
        A=obs_store.get("obs.A"), B=obs_store.get("obs.B"), n_z=n_z
    )
    verify_observer(obs)

    hyper_spec = psi = None
    if "hyper" in meta:
        h = meta["hyper"]
        hyper_spec = build_hypernet_spec(
            maps, window=h["window"], lstm_hidden=h["lstm_hidden"],
            rank=h["rank"], tau=h["tau"], input_size=h["input_size"],
        )
        psi = take("hyper.", hypernet_layout(hyper_spec))
    injection_spec = xi = None
    if "injection" in meta:
        i = meta["injection"]
        injection_spec = build_injection_spec(
            n_z=n_z, window=i["window"], lstm_hidden=i["lstm_hidden"],
            mlp_hidden=i["mlp_hidden"], tau=i["tau"],
            input_size=i["input_size"],
        )
        xi = take("inj.")

    return CheckpointBundle(
        variant=meta["variant"],
        system_name=meta["system"],
        maps=maps,
        obs=obs,
        theta=take("enc."),
        phi=take("dec."),
        f_scale=meta["f_scale"],
        train_seed_range=tuple(meta["train_seed_range"])
        if meta.get("train_seed_range")
        else None,
        hyper_spec=hyper_spec,
        psi=psi,
        injection_spec=injection_spec,
        xi=xi,
        extra=meta.get("extra", {}),
    )
