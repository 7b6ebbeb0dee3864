"""The HKKP checkpoint format and the bundle it carries.

A checkpoint stores everything needed to run an observer variant: the
latent pair, the base encoder/decoder parameters, the conditioning
``spec`` and its ``params``, architecture metadata, the frozen drift
normalization scale, the training seed range (used by the evaluation
harness to refuse train/test seed overlap) and the time step of the
training data (files written without it load with dt None). A
conditioned variant carries exactly its own spec, parameter block and
metadata key (holding ``spec.settings()``), and the table CONDITIONING
says which; autonomous and curriculum carry none.

File layout (little-endian):

    magic "HKKP", u16 version (1)
    u32 metadata length, then that many bytes of UTF-8 JSON
        (sorted keys; architecture, system name, seeds, scale, dt, variant)
    u32 slice count, then per slice:
        u16 name length + UTF-8 name, u8 ndim, ndim * u32 dims, u64 offset
    u64 total f64 count, then the raw little-endian f64 data

Parameter slices are tagged by component through their name prefixes
(enc., dec., obs., and the spec's PREFIX). Files round-trip bitwise. The
observer, encoder and decoder slices must have the names and shapes the
metadata implies, slice by slice. The hypernetwork and injection blocks
are laid out from the spec in the metadata, so only their value counts
have to match. The spec lays each head's readout out as one slice
{head}.U{l} per targeted decoder or encoder layer (``hypernet``); files
that store it otherwise, as one U slice per head or split into other
row blocks, load unchanged, since the values sit in the same order. The
slice offsets must tile the data block in table order, each block's
slices in one run; a slice that does not is refused by name, and so is
a slice in no block a read takes: obs., enc., dec. and the variant's
conditioning block. A file that ends early or has bytes past the data
is refused with the byte offset. Metadata is refused with the key when
it lacks a key the reader uses or gives it a wrong type or value (see
META_KEYS), when a conditioning key is not the variant's or its spec
refuses it, and when n_x, n_y or input_size are not its system's.

Each store's buffer is written in place, after the total count, so a
write holds no second copy. The bytes go to ``<path>.partial``, which
replaces the file only once it is complete (``binfile.replacing``): a
write that fails or is interrupted keeps the file that was there. A read
checks the header, metadata, slices and value counts, and the data
block's size against the file size, then reads each store's slices into
that store's own array, so a read holds no second copy either. Two reads
differ only in what they skip:

    full read (the default): nothing; every store is read whole;
    observer read (``observer=True``): the blocks an observer does not
        run. The encoder T (enc.*) and the hypernetwork's encoder head
        (hyper.enc_head.*) feed only the training residual; their bytes
        are stepped over, never read, so the bundle holds obs.*, dec.*,
        and inj.* (static) or hyper.lstm.* and hyper.dec_head.V
        (dynamic). The decoder head's readout slices (named from the
        prefix STREAMED) are not read either: the bundle's ``readout``
        records, for each decoder layer, where its slice starts in the
        file (its offset in the spec's layout) and its weight's shape,
        and the file's stamp (``file_stamp``), and an observer reads one
        IN_BLOCK chunk of one layer's slice at a time
        (``Readout.layers``). The bundle has theta None and, if dynamic,
        params without hyper.enc_head.* and the STREAMED slices, and
        write_checkpoint refuses it.

Which command makes which read:

    eval, plot: an observer read of each checkpoint, and the readout
        rows of a dynamic one, an IN_BLOCK chunk of a layer at a time,
        in each cell;
    train --phase 2 --variant dynamic: one full read of the base, whose
        encoder its residual runs;
    train --phase curriculum, train --phase 2 --variant static: an
        observer read of the base to train from (neither runs T), then,
        after a run that did not abort, a full read for the θ the output
        checkpoint stores. The base must keep its stamp between the two
        reads.

Both reads refuse the same files with the same messages.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Callable, NamedTuple

import numpy as np

from .binfile import Reader, replacing
from .config import SYSTEM_NAMES
from .dynamics import get_system
from .errors import ContractViolation
from .hypernet import (
    HyperNetSpec,
    InjectionSpec,
    build_hypernet_spec,
    build_injection_spec,
    hypernet_layout,
    injection_layout,
)
from .kkl import (
    KklMaps,
    ObserverMatrices,
    decoder_layout,
    encoder_layout,
    make_maps,
    verify_observer,
)
from .nets import IN_BLOCK
from .params import Layout, ParamStore

MAGIC = b"HKKP"
VERSION = 1

VARIANTS = ("autonomous", "curriculum", "static", "dynamic")
# the blocks an observer read steps over: they feed only the training residual
OBSERVER_SKIPS = ("enc.", HyperNetSpec.PREFIX + "enc_head.")
# the name prefix of the decoder head's readout slices, one per layer,
# which an observer read leaves in the file, to be read one IN_BLOCK
# chunk of one layer at a time (Readout)
STREAMED = HyperNetSpec.PREFIX + "dec_head.U"


def file_stamp(file) -> tuple:
    """(size, modification time in ns, inode) of the file at a path or an
    open descriptor. A rewrite changes the first two, a replacement the
    inode, so equal stamps mean the same bytes."""
    st = os.stat(file)
    return st.st_size, st.st_mtime_ns, st.st_ino


class LayerChunks(NamedTuple):
    """One decoder layer's readout slice U_l in a checkpoint file, as the
    chunk source ``nets.lowrank_linear`` takes: U_l is stored from byte
    ``at`` on as the C-order (n_out, n_in·rank) matrix u_r, for W_l's
    (n_out, n_in) ``w_shape``. Each chunk is read into ``buf``,
    overwriting the chunk before it."""

    reader: Reader
    buf: np.ndarray
    at: int
    w_shape: tuple
    rank: int

    @property
    def shape(self) -> tuple:
        return math.prod(self.w_shape), self.rank

    def chunk(self, cols_r):
        """Columns ``cols_r`` of u_r: one span of |cols_r| values per row."""
        n_out, n_in = self.w_shape
        width = cols_r.stop - cols_r.start
        spans = [(self.at + 8 * (o * n_in * self.rank + cols_r.start), width)
                 for o in range(n_out)]
        return self.reader.f64_at(spans, self.buf[:n_out * width]).reshape(
            n_out, width)


class Readout(NamedTuple):
    """The decoder head's readout as an observer read leaves it: in the
    file at ``path``, whose stamp the read saw, with layer l's slice U_l
    stored from byte offset ``blocks[l][0]`` on for W_l's (n_out, n_in)
    shape ``blocks[l][1]``. An observer holds one IN_BLOCK chunk of one
    layer's U_l at a time (``layers``)."""

    path: object
    stamp: tuple
    blocks: tuple
    rank: int

    def _refuse_changed(self, fh) -> None:
        if file_stamp(fh.fileno()) != self.stamp:
            raise ContractViolation(
                f"{self.path}: the checkpoint changed after it was read")

    @contextmanager
    def layers(self):
        """Each layer's U_l, in layer order, as a chunk source
        (``LayerChunks``) that reads nothing until a chunk is asked for.
        Every chunk of IN_BLOCK input columns is read from the file into
        one buffer, sized for the largest layer's chunk, so each chunk
        overwrites the one before. The file is opened once; its stamp
        must be the read's when it opens and again after the last read."""
        with open(self.path, "rb") as fh:
            self._refuse_changed(fh)
            r = Reader(fh, self.path)
            buf = np.empty(IN_BLOCK * self.rank
                           * max(n_out for _, (n_out, _) in self.blocks))
            yield [LayerChunks(r, buf, *block, self.rank)
                   for block in self.blocks]
            self._refuse_changed(fh)


class Conditioning(NamedTuple):
    spec_type: type     # its PREFIX names the parameter block
    key: str            # the metadata key holding spec.settings()
    build: Callable     # build(maps, **spec.settings()) == spec
    layout: Callable    # layout(spec): the parameter block's layout


# the conditioned variants; autonomous and curriculum carry none
CONDITIONING = {
    "static": Conditioning(
        InjectionSpec, "injection",
        lambda maps, **kw: build_injection_spec(maps.n_z, **kw),
        injection_layout),
    "dynamic": Conditioning(HyperNetSpec, "hyper", build_hypernet_spec,
                            hypernet_layout),
}


@dataclass
class CheckpointBundle:
    variant: str
    system_name: str
    maps: KklMaps
    obs: ObserverMatrices
    theta: ParamStore | None    # None in an observer read
    phi: ParamStore
    f_scale: float = 1.0
    train_seed_range: tuple[int, int] | None = None
    dt: float | None = None     # time step of the training data
    spec: HyperNetSpec | InjectionSpec | None = None  # see CONDITIONING
    params: ParamStore | None = None    # the spec's ψ or ξ
    extra: dict = field(default_factory=dict)
    readout: Readout | None = None  # ψ's STREAMED slices in an observer read

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ContractViolation(f"unknown variant {self.variant!r}")
        cond = CONDITIONING.get(self.variant)
        kind = cond.spec_type if cond else type(None)
        if (not isinstance(self.spec, kind)
                or (self.params is None) != (cond is None)):
            need = f"a {kind.__name__} and its params" if cond else "neither"
            raise ContractViolation(
                f"{self.variant} checkpoint needs {need} (spec, params)")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_ints(v) -> bool:
    return isinstance(v, list) and all(_is_int(x) for x in v)


def _is_number(v) -> bool:
    return _is_int(v) or isinstance(v, float)


INTEGER = (_is_int, "an integer")
INTEGERS = (_is_ints, "a list of integers")
NUMBER = (_is_number, "a number")
STRING = (lambda v: isinstance(v, str), "a string")
OBJECT = (lambda v: isinstance(v, dict), "a JSON object")

# Every metadata key read_checkpoint reads, with the check its value must
# pass; a nested table is an object whose keys are checked in turn.
META_KEYS = {
    "variant": (lambda v: v in VARIANTS, f"one of {', '.join(VARIANTS)}"),
    "system": (lambda v: v in SYSTEM_NAMES,
               f"one of {', '.join(SYSTEM_NAMES)}"),
    "activation": STRING,
    "n_x": INTEGER,
    "n_y": INTEGER,
    "n_z": INTEGER,
    "enc_hidden": INTEGERS,
    "f_scale": (lambda v: _is_number(v) and math.isfinite(v) and v > 0,
                "a finite number > 0"),
    "dt": (lambda v: v is None or _is_number(v), "a number or null"),
    "train_seed_range": (lambda v: v is None or (_is_ints(v) and len(v) == 2),
                         "null or two integers"),
    "hyper": {"window": INTEGER, "lstm_hidden": INTEGER, "rank": INTEGER,
              "tau": NUMBER, "input_size": INTEGER},
    "injection": {"window": INTEGER, "lstm_hidden": INTEGER,
                  "mlp_hidden": INTEGERS, "tau": NUMBER, "input_size": INTEGER},
}
# files written before dt was stored lack it; read_checkpoint checks the
# conditioning keys against the variant
OPTIONAL_META_KEYS = ("dt", *(c.key for c in CONDITIONING.values()))


def _check_meta(meta, path, keys=META_KEYS, prefix="") -> None:
    """Refuse metadata that lacks a key read_checkpoint reads or mistypes it."""
    for key, check in keys.items():
        if key not in meta and key in OPTIONAL_META_KEYS:
            continue
        ok, what = OBJECT if isinstance(check, dict) else check
        if key not in meta or not ok(meta[key]):
            raise ContractViolation(
                f"{path}: metadata key {prefix + key!r} must be {what}")
        if isinstance(check, dict):
            _check_meta(meta[key], path, check, f"{prefix}{key}.")


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
        "dt": bundle.dt,
        "train_seed_range": list(bundle.train_seed_range)
        if bundle.train_seed_range
        else None,
        "extra": bundle.extra,
    }
    if bundle.spec is not None:
        meta[CONDITIONING[bundle.variant].key] = bundle.spec.settings()
    return meta


def _obs_layout(n_z: int, n_y: int) -> Layout:
    return Layout([("obs.A", (n_z, n_z)), ("obs.B", (n_z, n_y))])


def write_checkpoint(bundle: CheckpointBundle, path) -> None:
    if bundle.theta is None:
        raise ContractViolation(
            "an observer read holds no encoder and cannot be written")
    meta_bytes = json.dumps(_meta_for(bundle), sort_keys=True).encode()
    obs = bundle.obs
    stores = [st for st in (bundle.theta, bundle.phi, bundle.params)
              if st is not None]
    stores.append(ParamStore(_obs_layout(obs.n_z, obs.n_y),
                             np.concatenate([obs.A.ravel(), obs.B.ravel()])))
    with replacing(path) as fh:
        fh.write(MAGIC + struct.pack("<HI", VERSION, len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(struct.pack("<I", sum(len(st.layout.slices) for st in stores)))
        offset = 0
        for store in stores:
            for s in store.layout.slices:
                name, ndim = s.name.encode(), len(s.shape)
                fh.write(struct.pack(f"<H{len(name)}sB{ndim}IQ", len(name),
                                     name, ndim, *s.shape, offset + s.offset))
            offset += store.layout.total
        fh.write(struct.pack("<Q", offset))  # the total value count
        for store in stores:
            fh.write(np.ascontiguousarray(store.data, dtype="<f8"))


def _slice_text(s) -> str:
    return "none" if s is None else f"{s.name} {s.shape}"


def read_checkpoint(path, *, observer: bool = False) -> CheckpointBundle:
    """The bundle in the checkpoint at ``path``; with ``observer``, only
    the blocks an observer runs (see the module docstring)."""
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
        if not isinstance(meta, dict):
            raise ContractViolation(f"{path}: metadata must be a JSON object")
        _check_meta(meta, path)
        # the variant's conditioning key is given, any other is absent
        cond = CONDITIONING.get(meta["variant"])
        for other in CONDITIONING.values():
            if (other.key in meta) != (other is cond):
                raise ContractViolation(
                    f"{path}: metadata key {other.key!r} must be "
                    f"{'given' if other is cond else 'absent'} for variant "
                    f"{meta['variant']}")
        blocks = ("obs.", "enc.", "dec.") + (
            (cond.spec_type.PREFIX,) if cond else ())
        (n_entries,) = r.unpack("<I")
        entries = []
        end = 0  # the slices must tile [0, total) in table order
        for _ in range(n_entries):
            (name_len,) = r.unpack("<H")
            name = r.text(name_len)
            (ndim,) = r.unpack("<B")
            shape = r.unpack(f"<{ndim}I")
            (off,) = r.unpack("<Q")
            if not name.startswith(blocks):
                raise ContractViolation(f"{path}: stored slice {name} is in "
                                        "no block the metadata names")
            if off != end:
                raise ContractViolation(f"{path}: stored slice {name} starts "
                                        f"at value {off}, not at {end}")
            entries.append((name, shape, off))
            end += math.prod(shape)
        (total,) = r.unpack("<Q")
        data_offset = fh.tell()
        r.skip(8 * total)
        r.finish()
        if end != total:
            raise ContractViolation(f"{path}: the stored slices hold {end} "
                                    f"values, the data block {total}")
        skips = OBSERVER_SKIPS + (STREAMED,) if observer else ()

        def block_at(prefix, layout, by_slice=False):
            """The byte offset of the stored ``prefix`` block, which must
            hold the layout's value count, and with ``by_slice`` its slice
            names and shapes as well, in one run."""
            block = [e for e in entries if e[0].startswith(prefix)]
            stored = Layout((n, sh) for n, sh, _ in block)
            if by_slice:
                pairs = zip_longest(stored.slices, layout.slices)
                for k, (got, want) in enumerate(pairs):
                    if _slice_text(got) != _slice_text(want):
                        raise ContractViolation(
                            f"{path}: stored {prefix} slice {k} is "
                            f"{_slice_text(got)}, the metadata implies "
                            f"{_slice_text(want)}"
                        )
            elif stored.total != layout.total:
                raise ContractViolation(
                    f"{path}: stored {prefix} block holds {stored.total} "
                    f"values, its spec needs {layout.total}"
                )
            # tiled slices: the block is one run unless its last starts late
            first = block[0][2]
            if block[-1][2] - first != stored.slices[-1].offset:
                raise ContractViolation(f"{path}: stored slice {block[-1][0]} "
                                        f"is apart from its {prefix} block")
            return data_offset + 8 * first

        def take(prefix, layout, by_slice=False):
            """The stored ``prefix`` block (``block_at``) as a store of
            ``layout`` less the skipped slices, or None if every slice is
            skipped."""
            start = block_at(prefix, layout, by_slice)
            kept = [s for s in layout.slices if not s.name.startswith(skips)]
            if not kept:
                return None
            spans = []  # adjacent kept slices are read as one span
            for s in kept:
                at = start + 8 * s.offset
                if spans and spans[-1][0] + 8 * spans[-1][1] == at:
                    spans[-1] = (spans[-1][0], spans[-1][1] + s.size)
                else:
                    spans.append((at, s.size))
            return ParamStore(Layout((s.name, s.shape) for s in kept),
                              r.f64_at(spans))

        try:
            maps = make_maps(
                meta["n_x"], meta["n_z"], hidden=meta["enc_hidden"],
                activation=meta["activation"],
            )
        except ContractViolation as e:
            raise ContractViolation(
                f"{path}: metadata keys 'n_x', 'n_z', 'enc_hidden', "
                f"'activation': {e}") from None
        n_z = meta["n_z"]
        obs_store = take("obs.", _obs_layout(n_z, meta["n_y"]), by_slice=True)
        obs = ObserverMatrices(
            A=obs_store.get("obs.A"), B=obs_store.get("obs.B"), n_z=n_z
        )
        try:
            verify_observer(obs)
        except ContractViolation as e:
            raise ContractViolation(
                f"{path}: stored obs.A and obs.B: {e}") from None

        spec = params = readout = None
        if cond is not None:
            settings = meta[cond.key]
            try:
                spec = cond.build(maps, **{k: settings[k]
                                           for k in META_KEYS[cond.key]})
            except ContractViolation as e:
                raise ContractViolation(
                    f"{path}: metadata key {cond.key!r}: {e}") from None
            layout = cond.layout(spec)
            params = take(cond.spec_type.PREFIX, layout)
            if observer and isinstance(spec, HyperNetSpec):
                at = block_at(cond.spec_type.PREFIX, layout)
                head = spec.dec_head
                blocks = tuple(
                    (at + 8 * layout[u].offset, head.target_layout[w].shape)
                    for u, w in zip(head.u_names, head.weight_names))
                readout = Readout(path, file_stamp(fh.fileno()), blocks,
                                  head.rank)
        theta = take("enc.", encoder_layout(maps), by_slice=True)
        phi = take("dec.", decoder_layout(maps), by_slice=True)
        system = get_system(meta["system"])
        dims = {"n_x": (meta["n_x"], system.n_x),
                "n_y": (meta["n_y"], system.n_y)}
        if cond is not None:
            dims[f"{cond.key}.input_size"] = (settings["input_size"], system.m)
        for key, (got, want) in dims.items():
            if got != want:
                raise ContractViolation(f"{path}: metadata key {key!r} is "
                                        f"{got}, system {system.name} takes "
                                        f"{want}")

    return CheckpointBundle(
        variant=meta["variant"],
        system_name=meta["system"],
        maps=maps,
        obs=obs,
        theta=theta,
        phi=phi,
        f_scale=meta["f_scale"],
        dt=meta.get("dt"),
        train_seed_range=tuple(meta["train_seed_range"])
        if meta["train_seed_range"]
        else None,
        spec=spec,
        params=params,
        extra=meta.get("extra", {}),
        readout=readout,
    )
