"""Length-checked reads for the HKKL and HKKP binary formats, and
all-or-nothing writes for them and for the text outputs.

Every read states how many bytes it needs and is checked against the
file size before anything is allocated, so a corrupt count never sizes
a buffer; a file that ends early or carries bytes past its last field is
refused with the byte offset. A block of f64 values is one read into one
preallocated array, so the data is never held twice, and a read that
comes back short is refused the same way. ``skip`` steps over bytes
without reading them, and ``f64_at`` reads chosen spans of a file into
one array, each span checked against the file size before it allocates,
or into a buffer the caller reuses.

``replacing`` writes a file all or nothing: into a ``.partial`` sibling
that replaces the file only once it is complete, so a failed or
interrupted write keeps the file that was there and leaves no partial
one. The replacement is a new file (a new inode), so a reader that holds
the old one open goes on reading the old bytes. ``write_text`` writes a
text output (CSV, SVG, markdown) that way.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager, suppress

import numpy as np

from .errors import ContractViolation


class Reader:
    """Reads fields in order from an open binary file."""

    def __init__(self, fh, path):
        self.fh = fh
        self.path = path
        self.size = os.fstat(fh.fileno()).st_size

    def _truncated(self, end: int, n: int, offset: int) -> ContractViolation:
        return ContractViolation(
            f"{self.path}: truncated at byte {end}: "
            f"{n} bytes needed from byte offset {offset}"
        )

    def need(self, n: int) -> int:
        """The current offset, once the file is known to hold n more bytes."""
        offset = self.fh.tell()
        if offset + n > self.size:
            raise self._truncated(self.size, n, offset)
        return offset

    def take(self, n: int) -> bytes:
        offset = self.need(n)
        data = self.fh.read(n)
        if len(data) != n:
            raise self._truncated(offset + len(data), n, offset)
        return data

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int) -> str:
        offset = self.fh.tell()
        try:
            return self.take(n).decode()
        except UnicodeDecodeError as e:
            raise ContractViolation(
                f"{self.path}: bad UTF-8 at byte offset {offset}: {e}"
            ) from None

    def f64(self, count: int) -> np.ndarray:
        """``count`` little-endian f64 values, read into a fresh array."""
        return self.f64_at([(self.fh.tell(), count)])

    def skip(self, n: int) -> None:
        """Step over n bytes that the file is known to hold, reading none."""
        self.fh.seek(self.need(n) + n)

    def f64_at(self, spans, out=None) -> np.ndarray:
        """The f64 values of each (byte offset, count) span in turn, read
        into one fresh array, or into the f64 array ``out`` that holds as
        many values, once the file is known to hold every span."""
        for offset, count in spans:
            if offset + 8 * count > self.size:
                raise self._truncated(self.size, 8 * count, offset)
        if out is None:
            out = np.empty(sum(count for _, count in spans), dtype="<f8")
        at = 0
        for offset, count in spans:
            self.fh.seek(offset)
            got = self.fh.readinto(out[at : at + count])
            if got != 8 * count:
                raise self._truncated(offset + got, 8 * count, offset)
            at += count
        return out

    def finish(self) -> None:
        """Refuse bytes past the last field."""
        offset = self.fh.tell()
        extra = self.size - offset
        if extra:
            raise ContractViolation(
                f"{self.path}: {extra} trailing bytes after byte offset {offset}"
            )


@contextmanager
def replacing(path):
    """An open binary file whose bytes replace ``path`` once the block
    ends without an error. They go to ``<path>.partial`` first, which is
    removed if anything fails, an interrupt included."""
    partial = f"{os.fspath(path)}.partial"
    try:
        with open(partial, "wb") as fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(partial)
        raise


def write_text(path, text: str) -> None:
    """``text`` as UTF-8 at ``path``, all or nothing (``replacing``)."""
    with replacing(path) as fh:
        fh.write(text.encode())
