"""Length-checked sequential reads for the HKKL and HKKP binary formats.

Every read states how many bytes it needs; a file that ends early or
carries bytes past its last field is refused with the byte offset, so a
damaged file never reaches a parser as a short buffer.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import ContractViolation


class Reader:
    """Reads fields in order from an open binary file."""

    def __init__(self, fh, path):
        self.fh = fh
        self.path = path
        self.size = os.fstat(fh.fileno()).st_size

    def take(self, n: int) -> bytes:
        # Checked before reading, so a corrupt count never sizes a buffer.
        offset = self.fh.tell()
        if offset + n > self.size:
            raise ContractViolation(
                f"{self.path}: truncated at byte {self.size}: "
                f"{n} bytes needed from byte offset {offset}"
            )
        return self.fh.read(n)

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
        return np.frombuffer(self.take(8 * count), dtype="<f8")

    def finish(self) -> None:
        """Refuse bytes past the last field."""
        offset = self.fh.tell()
        extra = self.size - offset
        if extra:
            raise ContractViolation(
                f"{self.path}: {extra} trailing bytes after byte offset {offset}"
            )
