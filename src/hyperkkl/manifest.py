"""Run manifests: every command records what it did, next to its outputs.

A manifest file (JSON lines, append-only, one per output directory)
holds one record per command run. A record is appended with one write of
its whole line; if that write fails or comes back short, the file is cut
back to its old size, so it never holds part of a record. A record
carries the exact argv, the resolved configuration (every setting the
command reads, as ``config.settings`` returns it), the seeds, the
content hashes of every input and output file, the package version, the
numeric environment (numpy version, BLAS library and version, BLAS
thread count), and what the run cost: its wall time from the start of
``cli.main`` (``wall_s``) and, from ``getrusage(RUSAGE_SELF)`` for the
whole process when the record is written, its peak RSS in MiB
(``peak_rss_mb``), its user and system CPU seconds (``cpu_s``, keys
``user`` and ``sys``) and its minor page faults (``minor_faults``).
Output bytes can depend on the BLAS thread count, so the count is a
setting (``blas_threads``, default 1, in the resolved configuration)
that ``cli.main`` applies before numpy loads, and the record also
names the count OpenBLAS reports, the one in effect: in a process that
loaded numpy before ``main``, the count it loaded it at. ``status`` is
"ok", or "aborted" for a training run that a numeric failure stopped:
that record adds ``abort`` (the epoch and the reason) and hashes no
output, since none was written. A ``train`` record also has
``epoch_s``: the count, median (``p50``), max and total wall seconds of
the epochs it logged. Re-running the recorded argv reproduces
the outputs byte for byte; the manifest is the only file in an output
directory whose bytes may differ between identical runs (it carries the
clock time and these costs).
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import resource
import time
from pathlib import Path

import numpy as np

from . import __version__

MANIFEST_NAME = "run_manifest.jsonl"

# OpenBLAS's thread-count getter, under the names its builds export.
_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def _blas_info() -> dict:
    """Name and version of the BLAS numpy was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {"name": blas.get("name", "unknown"),
            "version": blas.get("version", "unknown")}


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the library numpy loads, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in _THREAD_SYMBOLS:
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def append_manifest(
    out_dir,
    command: str,
    argv: list,
    resolved_config: dict,
    seeds: dict,
    input_files: list,
    outputs: list,
    started: float,
    abort=None,
    epoch_s: dict | None = None,
) -> Path:
    """Append one record; ``started`` is the run's ``time.perf_counter()``
    and ``abort``, if given, has the ``epoch`` and ``reason`` of the
    numeric failure that stopped the run. ``epoch_s``, if given, is
    recorded as it is."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "command": command,
        "status": "ok" if abort is None else "aborted",
        "argv": list(argv),
        "resolved_config": resolved_config,
        "seeds": seeds,
        "input_hashes": {str(p): file_sha256(p) for p in input_files},
        "output_hashes": {str(p): file_sha256(p) for p in outputs},
        "version": __version__,
        "numpy": np.__version__,
        "blas": _blas_info(),
        "blas_threads": _blas_threads(),
        "wall_clock_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "wall_s": time.perf_counter() - started,
    }
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record["peak_rss_mb"] = usage.ru_maxrss / 1024  # ru_maxrss is in KiB
    record["cpu_s"] = {"user": usage.ru_utime, "sys": usage.ru_stime}
    record["minor_faults"] = usage.ru_minflt
    if abort is not None:
        record["abort"] = {"epoch": abort.epoch, "reason": abort.reason}
    if epoch_s is not None:
        record["epoch_s"] = epoch_s
    line = (json.dumps(record, sort_keys=True) + "\n").encode()
    path = out_dir / MANIFEST_NAME
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    size = os.fstat(fd).st_size
    try:
        if os.write(fd, line) != len(line):
            raise OSError(f"{path}: short write of a manifest record")
    except BaseException:
        os.ftruncate(fd, size)
        raise
    finally:
        os.close(fd)
    return path
