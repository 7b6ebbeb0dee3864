"""Run manifests: every command records what it did, next to its outputs.

A manifest file (JSON lines, append-only, one per output directory)
holds one record per command run. A record carries the exact argv, the
resolved configuration (every setting the command reads, as
``config.settings`` returns it), the seeds, the content hashes of every
input and output file, the package version, and what the run cost: its
wall time from the start of ``cli.main`` and the process's peak RSS.
Re-running the recorded argv reproduces the outputs byte for byte; the
manifest is the only file in an output directory whose bytes may differ
between identical runs (it carries the clock time and these costs).
"""

from __future__ import annotations

import hashlib
import json
import resource
import time
from pathlib import Path

from . import __version__

MANIFEST_NAME = "run_manifest.jsonl"


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
) -> Path:
    """Append one record; ``started`` is the run's ``time.perf_counter()``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "command": command,
        "argv": list(argv),
        "resolved_config": resolved_config,
        "seeds": seeds,
        "input_hashes": {str(p): file_sha256(p) for p in input_files},
        "output_hashes": {str(p): file_sha256(p) for p in outputs},
        "version": __version__,
        "wall_clock_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "wall_s": time.perf_counter() - started,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    path = out_dir / MANIFEST_NAME
    with open(path, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path
