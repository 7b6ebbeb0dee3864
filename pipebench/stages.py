"""Run one pipeline stage as its own child process and read its rusage.

Every stage is a fresh interpreter, so its peak RSS, system time and page
faults belong to that stage alone. ``os.wait4`` reaps the child and hands
back the kernel's resource usage for exactly that process.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

STAGE_TIMEOUT_S = 170.0


@dataclass(frozen=True)
class StageRun:
    """What the parent saw of one finished child."""

    name: str
    argv: tuple
    exit_code: int
    wall_s: float
    user_s: float
    sys_s: float
    maxrss_mb: float
    minor_faults: int
    timed_out: bool = False


def child_env() -> dict:
    """Environment for a stage child: the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    parts = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def cli_command(cli_args) -> list:
    """The untraced command line: the package's own CLI entry point."""
    return [sys.executable, "-m", "hyperkkl.cli", *cli_args]


def traced_command(cli_args, stage: str, spans_path) -> list:
    """The traced command line: same CLI, run under the tracing wrappers."""
    return [sys.executable, "-m", "pipebench.traced_cli",
            "--stage", stage, "--out", str(spans_path), "--", *cli_args]


def run_child(name: str, argv, cwd, log_path,
              timeout_s: float = STAGE_TIMEOUT_S) -> StageRun:
    """Start ``argv``, wait for it with ``os.wait4`` and return its usage.

    A child that outlives ``timeout_s`` is killed and reported with
    ``timed_out``; the parent always waits until it has ended.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), cwd=cwd, env=child_env(),
            stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
        )
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code  # already reaped; keeps Popen from waiting again
    return StageRun(
        name=name, argv=tuple(argv), exit_code=code, wall_s=wall,
        user_s=usage.ru_utime, sys_s=usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0, minor_faults=usage.ru_minflt,
        timed_out=code < 0 and wall >= timeout_s,
    )
