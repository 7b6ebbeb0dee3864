"""Golden bytes: a tiny seeded pipeline must reproduce stored hashes.

Phase 1, static and dynamic phase 2 and the curriculum run through the
CLI at small widths (hidden 8×2, rank 2, window 6, LSTM width 4, 3
epochs per stage), and one ``eval`` scores the four checkpoints over the
four regimes (2 trajectories of 20 s each). The sha256 of every loss
CSV, of every parameter vector the checkpoints store and of the eval
CSV is compared with the values below, so a refactor of the tape, the
LSTM, the optimizer, the training loops or conditioned inference that
changes a single output bit fails here. Each run is a child
process with a fixed OpenBLAS thread count; at these shapes the bytes
are the same at 1 and 2 threads.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hyperkkl.checkpoints import read_checkpoint
from hyperkkl.cli import main

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# Recorded with the out-of-place Adam and the LSTM backward that kept
# every gate, so a pass here shows the current code gives the same bytes.
GOLDEN = {
    "duffing_phase1_loss.csv":
        "1a0780b698f0c6f88576e7dbc8d69b107df2ed89e04b857af3cc11796c021edd",
    "phase1.theta":
        "528871076072e834e27a3b46f392fab39550fff19571d0353ea16453d74d015f",
    "phase1.phi":
        "83beb5b2d29bf252486f78257fcc2579eae63b0597ff7418087c1533e189e067",
    "duffing_static_loss.csv":
        "be23c77b4f3ed185409136c7297198393d58cec5169ea825e1924a544737d7b5",
    "static.theta":
        "528871076072e834e27a3b46f392fab39550fff19571d0353ea16453d74d015f",
    "static.phi":
        "83beb5b2d29bf252486f78257fcc2579eae63b0597ff7418087c1533e189e067",
    "static.xi":
        "be12bd0bff5b0694490ea2e28b5fb76279e482a52eee85836af83fd801bc09e6",
    "duffing_dynamic_loss.csv":
        "2dcaf358ec63d29af0ea4f575d0ec53c2ff5e19d3c1cb2ec1d32d35dff13ffed",
    "dynamic.theta":
        "528871076072e834e27a3b46f392fab39550fff19571d0353ea16453d74d015f",
    "dynamic.phi":
        "83beb5b2d29bf252486f78257fcc2579eae63b0597ff7418087c1533e189e067",
    "dynamic.psi":
        "7a5fe85a40e099179d95eafa71a278556e541d0e3e612c36c344116fc4f6d5c6",
    "duffing_curriculum_loss.csv":
        "c980b20a874f9a9ef2b9685c39eedba0b1db3d661fb09251804420f6f47a6faf",
    "curriculum.theta":
        "528871076072e834e27a3b46f392fab39550fff19571d0353ea16453d74d015f",
    "curriculum.phi":
        "b928cbe5bfb17c48e459461666461ff288d3cb1a4ea17758a9cc3af52412e078",
    # Recorded before conditioned inference applied its low-rank products
    # in row blocks; 401 rows per trajectory, so the decode takes 2 blocks.
    "duffing_report.csv":
        "471757fc9fb8ea08e7d35948af4bfcc7faa698e823939b932335219624048ad7",
}


def _gen(out, regime, n, seed):
    assert main([
        "gen", "--system", "duffing", "--regime", regime, "--n", str(n),
        "--seed", str(seed), "--horizon", "2.0", "--out", str(out),
    ]) == 0
    return out / f"duffing_{regime}_n{n}_s{seed}.hkkl"


def _train(out, *argv):
    assert main(["train", "--system", "duffing", "--out", str(out),
                 *argv]) == 0


def pipeline_hashes(root) -> dict:
    """Run the tiny pipeline under ``root``; sha256 of every output."""
    root = Path(root)
    zero = _gen(root / "data", "zero", 4, 1)
    constant = _gen(root / "data", "constant", 2, 60)
    forced = _gen(root / "data", "sinusoid", 3, 30)
    ck = root / "ck"
    _train(ck, "--phase", "1", "--data", str(zero), "--epochs", "3",
           "--batch", "16", "--hidden", "8,8", "--seed", "3")
    base = str(ck / "duffing_phase1.hkkp")
    ini = root / "small.ini"
    ini.write_text(
        "[train]\nsegment_steps = 20\nsegment_discard = 5\n"
        "[hypernet]\nwindow = 6\nlstm_hidden = 4\ninj_hidden = 8\n"
        "[curriculum]\nlevel_epochs = 3\n"
    )
    phase2 = ("--base", base, "--data", str(forced), "--config", str(ini),
              "--epochs", "3", "--seed", "4")
    _train(ck, "--phase", "2", "--variant", "static", *phase2)
    _train(ck, "--phase", "2", "--variant", "dynamic", "--batch", "8",
           "--rank", "2", *phase2)
    _train(ck, "--phase", "curriculum", "--base", base, "--data",
           str(constant), "--data", str(forced), "--config", str(ini),
           "--epochs", "1", "--batch", "16", "--seed", "5")

    ev = root / "eval"
    assert main([
        "eval", "--system", "duffing", "--checkpoint", f"autonomous={base}",
        *(f"--checkpoint={v}={ck / f'duffing_{v}.hkkp'}"
          for v in ("static", "dynamic", "curriculum")),
        "--horizon", "20", "--n", "2", "--out", str(ev),
    ]) == 0

    hashes = {}
    report = ev / "duffing_report.csv"
    hashes[report.name] = hashlib.sha256(report.read_bytes()).hexdigest()
    for stem in ("phase1", "static", "dynamic", "curriculum"):
        path = ck / f"duffing_{stem}_loss.csv"
        hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        bundle = read_checkpoint(ck / f"duffing_{stem}.hkkp")
        for field in ("theta", "phi", "psi", "xi"):
            store = getattr(bundle, field)
            if store is not None:
                hashes[f"{stem}.{field}"] = hashlib.sha256(
                    store.data.tobytes()).hexdigest()
    return hashes


@pytest.mark.parametrize("threads", ["1", "2"])
def test_tiny_pipeline_reproduces_golden_bytes(tmp_path, threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(
                   [str(SRC), str(TESTS), os.environ.get("PYTHONPATH", "")]))
    code = ("import json, sys; from test_golden import pipeline_hashes; "
            "print(json.dumps(pipeline_hashes(sys.argv[1])))")
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == GOLDEN
