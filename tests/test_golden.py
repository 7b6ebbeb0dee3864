"""Golden bytes: a tiny seeded pipeline must reproduce stored hashes.

Phase 1, static and dynamic phase 2 and the curriculum run through the
CLI at small widths (hidden 8×2, rank 2, window 6, LSTM width 4, 3
epochs per stage), and one ``eval`` scores the four checkpoints over the
four regimes (2 trajectories of 20 s each); phase 1 and both phase-2
variants also train once on two datasets of one time grid, and ``plot``
draws the four checkpoints over the four regimes. The sha256 of the
six generated datasets, of the ``gen --csv`` export, of every loss
CSV, of every parameter vector the checkpoints store, of every
checkpoint file, of the eval CSV and of the plot SVGs is compared with
the values below, so a refactor of the state simulation, the tape, the
LSTM, the optimizer, the training loops, conditioned inference or the
checkpoint format that changes a single output bit fails here. Each run
is a child process with a fixed OpenBLAS thread count; at these shapes
the bytes are the same at 1 and 2 threads. The child imports numpy
(through this module) before it calls ``cli.main``, so main's
``blas_threads`` setting does not apply there: the child's environment
still sets the thread count, and the 1- and 2-thread cases keep their
meaning.
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

# The two dynamic loss CSVs were re-recorded when the readouts U began
# to keep their gradients as rank factors: the grad_norm column now takes
# U's share from the factors' Gram matrices, summed in another order, and
# moved in its last bits (at most 2.5e-15 relative here). Every U gradient
# entry Adam sees is still the dense one, so with no clip firing psi kept
# its bytes, and so did every other entry, at 1 and 2 threads.
#
# Re-recorded when the residual's encoder Jacobian became one
# forward-mode product J·f, the clip norm a sum over fixed blocks, and the
# grad_norm column the norm before clipping. Against the code before, the
# benchmark workloads' loss columns, parameters and eval cells agreed
# within 2e-14 relative (the norm column as min(norm, clip)); every
# refactor before that one kept these bytes. After a deliberate change,
# ``PYTHONPATH=src python tests/test_golden.py [threads]`` prints the
# new values.
#
# The dynamic loss CSV and psi were re-recorded again when the readout
# U's gradient began to be summed one chunk of input columns at a time,
# in the order its terms arrive, not first per narrowed block; the
# factored gradient that replaced the dense one (nets.u_grad_chunks)
# keeps that order. The other entries kept their bytes.
#
# Every parameter entry and the phase-1 and dynamic loss CSVs were
# re-recorded when each MLP layer became one tape node on stacked value
# and tangent rows: the forward's bits are the primitive chain's, but the
# gradients are summed in another order (one GEMM over both row blocks,
# tanh's second-order term as one product). The static and curriculum
# loss CSVs and the eval report kept their bytes.
#
# The three generated datasets were recorded before the runs of a set
# were integrated as one batch, at 1 and 2 threads; the batch kept them.
GOLDEN = {
    "duffing_zero_n4_s1.hkkl":
        "0568179659091d7456e806f0b1b3640ccfb27dd208c72fe2dc679382f9434a53",
    "duffing_constant_n2_s60.hkkl":
        "104a1adbd4c496eadf3375a5b5661e940bd2eafea8b7baf983e56c4b8174854e",
    "duffing_sinusoid_n3_s30.hkkl":
        "7e938e6ac1a302c3504f469fef20b72bc6520df286ceeb07f8768a17fc8675d4",
    "duffing_phase1_loss.csv":
        "1f3ae14b4bd786d0572f21a2e12202d18e2e30fcbf7500ea0a59bb149c55ff97",
    "phase1.theta":
        "5653528f8be99538e27099e768e330089e44fbfa41ce1eef69dd1556108a0e44",
    "phase1.phi":
        "d544a1c5c2dc06ac87d57d5ee67db6125aedb02d91babef544c7bc57b110dbe6",
    "duffing_static_loss.csv":
        "be23c77b4f3ed185409136c7297198393d58cec5169ea825e1924a544737d7b5",
    "static.theta":
        "5653528f8be99538e27099e768e330089e44fbfa41ce1eef69dd1556108a0e44",
    "static.phi":
        "d544a1c5c2dc06ac87d57d5ee67db6125aedb02d91babef544c7bc57b110dbe6",
    "static.xi":
        "ca54e1c9b68925d299d4e1ac00247de60279199d193ff5f1bcf9ea3a453ecd75",
    "duffing_dynamic_loss.csv":
        "5b8d465982f3fb7a6ed795de55e7ea4b15ce73a9ac793e2b42cd5897dc5fbf34",
    "dynamic.theta":
        "5653528f8be99538e27099e768e330089e44fbfa41ce1eef69dd1556108a0e44",
    "dynamic.phi":
        "d544a1c5c2dc06ac87d57d5ee67db6125aedb02d91babef544c7bc57b110dbe6",
    "dynamic.psi":
        "6f6d967345709bf4bb460ab96b5eaf74e7c6ce3ae81ae64d2f20dbe24a3bcab9",
    "duffing_curriculum_loss.csv":
        "2c016ebd97ba5f0f57170e0c949fbdb2e44cf30db75bfd1c485c079b1b463025",
    "curriculum.theta":
        "5653528f8be99538e27099e768e330089e44fbfa41ce1eef69dd1556108a0e44",
    "curriculum.phi":
        "e9120e22eb7cf98ffe08d11cbab2e97e97f60d68e97adfc22389b7121bfbd8af",
    # Recorded before conditioned inference applied its low-rank products
    # in row blocks; 401 rows per trajectory, so the decode takes 2 blocks.
    "duffing_report.csv":
        "471757fc9fb8ea08e7d35948af4bfcc7faa698e823939b932335219624048ad7",
    # Recorded before a trajectory set became the one container from
    # simulate to eval, at 1 and 2 threads: a dataset with another
    # regime, the --csv export, the plot SVG set (one hash over the 16
    # files, each named), and phase 1, static and dynamic phase 2 each
    # trained on two datasets that share a time grid.
    "duffing_square_n2_s40.hkkl":
        "ef83c0c1ddc32497c928f67ec9c3cc3a2eea24ba9a74cbab324af27e08a5cfbf",
    "duffing_zero_n2_s80.hkkl":
        "36780ac4f9a2fc2aab22a70e421c2d6df8690674a922daa368f1153f7da52bf6",
    "duffing_sinusoid_n3_s30_traj0.csv":
        "03a6de3a02c2a4a31cd744655ff6fa2e3f59f78e4041428b0803cd5784d3beff",
    "plots":
        "e991e18caf8a6c54ec4c20fcba25301c23f8307901cca412932c5d0cd7517860",
    "duffing_phase1_two_loss.csv":
        "1d1c4682124ab3b9e1294ba442ff4173ea17d429ce563f2d49947ed80a9e3978",
    "phase1_two.theta":
        "7f4cfec60fc3bcb6111f942c0d5392a5373757f76c2938e9b1684c02246a7fcb",
    "phase1_two.phi":
        "c8ef7be1c41d7cc08c3e39a8153de7922a426d1df21513a496d3bd6cb8ff6e7e",
    "duffing_static_two_loss.csv":
        "e759756a9ddd28b2160e9d0c3a252066cea59d6f88d58ffeda92e70265425809",
    "static_two.theta":
        "5653528f8be99538e27099e768e330089e44fbfa41ce1eef69dd1556108a0e44",
    "static_two.phi":
        "d544a1c5c2dc06ac87d57d5ee67db6125aedb02d91babef544c7bc57b110dbe6",
    "static_two.xi":
        "66eb9ac181585db1dacdf3d8d86c376645b28c92d2c5b5997e899d61503fb7f7",
    "duffing_dynamic_two_loss.csv":
        "2bd2d745b95c19ef1da741b3fb47cf94f185dd119295637f987ada2b17c5cecd",
    "dynamic_two.theta":
        "5653528f8be99538e27099e768e330089e44fbfa41ce1eef69dd1556108a0e44",
    "dynamic_two.phi":
        "d544a1c5c2dc06ac87d57d5ee67db6125aedb02d91babef544c7bc57b110dbe6",
    "dynamic_two.psi":
        "138d0af0dec163a98fdc8dda2d4803f7a7537c47e5f31f6379ecf01625cf4701",
    # Recorded at 1 and 2 threads before every signal kind became an
    # offset plus its (A, w, phi) components, so that the mixture path of
    # eval_signal has pinned bytes too.
    "duffing_mixture_n3_s50.hkkl":
        "dd13a0915cb836f679c6c2c014d917ae90f1304f14b16e9c53f4c6fe4fbf6ac1",
    # Each checkpoint file whole, header and slice table included, so a
    # change of the file layout shows even where every stored value keeps
    # its bytes. Recorded at 1 and 2 threads while each head's readout U
    # was one slice; the two dynamic files were re-recorded when it became
    # one slice per targeted layer: their slice tables list the U_l, and
    # every stored value, and every other entry, kept its bytes.
    "phase1.hkkp":
        "919195bd86b9dead45a824a4e1e1cc4c225ab0cffc70499f88f9c059c3271bda",
    "static.hkkp":
        "ca90d25fabdb25d42a344d7d64526e392730d16810bf735beb18a1709d052f42",
    "dynamic.hkkp":
        "301ef2e01905dd858c2d7c124395285d01b80bcc26f5d4622cd7a7b3e9e55fac",
    "curriculum.hkkp":
        "b4d2f38f43b54ce241d9b23fde30a83e34fcd2c427ed8426486563ff4f8b15f0",
    "phase1_two.hkkp":
        "1cff59ace7e1bf0fced7f139708166fca15fdb0775ce1853711d25a0428231b1",
    "static_two.hkkp":
        "445263ebebad2709028a6c259f3b32722ce30c021ecc19d0fa58a2e6190d9140",
    "dynamic_two.hkkp":
        "25fc148ea7520e2e638fbb35ac98b9679eb361edd78dd6d386cebe20e87e420e",
}


def _gen(out, regime, n, seed, *argv):
    assert main([
        "gen", "--system", "duffing", "--regime", regime, "--n", str(n),
        "--seed", str(seed), "--horizon", "2.0", "--out", str(out), *argv,
    ]) == 0
    return out / f"duffing_{regime}_n{n}_s{seed}.hkkl"


def _sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _train(out, *argv):
    assert main(["train", "--system", "duffing", "--out", str(out),
                 *argv]) == 0


def pipeline_hashes(root) -> dict:
    """Run the tiny pipeline under ``root``; sha256 of every output."""
    root = Path(root)
    zero = _gen(root / "data", "zero", 4, 1)
    constant = _gen(root / "data", "constant", 2, 60)
    forced = _gen(root / "data", "sinusoid", 3, 30, "--csv")
    square = _gen(root / "data", "square", 2, 40)
    mixture = _gen(root / "data", "mixture", 3, 50)
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
    # two datasets on one time grid go into one run of each training
    # path that concatenates them
    zero2 = _gen(root / "data", "zero", 2, 80)
    _train(ck / "two", "--phase", "1", "--data", str(zero), "--data",
           str(zero2), "--epochs", "3", "--batch", "16", "--hidden", "8,8",
           "--seed", "3")
    _train(ck / "two", "--phase", "2", "--variant", "static", *phase2,
           "--data", str(square))
    _train(ck / "two", "--phase", "2", "--variant", "dynamic", "--batch",
           "8", "--rank", "2", *phase2, "--data", str(square))
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
    plots = root / "plots"
    assert main([
        "plot", "--system", "duffing", "--checkpoint", f"autonomous={base}",
        *(f"--checkpoint={v}={ck / f'duffing_{v}.hkkp'}"
          for v in ("static", "dynamic", "curriculum")),
        "--horizon", "10", "--out", str(plots),
    ]) == 0

    csv = root / "data" / f"{forced.stem}_traj0.csv"
    hashes = {path.name: _sha(path)
              for path in (zero, constant, forced, square, mixture, zero2,
                           csv, ev / "duffing_report.csv")}
    svgs = sorted(plots.glob("*.svg"))
    assert len(svgs) == 16
    hashes["plots"] = hashlib.sha256(b"".join(
        path.name.encode() + bytes.fromhex(_sha(path))
        for path in svgs)).hexdigest()
    for stem, path in (*((s, ck / f"duffing_{s}") for s in
                         ("phase1", "static", "dynamic", "curriculum")),
                       *((f"{s}_two", ck / "two" / f"duffing_{s}")
                         for s in ("phase1", "static", "dynamic"))):
        hashes[f"duffing_{stem}_loss.csv"] = _sha(f"{path}_loss.csv")
        hashes[f"{stem}.hkkp"] = _sha(f"{path}.hkkp")
        bundle = read_checkpoint(f"{path}.hkkp")
        # a static checkpoint's params are its ξ, a dynamic one's its ψ
        stores = {"theta": bundle.theta, "phi": bundle.phi,
                  {"static": "xi", "dynamic": "psi"}.get(bundle.variant):
                  bundle.params}
        for field, store in stores.items():
            if store is not None:
                hashes[f"{stem}.{field}"] = hashlib.sha256(
                    store.data.tobytes()).hexdigest()
    return hashes


def child_hashes(root, threads: str) -> dict:
    """``pipeline_hashes(root)`` in a child with ``threads`` OpenBLAS threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(
                   [str(SRC), str(TESTS), os.environ.get("PYTHONPATH", "")]))
    code = ("import json, sys; from test_golden import pipeline_hashes; "
            "print(json.dumps(pipeline_hashes(sys.argv[1])))")
    done = subprocess.run([sys.executable, "-c", code, str(root)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("threads", ["1", "2"])
def test_tiny_pipeline_reproduces_golden_bytes(tmp_path, threads):
    assert child_hashes(tmp_path, threads) == GOLDEN


if __name__ == "__main__":
    # Re-record after a deliberate change of output bytes:
    #   PYTHONPATH=src python tests/test_golden.py [threads]
    # prints the hashes at that OpenBLAS thread count (default 1) as JSON.
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        threads = sys.argv[1] if len(sys.argv) > 1 else "1"
        print(json.dumps(child_hashes(tmp, threads), indent=4))
