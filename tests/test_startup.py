"""What the CLI loads before it runs a command, and the text it prints.

Each case starts a fresh interpreter that runs ``hyperkkl.cli.main`` and
then reports its modules, its environment and its memory map: help, a
bad flag and a settings error must exit without numpy and leave
``os.environ`` and ``sys.modules`` as they were; ``gen`` must not load
the training, evaluation or plotting stack, and no stage ``numpy.ma``;
a numeric command keeps OpenSSL out of the process and runs at the
``blas_threads`` setting, not at the thread count it inherits. The help
texts are pinned byte for byte in ``data/cli_help.json`` at 80 columns.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hyperkkl.cli import main
from hyperkkl.manifest import MANIFEST_NAME

ROOT = Path(__file__).resolve().parent.parent
HELP = json.loads((ROOT / "tests" / "data" / "cli_help.json").read_text())

# Runs main(argv) and prints, as the last line of stdout, the exit code,
# the loaded modules, whether os.environ and the _hashlib entry of
# sys.modules are what they were before main, and whether libcrypto is
# mapped.
CHILD = """
import json, os, sys
from hyperkkl.cli import main
environ, entry = dict(os.environ), sys.modules.get("_hashlib", "absent")
try:
    code = main(sys.argv[1:])
except SystemExit as e:
    code = e.code
with open("/proc/self/maps") as fh:
    libcrypto = "libcrypto" in fh.read()
print(json.dumps({
    "code": code, "modules": sorted(sys.modules),
    "environ_kept": dict(os.environ) == environ,
    "hashlib_blocked": sys.modules.get("_hashlib", "absent") is None,
    "hashlib_kept": sys.modules.get("_hashlib", "absent") is entry,
    "libcrypto": libcrypto,
}))
"""

NOT_FOR_GEN = ("training", "hypernet", "nets", "kkl", "optim", "checkpoints",
               "evaluation", "plots")


def start(*argv, cwd, **env):
    """Run ``main(argv)`` in a fresh child; its report, ``modules`` a set."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env)
    done = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.stdout, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    report["modules"] = set(report["modules"])
    report["stderr"] = done.stderr
    return report


def last_record(out_dir) -> dict:
    lines = (out_dir / MANIFEST_NAME).read_text().splitlines()
    return json.loads(lines[-1])


GEN = ("gen", "--system", "duffing", "--n", "1", "--horizon", "2.0",
       "--out", "out")


@pytest.mark.parametrize("argv, want", [
    pytest.param(["--help"], 0, id="help"),
    pytest.param(["train", "--help"], 0, id="train-help"),
    pytest.param(["gen", "--system", "duffing", "--bogus"], 2,
                 id="unknown-flag"),
    pytest.param(["gen", "--system", "duffing", "--n", "abc"], 2,
                 id="flag-type"),
    pytest.param(["gen", "--config", "bad.ini"], 2, id="config-key"),
    pytest.param(["gen", "--config", "missing.ini"], 2, id="config-missing"),
    pytest.param(["gen", "--system", "duffing", "--config", "a-dir"], 4,
                 id="config-directory"),
    pytest.param(["train", "--phase", "1"], 2, id="required-setting"),
    pytest.param(["gen", "--system", "duffing", "--blas-threads", "0"], 2,
                 id="blas-threads"),
])
def test_early_exits_load_no_numpy(tmp_path, argv, want):
    (tmp_path / "bad.ini").write_text("[data]\nn_trian = 4\n")
    (tmp_path / "a-dir").mkdir()
    child = start(*argv, cwd=tmp_path, OPENBLAS_NUM_THREADS="2")
    assert child["code"] == want, child["stderr"]
    assert not list(tmp_path.glob("*.hkkl"))
    modules = child["modules"]
    assert not any(m == "numpy" or m.startswith("numpy.") for m in modules)
    assert "hyperkkl.manifest" not in modules
    assert child["environ_kept"] and child["hashlib_kept"]


def test_gen_loads_no_training_stack(tmp_path):
    child = start(*GEN, cwd=tmp_path)
    assert child["code"] == 0, child["stderr"]
    modules = child["modules"]
    assert "numpy" in modules and "hyperkkl.data" in modules
    assert not {f"hyperkkl.{m}" for m in NOT_FOR_GEN} & modules
    assert (tmp_path / "out" / "duffing_zero_n1_s1.hkkl").is_file()


def test_numeric_commands_keep_openssl_out(tmp_path):
    """numpy.random imports secrets, hmac and _hashlib, which maps
    libcrypto; main blocks that, and the builtin SHA-256 that hashlib
    falls back to hashes the outputs as OpenSSL's does here."""
    data = tmp_path / "out" / "duffing_zero_n1_s1.hkkl"
    for argv, out in (
        (GEN, tmp_path / "out"),
        (("train", "--system", "duffing", "--phase", "1", "--data",
          str(data), "--epochs", "1", "--batch", "16", "--hidden", "8,8",
          "--out", "ck"), tmp_path / "ck"),
    ):
        child = start(*argv, cwd=tmp_path)
        assert child["code"] == 0, child["stderr"]
        assert child["hashlib_blocked"] and not child["libcrypto"]
        hashes = last_record(out)["output_hashes"]
        assert len(hashes) == (1 if argv[0] == "gen" else 2)
        for path, digest in hashes.items():
            want = hashlib.sha256((tmp_path / path).read_bytes()).hexdigest()
            assert digest == want


def test_main_in_process_keeps_a_loaded_hashlib(tmp_path, monkeypatch):
    """A caller that already loaded OpenSSL and numpy keeps both as they
    were: main neither blocks _hashlib nor writes the thread count."""
    import _hashlib

    monkeypatch.chdir(tmp_path)
    environ = dict(os.environ)
    assert main(list(GEN)) == 0
    assert sys.modules["_hashlib"] is _hashlib
    assert dict(os.environ) == environ


PHASE1 = ("train", "--system", "duffing", "--phase", "1", "--epochs", "2",
          "--data", "data/duffing_zero_n4_s1.hkkl")


def test_output_bytes_do_not_follow_the_inherited_thread_count(tmp_path):
    """At the default widths and batch 256, phase 1's weight gradients
    differ in their last bits between 1 and 2 OpenBLAS threads; the CLI
    runs at its own setting, 1, whatever the environment holds."""
    assert start("gen", "--system", "duffing", "--n", "4", "--out", "data",
                 cwd=tmp_path)["code"] == 0
    outputs = {}
    for threads in ("1", "2"):
        child = start(*PHASE1, "--out", threads, cwd=tmp_path,
                      OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        assert child["code"] == 0, child["stderr"]
        outputs[threads] = [(tmp_path / threads / name).read_bytes()
                            for name in ("duffing_phase1.hkkp",
                                         "duffing_phase1_loss.csv")]
    assert outputs["1"] == outputs["2"]
    for threads in ("1", "2"):
        record = last_record(tmp_path / threads)
        assert record["resolved_config"]["blas_threads"] == 1
        assert record["blas_threads"] == 1


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="OpenBLAS runs at most one thread per core")
def test_an_explicit_thread_count_is_honoured(tmp_path):
    child = start(*GEN, "--blas-threads", "2", cwd=tmp_path,
                  OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    assert child["code"] == 0, child["stderr"]
    record = last_record(tmp_path / "out")
    assert record["resolved_config"]["blas_threads"] == 2
    assert record["blas_threads"] == 2


def test_no_command_loads_numpy_ma(tmp_path):
    """numpy's percentile imports numpy.ma (through np.unique); phase 1
    takes its drift scale without it, so no stage of the pipeline loads
    that package."""
    (tmp_path / "small.ini").write_text("[curriculum]\nlevel_epochs = 1\n")
    base, data = "ck/duffing_phase1.hkkp", "data/duffing_zero_n4_s1.hkkl"
    checkpoints = ("--checkpoint", f"autonomous={base}", "--checkpoint",
                   "curriculum=cur/duffing_curriculum.hkkp")
    shown = ("--system", "duffing", *checkpoints, "--regimes", "zero",
             "--seed", "9000", "--horizon", "2.0")
    for argv in (
        ("gen", "--system", "duffing", "--n", "4", "--out", "data"),
        (*PHASE1, "--batch", "16", "--hidden", "8,8", "--out", "ck"),
        ("train", "--system", "duffing", "--phase", "curriculum", "--base",
         base, "--data", data, "--epochs", "1", "--batch", "16", "--config",
         "small.ini", "--out", "cur"),
        ("eval", *shown, "--n", "1", "--out", "ev"),
        ("plot", *shown, "--out", "plots"),
    ):
        child = start(*argv, cwd=tmp_path)
        assert child["code"] == 0, child["stderr"]
        loaded = sorted(m for m in child["modules"]
                        if m == "numpy.ma" or m.startswith("numpy.ma."))
        assert not loaded, (argv[0], loaded)


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_text_is_pinned(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        main([command, "--help"] if command else ["--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out == HELP[command]
