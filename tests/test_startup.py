"""What the CLI loads before it runs a command, and the text it prints.

Each case starts a fresh interpreter that runs ``hyperkkl.cli.main`` and
then lists ``sys.modules``: help, a bad flag and a settings error must
exit without numpy, and ``gen`` must not load the training, evaluation
or plotting stack. The help texts are pinned byte for byte in
``data/cli_help.json`` at 80 columns.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hyperkkl.cli import main

ROOT = Path(__file__).resolve().parent.parent
HELP = json.loads((ROOT / "tests" / "data" / "cli_help.json").read_text())

# Runs main(argv) and prints the exit code and the loaded modules as the
# last line of stdout.
CHILD = """
import json, sys
from hyperkkl.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as e:
    code = e.code
print(json.dumps([code, sorted(sys.modules)]))
"""

NOT_FOR_GEN = ("training", "hypernet", "nets", "kkl", "optim", "checkpoints",
               "evaluation", "plots")


def start(*argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    code, modules = json.loads(done.stdout.splitlines()[-1])
    return code, set(modules), done.stderr


@pytest.mark.parametrize("argv, want", [
    pytest.param(["--help"], 0, id="help"),
    pytest.param(["train", "--help"], 0, id="train-help"),
    pytest.param(["gen", "--system", "duffing", "--bogus"], 2,
                 id="unknown-flag"),
    pytest.param(["gen", "--system", "duffing", "--n", "abc"], 2,
                 id="flag-type"),
    pytest.param(["gen", "--config", "bad.ini"], 2, id="config-key"),
    pytest.param(["gen", "--config", "missing.ini"], 2, id="config-missing"),
    pytest.param(["train", "--phase", "1"], 2, id="required-setting"),
])
def test_early_exits_load_no_numpy(tmp_path, argv, want):
    (tmp_path / "bad.ini").write_text("[data]\nn_trian = 4\n")
    code, modules, err = start(*argv, cwd=tmp_path)
    assert code == want, err
    assert not any(m == "numpy" or m.startswith("numpy.") for m in modules)
    assert "hyperkkl.manifest" not in modules


def test_gen_loads_no_training_stack(tmp_path):
    code, modules, err = start(
        "gen", "--system", "duffing", "--n", "1", "--horizon", "1.0",
        "--out", "out", cwd=tmp_path)
    assert code == 0, err
    assert "numpy" in modules and "hyperkkl.data" in modules
    assert not {f"hyperkkl.{m}" for m in NOT_FOR_GEN} & modules
    assert (tmp_path / "out" / "duffing_zero_n1_s1.hkkl").is_file()


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_text_is_pinned(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        main([command, "--help"] if command else ["--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out == HELP[command]
