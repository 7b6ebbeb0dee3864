import argparse
import builtins
import dataclasses
import json
import os
import signal
import struct
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from conftest import poison_backward, raw_checkpoint

from hyperkkl import cli, dynamics, evaluation, training
from hyperkkl.checkpoints import read_checkpoint, write_checkpoint
from hyperkkl.cli import build_parser, main
from hyperkkl.config import load_config, resolve, system_defaults
from hyperkkl.data import read_dataset
from hyperkkl.errors import ConfigError, NumericError
from hyperkkl.hypernet import (
    build_hypernet_spec,
    build_injection_spec,
    init_hypernet_params,
    init_injection_params,
)
from hyperkkl.kkl import (
    build_observer_matrices,
    init_decoder,
    init_encoder,
    make_maps,
)
from hyperkkl.manifest import MANIFEST_NAME


def run(*argv):
    return main(list(argv))


def read_manifest(out_dir):
    with open(out_dir / MANIFEST_NAME) as fh:
        return [json.loads(line) for line in fh]


def exit_code(*argv):
    """main's exit code, also where argparse exits on a bad flag."""
    try:
        return run(*argv)
    except SystemExit as e:
        return e.code


def fail_imports(monkeypatch, wanted, error):
    """Make every later import that ``wanted(name)`` picks raise ``error``.

    Relative imports are named by their module (``from .data import x``
    is "data", ``from . import training`` is "training").
    """
    real = builtins.__import__

    def guarded(name, globals=None, locals=None, fromlist=(), level=0):
        names = fromlist if level and not name else (name,)
        if any(wanted(n) for n in names):
            raise error
        return real(name, globals, locals, fromlist, level)

    monkeypatch.setattr(builtins, "__import__", guarded)


# the src modules that import numpy: everything but config and errors
NUMERIC_MODULES = {
    "autodiff", "binfile", "checkpoints", "data", "dynamics", "evaluation",
    "hypernet", "kkl", "manifest", "nets", "optim", "params", "plots",
    "seeding", "signals", "training",
}


def forbid_numeric_imports(monkeypatch):
    """Fail the test if main imports numpy or a numeric src module."""
    fail_imports(
        monkeypatch, lambda n: n == "numpy" or n in NUMERIC_MODULES,
        AssertionError("a numeric import ran before the settings resolved"))


@pytest.fixture
def gen_dir(tmp_path):
    out = tmp_path / "data"
    code = run(
        "gen", "--system", "duffing", "--regime", "zero", "--n", "4",
        "--seed", "1", "--horizon", "2.0", "--out", str(out),
    )
    assert code == 0
    return out


class TestConfigModule:
    def test_parse_types(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text(
            "[system]\nname = duffing\n"
            "[data]\nsigma = 0.01\nn_train = 50\n"
            "[train]\nnormalize = true\nhidden = 16,16\nlr = 1e-3\n"
        )
        conf = load_config(p)
        assert conf["system"]["name"] == "duffing"
        assert conf["data"]["sigma"] == 0.01
        assert conf["data"]["n_train"] == 50
        assert conf["train"]["normalize"] is True
        assert conf["train"]["hidden"] == [16, 16]
        assert conf["train"]["lr"] == 1e-3

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[misc]\nx = 1\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_resolve_conflict_is_error(self):
        assert resolve("k", None, 5, 1) == 5
        assert resolve("k", 7, None, 1) == 7
        assert resolve("k", None, None, 1) == 1
        assert resolve("k", 5, 5.0, 1) == 5.0
        with pytest.raises(ConfigError):
            resolve("k", 5, 6, 1)

    def test_paper_architecture_defaults(self):
        for name in ("duffing", "vanderpol"):
            d = system_defaults(name)
            assert d["hidden"] == [150, 150, 150]
            assert d["rank"] == 32
        for name in ("rossler", "lorenz"):
            d = system_defaults(name)
            assert d["hidden"] == [350, 350, 350]
            assert d["rank"] == 128

    @pytest.mark.parametrize("raw, code, message", [
        pytest.param(None, 4, "i/o failure: [Errno 21] Is a directory: '{}'",
                     id="directory"),
        pytest.param(b"[data]\nseed = 1\xff\n", 2,
                     "error: config file {} is not UTF-8 text: invalid start "
                     "byte", id="not-utf8"),
        pytest.param(b"seed = 1\n", 2,
                     "error: bad config file {}: File contains no section "
                     "headers. file: '{}', line: 1 'seed = 1\\n'",
                     id="no-header"),
        pytest.param(b"[data]\nsigma = 5%\n", 2,
                     "error: [data] sigma must be a number, got '5%'",
                     id="percent-sign"),
    ])
    def test_a_config_file_that_is_not_ini_text_fails_in_one_line(
            self, tmp_path, monkeypatch, capsys, raw, code, message):
        # ConfigParser.read skipped a path it could not open, so gen ran
        # on the defaults; configparser's own messages span lines, and its
        # interpolation raised on a '%' as the value was read
        conf = tmp_path / "run.ini"
        if raw is None:
            conf.mkdir()
        else:
            conf.write_bytes(raw)
        out = tmp_path / "x"
        forbid_numeric_imports(monkeypatch)
        assert run("gen", "--system", "duffing", "--config", str(conf),
                   "--out", str(out)) == code
        assert capsys.readouterr().err == message.format(conf, conf) + "\n"
        assert not out.exists()


class TestGen:
    def test_writes_dataset_and_manifest(self, gen_dir):
        files = sorted(p.name for p in gen_dir.iterdir())
        assert "duffing_zero_n4_s1.hkkl" in files
        assert "run_manifest.jsonl" in files
        ds = read_dataset(gen_dir / "duffing_zero_n4_s1.hkkl")
        assert ds.count == 4
        assert np.all(ds.trajectories.inputs == 0.0)
        records = read_manifest(gen_dir)
        assert len(records) == 1
        assert records[0]["command"] == "gen"
        assert records[0]["seeds"] == {"seed": 1}
        assert records[0]["wall_s"] > 0
        assert records[0]["peak_rss_mb"] > 0
        cpu = records[0]["cpu_s"]
        assert set(cpu) == {"user", "sys"}
        assert cpu["user"] > 0 and cpu["sys"] >= 0
        assert isinstance(records[0]["minor_faults"], int)
        assert records[0]["minor_faults"] > 0
        assert records[0]["numpy"] == np.__version__
        assert set(records[0]["blas"]) == {"name", "version"}
        assert all(isinstance(v, str) for v in records[0]["blas"].values())
        threads = records[0]["blas_threads"]
        assert threads is None or (isinstance(threads, int) and threads >= 1)

    def test_repeat_invocation_bitwise_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(
                "gen", "--system", "duffing", "--regime", "sinusoid", "--n",
                "3", "--seed", "2", "--horizon", "2.0", "--out", str(out),
            ) == 0
            outs.append((out / "duffing_sinusoid_n3_s2.hkkl").read_bytes())
        assert outs[0] == outs[1]

    def test_mixture_headers_record_components(self, tmp_path):
        out = tmp_path / "mix"
        assert run(
            "gen", "--system", "duffing", "--regime", "mixture", "--n", "10",
            "--seed", "3", "--horizon", "2.0", "--out", str(out),
        ) == 0
        ds = read_dataset(out / "duffing_mixture_n10_s3.hkkl")
        assert all(len(sig.components) >= 2 for sig in ds.trajectories.signals)

    def test_a_request_too_large_for_memory_is_a_user_error(self, tmp_path,
                                                           capsys):
        # 2e13 steps: the first array asked for is 146 TiB, which malloc
        # refuses at once, so the test allocates nothing
        out = tmp_path / "x"
        assert run("gen", "--system", "duffing", "--horizon", "1e12",
                   "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: out of memory: ")
        assert not out.exists()

    def test_a_non_finite_stage_is_a_numeric_failure(self, tmp_path,
                                                     monkeypatch, capsys):
        real = dynamics.get_system("duffing")
        poisoned = dynamics.SystemSpec(
            name="duffing", n_x=2, n_y=1, m=1,
            f=lambda x, u: np.full_like(x, np.nan), h=real.h,
            domain=real.domain,
        )
        monkeypatch.setattr(dynamics, "get_system", lambda name: poisoned)
        out = tmp_path / "x"
        assert run("gen", "--system", "duffing", "--n", "3", "--horizon",
                   "1.0", "--out", str(out)) == 3
        assert capsys.readouterr().err == (
            "numeric failure: non-finite RK4 stage in run 0 at t=0.0\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags, early", [
        pytest.param(("--system", "duffing", "--n", "0"), False,
                     id="handler"),
        pytest.param(("--system", "duffing", "--n", "abc"), True,
                     id="flag-type"),
        pytest.param(("--system", "duffing", "--bogus"), True,
                     id="unknown-flag"),
        pytest.param(("--regime", "zero"), True, id="no-system"),
    ])
    def test_bad_flags_exit_2(self, tmp_path, monkeypatch, flags, early):
        # a flag or settings error exits before any numeric import; one
        # found by the handler exits 2 all the same
        if early:
            forbid_numeric_imports(monkeypatch)
        assert exit_code("gen", *flags, "--out", str(tmp_path / "x")) == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flags", [
        pytest.param(("--seed", "-1"), id="negative"),
        pytest.param(("--seed", str(2**64)), id="past-2^64"),
    ])
    def test_a_seed_outside_u64_is_a_flag_error(self, tmp_path, monkeypatch,
                                                flags):
        forbid_numeric_imports(monkeypatch)
        assert exit_code("gen", "--system", "duffing", "--n", "1", *flags,
                         "--out", str(tmp_path / "x")) == 2
        assert not (tmp_path / "x").exists()

    def test_run_seeds_past_2_64_are_refused_before_simulating(
            self, tmp_path, monkeypatch, capsys):
        # run 1 would take seed 2^64, which the streams wrap to seed 0
        from hyperkkl import data

        def forbidden(*args, **kwargs):
            raise AssertionError("a run was simulated")

        monkeypatch.setattr(data, "sample_initial_conditions", forbidden)
        out = tmp_path / "x"
        top = 2**64 - 1
        assert run("gen", "--system", "duffing", "--n", "2", "--seed",
                   str(top), "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: seeds [{top}, {top + 2}) do not lie in [0, 2^64)\n")
        assert not out.exists()

    def test_the_last_seed_below_2_64_is_written(self, tmp_path):
        top = 2**64 - 1
        assert run("gen", "--system", "duffing", "--n", "1", "--seed",
                   str(top), "--horizon", "1.0", "--out", str(tmp_path)) == 0
        ds = read_dataset(tmp_path / f"duffing_zero_n1_s{top}.hkkl")
        assert ds.seed_range == (top, top)

    @pytest.mark.parametrize("where", ["handler", "import"])
    @pytest.mark.parametrize("error, code, prefix", [
        pytest.param(MemoryError("no room"), 2, "error: out of memory: ",
                     id="memory"),
        pytest.param(NumericError("overflow"), 3, "numeric failure: ",
                     id="numeric"),
        pytest.param(OSError("disk gone"), 4, "i/o failure: ", id="io"),
    ])
    def test_errors_keep_their_exit_codes(self, tmp_path, monkeypatch, capsys,
                                          where, error, code, prefix):
        if where == "import":
            fail_imports(monkeypatch, lambda n: n == "data", error)
        else:
            def handler(args, s):
                raise error

            monkeypatch.setitem(cli.HANDLERS, "gen", handler)
        out = tmp_path / "x"
        assert run("gen", "--system", "duffing", "--out", str(out)) == code
        assert capsys.readouterr().err == f"{prefix}{error}\n"
        assert not out.exists()

    def test_handlers_run_with_numpy_warnings_off(self, tmp_path,
                                                  monkeypatch):
        seen = {}

        def handler(args, s):
            seen.update(np.geterr())
            return cli.Run(tmp_path, s, {}, [], [])

        monkeypatch.setitem(cli.HANDLERS, "report", handler)
        assert run("report", "none.csv") == 0
        assert set(seen.values()) == {"ignore"}
        assert read_manifest(tmp_path)[0]["command"] == "report"


class TestTrain:
    def test_phase2_without_base_is_user_error(self, gen_dir, tmp_path):
        code = run(
            "train", "--system", "duffing", "--phase", "2", "--variant",
            "dynamic", "--data", str(gen_dir / "duffing_zero_n4_s1.hkkl"),
            "--out", str(tmp_path / "t"),
        )
        assert code == 2

    @pytest.mark.parametrize("phase", ["1", "curriculum"])
    def test_variant_outside_phase2_is_refused(self, gen_dir, tmp_path,
                                               capsys, phase):
        out = tmp_path / "t"
        capsys.readouterr()
        code = run(
            "train", "--system", "duffing", "--phase", phase, "--variant",
            "static", "--data", str(gen_dir / "duffing_zero_n4_s1.hkkl"),
            "--base", str(tmp_path / "unread.hkkp"), "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --variant applies only to --phase 2, not to --phase "
            f"{phase}\n")
        assert not out.exists()

    def test_phase1_refuses_a_base(self, gen_dir, tmp_path, capsys):
        out = tmp_path / "t"
        capsys.readouterr()
        code = run(
            "train", "--system", "duffing", "--phase", "1", "--data",
            str(gen_dir / "duffing_zero_n4_s1.hkkl"), "--base",
            str(tmp_path / "unread.hkkp"), "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --phase 1 trains from scratch and takes no --base\n")
        assert not out.exists()

    def test_phase1_smoke_writes_checkpoint(self, gen_dir, tmp_path):
        out = tmp_path / "ck"
        code = run(
            "train", "--system", "duffing", "--phase", "1", "--data",
            str(gen_dir / "duffing_zero_n4_s1.hkkl"), "--epochs", "5",
            "--batch", "16", "--hidden", "8,8", "--seed", "3",
            "--out", str(out),
        )
        assert code == 0
        bundle = read_checkpoint(out / "duffing_phase1.hkkp")
        assert bundle.variant == "autonomous"
        assert bundle.train_seed_range == (1, 4)
        assert bundle.maps.enc.widths == (2, 8, 8, 5)
        loss = (out / "duffing_phase1_loss.csv").read_text().splitlines()
        assert loss[0] == "epoch,loss_rec,loss_pde,grad_norm,level"
        assert len(loss) == 11  # header + 2 stages x 5 epochs

    def test_config_flag_conflict_is_error(self, gen_dir, tmp_path,
                                           monkeypatch):
        ini = tmp_path / "run.ini"
        ini.write_text("[train]\nepochs = 7\n")
        forbid_numeric_imports(monkeypatch)
        code = run(
            "train", "--system", "duffing", "--phase", "1", "--data",
            str(gen_dir / "duffing_zero_n4_s1.hkkl"), "--epochs", "5",
            "--config", str(ini), "--out", str(tmp_path / "x"),
        )
        assert code == 2

    @pytest.mark.parametrize("section, key", [
        pytest.param("train", "segmnt_batch", id="misspelt"),
        pytest.param("hypernet", "chunk_size", id="removed"),
    ])
    def test_unknown_config_key_is_error(self, gen_dir, tmp_path, capsys,
                                         monkeypatch, section, key):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[{section}]\n{key} = 1\n")
        out = tmp_path / "x"
        forbid_numeric_imports(monkeypatch)
        code = run(
            "train", "--system", "duffing", "--phase", "1", "--data",
            str(gen_dir / "duffing_zero_n4_s1.hkkl"), "--epochs", "1",
            "--config", str(ini), "--out", str(out),
        )
        assert code == 2
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, ini, where", [
        pytest.param("train", "[train]\nlr = abc\n", "[train] lr", id="word"),
        pytest.param("train", "[train]\nepochs = 2.7\n", "[train] epochs",
                     id="fraction"),
        pytest.param("train", "[train]\nhidden = 8.9\n", "[train] hidden",
                     id="fractional-width"),
        pytest.param("train", "[train]\nnormalize = maybe\n",
                     "[train] normalize", id="not-boolean"),
        pytest.param("gen", "[data]\nn_train = 3.0\n", "[data] n_train",
                     id="float-count"),
        pytest.param("train", "[train]\ncollocation = 0\n", "collocation",
                     id="no-collocation"),
        pytest.param("gen", "[data]\nsigma = nan\n", "sigma", id="nan-sigma"),
        pytest.param("gen", "[data]\nsigma = inf\n", "sigma", id="inf-sigma"),
        pytest.param("gen", "[data]\nsigma = -0.1\n", "sigma",
                     id="negative-sigma"),
        pytest.param("gen", "[data]\nseed = -1\n", "[data] seed",
                     id="negative-seed"),
        pytest.param("gen", f"[data]\nseed = {2**64}\n", "[data] seed",
                     id="seed-past-2^64"),
        pytest.param("train", "[train]\nseed = -1\n", "[train] seed",
                     id="negative-train-seed"),
    ])
    def test_bad_config_value_is_error(self, gen_dir, tmp_path, capsys,
                                       monkeypatch, command, ini, where):
        conf = tmp_path / "run.ini"
        conf.write_text(ini)
        out = tmp_path / "x"
        argv = {
            "train": ("train", "--system", "duffing", "--phase", "1", "--data",
                      str(gen_dir / "duffing_zero_n4_s1.hkkl"),
                      "--epochs", "1"),
            "gen": ("gen", "--system", "duffing"),
        }[command]
        capsys.readouterr()
        if where.startswith("["):  # a type error, found in the settings
            forbid_numeric_imports(monkeypatch)
        assert run(*argv, "--config", str(conf), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where} must be ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    # a numpy RuntimeWarning would raise here and fail the test
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_numeric_abort_writes_no_checkpoint(self, gen_dir, tmp_path, capsys):
        out = tmp_path / "abort"
        code = run(
            "train", "--system", "duffing", "--phase", "1", "--data",
            str(gen_dir / "duffing_zero_n4_s1.hkkl"), "--epochs", "5",
            "--batch", "16", "--hidden", "8,8", "--lr", "1e300",
            "--out", str(out),
        )
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("numeric failure: epoch ")
        assert "non-finite" in err[0]
        assert [f.name for f in out.iterdir()] == [MANIFEST_NAME]

    def test_numeric_abort_appends_an_aborted_record(self, gen_dir, tmp_path,
                                                      capsys):
        # the record of an abort, then that of a run that completes
        out = tmp_path / "abort"
        data = str(gen_dir / "duffing_zero_n4_s1.hkkl")
        argv = ("train", "--system", "duffing", "--phase", "1", "--data", data,
                "--epochs", "5", "--batch", "16", "--hidden", "8,8",
                "--out", str(out))
        assert run(*argv, "--lr", "1e300") == 3
        err = capsys.readouterr().err
        assert not list(out.glob("*.hkkp")) and not list(out.glob("*.csv"))
        assert run(*argv) == 0
        aborted, ok = read_manifest(out)
        assert aborted["status"] == "aborted"
        assert aborted["command"] == "train"
        assert aborted["resolved_config"]["lr"] == 1e300
        assert aborted["output_hashes"] == {}
        assert err == (f"numeric failure: epoch {aborted['abort']['epoch']}: "
                       f"{aborted['abort']['reason']}\n")
        assert 1 <= aborted["abort"]["epoch"] <= 5
        assert "non-finite" in aborted["abort"]["reason"]
        assert ok["status"] == "ok" and "abort" not in ok
        assert sorted(ok["output_hashes"]) == [
            str(out / "duffing_phase1.hkkp"),
            str(out / "duffing_phase1_loss.csv")]

    def test_non_finite_gradient_writes_no_checkpoint(
            self, gen_dir, tmp_path, capsys, monkeypatch):
        # the last epoch's gradient: no later loss would catch it
        poison_backward(monkeypatch, at_call=4)
        out = tmp_path / "inf"
        code = run(
            "train", "--system", "duffing", "--phase", "1", "--data",
            str(gen_dir / "duffing_zero_n4_s1.hkkl"), "--epochs", "2",
            "--batch", "16", "--hidden", "8,8", "--out", str(out),
        )
        assert code == 3
        assert capsys.readouterr().err == (
            "numeric failure: epoch 4: gradient norm is non-finite\n")
        assert [f.name for f in out.iterdir()] == [MANIFEST_NAME]

    def test_epoch_seconds_summary(self):
        rows = [training.LogRow(k, 0.0, 0.0, 0.0, 0, t)
                for k, t in enumerate((0.5, 0.125, 0.25, 2.0), start=1)]
        assert cli._epoch_seconds(rows) == {
            "count": 4, "p50": 0.375, "max": 2.0, "total": 2.875}
        assert cli._epoch_seconds(rows[:3])["p50"] == 0.25
        assert cli._epoch_seconds([]) == {
            "count": 0, "p50": None, "max": None, "total": 0}

    def test_train_records_its_epoch_seconds(self, gen_dir, tmp_path,
                                             monkeypatch):
        # an ok run times every epoch of its loss CSV; a run aborted at
        # epoch 4 the 3 epochs it logged before it
        argv = ("train", "--system", "duffing", "--phase", "1", "--data",
                str(gen_dir / "duffing_zero_n4_s1.hkkl"), "--epochs", "2",
                "--batch", "16", "--hidden", "8,8")
        ok_dir, abort_dir = tmp_path / "ok", tmp_path / "abort"
        assert run(*argv, "--out", str(ok_dir)) == 0
        poison_backward(monkeypatch, at_call=4)
        assert run(*argv, "--out", str(abort_dir)) == 3
        csv_rows = (ok_dir / "duffing_phase1_loss.csv").read_text().splitlines()
        (ok,), (aborted,) = read_manifest(ok_dir), read_manifest(abort_dir)
        assert aborted["abort"]["epoch"] == 4 and len(csv_rows) == 1 + 4
        for record, count in ((ok, 4), (aborted, 3)):
            timing = record["epoch_s"]
            assert sorted(timing) == ["count", "max", "p50", "total"]
            assert timing["count"] == count
            assert 0.0 < timing["p50"] <= timing["max"] <= timing["total"]

    def test_config_supplies_values(self, gen_dir, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[system]\nname = duffing\n[train]\nepochs = 4\nhidden = 8,8\n"
        )
        out = tmp_path / "ck2"
        code = run(
            "train", "--phase", "1", "--data",
            str(gen_dir / "duffing_zero_n4_s1.hkkl"), "--config", str(ini),
            "--seed", "3", "--batch", "16", "--out", str(out),
        )
        assert code == 0
        records = read_manifest(out)
        assert records[0]["resolved_config"]["epochs"] == 4


@pytest.mark.parametrize("argv, message", [
    pytest.param(("gen", "--system", "duffing", "--seed", "-1"),
                 "argument --seed: must be an integer in [0, 2^64), got '-1'",
                 id="gen-bad-value"),
    pytest.param(("train", "--system", "duffing"),
                 "the following arguments are required: --phase",
                 id="train-no-phase"),
    pytest.param(("eval", "--system", "duffing", "--bogus"),
                 "unrecognized arguments: --bogus", id="eval-unknown-flag"),
    pytest.param(("plot", "--dt", "abc"),
                 "argument --dt: must be a number, got 'abc'",
                 id="plot-bad-value"),
    pytest.param(("report",), "the following arguments are required: reports",
                 id="report-no-file"),
    pytest.param((), "the following arguments are required: command",
                 id="no-command"),
])
def test_a_bad_flag_fails_in_one_line(argv, message, capsys, monkeypatch):
    # no usage block: one error line, as every other failure prints
    forbid_numeric_imports(monkeypatch)
    assert exit_code(*argv) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {message}\n")


def test_help_shows_config_key_and_default(capsys):
    with pytest.raises(SystemExit):
        main(["train", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "--epochs EPOCHS [train] epochs; default 2000" in text
    assert "--pde-weight LAMBDA physics residual weight; [train] lambda; " \
        "default 0.1" in text
    assert "[hypernet] rank; default 32 for duffing/vanderpol or 128 for " \
        "rossler/lorenz" in text


FLAGS = {
    "gen": {"--config", "--out", "--seed", "--system", "--regime", "--n",
            "--dt", "--horizon", "--sigma", "--csv", "--blas-threads"},
    "train": {"--config", "--out", "--seed", "--system", "--phase",
              "--variant", "--data", "--base", "--epochs", "--batch", "--lr",
              "--pde-weight", "--hidden", "--window", "--rank",
              "--latent-dim", "--blas-threads"},
    "eval": {"--config", "--out", "--seed", "--system", "--checkpoint",
             "--regimes", "--n", "--transient", "--dt", "--horizon",
             "--sigma", "--blas-threads"},
    "plot": {"--config", "--out", "--seed", "--system", "--checkpoint",
             "--regimes", "--dt", "--horizon", "--sigma", "--blas-threads"},
    "report": {"--out"},
}


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_flag_set_is_pinned(command):
    """Scripts pass these flags; none may vanish or appear unnoticed."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {o for a in sub.choices[command]._actions for o in a.option_strings}
    assert flags - {"-h", "--help"} == FLAGS[command]


@pytest.fixture
def trained(gen_dir, tmp_path):
    """A small phase-1 checkpoint plus forced data for downstream commands."""
    ck = tmp_path / "ck"
    assert run(
        "train", "--system", "duffing", "--phase", "1", "--data",
        str(gen_dir / "duffing_zero_n4_s1.hkkl"), "--epochs", "5", "--batch",
        "16", "--hidden", "8,8", "--seed", "3", "--out", str(ck),
    ) == 0
    forced = tmp_path / "forced"
    assert run(
        "gen", "--system", "duffing", "--regime", "sinusoid", "--n", "3",
        "--seed", "30", "--horizon", "2.0", "--out", str(forced),
    ) == 0
    return {
        "base": ck / "duffing_phase1.hkkp",
        "forced": forced / "duffing_sinusoid_n3_s30.hkkl",
        "root": tmp_path,
    }


class TestTrainConditioned:
    def test_dynamic_uses_default_rank(self, trained):
        out = trained["root"] / "dyn"
        code = run(
            "train", "--system", "duffing", "--phase", "2", "--variant",
            "dynamic", "--base", str(trained["base"]), "--data",
            str(trained["forced"]), "--epochs", "3", "--batch", "8",
            "--window", "6", "--seed", "4", "--out", str(out),
        )
        assert code == 0
        bundle = read_checkpoint(out / "duffing_dynamic.hkkp")
        assert bundle.variant == "dynamic"
        assert bundle.spec.enc_head.rank == 32  # oscillator default
        assert bundle.spec.window == 6
        # training seeds now span base + forced data
        assert bundle.train_seed_range == (1, 32)

    def test_manifest_records_every_train_setting(self, trained):
        out = trained["root"] / "dyn1"
        assert run(
            "train", "--system", "duffing", "--phase", "2", "--variant",
            "dynamic", "--base", str(trained["base"]), "--data",
            str(trained["forced"]), "--epochs", "1", "--batch", "8",
            "--window", "6", "--seed", "4", "--out", str(out),
        ) == 0
        (record,) = read_manifest(out)
        assert record["resolved_config"] == {
            "system": "duffing", "phase": "2", "variant": "dynamic",
            "seed": 4, "epochs": 1, "batch": 8, "lr": 1e-3, "lambda": 0.1,
            "hidden": [150, 150, 150], "clip": 1.0, "collocation": 256,
            "normalize": True, "segment_steps": 120, "segment_discard": 40,
            "segment_batch": 2, "latent_dim": None, "window": 6,
            "lstm_hidden": 64, "tau": 0.01, "inj_hidden": [64], "rank": 32,
            "epsilon": 0.01, "patience": 10, "level_epochs": 500,
            "blas_threads": 1,
        }
        assert record["seeds"] == {"seed": 4, "data_seed_range": [30, 32]}

    def test_static_smoke(self, trained):
        out = trained["root"] / "stat"
        ini = trained["root"] / "stat.ini"
        ini.write_text(
            "[train]\nsegment_steps = 20\nsegment_discard = 5\n"
            "[hypernet]\nwindow = 6\nlstm_hidden = 4\ninj_hidden = 8\n"
        )
        code = run(
            "train", "--system", "duffing", "--phase", "2", "--variant",
            "static", "--base", str(trained["base"]), "--data",
            str(trained["forced"]), "--epochs", "2", "--config", str(ini),
            "--seed", "4", "--out", str(out),
        )
        assert code == 0
        bundle = read_checkpoint(out / "duffing_static.hkkp")
        assert bundle.variant == "static"
        assert bundle.params is not None

    def test_static_trains_on_unforced_runs(self, trained, capsys):
        # an epoch whose segments all come from zero-input runs tapes no
        # loss: it steps on a zero gradient and logs a norm of 0.0
        ini = trained["root"] / "zero.ini"
        ini.write_text("[train]\nsegment_batch = 1\n[hypernet]\nwindow = 6\n"
                       "lstm_hidden = 4\ninj_hidden = 8\n")
        zero = trained["root"] / "data" / "duffing_zero_n4_s1.hkkl"

        def train(out, *data):
            return run(
                "train", "--system", "duffing", "--phase", "2", "--variant",
                "static", "--base", str(trained["base"]),
                *(a for d in data for a in ("--data", str(d))),
                "--epochs", "6", "--config", str(ini), "--seed", "4",
                "--out", str(out))

        mixed = trained["root"] / "mixed"
        assert train(mixed, zero, trained["forced"]) == 0
        rows = (mixed / "duffing_static_loss.csv").read_text().splitlines()
        norms = [float(row.split(",")[3]) for row in rows[1:]]
        assert len(norms) == 6
        assert 0.0 in norms and any(n > 0.0 for n in norms)
        # on all-zero data no epoch reaches ξ: Adam's first step on a zero
        # gradient is 0, and so is every later one
        only = trained["root"] / "only"
        assert train(only, zero) == 0
        bundle = read_checkpoint(only / "duffing_static.hkkp")
        init = init_injection_params(bundle.spec, 4)
        assert np.array_equal(bundle.params.data, init.data)
        assert "error" not in capsys.readouterr().err

    def test_static_refuses_an_empty_segment_batch(self, trained, capsys):
        ini = trained["root"] / "empty.ini"
        ini.write_text("[train]\nsegment_batch = 0\n")
        out = trained["root"] / "empty"
        code = run(
            "train", "--system", "duffing", "--phase", "2", "--variant",
            "static", "--base", str(trained["base"]), "--data",
            str(trained["forced"]), "--epochs", "1", "--config", str(ini),
            "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err == "error: segment_batch must be >= 1\n"
        assert not out.exists()

    def test_dynamic_refuses_rank_zero(self, trained, capsys):
        out = trained["root"] / "rank0"
        code = run(
            "train", "--system", "duffing", "--phase", "2", "--variant",
            "dynamic", "--base", str(trained["base"]), "--data",
            str(trained["forced"]), "--epochs", "1", "--batch", "8",
            "--window", "6", "--rank", "0", "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err == "error: rank must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("variant, tau", [
        ("static", "nan"), ("dynamic", "nan"), ("static", "inf"),
        ("dynamic", "inf"),
    ])
    def test_tau_must_be_finite(self, trained, capsys, variant, tau):
        # a NaN gate poisons the first latent step; an infinite one gates
        # every window to 0, so the conditioning network would never act
        ini = trained["root"] / "tau.ini"
        ini.write_text(f"[hypernet]\nwindow = 6\ntau = {tau}\n")
        out = trained["root"] / "tau"
        code = run(
            "train", "--system", "duffing", "--phase", "2", "--variant",
            variant, "--base", str(trained["base"]), "--data",
            str(trained["forced"]), "--epochs", "1", "--config", str(ini),
            "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: tau must be finite and positive, got {float(tau)!r}\n")
        assert not out.exists()

    def test_a_changed_frozen_base_writes_nothing(self, trained, capsys,
                                                  monkeypatch):
        real = training.total_loss

        def total_loss(maps, theta, *args, **kwargs):
            theta.data[0] += 1.0  # a loss that writes into the frozen base
            return real(maps, theta, *args, **kwargs)

        monkeypatch.setattr(training, "total_loss", total_loss)
        out = trained["root"] / "moved"
        code = run(
            "train", "--system", "duffing", "--phase", "2", "--variant",
            "dynamic", "--base", str(trained["base"]), "--data",
            str(trained["forced"]), "--epochs", "2", "--batch", "8",
            "--window", "6", "--out", str(out),
        )
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("numeric failure: ") and "frozen" in err[0]
        assert not out.exists()

    # the training call of each stage that reads the base, by its argv
    STAGES = {
        "curriculum": ("curriculum_train", ("--phase", "curriculum")),
        "static": ("phase2_train", ("--phase", "2", "--variant", "static")),
        "dynamic": ("phase2_train", ("--phase", "2", "--variant", "dynamic")),
    }

    def train_from_base(self, trained, stage, out):
        """Train ``stage`` for 2 tiny epochs from the base; the exit code."""
        ini = trained["root"] / "tiny.ini"
        ini.write_text(
            "[train]\nsegment_steps = 20\nsegment_discard = 5\n"
            "[hypernet]\nwindow = 6\nlstm_hidden = 4\ninj_hidden = 8\n"
            "[curriculum]\nlevel_epochs = 2\n")
        return run(
            "train", "--system", "duffing", *self.STAGES[stage][1],
            "--base", str(trained["base"]), "--data", str(trained["forced"]),
            "--epochs", "2", "--batch", "8", "--config", str(ini),
            "--out", str(out))

    @pytest.mark.parametrize("stage", ["curriculum", "static", "dynamic"])
    def test_only_dynamic_trains_with_the_base_encoder(self, trained,
                                                       monkeypatch, stage):
        # curriculum and static train from an observer read, which holds
        # no enc.* array, and read θ in full only once training returned
        from hyperkkl import checkpoints

        events, real_read = [], checkpoints.read_checkpoint
        name = self.STAGES[stage][0]
        real_train = getattr(training, name)

        def read(path, observer=False):
            events.append(("read", observer))
            return real_read(path, observer=observer)

        def train(*args, **kwargs):
            events.append("train")
            return real_train(*args, **kwargs)

        monkeypatch.setattr(checkpoints, "read_checkpoint", read)
        monkeypatch.setattr(training, name, train)
        out = trained["root"] / stage
        assert self.train_from_base(trained, stage, out) == 0
        if stage == "dynamic":
            assert events == [("read", False), "train"]
        else:
            assert events == [("read", True), "train", ("read", False)]
        ckpt = real_read(next(out.glob("*.hkkp")))
        assert ckpt.theta.data.tobytes() == (
            real_read(trained["base"]).theta.data.tobytes())

    @pytest.mark.parametrize("stage", ["curriculum", "static"])
    def test_a_base_rewritten_during_training_writes_nothing(
            self, trained, monkeypatch, capsys, stage):
        # the θ written would not be the one the run trained beside
        base = trained["base"]
        name = self.STAGES[stage][0]
        real_train = getattr(training, name)

        def train(*args, **kwargs):
            result = real_train(*args, **kwargs)
            data = bytearray(base.read_bytes())
            data[-1] ^= 1  # same size; a later modification time
            st = base.stat()
            base.write_bytes(bytes(data))
            os.utime(base, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
            return result

        monkeypatch.setattr(training, name, train)
        out = trained["root"] / stage
        capsys.readouterr()
        assert self.train_from_base(trained, stage, out) == 2
        assert capsys.readouterr().err == (
            f"error: base checkpoint {base} changed during training; "
            "no checkpoint written\n")
        assert not out.exists()

    def test_phase2_refuses_mixed_time_grids(self, trained, tmp_path, capsys):
        longer = tmp_path / "longer"
        assert run(
            "gen", "--system", "duffing", "--regime", "sinusoid", "--n", "2",
            "--seed", "40", "--horizon", "3.0", "--out", str(longer),
        ) == 0
        out = trained["root"] / "mixed"
        capsys.readouterr()
        code = run(
            "train", "--system", "duffing", "--phase", "2", "--variant",
            "dynamic", "--base", str(trained["base"]), "--data",
            str(trained["forced"]), "--data",
            str(longer / "duffing_sinusoid_n2_s40.hkkl"), "--epochs", "1",
            "--batch", "8", "--window", "6", "--out", str(out),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: phase 2 needs trajectories on one time grid")
        assert "(0.05, 40)" in err and "(0.05, 60)" in err
        assert not out.exists()

    def test_phase2_refuses_data_at_another_dt(self, trained, tmp_path,
                                               capsys):
        finer = tmp_path / "finer"
        assert run(
            "gen", "--system", "duffing", "--regime", "sinusoid", "--n", "2",
            "--seed", "41", "--horizon", "2.0", "--dt", "0.025",
            "--out", str(finer),
        ) == 0
        capsys.readouterr()
        code = run(
            "train", "--system", "duffing", "--phase", "2", "--variant",
            "dynamic", "--base", str(trained["base"]), "--data",
            str(finer / "duffing_sinusoid_n2_s41.hkkl"), "--epochs", "1",
            "--batch", "8", "--window", "6",
            "--out", str(trained["root"] / "finer_out"),
        )
        assert code == 2
        assert ("base checkpoint was trained at dt 0.05, the data has dt 0.025"
                in capsys.readouterr().err)

    def test_phase2_refuses_a_base_of_another_system(self, trained,
                                                     tmp_path, capsys):
        vdp = tmp_path / "vdp"
        assert run(
            "gen", "--system", "vanderpol", "--regime", "sinusoid", "--n", "2",
            "--seed", "42", "--horizon", "2.0", "--out", str(vdp),
        ) == 0
        out = trained["root"] / "vdp_out"
        capsys.readouterr()
        code = run(
            "train", "--system", "vanderpol", "--phase", "2", "--variant",
            "dynamic", "--base", str(trained["base"]), "--data",
            str(vdp / "vanderpol_sinusoid_n2_s42.hkkl"), "--epochs", "1",
            "--batch", "8", "--window", "6", "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: checkpoint {trained['base']} was trained on duffing, "
            "not vanderpol\n")
        assert not out.exists()

    def test_curriculum_orders_levels(self, trained, tmp_path):
        levels_dir = tmp_path / "levels"
        assert run(
            "gen", "--system", "duffing", "--regime", "constant", "--n", "2",
            "--seed", "60", "--horizon", "2.0", "--out", str(levels_dir),
        ) == 0
        out = trained["root"] / "cur"
        # wrong order: sinusoid (level >= 2) before constant (level 1)
        code = run(
            "train", "--system", "duffing", "--phase", "curriculum", "--base",
            str(trained["base"]), "--data", str(trained["forced"]), "--data",
            str(levels_dir / "duffing_constant_n2_s60.hkkl"), "--epochs", "1",
            "--out", str(out),
        )
        assert code == 2
        ini = trained["root"] / "cur.ini"
        ini.write_text("[curriculum]\nlevel_epochs = 4\n")
        code = run(
            "train", "--system", "duffing", "--phase", "curriculum", "--base",
            str(trained["base"]), "--data",
            str(levels_dir / "duffing_constant_n2_s60.hkkl"), "--data",
            str(trained["forced"]), "--epochs", "1", "--batch", "16",
            "--config", str(ini), "--seed", "5", "--out", str(out),
        )
        assert code == 0
        bundle = read_checkpoint(out / "duffing_curriculum.hkkp")
        assert bundle.variant == "curriculum"
        assert bundle.extra["level_transitions"] == [[1, 1], [2, 5]]


class TestEvalPlotReport:
    def test_eval_plot_report_pipeline(self, trained):
        out = trained["root"] / "eval"
        code = run(
            "eval", "--system", "duffing", "--checkpoint",
            f"autonomous={trained['base']}", "--regimes", "zero,sinusoid",
            "--n", "2", "--seed", "9000", "--horizon", "2.0",
            "--out", str(out),
        )
        assert code == 0
        csv = (out / "duffing_report.csv").read_text().splitlines()
        assert csv[0] == ("system,variant,regime,rmse,smape,rmse_std,n,"
                          "seed_lo,seed_hi")
        assert len(csv) == 3
        assert csv[1].startswith("duffing,autonomous,zero,")

        plots = trained["root"] / "plots"
        code = run(
            "plot", "--system", "duffing", "--checkpoint",
            f"autonomous={trained['base']}", "--regimes", "zero", "--seed",
            "9000", "--horizon", "2.0", "--out", str(plots),
        )
        assert code == 0
        svg = plots / "duffing_autonomous_zero.svg"
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")

        rep = trained["root"] / "rep"
        code = run("report", str(out / "duffing_report.csv"), "--out", str(rep))
        assert code == 0
        text = (rep / "report.md").read_text()
        assert "## duffing" in text
        assert "| autonomous |" in text

    def test_eval_refuses_seed_overlap(self, trained):
        out = trained["root"] / "overlap"
        code = run(
            "eval", "--system", "duffing", "--checkpoint",
            f"autonomous={trained['base']}", "--regimes", "zero", "--n", "2",
            "--seed", "2", "--horizon", "2.0", "--out", str(out),
        )
        assert code == 2

    def test_eval_refuses_another_dt(self, trained, capsys):
        assert read_checkpoint(trained["base"]).dt == 0.05
        out = trained["root"] / "dt"
        capsys.readouterr()
        code = run(
            "eval", "--system", "duffing", "--checkpoint",
            f"autonomous={trained['base']}", "--regimes", "zero", "--n", "1",
            "--seed", "9000", "--horizon", "2.0", "--dt", "0.01",
            "--out", str(out),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint ")
        assert "trained at dt 0.05, not at dt 0.01" in err
        assert not out.exists()

    def test_eval_refuses_another_system(self, trained, capsys):
        out = trained["root"] / "vdp"
        capsys.readouterr()
        code = run(
            "eval", "--system", "vanderpol", "--checkpoint",
            f"autonomous={trained['base']}", "--regimes", "zero", "--n", "1",
            "--seed", "9000", "--horizon", "2.0", "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: checkpoint {trained['base']} was trained on duffing, "
            "not vanderpol\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "plot"])
    def test_a_repeated_variant_is_refused(self, trained, capsys, command):
        # two checkpoints of one variant would score only the last one
        out = trained["root"] / "twice"
        capsys.readouterr()
        code = run(
            command, "--system", "duffing",
            "--checkpoint", f"autonomous={trained['base']}",
            "--checkpoint", f"autonomous={trained['base']}",
            "--regimes", "zero", "--horizon", "2.0", "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --checkpoint names variant 'autonomous' twice\n")
        assert not out.exists()

    @pytest.mark.parametrize("text, line, why", [
        pytest.param("system,variant,regime,rmse\nduffing,autonomous,zero,1\n",
                     1, "no smape column", id="no-smape"),
        pytest.param("system,variant,regime,rmse,smape\n"
                     "duffing,autonomous,zero,1,2\nduffing,static,zero,1\n",
                     3, "4 fields, the header has 5", id="short-row"),
        pytest.param("system,variant,regime,rmse,smape\n"
                     "duffing,autonomous,zero,low,2\n",
                     2, "rmse 'low' is not a number", id="word-rmse"),
        pytest.param("system,variant,regime,rmse,smape\n"
                     "duffing,autonomous,zero,1,\n",
                     2, "smape '' is not a number", id="empty-smape"),
    ])
    def test_report_refuses_a_bad_csv(self, tmp_path, capsys, text, line,
                                      why):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        out = tmp_path / "rep"
        assert run("report", str(bad), "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: report CSV {bad} line {line}: {why}\n")
        assert not out.exists()

    def test_report_refuses_a_csv_that_is_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"system,variant,regime,rmse,smape\n"
                        b"duffing,autonomous,zero,1,2\xff\n")
        out = tmp_path / "rep"
        assert run("report", str(bad), "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: report CSV {bad} is not UTF-8 text: invalid start byte\n")
        assert not out.exists()

    def test_report_shows_the_first_row_of_a_cell(self, tmp_path):
        csv = tmp_path / "r.csv"
        csv.write_text("system,variant,regime,rmse,smape\n"
                       "duffing,static,zero,0.5,1\n"
                       "duffing,autonomous,sinusoid,0.25,2\n"
                       "duffing,static,zero,9,9\n")
        assert run("report", str(csv), "--out", str(tmp_path)) == 0
        assert (tmp_path / "report.md").read_text() == (
            "# State-estimation benchmark\n\n## duffing\n\n"
            "| method | sinusoid | zero |\n|---|---|---|\n"
            "| autonomous | 0.25 (2%) | - |\n| static | - | 0.5 (1%) |\n\n")

    def test_eval_refuses_a_repeated_regime(self, trained, capsys):
        # two cells of one regime would be scored twice and reported once
        out = trained["root"] / "twice"
        code = exit_code(
            "eval", "--system", "duffing", "--checkpoint",
            f"autonomous={trained['base']}", "--regimes", "zero,zero",
            "--out", str(out))
        assert code == 2
        assert ("--regimes: must be a comma list that repeats no name, got "
                "'zero,zero'") in capsys.readouterr().err
        assert not out.exists()

    def test_eval_needs_checkpoints(self, trained):
        assert run("eval", "--system", "duffing") == 2

    def test_bad_checkpoint_spec(self, trained):
        assert run(
            "eval", "--system", "duffing", "--checkpoint", "nonsense",
        ) == 2

    @pytest.mark.parametrize("existing", [False, True])
    def test_plot_writes_no_partial_plot_set(self, trained, monkeypatch,
                                             capsys, existing):
        # the third of three cells fails: the first two are estimated but
        # no SVG is written, and no --out directory is made
        real, calls = evaluation.run_observer, []

        def third_fails(bundle, runs):
            calls.append(bundle.variant)
            if len(calls) == 3:
                raise NumericError("non-finite estimate in run 0 at step 7")
            return real(bundle, runs)

        monkeypatch.setattr(evaluation, "run_observer", third_fails)
        out = trained["root"] / "plots"
        if existing:
            out.mkdir()
        capsys.readouterr()
        code = run(
            "plot", "--system", "duffing", "--checkpoint",
            f"autonomous={trained['base']}", "--regimes",
            "zero,constant,sinusoid", "--seed", "9000", "--horizon", "2.0",
            "--out", str(out),
        )
        assert code == 3
        assert capsys.readouterr().err == (
            "numeric failure: non-finite estimate in run 0 at step 7\n")
        assert len(calls) == 3
        assert (list(out.iterdir()) == []) if existing else not out.exists()

    @pytest.mark.parametrize("command", ["eval", "plot"])
    def test_seed_overlap_is_refused_before_any_test_set(
            self, trained, monkeypatch, capsys, command):
        # the base trained on seeds 1..4; at --seed 0 with one run per
        # regime, the second regime's test set is seed 1
        forbid_cells(monkeypatch)
        out = trained["root"] / "overlap"
        capsys.readouterr()
        code = run(
            command, "--system", "duffing", "--checkpoint",
            f"autonomous={trained['base']}", "--regimes", "zero,sinusoid",
            "--seed", "0", "--horizon", "2.0", "--out", str(out),
            *(["--n", "1"] if command == "eval" else []),
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: test seeds (1, 1) overlap training seeds (1, 4)\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "plot"])
    def test_test_seeds_past_2_64_are_refused_before_any_test_set(
            self, trained, monkeypatch, capsys, command):
        # the second regime's run would take seed 2^64
        forbid_cells(monkeypatch)
        out = trained["root"] / "past"
        top = 2**64 - 1
        capsys.readouterr()
        code = run(
            command, "--system", "duffing", "--checkpoint",
            f"autonomous={trained['base']}", "--regimes", "zero,sinusoid",
            "--seed", str(top), "--horizon", "2.0", "--out", str(out),
            *(["--n", "1"] if command == "eval" else []),
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: seeds [{top}, {top + 2}) do not lie in [0, 2^64)\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "plot"])
    @pytest.mark.parametrize("bad", ["variant", "missing", "seeds"])
    def test_a_bad_second_checkpoint_is_refused_before_any_test_set(
            self, trained, monkeypatch, capsys, command, bad):
        base, root = trained["base"], trained["root"]
        later = root / "later.hkkp"  # a curriculum bundle on test seeds
        write_checkpoint(dataclasses.replace(
            read_checkpoint(base), variant="curriculum",
            train_seed_range=(9000, 9000)), later)
        second, message = {
            "variant": (f"static={base}",
                        f"checkpoint {base} holds variant 'autonomous', "
                        "requested 'static'"),
            "missing": (f"dynamic={root / 'none.hkkp'}",
                        f"checkpoint not found: {root / 'none.hkkp'}"),
            "seeds": (f"curriculum={later}",
                      "test seeds (9000, 9000) overlap training seeds "
                      "(9000, 9000)"),
        }[bad]
        forbid_cells(monkeypatch)
        out = root / "second"
        capsys.readouterr()
        code = run(
            command, "--system", "duffing", "--checkpoint",
            f"autonomous={base}", "--checkpoint", second, "--regimes",
            "zero", "--seed", "9000", "--horizon", "2.0", "--out", str(out),
            *(["--n", "1"] if command == "eval" else []),
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def forbid_cells(monkeypatch):
    """Fail the test if a test set is built or a cell runs."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a test set or a cell ran before the checks")

    monkeypatch.setattr(evaluation, "generate_dataset", forbidden)
    monkeypatch.setattr(evaluation, "run_observer", forbidden)


class TestDamagedFiles:
    """Cut or padded files exit 2 with the byte offset, never a traceback."""

    @staticmethod
    def damage(src, dst, cut=None, extra=b""):
        blob = src.read_bytes()
        dst.write_bytes((blob if cut is None else blob[:cut]) + extra)
        return dst

    @pytest.mark.parametrize("cut, extra, offset", [
        pytest.param(300, b"", "byte 300", id="truncated"),
        pytest.param(None, b"\x00" * 4, "4 trailing bytes", id="trailing"),
    ])
    def test_dataset(self, gen_dir, tmp_path, capsys, cut, extra, offset):
        bad = self.damage(gen_dir / "duffing_zero_n4_s1.hkkl",
                          tmp_path / "bad.hkkl", cut, extra)
        code = run(
            "train", "--system", "duffing", "--phase", "1", "--data",
            str(bad), "--epochs", "1", "--out", str(tmp_path / "x"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert str(bad) in err and offset in err

    def test_dataset_signal_component_count(self, trained, capsys):
        # the first sinusoid descriptor says K = 0, the file length to match
        blob = trained["forced"].read_bytes()
        at = 4 + 2 + 2 + 7 + 6 + 24 + 12 + 2 + len("sinusoid")
        assert blob[at + 1] == 1
        bad = trained["root"] / "k0.hkkl"
        bad.write_bytes(blob[:at + 1] + b"\x00" + blob[at + 2 : at + 10]
                        + blob[at + 34 :])
        out = trained["root"] / "k0"
        code = run(
            "train", "--system", "duffing", "--phase", "2", "--variant",
            "static", "--base", str(trained["base"]), "--data", str(bad),
            "--epochs", "1", "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: at byte offset {at}, sinusoid signal has 0 "
            "components, needs 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("dt", [0.0, float("nan")])
    def test_dataset_header_dt(self, gen_dir, tmp_path, capsys, dt):
        blob = bytearray((gen_dir / "duffing_zero_n4_s1.hkkl").read_bytes())
        # after the magic, the version, the name length, "duffing" and n_x,
        # n_y, m
        struct.pack_into("<d", blob, 4 + 2 + 2 + 7 + 6, dt)
        bad = tmp_path / "bad.hkkl"
        bad.write_bytes(bytes(blob))
        code = run(
            "train", "--system", "duffing", "--phase", "1", "--data",
            str(bad), "--epochs", "1", "--out", str(tmp_path / "x"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == (f"error: {bad}: dt and horizon must be finite and "
                       f"positive, got dt {dt!r}, horizon 2.0\n")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("cut, extra, offset", [
        pytest.param(100, b"", "byte 100", id="truncated"),
        pytest.param(None, b"\x00" * 4, "4 trailing bytes", id="trailing"),
    ])
    def test_checkpoint(self, trained, capsys, cut, extra, offset):
        bad = self.damage(trained["base"], trained["root"] / "bad.hkkp",
                          cut, extra)
        code = run(
            "eval", "--system", "duffing", "--checkpoint", f"autonomous={bad}",
            "--regimes", "zero", "--n", "1", "--seed", "9000", "--horizon",
            "1.0", "--out", str(trained["root"] / "ev"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert str(bad) in err and offset in err

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda m: {k: v for k, v in m.items() if k != "n_x"},
                     "key 'n_x' must be an integer", id="no-n_x"),
        pytest.param(lambda m: {**m, "enc_hidden": "abc"},
                     "key 'enc_hidden' must be a list of integers",
                     id="enc_hidden-word"),
        pytest.param(lambda m: {**m, "n_z": True},
                     "key 'n_z' must be an integer", id="n_z-boolean"),
        pytest.param(lambda m: {**m, "activation": 3},
                     "key 'activation' must be a string",
                     id="activation-number"),
        pytest.param(lambda m: {**m, "variant": "fancy"},
                     "key 'variant' must be one of autonomous, curriculum, "
                     "static, dynamic", id="unknown-variant"),
        pytest.param(lambda m: {**m, "f_scale": "1"},
                     "key 'f_scale' must be a finite number > 0",
                     id="f_scale-string"),
        # the residual divides by f_scale; an infinite one zeroes the PDE
        # loss
        *(pytest.param(lambda m, v=v: {**m, "f_scale": v},
                       "key 'f_scale' must be a finite number > 0",
                       id=f"f_scale-{v}")
          for v in (0.0, -1.0, float("nan"), float("inf"))),
        pytest.param(lambda m: {**m, "dt": [0.05]},
                     "key 'dt' must be a number or null", id="dt-list"),
        pytest.param(lambda m: {**m, "train_seed_range": [1, 2, 3]},
                     "key 'train_seed_range' must be two integers",
                     id="three-seeds"),
        # every train records its seeds; a file without them is refused
        pytest.param(lambda m: {**m, "train_seed_range": None},
                     "key 'train_seed_range' must be two integers",
                     id="null-seeds"),
        pytest.param(lambda m: {**m, "hyper": {"window": 6}},
                     "key 'hyper.lstm_hidden' must be an integer",
                     id="hyper-incomplete"),
        pytest.param(lambda m: {**m, "injection": []},
                     "key 'injection' must be a JSON object",
                     id="injection-list"),
        pytest.param(lambda m: [m], "must be a JSON object", id="a-list"),
    ])
    def test_checkpoint_metadata(self, trained, capsys, edit, message):
        bad = self.edit_meta(trained["base"], trained["root"] / "meta.hkkp",
                             edit)
        out = trained["root"] / "ev"
        assert self.evaluate("autonomous", bad, out) == 2
        assert capsys.readouterr().err == f"error: {bad}: metadata {message}\n"
        assert not out.exists()

    @staticmethod
    def edit_meta(src, dst, edit):
        blob = src.read_bytes()
        (size,) = struct.unpack_from("<I", blob, 6)
        text = json.dumps(edit(json.loads(blob[10 : 10 + size]))).encode()
        dst.write_bytes(blob[:6] + struct.pack("<I", len(text)) + text
                        + blob[10 + size :])
        return dst

    @staticmethod
    def evaluate(variant, checkpoint, out):
        return run(
            "eval", "--system", "duffing", "--checkpoint",
            f"{variant}={checkpoint}", "--regimes", "zero", "--n", "1",
            "--seed", "9000", "--horizon", "1.0", "--out", str(out),
        )

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda m: {**m, "n_x": 3},
                     "stored enc. slice 0 is enc.W0 (8, 2), the metadata "
                     "implies enc.W0 (8, 3)", id="n_x-over-other-weights"),
        pytest.param(lambda m: {**m, "enc_hidden": [8, 8, 8]},
                     "stored enc. slice 4 is enc.W2 (5, 8), the metadata "
                     "implies enc.W2 (8, 8)", id="extra-hidden-layer"),
        pytest.param(lambda m: {**m, "enc_hidden": [8]},
                     "stored enc. slice 2 is enc.W1 (8, 8), the metadata "
                     "implies enc.W1 (5, 8)", id="missing-hidden-layer"),
        pytest.param(lambda m: {**m, "n_y": 2},
                     "stored obs. slice 1 is obs.B (5, 1), the metadata "
                     "implies obs.B (5, 2)", id="n_y-over-the-gain"),
    ])
    def test_checkpoint_weights_follow_the_metadata(self, trained, capsys,
                                                    edit, message):
        # the weights are for n_x 2, enc_hidden [8, 8] and n_z 5
        bad = self.edit_meta(trained["base"], trained["root"] / "meta.hkkp",
                             edit)
        out = trained["root"] / "ev"
        assert self.evaluate("autonomous", bad, out) == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("edit, reason", [
        pytest.param(lambda m: {**m, "n_z": 0}, "MLP widths must be positive",
                     id="n_z-0"),
        pytest.param(lambda m: {**m, "enc_hidden": [0, 8]},
                     "MLP widths must be positive", id="hidden-width-0"),
        pytest.param(lambda m: {**m, "activation": "foo"},
                     "unknown activation 'foo'", id="unknown-activation"),
    ])
    def test_checkpoint_maps_the_metadata_cannot_make(self, trained, capsys,
                                                      edit, reason):
        bad = self.edit_meta(trained["base"], trained["root"] / "meta.hkkp",
                             edit)
        out = trained["root"] / "ev"
        assert self.evaluate("autonomous", bad, out) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: metadata keys 'n_x', 'n_z', 'enc_hidden', "
            f"'activation': {reason}\n")
        assert not out.exists()

    @pytest.mark.parametrize("sign_a, gain_b, reason", [
        pytest.param(-1.0, 1.0, "A is not Hurwitz (spectral abscissa 5)",
                     id="unstable-A"),
        pytest.param(1.0, 0.0, "(A, B) not controllable (rank 0 < 5)",
                     id="zero-B"),
    ])
    def test_checkpoint_observer_pair_is_verified(self, trained, capsys,
                                                  sign_a, gain_b, reason):
        bundle = read_checkpoint(trained["base"])
        bad = trained["root"] / "obs.hkkp"
        raw_checkpoint(bad, meta_of(trained["base"]),
                       slices_of(bundle.theta, bundle.phi) + [
                           ("obs.A", sign_a * bundle.obs.A),
                           ("obs.B", gain_b * bundle.obs.B)])
        out = trained["root"] / "ev"
        assert self.evaluate("autonomous", bad, out) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: stored obs.A and obs.B: {reason}\n")
        assert not out.exists()

    def test_checkpoint_without_an_observer_block(self, trained, capsys):
        # θ and φ as written, obs.A and obs.B left out and the value count
        # with them; the observer block is read against its implied slices
        blob = trained["base"].read_bytes()
        (size,) = struct.unpack_from("<I", blob, 6)
        bundle = read_checkpoint(trained["base"])
        bad = trained["root"] / "no_obs.hkkp"
        raw_checkpoint(bad, json.loads(blob[10 : 10 + size]), [
            (s.name, store.get(s.name)) for store in (bundle.theta, bundle.phi)
            for s in store.layout.slices])
        out = trained["root"] / "ev"
        assert self.evaluate("autonomous", bad, out) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: stored obs. slice 0 is none, the metadata "
            "implies obs.A (5, 5)\n")
        assert not out.exists()

    def test_injection_block_follows_the_metadata(self, trained, capsys):
        ini = trained["root"] / "stat.ini"
        ini.write_text(
            "[train]\nsegment_steps = 20\nsegment_discard = 5\n"
            "[hypernet]\nwindow = 6\nlstm_hidden = 4\ninj_hidden = 8\n"
        )
        assert run(
            "train", "--system", "duffing", "--phase", "2", "--variant",
            "static", "--base", str(trained["base"]), "--data",
            str(trained["forced"]), "--epochs", "1", "--config", str(ini),
            "--seed", "4", "--out", str(trained["root"] / "st"),
        ) == 0
        bad = self.edit_meta(
            trained["root"] / "st" / "duffing_static.hkkp",
            trained["root"] / "inj.hkkp",
            lambda m: {**m, "injection": {**m["injection"], "mlp_hidden": [9]}},
        )
        out = trained["root"] / "ev"
        assert self.evaluate("static", bad, out) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: stored inj. block holds 221 values, its spec "
            f"needs 236\n")
        assert not out.exists()

    def test_checkpoint_count_past_the_end(self, trained, capsys):
        # the u64 value count just before the data, set to 2^60
        bundle = read_checkpoint(trained["base"])
        total = sum(a.size for a in (bundle.theta.data, bundle.phi.data,
                                     bundle.obs.A, bundle.obs.B))
        blob = bytearray(trained["base"].read_bytes())
        struct.pack_into("<Q", blob, len(blob) - 8 * total - 8, 2**60)
        bad = trained["root"] / "huge.hkkp"
        bad.write_bytes(bytes(blob))
        code = run(
            "eval", "--system", "duffing", "--checkpoint", f"autonomous={bad}",
            "--regimes", "zero", "--n", "1", "--seed", "9000", "--horizon",
            "1.0", "--out", str(trained["root"] / "ev"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"truncated at byte {len(blob)}: {8 * 2**60} bytes needed" in err


def meta_of(path) -> dict:
    blob = path.read_bytes()
    (size,) = struct.unpack_from("<I", blob, 6)
    return json.loads(blob[10 : 10 + size])


def slices_of(*stores):
    return [(s.name, store.get(s.name)) for store in stores
            for s in store.layout.slices]


@pytest.fixture
def conditioned(trained):
    """Static and dynamic bundles on the trained base, with freshly
    initialized conditioning (written, not trained), and their paths
    under ``<variant>_path``."""
    base = read_checkpoint(trained["base"])
    made = {"static": (build_injection_spec(base.maps.n_z, window=6,
                                            lstm_hidden=4, mlp_hidden=(8,)),
                       init_injection_params),
            "dynamic": (build_hypernet_spec(base.maps, window=6,
                                            lstm_hidden=4, rank=2),
                        init_hypernet_params)}
    out = {}
    for variant, (spec, init) in made.items():
        path = trained["root"] / f"{variant}.hkkp"
        out[variant] = dataclasses.replace(base, variant=variant, spec=spec,
                                           params=init(spec, 4))
        write_checkpoint(out[variant], path)
        out[f"{variant}_path"] = path
    return out


def refusal(command, variant, path, trained, capsys) -> str:
    """``command`` run on the checkpoint at ``path``, which it must refuse
    with exit 2, one error line and no output; that line."""
    out = trained["root"] / "out"
    common = ["--system", "duffing", "--out", str(out)]
    if command in ("eval", "plot"):
        argv = [command, *common, "--checkpoint", f"{variant}={path}",
                "--regimes", "zero", "--seed", "9000", "--horizon", "1.0"]
    else:  # the train commands that read a base
        phase = (["--phase", "curriculum"] if command == "curriculum" else
                 ["--phase", "2", "--variant", command])
        argv = ["train", *common, *phase, "--base", str(path), "--data",
                str(trained["forced"]), "--epochs", "1", "--window", "6"]
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not out.exists()
    return err


COMMANDS = ["eval", "plot", "static", "dynamic", "curriculum"]


class TestConditioningMetadata:
    """A checkpoint carries its variant's conditioning and no other, at
    its system's dimensions; each command that reads one refuses it
    otherwise, naming the file and the metadata key."""

    @pytest.mark.parametrize("variant, key, value, message", [
        ("static", "tau", float("nan"),
         "tau must be finite and positive, got nan"),
        ("static", "window", 0, "window must be >= 1"),
        ("dynamic", "rank", 0, "rank must be >= 1"),
        ("static", "mlp_hidden", [], "MLP needs at least one hidden layer"),
    ])
    def test_a_spec_refusal_names_the_file(self, trained, conditioned, capsys,
                                           variant, key, value, message):
        meta_key = {"static": "injection", "dynamic": "hyper"}[variant]
        bad = TestDamagedFiles.edit_meta(
            conditioned[f"{variant}_path"], trained["root"] / "bad.hkkp",
            lambda m: {**m, meta_key: {**m[meta_key], key: value}})
        assert refusal("eval", variant, bad, trained, capsys) == (
            f"error: {bad}: metadata key {meta_key!r}: {message}\n")

    @pytest.mark.parametrize("source, variant, key, need", [
        ("base", "autonomous", "hyper", "absent"),
        ("base", "autonomous", "injection", "absent"),
        ("base", "curriculum", "hyper", "absent"),
        ("base", "curriculum", "injection", "absent"),
        ("static", "static", "hyper", "absent"),
        ("dynamic", "dynamic", "injection", "absent"),
        ("static", "static", "injection", "given"),
        ("dynamic", "dynamic", "hyper", "given"),
    ])
    def test_conditioning_key_follows_the_variant(
            self, trained, conditioned, capsys, source, variant, key, need):
        settings = {"injection": conditioned["static"].spec.settings(),
                    "hyper": conditioned["dynamic"].spec.settings()}

        def edit(meta):
            meta = {**meta, "variant": variant}
            if need == "given":
                del meta[key]
            else:
                meta[key] = settings[key]
            return meta

        src = trained["base"] if source == "base" else conditioned[
            f"{source}_path"]
        bad = TestDamagedFiles.edit_meta(src, trained["root"] / "bad.hkkp",
                                         edit)
        assert refusal("eval", variant, bad, trained, capsys) == (
            f"error: {bad}: metadata key {key!r} must be {need} for variant "
            f"{variant}\n")

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("variant", ["autonomous", "static"])
    def test_a_checkpoint_carrying_another_network_is_refused(
            self, trained, conditioned, capsys, variant, command):
        # an autonomous checkpoint with both networks, and a static one
        # with a hypernetwork too, each stored as the writer once laid
        # such files out: θ, φ, ψ, ξ, then the observer
        static, dynamic = conditioned["static"], conditioned["dynamic"]
        meta = {**meta_of(conditioned["static_path"]), "variant": variant,
                "hyper": dynamic.spec.settings()}
        stores = [static.theta, static.phi, dynamic.params, static.params]
        bad = trained["root"] / "both.hkkp"
        raw_checkpoint(bad, meta, slices_of(*stores) + [
            ("obs.A", static.obs.A), ("obs.B", static.obs.B)])
        key = "injection" if variant == "autonomous" else "hyper"
        assert refusal(command, variant, bad, trained, capsys) == (
            f"error: {bad}: metadata key {key!r} must be absent for variant "
            f"{variant}\n")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_dimensions_of_another_system_are_refused(self, trained, capsys,
                                                      command):
        # a self-consistent checkpoint for a 3-state system, labelled duffing
        obs = build_observer_matrices(3, 1)
        maps = make_maps(3, obs.n_z, hidden=(8,))
        base = read_checkpoint(trained["base"])
        bad = trained["root"] / "n_x3.hkkp"
        write_checkpoint(dataclasses.replace(
            base, maps=maps, obs=obs, theta=init_encoder(maps, 1),
            phi=init_decoder(maps, 1)), bad)
        assert refusal(command, "autonomous", bad, trained, capsys) == (
            f"error: {bad}: metadata key 'n_x' is 3, system duffing takes "
            "2\n")


@pytest.mark.parametrize("command", ["eval", "plot"])
def test_a_checkpoint_replaced_after_its_read_is_refused(
        trained, conditioned, monkeypatch, capsys, command):
    # The observer read leaves the decoder head's U in the file. Here the
    # file is written again, to the same bytes, after the cell read it and
    # before its decode: a new file, whose rows the cell must not take.
    path = conditioned["dynamic_path"]
    real = evaluation.run_observer

    def rewrite_then_run(bundle, runs):
        write_checkpoint(conditioned["dynamic"], path)
        return real(bundle, runs)

    monkeypatch.setattr(evaluation, "run_observer", rewrite_then_run)
    out = trained["root"] / "out"
    capsys.readouterr()
    code = run(command, "--system", "duffing", "--checkpoint",
               f"dynamic={path}", "--regimes", "sinusoid", "--seed", "9000",
               "--horizon", "1.0", "--out", str(out),
               *(["--n", "1"] if command == "eval" else []))
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {path}: the checkpoint changed after it was read\n")
    assert not out.exists()


SRC = Path(__file__).resolve().parent.parent / "src"

# Runs ``setup``, then main(argv) as the CLI does.
CHILD = """
import signal, sys
{setup}
from hyperkkl.cli import main
sys.exit(main(sys.argv[1:]))
"""

# Says "training" on stdout when phase 1 starts. SIGINT raises
# KeyboardInterrupt, as in a terminal, even when the test runs where
# SIGINT is ignored (a background job).
ANNOUNCE = """
signal.signal(signal.SIGINT, signal.default_int_handler)
from hyperkkl import training
phase1_train = training.phase1_train
def announced(*args, **kwargs):
    print("training", flush=True)
    return phase1_train(*args, **kwargs)
training.phase1_train = announced
"""

# Raises KeyboardInterrupt where an eval or plot starts its second cell,
# as Ctrl-C there would.
SECOND_CELL_INTERRUPTED = """
from hyperkkl import evaluation
run_observer, cells = evaluation.run_observer, []
def interrupted(bundle, runs):
    cells.append(bundle.variant)
    if len(cells) == 2:
        raise KeyboardInterrupt
    return run_observer(bundle, runs)
evaluation.run_observer = interrupted
"""

# Raises KeyboardInterrupt where a command's first staged output is
# complete, just before it would replace its file, as Ctrl-C there would.
WRITE_INTERRUPTED = """
import contextlib
from hyperkkl import binfile
replacing = binfile.replacing
@contextlib.contextmanager
def interrupted(path):
    with replacing(path) as fh:
        yield fh
        raise KeyboardInterrupt
binfile.replacing = interrupted
"""

def file_limit(size):
    """A limit of ``size`` bytes on any file the child writes; past it a
    write fails with EFBIG rather than end the process."""
    return f"""
import resource
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, ({size}, {size}))
"""


def spawn(setup, *argv, cwd):
    return subprocess.Popen(
        [sys.executable, "-c", CHILD.format(setup=setup), *argv], cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(SRC)), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)


def phase1_argv(gen_dir, out, *more):
    return ("train", "--system", "duffing", "--phase", "1", "--data",
            str(gen_dir / "duffing_zero_n4_s1.hkkl"), "--batch", "16",
            "--out", str(out), *more)


class TestProcessEnds:
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_a_signal_ends_a_run_in_one_line(self, gen_dir, tmp_path,
                                             signum):
        out = tmp_path / "ck"
        child = spawn(ANNOUNCE, *phase1_argv(
            gen_dir, out, "--epochs", str(10**9), "--hidden", "8,8"),
            cwd=tmp_path)
        try:
            assert child.stdout.readline() == "training\n"
            child.send_signal(signum)
            _, err = child.communicate(timeout=60)
        finally:
            child.kill()
        assert child.returncode == 130
        assert err == "interrupted\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "plot"])
    def test_an_interrupt_in_the_second_cell_writes_nothing(
            self, trained, tmp_path, command):
        out = tmp_path / command
        out.mkdir()
        child = spawn(
            SECOND_CELL_INTERRUPTED, command, "--system", "duffing",
            "--checkpoint", f"autonomous={trained['base']}", "--regimes",
            "zero,sinusoid", "--seed", "9000", "--horizon", "1.0", "--out",
            str(out), *(["--n", "1"] if command == "eval" else []),
            cwd=tmp_path)
        _, err = child.communicate(timeout=120)
        assert child.returncode == 130
        assert err == "interrupted\n"
        assert list(out.iterdir()) == []

    def test_a_failed_overwrite_keeps_the_checkpoint(self, gen_dir,
                                                     tmp_path):
        out = tmp_path / "ck"
        argv = phase1_argv(gen_dir, out, "--epochs", "1", "--hidden",
                           "300,300")
        assert run(*argv, "--seed", "3") == 0
        path = out / "duffing_phase1.hkkp"
        good = path.read_bytes()
        assert len(good) > 2**20
        child = spawn(file_limit(2**20), *argv, "--seed", "4", cwd=tmp_path)
        _, err = child.communicate(timeout=120)
        assert child.returncode == 4
        assert err == "i/o failure: [Errno 27] File too large\n"
        assert path.read_bytes() == good
        assert not [p for p in out.iterdir() if p.suffix == ".partial"]

    def test_a_failed_overwrite_keeps_the_loss_csv(self, gen_dir, tmp_path):
        # the 1.7 KB checkpoint fits under the limit, the 22 KB loss CSV
        # of 200 epochs does not; the two are replaced as a pair, so the
        # old checkpoint stays beside the old CSV
        out = tmp_path / "ck"
        argv = phase1_argv(gen_dir, out, "--epochs", "200", "--hidden", "4,4")
        assert run(*argv, "--seed", "3") == 0
        path = out / "duffing_phase1_loss.csv"
        ckpt = out / "duffing_phase1.hkkp"
        good, good_ckpt = path.read_bytes(), ckpt.read_bytes()
        assert len(good_ckpt) < 8192 < len(good)
        child = spawn(file_limit(8192), *argv, "--seed", "4", cwd=tmp_path)
        _, err = child.communicate(timeout=120)
        assert child.returncode == 4
        assert err == "i/o failure: [Errno 27] File too large\n"
        assert path.read_bytes() == good
        assert ckpt.read_bytes() == good_ckpt
        assert not [p for p in out.iterdir() if p.suffix == ".partial"]

    def test_a_failed_overwrite_keeps_the_eval_report(self, trained,
                                                      tmp_path):
        out = tmp_path / "eval"
        argv = ("eval", "--system", "duffing", "--checkpoint",
                f"autonomous={trained['base']}", "--regimes",
                "zero,constant,sinusoid", "--n", "1", "--horizon", "1.0",
                "--out", str(out))
        assert run(*argv, "--seed", "9000") == 0
        path = out / "duffing_report.csv"
        good = path.read_bytes()
        assert len(good) > 300
        child = spawn(file_limit(300), *argv, "--seed", "9100", cwd=tmp_path)
        _, err = child.communicate(timeout=120)
        assert child.returncode == 4
        assert err == "i/o failure: [Errno 27] File too large\n"
        assert path.read_bytes() == good
        assert not [p for p in out.iterdir() if p.suffix == ".partial"]

    def test_a_failed_manifest_append_keeps_the_manifest(self, tmp_path):
        # the dataset fits under the limit, the second record does not
        out = tmp_path / "data"
        argv = ("gen", "--system", "duffing", "--regime", "zero", "--n", "1",
                "--seed", "1", "--horizon", "0.1", "--out", str(out))
        assert run(*argv) == 0
        manifest = out / MANIFEST_NAME
        good = manifest.read_bytes()
        child = spawn(file_limit(len(good) + 600), *argv, cwd=tmp_path)
        _, err = child.communicate(timeout=120)
        assert child.returncode == 4
        assert err == (f"i/o failure: {manifest}: short write of a manifest "
                       "record\n")
        assert manifest.read_bytes() == good

    @pytest.mark.parametrize("command", [
        "gen", "report", "static", "dynamic", "curriculum"])
    def test_an_interrupted_write_leaves_the_directory_as_it_was(
            self, trained, tmp_path, command):
        # each output directory already holds a manifest and outputs
        ini = tmp_path / "tiny.ini"
        ini.write_text(
            "[train]\nsegment_steps = 20\nsegment_discard = 5\n"
            "[hypernet]\nwindow = 6\nlstm_hidden = 4\ninj_hidden = 8\n"
            "[curriculum]\nlevel_epochs = 2\n")
        csv = tmp_path / "r.csv"
        csv.write_text("system,variant,regime,rmse,smape\n"
                       "duffing,autonomous,zero,0.5,1\n")
        data, ck = tmp_path / "data", trained["base"].parent
        train = ("train", "--system", "duffing", "--base",
                 str(trained["base"]), "--data", str(trained["forced"]),
                 "--epochs", "2", "--batch", "8", "--config", str(ini),
                 "--out", str(ck))
        out, argv = {
            "gen": (data, ("gen", "--system", "duffing", "--regime",
                           "sinusoid", "--n", "2", "--seed", "7", "--csv",
                           "--horizon", "1.0", "--out", str(data))),
            "report": (data, ("report", str(csv), "--out", str(data))),
            "static": (ck, (*train, "--phase", "2", "--variant", "static")),
            "dynamic": (ck, (*train, "--phase", "2", "--variant", "dynamic")),
            "curriculum": (ck, (*train, "--phase", "curriculum")),
        }[command]
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert MANIFEST_NAME in before
        child = spawn(WRITE_INTERRUPTED, *argv, cwd=tmp_path)
        _, err = child.communicate(timeout=120)
        assert child.returncode == 130
        assert err == "interrupted\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
