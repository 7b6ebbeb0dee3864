import json
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from hyperkkl.checkpoints import read_checkpoint
from hyperkkl.cli import main
from hyperkkl.config import load_config, resolve, system_defaults
from hyperkkl.data import read_dataset
from hyperkkl.errors import ConfigError
from hyperkkl.manifest import read_manifest


def run(*argv):
    return main(list(argv))


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


class TestGen:
    def test_writes_dataset_and_manifest(self, gen_dir):
        files = sorted(p.name for p in gen_dir.iterdir())
        assert "duffing_zero_n4_s1.hkkl" in files
        assert "run_manifest.jsonl" in files
        ds = read_dataset(gen_dir / "duffing_zero_n4_s1.hkkl")
        assert ds.count == 4
        for tr in ds.trajectories:
            assert np.all(tr.inputs == 0.0)
        records = read_manifest(gen_dir)
        assert len(records) == 1
        assert records[0]["command"] == "gen"
        assert records[0]["seeds"] == {"seed": 1}

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
        assert all(len(tr.signal.components) >= 2 for tr in ds.trajectories)

    def test_bad_flags_exit_2(self, tmp_path):
        assert run(
            "gen", "--system", "duffing", "--regime", "zero", "--n", "0",
            "--out", str(tmp_path),
        ) == 2


class TestTrain:
    def test_phase2_without_base_is_user_error(self, gen_dir, tmp_path):
        code = run(
            "train", "--system", "duffing", "--phase", "2", "--variant",
            "dynamic", "--data", str(gen_dir / "duffing_zero_n4_s1.hkkl"),
            "--out", str(tmp_path / "t"),
        )
        assert code == 2

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

    def test_config_flag_conflict_is_error(self, gen_dir, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[train]\nepochs = 7\n")
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
                                         section, key):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[{section}]\n{key} = 1\n")
        out = tmp_path / "x"
        code = run(
            "train", "--system", "duffing", "--phase", "1", "--data",
            str(gen_dir / "duffing_zero_n4_s1.hkkl"), "--epochs", "1",
            "--config", str(ini), "--out", str(out),
        )
        assert code == 2
        assert repr(key) in capsys.readouterr().err
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
        assert not out.exists()

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
        assert bundle.hyper_spec.enc_head.rank == 32  # oscillator default
        assert bundle.hyper_spec.window == 6
        # training seeds now span base + forced data
        assert bundle.train_seed_range == (1, 32)

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
        assert bundle.xi is not None

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
        assert csv[0] == "system,variant,regime,rmse,smape,n,seed_lo,seed_hi"
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

    def test_eval_needs_checkpoints(self, trained):
        assert run("eval", "--system", "duffing") == 2

    def test_bad_checkpoint_spec(self, trained):
        assert run(
            "eval", "--system", "duffing", "--checkpoint", "nonsense",
        ) == 2


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
