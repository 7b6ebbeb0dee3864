"""The benchmark's two workloads, as lists of ``hyperkkl`` CLI stages.

Each workload is the paper's pipeline (gen -> phase 1 -> conditioning ->
eval) on one system, at fixed small trajectory counts and epochs but the
shipped widths, window, rank, LSTM size, dt, horizon and noise level.
One integer workload seed fixes every ``--seed`` the stages pass.

Deliberate departures from the shipped defaults (see README.md):

* duffing static phase 2 runs with ``segment_batch = 1`` (config file);
  the default of 2 peaks at about 5.5 GB for one epoch.
* duffing dynamic phase 2 runs with ``--batch 128``; 256 holds about
  6.6 GB from the second epoch on.
* lorenz has no phase 2: its rank-128 hypernetwork (63.6 M parameters)
  does not fit the box; lorenz runs the curriculum baseline instead.
* lorenz curriculum runs with a reduced ``level_epochs`` (config file).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Stages that train after phase 1; their wall times add up to finetune_s.
FINETUNE_STAGES = ("static", "dynamic", "curriculum")
EVAL_REGIMES = ("zero", "constant", "sinusoid", "square")

# Seed blocks: workload seed s owns [SEED_BLOCK*s, SEED_BLOCK*(s+1)).
# Training data takes the low part of the block and the eval test sets
# the high part, so evaluate_cell never sees a train/test overlap.
SEED_BLOCK = 1000
TEST_SEED_OFFSET = 500
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Stage:
    """One CLI invocation and what its outputs must look like."""

    name: str                       # gen, pretrain, static, dynamic, curriculum, eval
    args: tuple                     # argv after the program name
    outputs: tuple = ()             # files that must exist afterwards
    loss_csv: str | None = None     # train stages: the loss log
    expected_rows: int | None = None  # None: derive from the plateau rule
    eval_csv: str | None = None     # eval stage: the report
    eval_variants: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    system: str
    build: Callable              # (workload, seed, work dir) -> [Stage]
    config_text: str
    curriculum: dict = field(default_factory=dict)  # level_epochs, patience, epsilon
    n_test: int = 1
    # Windows a static segment uses over windows it encodes, when it runs.
    static_context_ratio: float | None = None

    def stages(self, seed: int, work: Path) -> list:
        return self.build(self, seed, Path(work))


def seeds_for(seed: int) -> dict:
    """Every seed one workload seed maps to."""
    if seed < 0:
        raise ValueError("workload seed must be >= 0")
    base = SEED_BLOCK * seed
    return {
        "data": [base + 1 + 100 * i for i in range(3)],
        "train": 7 + seed,
        "test": base + TEST_SEED_OFFSET,
    }


def _gen(system, regime, n, seed, data_dir):
    path = data_dir / f"{system}_{regime}_n{n}_s{seed}.hkkl"
    return Stage(
        name="gen",
        args=("gen", "--system", system, "--regime", regime, "--n", str(n),
              "--seed", str(seed), "--out", str(data_dir)),
        outputs=(str(path),),
    ), path


def _eval(w: Workload, checkpoints: dict, seed: int, out: Path):
    args = ["eval", "--system", w.system, "--n", str(w.n_test),
            "--seed", str(seeds_for(seed)["test"]), "--out", str(out)]
    for variant, path in checkpoints.items():
        args += ["--checkpoint", f"{variant}={path}"]
    report = out / f"{w.system}_report.csv"
    return Stage(name="eval", args=tuple(args), outputs=(str(report),),
                 eval_csv=str(report), eval_variants=tuple(checkpoints))


DUFFING_N = 4
DUFFING_PRETRAIN_EPOCHS = 50
DUFFING_STATIC_EPOCHS = 2
DUFFING_DYNAMIC_EPOCHS = 2
DUFFING_DYNAMIC_BATCH = 128


def _duffing_stages(w: Workload, seed: int, work: Path) -> list:
    s = seeds_for(seed)
    data, ckpt = work / "data", work / "ckpt"
    config = work / "duffing.ini"
    g_zero, zero = _gen("duffing", "zero", DUFFING_N, s["data"][0], data)
    g_sin, sin = _gen("duffing", "sinusoid", DUFFING_N, s["data"][1], data)
    train = ("train", "--system", "duffing", "--seed", str(s["train"]),
             "--out", str(ckpt))
    phase1 = ckpt / "duffing_phase1.hkkp"
    static = ckpt / "duffing_static.hkkp"
    dynamic = ckpt / "duffing_dynamic.hkkp"
    return [
        g_zero,
        g_sin,
        Stage("pretrain",
              train + ("--phase", "1", "--data", str(zero),
                       "--epochs", str(DUFFING_PRETRAIN_EPOCHS)),
              outputs=(str(phase1),),
              loss_csv=str(ckpt / "duffing_phase1_loss.csv"),
              expected_rows=2 * DUFFING_PRETRAIN_EPOCHS),
        Stage("static",
              train + ("--config", str(config), "--phase", "2",
                       "--variant", "static", "--data", str(sin),
                       "--base", str(phase1),
                       "--epochs", str(DUFFING_STATIC_EPOCHS)),
              outputs=(str(static),),
              loss_csv=str(ckpt / "duffing_static_loss.csv"),
              expected_rows=DUFFING_STATIC_EPOCHS),
        Stage("dynamic",
              train + ("--phase", "2", "--variant", "dynamic",
                       "--data", str(sin), "--base", str(phase1),
                       "--epochs", str(DUFFING_DYNAMIC_EPOCHS),
                       "--batch", str(DUFFING_DYNAMIC_BATCH)),
              outputs=(str(dynamic),),
              loss_csv=str(ckpt / "duffing_dynamic_loss.csv"),
              expected_rows=DUFFING_DYNAMIC_EPOCHS),
        _eval(w, {"autonomous": phase1, "static": static,
                  "dynamic": dynamic}, seed, work / "eval"),
    ]


LORENZ_N = 10
LORENZ_PRETRAIN_EPOCHS = 30


def _lorenz_stages(w: Workload, seed: int, work: Path) -> list:
    s = seeds_for(seed)
    data, ckpt = work / "data", work / "ckpt"
    config = work / "lorenz.ini"
    g_zero, zero = _gen("lorenz", "zero", LORENZ_N, s["data"][0], data)
    g_const, const = _gen("lorenz", "constant", LORENZ_N, s["data"][1], data)
    g_mix, mix = _gen("lorenz", "mixture", LORENZ_N, s["data"][2], data)
    train = ("train", "--system", "lorenz", "--seed", str(s["train"]),
             "--out", str(ckpt))
    phase1 = ckpt / "lorenz_phase1.hkkp"
    curriculum = ckpt / "lorenz_curriculum.hkkp"
    return [
        g_zero,
        g_const,
        g_mix,
        Stage("pretrain",
              train + ("--phase", "1", "--data", str(zero),
                       "--epochs", str(LORENZ_PRETRAIN_EPOCHS)),
              outputs=(str(phase1),),
              loss_csv=str(ckpt / "lorenz_phase1_loss.csv"),
              expected_rows=2 * LORENZ_PRETRAIN_EPOCHS),
        Stage("curriculum",
              train + ("--config", str(config), "--phase", "curriculum",
                       "--data", str(const), "--data", str(mix),
                       "--base", str(phase1)),
              outputs=(str(curriculum),),
              loss_csv=str(ckpt / "lorenz_curriculum_loss.csv"),
              expected_rows=None),
        _eval(w, {"autonomous": phase1, "curriculum": curriculum}, seed,
              work / "eval"),
    ]


# level_epochs at the shipped patience: the plateau rule needs patience + 1
# losses, so every seed runs the same 2 x 10 epochs and the stage's work
# does not depend on the seed.
LORENZ_CURRICULUM = {"level_epochs": 10, "patience": 10, "epsilon": 0.01}

WORKLOADS = {
    "duffing-conditioned": Workload(
        name="duffing-conditioned",
        system="duffing",
        build=_duffing_stages,
        config_text="[train]\nsegment_batch = 1\n",
        n_test=1,
        # 120-step segments of a 1001-sample trajectory (50 s at dt 0.05).
        static_context_ratio=120 / 1001,
    ),
    "lorenz-curriculum": Workload(
        name="lorenz-curriculum",
        system="lorenz",
        build=_lorenz_stages,
        config_text=("[curriculum]\n"
                     f"level_epochs = {LORENZ_CURRICULUM['level_epochs']}\n"),
        curriculum=LORENZ_CURRICULUM,
        n_test=2,
    ),
}
