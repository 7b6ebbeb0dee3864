"""Command-line entry point.

Subcommands: gen (datasets), train (all phases), eval (benchmark grid),
plot (per-cell SVG time series), report (markdown grid from eval CSVs).
Every command writes a manifest next to its outputs; re-running the argv
recorded there reproduces every output byte for byte.

Exit codes: 0 success, 2 user error, 3 numeric failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import config as cfg
from . import training
from .checkpoints import (
    VARIANTS,
    CheckpointBundle,
    read_checkpoint,
    write_checkpoint,
)
from .data import generate_dataset, read_dataset, trajectory_to_csv, write_dataset
from .dynamics import SYSTEM_NAMES, get_system
from .errors import ConfigError, ContractViolation, NumericError
from .evaluation import REGIMES, benchmark, run_observer
from .hypernet import build_hypernet_spec, build_injection_spec
from .kkl import build_observer_matrices, init_map_params, make_maps
from .manifest import append_manifest
from .plots import plot_name, svg_timeseries
from .signals import KINDS, difficulty_level


def _load_cfg(args) -> dict:
    return cfg.load_config(args.config) if args.config else {}


def _get(conf, section, key):
    return conf.get(section, {}).get(key)


def _resolve_data_settings(args, conf):
    d = cfg.DEFAULTS["data"]
    return {
        "dt": cfg.resolve("dt", getattr(args, "dt", None),
                          _get(conf, "data", "dt"), d["dt"]),
        "horizon": cfg.resolve("horizon", getattr(args, "horizon", None),
                               _get(conf, "data", "horizon"), d["horizon"]),
        "sigma": cfg.resolve("sigma", getattr(args, "sigma", None),
                             _get(conf, "data", "sigma"), d["sigma"]),
    }


def _write_loss_csv(path, rows) -> None:
    with open(path, "w") as fh:
        fh.write("epoch,loss_rec,loss_pde,grad_norm,level\n")
        for r in rows:
            fh.write(
                f"{r.epoch},{r.loss_rec!r},{r.loss_pde!r},{r.grad_norm!r},"
                f"{r.level}\n"
            )


def cmd_gen(args, argv) -> int:
    conf = _load_cfg(args)
    system_name = cfg.resolve(
        "system", args.system, _get(conf, "system", "name")
    )
    if system_name not in SYSTEM_NAMES:
        raise ConfigError(
            f"--system must be one of {SYSTEM_NAMES}, got {system_name!r}"
        )
    regime = cfg.resolve("regime", args.regime, _get(conf, "data", "regime"),
                         cfg.DEFAULTS["data"]["regime"])
    if regime not in KINDS:
        raise ConfigError(f"--regime must be one of {KINDS}")
    count = cfg.resolve("n", args.n, _get(conf, "data", "n_train"),
                        cfg.DEFAULTS["data"]["n_train"])
    seed = cfg.resolve("seed", args.seed, _get(conf, "data", "seed"),
                       cfg.DEFAULTS["data"]["seed"])
    ds = _resolve_data_settings(args, conf)
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)

    dataset = generate_dataset(
        get_system(system_name), regime, int(count), int(seed),
        dt=ds["dt"], horizon=ds["horizon"], sigma=ds["sigma"],
    )
    path = out_dir / f"{system_name}_{regime}_n{count}_s{seed}.hkkl"
    write_dataset(dataset, path)
    outputs = [path]
    if args.csv:
        csv_path = out_dir / (path.stem + "_traj0.csv")
        trajectory_to_csv(dataset.trajectories[0], csv_path)
        outputs.append(csv_path)
    append_manifest(
        out_dir, "gen", argv,
        {"system": system_name, "regime": regime, "n": int(count), **ds},
        {"seed": int(seed)},
        [args.config] if args.config else [],
        outputs,
    )
    print(f"wrote {path}")
    return 0


def _dataset_level(dataset) -> int:
    return max(0 if tr.signal is None else difficulty_level(tr.signal)
               for tr in dataset.trajectories)


def cmd_train(args, argv) -> int:
    conf = _load_cfg(args)
    system_name = cfg.resolve("system", args.system, _get(conf, "system", "name"))
    if system_name not in SYSTEM_NAMES:
        raise ConfigError(f"--system must be one of {SYSTEM_NAMES}")
    system = get_system(system_name)
    sysdef = cfg.system_defaults(system_name)

    t = cfg.DEFAULTS["train"]
    h = cfg.DEFAULTS["hypernet"]
    seed = int(cfg.resolve("seed", args.seed, _get(conf, "train", "seed"),
                           t["seed"]))
    epochs = int(cfg.resolve("epochs", args.epochs, _get(conf, "train", "epochs"),
                             t["epochs"]))
    hidden = cfg.resolve("hidden", args.hidden, _get(conf, "train", "hidden"),
                         sysdef["hidden"])
    if isinstance(hidden, (int, float)):
        hidden = [int(hidden)]
    train_config = training.TrainConfig(
        epochs=epochs,
        batch=int(cfg.resolve("batch", args.batch, _get(conf, "train", "batch"),
                              t["batch"])),
        lr=float(cfg.resolve("lr", args.lr, _get(conf, "train", "lr"), t["lr"])),
        lam=float(cfg.resolve("lambda", args.pde_weight,
                              _get(conf, "train", "lambda"), t["lambda"])),
        clip_norm=float(cfg.resolve("clip", None, _get(conf, "train", "clip"),
                                    t["clip"])),
        seed=seed,
        collocation=int(cfg.resolve("collocation", None,
                                    _get(conf, "train", "collocation"),
                                    t["collocation"])),
        normalize=bool(cfg.resolve("normalize", None,
                                   _get(conf, "train", "normalize"),
                                   t["normalize"])),
        segment_steps=int(cfg.resolve("segment_steps", None,
                                      _get(conf, "train", "segment_steps"),
                                      t["segment_steps"])),
        segment_discard=int(cfg.resolve("segment_discard", None,
                                        _get(conf, "train", "segment_discard"),
                                        t["segment_discard"])),
        segment_batch=int(cfg.resolve("segment_batch", None,
                                      _get(conf, "train", "segment_batch"),
                                      t["segment_batch"])),
    )

    if not args.data:
        raise ConfigError("train needs at least one --data dataset")
    datasets = [read_dataset(p) for p in args.data]
    for ds in datasets:
        if ds.system.name != system_name:
            raise ConfigError(
                f"dataset {ds.system.name!r} does not match --system {system_name!r}"
            )
    seed_lo = min(ds.seed_range[0] for ds in datasets)
    seed_hi = max(ds.seed_range[1] for ds in datasets)

    out_dir = Path(args.out or ".")
    inputs = list(args.data) + ([args.config] if args.config else [])

    if args.phase == "1":
        obs = build_observer_matrices(system.n_x, system.n_y, args.latent_dim)
        maps = make_maps(system.n_x, obs.n_z, hidden=hidden)
        theta, phi = init_map_params(maps, seed)
        trajectories = [tr for ds in datasets for tr in ds.trajectories]
        result = training.phase1_train(
            system, obs, maps, theta, phi, trajectories, train_config
        )
        bundle = CheckpointBundle(
            variant="autonomous", system_name=system_name, maps=maps, obs=obs,
            theta=result.theta, phi=result.phi, f_scale=result.f_scale,
            train_seed_range=(seed_lo, seed_hi),
        )
        stem = f"{system_name}_phase1"
    elif args.phase == "2":
        if not args.base:
            raise ConfigError("--phase 2 requires --base CHECKPOINT")
        if args.variant not in ("static", "dynamic"):
            raise ConfigError("--phase 2 requires --variant static|dynamic")
        base = read_checkpoint(args.base)
        inputs.append(args.base)
        trajectories = [tr for ds in datasets for tr in ds.trajectories]
        window = int(cfg.resolve("window", args.window,
                                 _get(conf, "hypernet", "window"), h["window"]))
        lstm_hidden = int(cfg.resolve("lstm_hidden", None,
                                      _get(conf, "hypernet", "lstm_hidden"),
                                      h["lstm_hidden"]))
        tau = float(cfg.resolve("tau", None, _get(conf, "hypernet", "tau"),
                                h["tau"]))
        if args.variant == "dynamic":
            rank = int(cfg.resolve("rank", args.rank,
                                   _get(conf, "hypernet", "rank"),
                                   sysdef["rank"]))
            spec = build_hypernet_spec(
                base.maps, window=window, lstm_hidden=lstm_hidden, rank=rank,
                tau=tau,
            )
        else:
            inj_hidden = cfg.resolve("inj_hidden", None,
                                     _get(conf, "hypernet", "inj_hidden"),
                                     h["inj_hidden"])
            if isinstance(inj_hidden, (int, float)):
                inj_hidden = [int(inj_hidden)]
            spec = build_injection_spec(
                n_z=base.maps.n_z, window=window, lstm_hidden=lstm_hidden,
                mlp_hidden=inj_hidden, tau=tau,
            )
        result = training.phase2_train(
            system, base.obs, base.maps, base.theta, base.phi, spec,
            trajectories, train_config, args.variant, f_scale=base.f_scale,
        )
        if result.base_hash_before != result.base_hash_after:
            raise NumericError("frozen base parameters changed during phase 2")
        lo = min(seed_lo, base.train_seed_range[0]) if base.train_seed_range else seed_lo
        hi = max(seed_hi, base.train_seed_range[1]) if base.train_seed_range else seed_hi
        bundle = CheckpointBundle(
            variant=args.variant, system_name=system_name, maps=base.maps,
            obs=base.obs, theta=base.theta, phi=base.phi, f_scale=base.f_scale,
            train_seed_range=(lo, hi),
            hyper_spec=spec if args.variant == "dynamic" else None,
            psi=result.params if args.variant == "dynamic" else None,
            injection_spec=spec if args.variant == "static" else None,
            xi=result.params if args.variant == "static" else None,
        )
        stem = f"{system_name}_{args.variant}"
    elif args.phase == "curriculum":
        if not args.base:
            raise ConfigError("--phase curriculum requires --base CHECKPOINT")
        base = read_checkpoint(args.base)
        inputs.append(args.base)
        levels = [_dataset_level(ds) for ds in datasets]
        if levels != sorted(levels):
            raise ConfigError(
                f"curriculum datasets must be ordered by difficulty, got {levels}"
            )
        c = cfg.DEFAULTS["curriculum"]
        schedule = training.CurriculumConfig(
            epsilon=float(cfg.resolve("epsilon", None,
                                      _get(conf, "curriculum", "epsilon"),
                                      c["epsilon"])),
            patience=int(cfg.resolve("patience", None,
                                     _get(conf, "curriculum", "patience"),
                                     c["patience"])),
            level_epochs=int(cfg.resolve("level_epochs", None,
                                         _get(conf, "curriculum", "level_epochs"),
                                         c["level_epochs"])),
        )
        phi = base.phi.copy()
        result = training.curriculum_train(
            system, base.obs, base.maps, base.theta, phi,
            [ds.trajectories for ds in datasets], train_config, schedule,
        )
        lo = min(seed_lo, base.train_seed_range[0]) if base.train_seed_range else seed_lo
        hi = max(seed_hi, base.train_seed_range[1]) if base.train_seed_range else seed_hi
        bundle = CheckpointBundle(
            variant="curriculum", system_name=system_name, maps=base.maps,
            obs=base.obs, theta=base.theta, phi=result.phi,
            f_scale=base.f_scale, train_seed_range=(lo, hi),
            extra={"level_transitions": result.transitions},
        )
        stem = f"{system_name}_curriculum"
    else:
        raise ConfigError("--phase must be 1, 2, or curriculum")

    if result.abort is not None:
        # The parameters were rolled back, but they are not a trained
        # model: write nothing.
        raise NumericError(f"epoch {result.abort.epoch}: {result.abort.reason}")
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / f"{stem}.hkkp"
    write_checkpoint(bundle, ckpt_path)
    loss_path = out_dir / f"{stem}_loss.csv"
    _write_loss_csv(loss_path, result.log)
    append_manifest(
        out_dir, "train", argv,
        {
            "system": system_name, "phase": args.phase,
            "variant": getattr(args, "variant", None),
            "epochs": train_config.epochs, "batch": train_config.batch,
            "lr": train_config.lr, "lambda": train_config.lam,
            "hidden": list(hidden),
        },
        {"seed": seed, "data_seed_range": [seed_lo, seed_hi]},
        inputs, [ckpt_path, loss_path],
    )
    print(f"wrote {ckpt_path}")
    return 0


def _parse_checkpoint_args(pairs) -> dict:
    bundles = {}
    for spec in pairs or []:
        if "=" not in spec:
            raise ConfigError(
                f"--checkpoint takes VARIANT=PATH, got {spec!r}"
            )
        variant, path = spec.split("=", 1)
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r} in --checkpoint")
        if not Path(path).exists():
            raise ConfigError(f"checkpoint not found: {path}")
        bundle = read_checkpoint(path)
        if bundle.variant != variant:
            raise ConfigError(
                f"checkpoint {path} holds variant {bundle.variant!r}, "
                f"requested {variant!r}"
            )
        bundles[variant] = (bundle, path)
    if not bundles:
        raise ConfigError("eval/plot need at least one --checkpoint VARIANT=PATH")
    return bundles


def _eval_common(args, conf):
    system_name = cfg.resolve("system", args.system, _get(conf, "system", "name"))
    if system_name not in SYSTEM_NAMES:
        raise ConfigError(f"--system must be one of {SYSTEM_NAMES}")
    d = cfg.DEFAULTS["data"]
    regimes = args.regimes.split(",") if args.regimes else list(REGIMES)
    for r in regimes:
        if r not in KINDS:
            raise ConfigError(f"unknown regime {r!r}")
    n_test = int(cfg.resolve("n", args.n, _get(conf, "data", "n_test"),
                             d["n_test"]))
    seed = int(cfg.resolve("seed", args.seed, _get(conf, "data", "test_seed"),
                           d["test_seed"]))
    ds = _resolve_data_settings(args, conf)
    return system_name, regimes, n_test, seed, ds


def cmd_eval(args, argv) -> int:
    conf = _load_cfg(args)
    system_name, regimes, n_test, seed, ds = _eval_common(args, conf)
    named = _parse_checkpoint_args(args.checkpoint)
    bundles = {v: b for v, (b, _) in named.items()}
    report = benchmark(
        bundles, system_name, regimes=regimes, n_test=n_test, seed=seed,
        dt=ds["dt"], horizon=ds["horizon"], sigma=ds["sigma"],
        transient_frac=args.transient,
    )
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{system_name}_report.csv"
    report.to_csv(path)
    append_manifest(
        out_dir, "eval", argv,
        {"system": system_name, "regimes": regimes, "n_test": n_test,
         "transient": args.transient, **ds},
        {"test_seed": seed},
        [p for _, (_, p) in named.items()]
        + ([args.config] if args.config else []),
        [path],
    )
    print(f"wrote {path}")
    return 0


def cmd_plot(args, argv) -> int:
    conf = _load_cfg(args)
    system_name, regimes, _, seed, ds = _eval_common(args, conf)
    named = _parse_checkpoint_args(args.checkpoint)
    system = get_system(system_name)
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for r_idx, regime in enumerate(regimes):
        dataset = generate_dataset(
            system, regime, 1, seed + r_idx, dt=ds["dt"],
            horizon=ds["horizon"], sigma=ds["sigma"],
        )
        tr = dataset.trajectories[0]
        for variant, (bundle, _) in named.items():
            xhat = run_observer(bundle, tr)
            path = out_dir / plot_name(system_name, variant, regime)
            svg_timeseries(
                path, tr.times, tr.states, xhat, tr.inputs,
                title=f"{system_name} / {variant} / {regime}",
            )
            outputs.append(path)
    append_manifest(
        out_dir, "plot", argv,
        {"system": system_name, "regimes": regimes, **ds},
        {"test_seed": seed},
        [p for _, (_, p) in named.items()]
        + ([args.config] if args.config else []),
        outputs,
    )
    print(f"wrote {len(outputs)} plots to {out_dir}")
    return 0


def cmd_report(args, argv) -> int:
    rows = []
    for path in args.reports:
        if not Path(path).exists():
            raise ConfigError(f"report CSV not found: {path}")
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            for line in fh:
                rows.append(dict(zip(header, line.strip().split(","))))
    if not rows:
        raise ConfigError("no report rows found")
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    systems = sorted({r["system"] for r in rows})
    lines = ["# State-estimation benchmark", ""]
    for system in systems:
        sys_rows = [r for r in rows if r["system"] == system]
        regimes = sorted({r["regime"] for r in sys_rows})
        variants = sorted({r["variant"] for r in sys_rows})
        lines.append(f"## {system}")
        lines.append("")
        lines.append("| method | " + " | ".join(regimes) + " |")
        lines.append("|" + "---|" * (len(regimes) + 1))
        for variant in variants:
            cells = []
            for regime in regimes:
                match = [
                    r for r in sys_rows
                    if r["variant"] == variant and r["regime"] == regime
                ]
                if match:
                    cells.append(
                        f"{float(match[0]['rmse']):.3g} "
                        f"({float(match[0]['smape']):.3g}%)"
                    )
                else:
                    cells.append("-")
            lines.append(f"| {variant} | " + " | ".join(cells) + " |")
        lines.append("")
    path = out_dir / "report.md"
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    append_manifest(out_dir, "report", argv, {}, {}, list(args.reports), [path])
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperkkl",
        description="Learning-based KKL observers for driven nonlinear systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", help="output directory", default=None)

    g = sub.add_parser("gen", help="generate a trajectory dataset")
    common(g)
    g.add_argument("--system", choices=SYSTEM_NAMES)
    g.add_argument("--regime", choices=KINDS)
    g.add_argument("--n", type=int, default=None)
    g.add_argument("--dt", type=float, default=None)
    g.add_argument("--horizon", type=float, default=None)
    g.add_argument("--sigma", type=float, default=None)
    g.add_argument("--csv", action="store_true",
                   help="also export the first trajectory as CSV")

    tr = sub.add_parser("train", help="train an observer")
    common(tr)
    tr.add_argument("--system", choices=SYSTEM_NAMES)
    tr.add_argument("--phase", required=True, choices=("1", "2", "curriculum"))
    tr.add_argument("--variant", choices=("static", "dynamic"), default=None)
    tr.add_argument("--data", action="append", default=None,
                    help="dataset file; repeat for multiple (levels for curriculum)")
    tr.add_argument("--base", default=None, help="base checkpoint (phase 2 / curriculum)")
    tr.add_argument("--epochs", type=int, default=None)
    tr.add_argument("--batch", type=int, default=None)
    tr.add_argument("--lr", type=float, default=None)
    tr.add_argument("--pde-weight", type=float, default=None,
                    help="physics residual weight (config key: lambda)")
    tr.add_argument("--hidden", type=lambda s: [int(p) for p in s.split(",")],
                    default=None, help="map hidden widths, e.g. 150,150,150")
    tr.add_argument("--window", type=int, default=None)
    tr.add_argument("--rank", type=int, default=None)
    tr.add_argument("--latent-dim", type=int, default=None,
                    help="override n_z (experiments only; still verified)")

    def eval_like(p):
        p.add_argument("--system", choices=SYSTEM_NAMES)
        p.add_argument("--checkpoint", action="append",
                       help="VARIANT=PATH; repeatable")
        p.add_argument("--regimes", default=None,
                       help="comma list, default all four")
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--transient", type=float, default=0.05)
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--horizon", type=float, default=None)
        p.add_argument("--sigma", type=float, default=None)

    ev = sub.add_parser("eval", help="benchmark variants over regimes")
    common(ev)
    eval_like(ev)

    pl = sub.add_parser("plot", help="per-cell SVG time-series plots")
    common(pl)
    eval_like(pl)

    rp = sub.add_parser("report", help="markdown grid from eval CSVs")
    common(rp)
    rp.add_argument("reports", nargs="+", help="eval report CSV files")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": cmd_gen,
        "train": cmd_train,
        "eval": cmd_eval,
        "plot": cmd_plot,
        "report": cmd_report,
    }
    try:
        # Explicit finite checks turn overflow and NaN into a NumericError
        # (exit 3); numpy's own warnings would only repeat them as raw
        # stderr lines.
        with np.errstate(all="ignore"):
            return handlers[args.command](args, argv)
    except (ConfigError, ContractViolation) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"i/o failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
