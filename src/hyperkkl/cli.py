"""Command-line entry point.

Subcommands: gen (datasets), train (all phases), eval (benchmark grid),
plot (per-cell SVG time series), report (markdown grid from eval CSVs).
The setting flags come from ``config.SETTINGS``. ``main`` resolves a
command's settings once, runs it, and appends the manifest record it
returns next to its outputs; re-running the argv recorded there
reproduces every output byte for byte.

What loads when: importing this module loads only the standard library,
``config`` and ``errors``. ``main`` parses the arguments, reads the
config file and resolves the settings first, so ``--help``, a bad flag
and a settings error exit without numpy and leave ``os.environ`` and
``sys.modules`` as they were. Then, still before numpy, it acts on the
whole process. It blocks OpenSSL's ``_hashlib`` with a ``None`` entry in
``sys.modules``: ``numpy.random`` imports ``secrets``, hence ``hmac`` and
``_hashlib``, which maps about 3.3 MB of libcrypto that nothing here
uses, and ``hashlib`` falls back to its builtin SHA-256 (same digests,
slower). And it writes the ``blas_threads`` setting (default 1) to
``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` over any inherited
value, since output bytes can depend on the thread count. A process that
loaded ``_hashlib`` or numpy before ``main`` keeps them, and with numpy
its thread count; the manifest records the count in effect.
Only then does ``main`` import numpy (for ``np.errstate``) and
``manifest``, and each handler imports the modules it runs: ``gen`` only
``data`` and ``dynamics``; ``train`` the training stack and
``checkpoints``; ``eval`` and ``plot`` ``evaluation`` (and ``plot`` also
``plots``); ``report`` only ``binfile``.

Exit codes: 0 success, 2 user error, 3 numeric failure, 4 I/O failure,
whether the error is raised by a handler or by one of its imports, and
130 for a command ended by Ctrl-C (SIGINT) or by SIGTERM, which ``main``
handles alike once the settings resolve; each prints one line. A file a
command writes (a checkpoint, dataset, CSV, SVG or report) replaces the
one at its path only once it is complete (``binfile.replacing``), so a
failed or interrupted write keeps it; the manifest gains each record
whole or not at all (``manifest``).
``train`` replaces its checkpoint and loss CSV as a pair: a failure in
either write keeps both old files.
A training run that ends in a numeric abort writes no checkpoint, but
its manifest record (``status`` "aborted", with the epoch and the
reason) still goes to the output directory. Every ``train`` record,
aborted or not, states its logged epochs' wall seconds as ``epoch_s``
(``_epoch_seconds``).
Curriculum and static training hold no base encoder while they train:
they read the base without it and read its θ only to write the
checkpoint (the ``checkpoints`` docstring). If the base's stamp (size,
modification time and inode, ``checkpoints.file_stamp``) changed in
between, the run exits 2 and writes nothing.
``eval`` and ``plot`` read and check every --checkpoint before they
build a test set, and read it again for each of its cells, so they hold
one checkpoint at a time (the ``evaluation`` docstring). Neither read
takes a dynamic checkpoint's decoder-head readout U: each cell opens
the file once more and reads one IN_BLOCK chunk of one decoder layer's
rows of U at a time.
If the file's stamp is not the cell's read's, when the cell opens it or
after its last read, the command exits 2 with one line naming the file
and writes no report or plot. ``plot`` writes its SVGs only once every
cell is estimated.
A request too large for memory (say ``gen --horizon 1e12``) is a user
error: it exits 2 with one ``error: out of memory: ...`` line.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import config as cfg
from .errors import ConfigError, ContractViolation, NumericError

if TYPE_CHECKING:
    from .training import Abort


class Run(NamedTuple):
    """What a command did, as its manifest record states it."""

    out_dir: Path
    resolved_config: dict
    seeds: dict
    input_files: list
    outputs: list
    abort: Abort | None = None
    epoch_s: dict | None = None


def _epoch_seconds(rows) -> dict:
    """count, median (p50), max and total of the rows' epoch wall seconds;
    p50 and max are None when no epoch was logged."""
    times = sorted(r.wall_s for r in rows)
    n = len(times)
    return {"count": n,
            "p50": (times[(n - 1) // 2] + times[n // 2]) / 2 if n else None,
            "max": times[-1] if n else None,
            "total": sum(times)}


def _loss_csv(rows) -> bytes:
    return ("epoch,loss_rec,loss_pde,grad_norm,level\n" + "".join(
        f"{r.epoch},{r.loss_rec!r},{r.loss_pde!r},{r.grad_norm!r},"
        f"{r.level}\n" for r in rows)).encode()


def cmd_gen(args, s):
    from .data import generate_dataset, trajectory_to_csv, write_dataset
    from .dynamics import get_system

    dataset = generate_dataset(
        get_system(s["system"]), s["regime"], s["n_train"], s["seed"],
        dt=s["dt"], horizon=s["horizon"], sigma=s["sigma"],
    )
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{s['system']}_{s['regime']}_n{s['n_train']}_s{s['seed']}"
    path = out_dir / f"{stem}.hkkl"
    write_dataset(dataset, path)
    outputs = [path]
    if args.csv:
        csv_path = out_dir / (path.stem + "_traj0.csv")
        trajectory_to_csv(dataset.trajectories, csv_path)
        outputs.append(csv_path)
    print(f"wrote {path}")
    return Run(out_dir, s, {"seed": s["seed"]}, [], outputs)


def _read_training_sets(paths, system_name: str):
    """The trajectory sets of the datasets at ``paths`` and the seed range
    they span; nothing else of a dataset outlives the call."""
    from .data import read_dataset

    if not paths:
        raise ConfigError("train needs at least one --data dataset")
    sets, seeds = [], []
    for path in paths:
        ds = read_dataset(path)
        if ds.system.name != system_name:
            raise ConfigError(
                f"dataset {ds.system.name!r} does not match --system {system_name!r}"
            )
        sets.append(ds.trajectories)
        seeds.extend(ds.seed_range)
    return sets, (min(seeds), max(seeds))


def _training_dt(sets, base=None) -> float:
    """The one time step of the training data, also the base model's."""
    dts = sorted({runs.dt for runs in sets})
    if len(dts) > 1:
        raise ConfigError(f"training datasets mix time steps {dts}")
    if base is not None and base.dt is not None and base.dt != dts[0]:
        raise ConfigError(
            f"base checkpoint was trained at dt {base.dt!r}, the data has "
            f"dt {dts[0]!r}"
        )
    return dts[0]


def _dataset_level(runs) -> int:
    from .signals import difficulty_level

    return max(difficulty_level(sig) for sig in runs.signals)


def cmd_train(args, s):
    """Train one phase into ``{system}_{phase or variant}.hkkp`` and its
    loss CSV. Only dynamic phase 2 reads the base in full before training;
    curriculum and static read its θ after (module docstring). Of the
    datasets only their trajectory sets stay, and phase 1 lets those go
    once it has drawn its latent targets."""
    if args.variant is not None and args.phase != "2":
        raise ConfigError(f"--variant applies only to --phase 2, "
                          f"not to --phase {args.phase}")
    if args.base is not None and args.phase == "1":
        raise ConfigError("--phase 1 trains from scratch and takes no --base")
    from . import training
    from .binfile import replacing
    from .checkpoints import (CONDITIONING, CheckpointBundle, file_stamp,
                              read_checkpoint, write_checkpoint)
    from .dynamics import get_system
    from .kkl import build_observer_matrices, make_maps

    system_name = s["system"]
    system = get_system(system_name)
    train_config = training.TrainConfig(
        epochs=s["epochs"], batch=s["batch"], lr=s["lr"], lam=s["lambda"],
        clip_norm=s["clip"], seed=s["seed"], collocation=s["collocation"],
        normalize=s["normalize"], segment_steps=s["segment_steps"],
        segment_discard=s["segment_discard"],
        segment_batch=s["segment_batch"],
    )

    sets, (seed_lo, seed_hi) = _read_training_sets(args.data, system_name)
    out_dir = Path(args.out or ".")
    inputs = list(args.data)
    base = stamp = None
    lo, hi = seed_lo, seed_hi  # the seeds the checkpoint was trained on
    if args.phase != "1":
        if not args.base:
            raise ConfigError(f"--phase {args.phase} requires --base CHECKPOINT")
        # only dynamic phase 2 runs the base encoder T; curriculum and
        # static train without it and read its θ afterwards (_base_theta)
        stamp = file_stamp(args.base)
        base = read_checkpoint(args.base, observer=args.variant != "dynamic")
        _refuse_other_system(base, args.base, system_name)
        inputs.append(args.base)
        lo = min(lo, base.train_seed_range[0])
        hi = max(hi, base.train_seed_range[1])
    dt = _training_dt(sets, base)

    if args.phase == "1":
        obs = build_observer_matrices(system.n_x, system.n_y, s["latent_dim"])
        maps = make_maps(system.n_x, obs.n_z, hidden=s["hidden"])
        # empties ``sets``: the data go once phase 1 has its targets
        result = training.phase1_train(system, obs, maps, sets, train_config)
        bundle = CheckpointBundle(
            variant="autonomous", system_name=system_name, maps=maps, obs=obs,
            theta=result.theta, phi=result.phi, f_scale=result.f_scale,
            train_seed_range=(lo, hi), dt=dt,
        )
        stem = f"{system_name}_phase1"
    elif args.phase == "2":
        if args.variant is None:
            raise ConfigError("--phase 2 requires --variant static|dynamic")
        spec = CONDITIONING[args.variant].build(
            base.maps, window=s["window"], lstm_hidden=s["lstm_hidden"],
            tau=s["tau"], input_size=system.m,
            **({"rank": s["rank"]} if args.variant == "dynamic"
               else {"mlp_hidden": s["inj_hidden"]}))
        result = training.phase2_train(
            system, base.obs, base.maps, base.theta, base.phi, spec,
            sets, train_config, f_scale=base.f_scale,
        )
        bundle = CheckpointBundle(
            variant=args.variant, system_name=system_name, maps=base.maps,
            obs=base.obs, theta=base.theta, phi=base.phi, f_scale=base.f_scale,
            train_seed_range=(lo, hi), dt=dt,
            spec=spec, params=result.params,
        )
        stem = f"{system_name}_{args.variant}"
    else:
        levels = [_dataset_level(runs) for runs in sets]
        if levels != sorted(levels):
            raise ConfigError(
                f"curriculum datasets must be ordered by difficulty, got {levels}"
            )
        schedule = training.CurriculumConfig(
            epsilon=s["epsilon"], patience=s["patience"],
            level_epochs=s["level_epochs"],
        )
        # trains base.phi in place: nothing reads the base decoder after
        result = training.curriculum_train(
            base.obs, base.maps, base.phi, sets, train_config, schedule)
        bundle = CheckpointBundle(
            variant="curriculum", system_name=system_name, maps=base.maps,
            obs=base.obs, theta=base.theta, phi=result.phi,
            f_scale=base.f_scale, train_seed_range=(lo, hi), dt=dt,
            extra={"level_transitions": result.transitions},
        )
        stem = f"{system_name}_curriculum"

    run = Run(out_dir, {**s, "phase": args.phase, "variant": args.variant},
              {"seed": s["seed"], "data_seed_range": [seed_lo, seed_hi]},
              inputs, [], epoch_s=_epoch_seconds(result.log))
    if result.abort is not None:
        # The stores hold the k - 1 steps that completed before the
        # failing epoch k, but they are not a trained model: write no
        # output, only the manifest record of the abort.
        return run._replace(abort=result.abort)
    if bundle.theta is None:  # trained from an observer read of the base
        bundle.theta = _base_theta(args.base, stamp)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / f"{stem}.hkkp"
    loss_path = out_dir / f"{stem}_loss.csv"
    # the pair is replaced together: the loss CSV is staged and flushed,
    # so its write has failed or succeeded, before the checkpoint is
    # written, and it takes its path only once the checkpoint has
    with replacing(loss_path) as fh:
        fh.write(_loss_csv(result.log))
        fh.flush()
        write_checkpoint(bundle, ckpt_path)
    print(f"wrote {ckpt_path}")
    return run._replace(outputs=[ckpt_path, loss_path])


def _base_theta(path, stamp):
    """The base encoder θ that the output checkpoint stores, from a full
    read of the base after training. The base must still be the file the
    run trained from: the same ``checkpoints.file_stamp`` before and
    after this read."""
    from .checkpoints import file_stamp, read_checkpoint

    def check():
        if file_stamp(path) != stamp:
            raise ConfigError(f"base checkpoint {path} changed during "
                              "training; no checkpoint written")

    check()
    theta = read_checkpoint(path).theta
    check()
    return theta


def _refuse_other_system(bundle, path, system_name: str) -> None:
    if bundle.system_name != system_name:
        raise ConfigError(
            f"checkpoint {path} was trained on {bundle.system_name}, "
            f"not {system_name}"
        )


def _observer_loader(variant, path, s, seed_ranges):
    """A zero-argument read of the checkpoint at ``path`` for eval and
    plot. Each call reads its observer blocks and refuses the bundle
    unless it holds ``variant``, trained on --system at --dt on seeds
    apart from every test set's (``seed_ranges``)."""
    from .checkpoints import read_checkpoint
    from .evaluation import refuse_seed_overlap

    def load():
        bundle = read_checkpoint(path, observer=True)
        if bundle.variant != variant:
            raise ConfigError(
                f"checkpoint {path} holds variant {bundle.variant!r}, "
                f"requested {variant!r}"
            )
        _refuse_other_system(bundle, path, s["system"])
        if bundle.dt is not None and bundle.dt != s["dt"]:
            raise ConfigError(
                f"checkpoint {path} was trained at dt {bundle.dt!r}, "
                f"not at dt {s['dt']!r}"
            )
        for seed_range in seed_ranges:
            refuse_seed_overlap(bundle, seed_range)
        return bundle

    return load


def _parse_checkpoint_args(pairs, s, n_test: int) -> dict:
    """{variant: (load, path)} of the --checkpoint pairs, in their order,
    for test sets of ``n_test`` runs per regime. Each checkpoint is read
    and checked here, before any test set or cell, and dropped at once;
    ``load`` reads it again through the same checks for each cell."""
    from .checkpoints import VARIANTS
    from .evaluation import regime_seed_ranges

    seed_ranges = regime_seed_ranges(s["regimes"], n_test, s["test_seed"])
    named = {}
    for spec in pairs or []:
        if "=" not in spec:
            raise ConfigError(
                f"--checkpoint takes VARIANT=PATH, got {spec!r}"
            )
        variant, path = spec.split("=", 1)
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r} in --checkpoint")
        if variant in named:
            raise ConfigError(f"--checkpoint names variant {variant!r} twice")
        if not Path(path).exists():
            raise ConfigError(f"checkpoint not found: {path}")
        load = _observer_loader(variant, path, s, seed_ranges)
        load()  # the checks; the bundle is dropped
        named[variant] = (load, path)
    if not named:
        raise ConfigError("eval/plot need at least one --checkpoint VARIANT=PATH")
    return named


def cmd_eval(args, s):
    from .evaluation import benchmark

    named = _parse_checkpoint_args(args.checkpoint, s, s["n_test"])
    report = benchmark(
        {v: load for v, (load, _) in named.items()}, s["system"],
        regimes=s["regimes"], n_test=s["n_test"], seed=s["test_seed"],
        dt=s["dt"], horizon=s["horizon"], sigma=s["sigma"],
        transient_frac=s["transient"],
    )
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{s['system']}_report.csv"
    report.to_csv(path)
    print(f"wrote {path}")
    return Run(out_dir, s, {"test_seed": s["test_seed"]},
               [p for _, p in named.values()], [path])


def cmd_plot(args, s):
    """One SVG per (variant, regime) cell, each on one test run. Every
    cell is estimated before the first SVG is written, so a failure
    leaves no partial plot set."""
    from .evaluation import regime_test_sets, run_observer
    from .plots import plot_name, svg_timeseries

    named = _parse_checkpoint_args(args.checkpoint, s, n_test=1)
    cells = [
        (dataset, variant, run_observer(load(), dataset.trajectories)[0])
        for dataset in regime_test_sets(
            s["system"], s["regimes"], 1, s["test_seed"], s["dt"],
            s["horizon"], s["sigma"])
        for variant, (load, _) in named.items()
    ]
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for dataset, variant, xhat in cells:
        runs = dataset.trajectories
        path = out_dir / plot_name(s["system"], variant, dataset.regime)
        svg_timeseries(
            path, runs.times, runs.states[0], xhat, runs.inputs[0],
            title=f"{s['system']} / {variant} / {dataset.regime}",
        )
        outputs.append(path)
    print(f"wrote {len(outputs)} plots to {out_dir}")
    return Run(out_dir, s, {"test_seed": s["test_seed"]},
               [p for _, p in named.values()], outputs)


def _report_rows(path) -> list:
    """An eval report CSV's rows as dicts, rmse and smape as floats; a
    missing column, a row with another field count than the header or a
    score that is not a number is refused with its line number, and a
    file that is not UTF-8 text is refused."""
    if not Path(path).exists():
        raise ConfigError(f"report CSV not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.strip().split(",") for line in fh] or [[]]
    except UnicodeDecodeError as e:
        raise ConfigError(
            f"report CSV {path} is not UTF-8 text: {e.reason}") from None

    def refuse(n, why):
        raise ConfigError(f"report CSV {path} line {n}: {why}")

    header, rows = lines[0], []
    for column in ("system", "variant", "regime", "rmse", "smape"):
        if column not in header:
            refuse(1, f"no {column} column")
    for n, fields in enumerate(lines[1:], start=2):
        if len(fields) != len(header):
            refuse(n, f"{len(fields)} fields, the header has {len(header)}")
        row = dict(zip(header, fields))
        for key in ("rmse", "smape"):
            try:
                row[key] = float(row[key])
            except ValueError:
                refuse(n, f"{key} {row[key]!r} is not a number")
        rows.append(row)
    return rows


def cmd_report(args, s):
    from .binfile import write_text

    rows = [row for path in args.reports for row in _report_rows(path)]
    if not rows:
        raise ConfigError("no report rows found")
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["# State-estimation benchmark", ""]
    for system in sorted({r["system"] for r in rows}):
        sys_rows = [r for r in rows if r["system"] == system]
        regimes = sorted({r["regime"] for r in sys_rows})
        first = {}  # a (variant, regime) cell shows its first row
        for r in sys_rows:
            first.setdefault((r["variant"], r["regime"]), r)
        lines += [f"## {system}", "",
                  "| method | " + " | ".join(regimes) + " |",
                  "|" + "---|" * (len(regimes) + 1)]
        for variant in sorted({r["variant"] for r in sys_rows}):
            cells = [f"{c['rmse']:.3g} ({c['smape']:.3g}%)"
                     if (c := first.get((variant, regime))) else "-"
                     for regime in regimes]
            lines.append(f"| {variant} | " + " | ".join(cells) + " |")
        lines.append("")
    path = out_dir / "report.md"
    write_text(path, "\n".join(lines) + "\n")
    print(f"wrote {path}")
    return Run(out_dir, s, {}, list(args.reports), [path])


def _flag_type(row):
    def parse(text):
        try:
            return row.kind(cfg.parse_value(text))
        except ValueError as e:
            raise argparse.ArgumentTypeError(
                f"must be {e}, got {text!r}") from None
    return parse


def _show(value) -> str:
    if isinstance(value, list):
        return ",".join(map(str, value))
    return "none" if value is None else str(value)


def _flag_help(row) -> str:
    """The row's help, its [section] key and its default."""
    if row.default is cfg.BY_SYSTEM:
        default = " or ".join(
            f"{_show(cfg.system_defaults(names[0])[row.name])} for "
            + "/".join(names) for names in (cfg.OSCILLATORS, cfg.CHAOTIC))
    elif row.default is cfg.REQUIRED:
        default = "none, required"
    else:
        default = _show(row.default)
    parts = [row.help] if row.help else []
    if row.key:
        parts.append("[%s] %s" % row.key)
    parts.append(f"default {default}")
    return "; ".join(parts)


def _add_settings(p, command):
    for row in cfg.SETTINGS:
        if command in row.commands and row.flag:
            choice = isinstance(row.kind, cfg.Choice)
            p.add_argument(
                row.flag, dest=row.name, type=_flag_type(row),
                metavar="{%s}" % ",".join(row.kind.options) if choice else None,
                help=_flag_help(row),
            )


class _Parser(argparse.ArgumentParser):
    """A parser whose error, a bad value, an unknown or missing flag or a
    missing command, prints one ``error:`` line, without the usage
    block, and exits 2. Its subcommands' parsers are of its class too."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hyperkkl",
        description="Learning-based KKL observers for driven nonlinear systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(command, help):
        p = sub.add_parser(command, help=help)
        if command != "report":
            p.add_argument("--config", help="INI config file")
        p.add_argument("--out", help="output directory", default=None)
        _add_settings(p, command)
        return p

    g = add("gen", "generate a trajectory dataset")
    g.add_argument("--csv", action="store_true",
                   help="also export the first trajectory as CSV")

    tr = add("train", "train an observer")
    tr.add_argument("--phase", required=True, choices=("1", "2", "curriculum"))
    tr.add_argument("--variant", choices=("static", "dynamic"), default=None)
    tr.add_argument("--data", action="append", default=None,
                    help="dataset file; repeat for multiple (levels for curriculum)")
    tr.add_argument("--base", default=None, help="base checkpoint (phase 2 / curriculum)")

    for command, help in (("eval", "benchmark variants over regimes"),
                          ("plot", "per-cell SVG time-series plots")):
        add(command, help).add_argument(
            "--checkpoint", action="append", help="VARIANT=PATH; repeatable")

    rp = add("report", "markdown grid from eval CSVs")
    rp.add_argument("reports", nargs="+", help="eval report CSV files")
    return parser


HANDLERS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "eval": cmd_eval,
    "plot": cmd_plot,
    "report": cmd_report,
}


def _interrupt(*_):
    """SIGTERM's handler while a command runs: end it as Ctrl-C does."""
    raise KeyboardInterrupt


def main(argv=None) -> int:
    started = time.perf_counter()
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    config_path = getattr(args, "config", None)
    on_term = None  # SIGTERM's handler before main's, once main set its own
    try:
        conf = cfg.load_config(config_path) if config_path else {}
        s = cfg.settings(args.command, vars(args), conf)
        import signal

        on_term = signal.signal(signal.SIGTERM, _interrupt)
        sys.modules.setdefault("_hashlib", None)
        if "blas_threads" in s and "numpy" not in sys.modules:
            os.environ["OPENBLAS_NUM_THREADS"] = str(s["blas_threads"])
            os.environ["OMP_NUM_THREADS"] = str(s["blas_threads"])
        import numpy as np

        from .manifest import append_manifest

        # Explicit finite checks turn overflow and NaN into a NumericError
        # (exit 3); numpy's own warnings would only repeat them as raw
        # stderr lines.
        with np.errstate(all="ignore"):
            run = HANDLERS[args.command](args, s)
        append_manifest(
            run.out_dir, args.command, argv, run.resolved_config, run.seeds,
            run.input_files + ([config_path] if config_path else []),
            run.outputs, started, run.abort, run.epoch_s,
        )
        if run.abort is not None:
            raise NumericError(f"epoch {run.abort.epoch}: {run.abort.reason}")
    except (ConfigError, ContractViolation) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"i/o failure: {e}", file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        if on_term is not None:
            signal.signal(signal.SIGTERM, on_term)
    return 0


if __name__ == "__main__":
    sys.exit(main())
