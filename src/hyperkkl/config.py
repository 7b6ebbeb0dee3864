"""Run settings: one table declares every setting a command reads.

Each row of SETTINGS gives a setting's name, the commands that read it,
its type, its default, and its config-file key ([section] key) and
command-line flag where it has them. The CLI adds each command's setting
flags, with their help lines, from the table; ``settings`` resolves a
command's rows in one pass into {name: value}, which the command reads
and the run manifest records. A row is named after its config key, except
[system] name, which is ``system``.

Config files are INI-style with the sections [system], [data], [train],
[curriculum], and [hypernet]; values are parsed as bool/int/float/str or
comma-separated lists, then checked against their row's type. A key no
row declares is an error, so a misspelt setting cannot silently fall back
to its default, and so is a value of the wrong type (a word for a number,
2.7 or 3.0 for an integer, 1 for a boolean). A value present both in the
config file and as an explicit command-line flag must agree — silent
precedence is a reproducibility hazard, so conflicts are errors.

Per-system architecture defaults follow the benchmark split: 150-unit
3-layer maps with rank-32 heads for the planar oscillators, 350-unit
maps with rank-128 heads for the chaotic systems.

This module imports only the standard library and ``errors``, so the CLI
parses its flags and resolves a command's settings without numpy. It
owns the names the flags offer, each defined once: the systems
(``dynamics`` checks its registry against SYSTEM_NAMES), the signal
KINDS (``signals``), and the eval REGIMES and TRANSIENT_FRACTION
(``evaluation``).
"""

from __future__ import annotations

import configparser
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import ConfigError

OSCILLATORS = ("duffing", "vanderpol")
CHAOTIC = ("rossler", "lorenz")
SYSTEM_NAMES = OSCILLATORS + CHAOTIC
KINDS = ("zero", "constant", "sinusoid", "square", "mixture")
REGIMES = ("zero", "constant", "sinusoid", "square")  # eval's default grid
TRANSIENT_FRACTION = 0.05  # share of each eval run not scored
SEED_LIMIT = 1 << 64  # a seed is one 64-bit Philox key word (``seeding``)


def system_defaults(name: str) -> dict:
    if name in CHAOTIC:
        return {"hidden": [350, 350, 350], "rank": 128}
    return {"hidden": [150, 150, 150], "rank": 32}


# Types: each takes a parsed value and returns it as the setting holds
# it, or raises ValueError naming what it expected.
def integer(v):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError("an integer")
    return v


def real(v):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError("a number")
    return float(v)


def boolean(v):
    if not isinstance(v, bool):
        raise ValueError("true or false")
    return v


def seed(v):
    if not 0 <= integer(v) < SEED_LIMIT:
        raise ValueError("an integer in [0, 2^64)")
    return v


def positive(v):
    if integer(v) < 1:
        raise ValueError("an integer >= 1")
    return v


def int_list(v):
    items = v if isinstance(v, list) else [v]
    if not items or not all(isinstance(x, int) and not isinstance(x, bool)
                            for x in items):
        raise ValueError("comma-separated integers")
    return items


class Choice(NamedTuple):
    """One of ``options``, or with ``many`` a comma list of distinct ones."""

    options: tuple
    many: bool = False

    def __call__(self, v):
        items = v if isinstance(v, list) and self.many else [v]
        if not items or not all(isinstance(x, str) and x in self.options
                                for x in items):
            raise ValueError(("a comma list of " if self.many else "one of ")
                             + ", ".join(self.options))
        if len(set(items)) < len(items):
            raise ValueError("a comma list that repeats no name")
        return items if self.many else v


REQUIRED = object()  # default of a setting the command cannot run without
BY_SYSTEM = object()  # default taken from system_defaults


class Setting(NamedTuple):
    name: str
    commands: tuple
    kind: Callable
    default: object
    key: tuple | None = None   # (section, key) in a config file
    flag: str | None = None
    help: str = ""


SIMULATE = ("gen", "eval", "plot")
NUMERIC = ("gen", "train", "eval", "plot")

SETTINGS = (
    Setting("system", NUMERIC, Choice(SYSTEM_NAMES), REQUIRED,
            ("system", "name"), "--system"),
    Setting("regime", ("gen",), Choice(KINDS), "zero", ("data", "regime"),
            "--regime"),
    Setting("n_train", ("gen",), integer, 100, ("data", "n_train"), "--n"),
    Setting("seed", ("gen",), seed, 1, ("data", "seed"), "--seed"),
    Setting("n_test", ("eval",), integer, 20, ("data", "n_test"), "--n"),
    Setting("test_seed", ("eval", "plot"), seed, 10_000,
            ("data", "test_seed"), "--seed"),
    Setting("dt", SIMULATE, real, 0.05, ("data", "dt"), "--dt"),
    Setting("horizon", SIMULATE, real, 50.0, ("data", "horizon"), "--horizon"),
    Setting("sigma", SIMULATE, real, 0.01, ("data", "sigma"), "--sigma"),
    Setting("regimes", ("eval", "plot"), Choice(KINDS, many=True),
            list(REGIMES), flag="--regimes", help="comma list"),
    Setting("transient", ("eval",), real, TRANSIENT_FRACTION,
            flag="--transient", help="fraction of each run not scored"),
    Setting("seed", ("train",), seed, 7, ("train", "seed"), "--seed"),
    Setting("epochs", ("train",), integer, 2000, ("train", "epochs"),
            "--epochs"),
    Setting("batch", ("train",), integer, 256, ("train", "batch"), "--batch"),
    Setting("lr", ("train",), real, 1e-3, ("train", "lr"), "--lr"),
    Setting("lambda", ("train",), real, 0.1, ("train", "lambda"),
            "--pde-weight", help="physics residual weight"),
    Setting("hidden", ("train",), int_list, BY_SYSTEM, ("train", "hidden"),
            "--hidden", help="map hidden widths"),
    Setting("clip", ("train",), real, 1.0, ("train", "clip")),
    Setting("collocation", ("train",), integer, 256, ("train", "collocation")),
    Setting("normalize", ("train",), boolean, True, ("train", "normalize")),
    Setting("segment_steps", ("train",), integer, 120,
            ("train", "segment_steps")),
    Setting("segment_discard", ("train",), integer, 40,
            ("train", "segment_discard")),
    Setting("segment_batch", ("train",), integer, 2,
            ("train", "segment_batch")),
    Setting("latent_dim", ("train",), integer, None, flag="--latent-dim",
            help="override n_z (experiments only; still verified)"),
    Setting("window", ("train",), integer, 100, ("hypernet", "window"),
            "--window"),
    Setting("lstm_hidden", ("train",), integer, 64,
            ("hypernet", "lstm_hidden")),
    Setting("tau", ("train",), real, 0.01, ("hypernet", "tau")),
    Setting("inj_hidden", ("train",), int_list, [64],
            ("hypernet", "inj_hidden")),
    Setting("rank", ("train",), integer, BY_SYSTEM, ("hypernet", "rank"),
            "--rank"),
    Setting("epsilon", ("train",), real, 0.01, ("curriculum", "epsilon")),
    Setting("patience", ("train",), integer, 10, ("curriculum", "patience")),
    Setting("level_epochs", ("train",), integer, 500,
            ("curriculum", "level_epochs")),
    Setting("blas_threads", NUMERIC, positive, 1, flag="--blas-threads",
            help="OpenBLAS threads; output bytes can depend on them"),
)

SECTIONS = tuple(dict.fromkeys(row.key[0] for row in SETTINGS if row.key))


def defaults(command: str) -> dict:
    """{name: default} of the rows ``command`` reads."""
    return {row.name: row.default for row in SETTINGS
            if command in row.commands}


def parse_value(raw: str):
    raw = raw.strip()
    low = raw.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    if "," in raw:
        try:
            return [int(p) for p in raw.split(",") if p.strip()]
        except ValueError:
            return [p.strip() for p in raw.split(",") if p.strip()]
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def load_config(path) -> dict:
    """Parse a config file into {section: {key: value}}. A file that
    cannot be read raises its OSError; a missing file, text that is not
    UTF-8 and a file that is not INI raise a one-line ConfigError. Values
    are taken as written: no ``%`` interpolation."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except UnicodeDecodeError as e:
        raise ConfigError(
            f"config file {path} is not UTF-8 text: {e.reason}") from None
    except configparser.Error as e:
        raise ConfigError(
            f"bad config file {path}: {' '.join(str(e).split())}") from None
    out: dict = {}
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(
                f"unknown config section [{section}]; expected one of {SECTIONS}"
            )
        known = sorted(row.key[1] for row in SETTINGS
                       if row.key and row.key[0] == section)
        unknown = sorted(set(parser[section]) - set(known))
        if unknown:
            raise ConfigError(
                f"unknown key {unknown[0]!r} in config section [{section}]; "
                f"expected one of {known}"
            )
        out[section] = {
            key: parse_value(val) for key, val in parser.items(section)
        }
    return out


def settings(command: str, flags: dict, conf: dict) -> dict:
    """Resolve every setting ``command`` reads from its flags and config.

    ``flags`` maps setting names to parsed flag values (None when not
    given); ``conf`` is a ``load_config`` result.
    """
    out = {}
    for row in SETTINGS:
        if command not in row.commands:
            continue
        in_file = None
        if row.key:
            section, key = row.key
            raw = conf.get(section, {}).get(key)
            if raw is not None:
                try:
                    in_file = row.kind(raw)
                except ValueError as e:
                    raise ConfigError(
                        f"[{section}] {key} must be {e}, got {raw!r}"
                    ) from None
        default = row.default
        if default is BY_SYSTEM:
            default = system_defaults(out["system"])[row.name]
        given = flags.get(row.name) if row.flag else None
        value = resolve(row.name, given, in_file, default)
        if value is REQUIRED:
            raise ConfigError(
                f"{command} needs {row.flag} or [{row.key[0]}] {row.key[1]}")
        out[row.name] = value
    return out


def resolve(name: str, flag_value, config_value, default=None):
    """Merge one setting from flag and config; disagreement is an error."""
    if flag_value is not None and config_value is not None:
        if flag_value != config_value:
            raise ConfigError(
                f"conflicting values for {name}: flag gives {flag_value!r}, "
                f"config gives {config_value!r}"
            )
        return config_value
    if config_value is not None:
        return config_value
    if flag_value is not None:
        return flag_value
    return default

