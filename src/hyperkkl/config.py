"""Key-value run configuration.

Config files are INI-style with the sections [system], [data], [train],
[curriculum], and [hypernet]; values are parsed as bool/int/float/str or
comma-separated integer lists (for layer widths). A key its section
does not know is an error, so a misspelt setting cannot silently fall
back to its default. A value present both in the config file and as an
explicit command-line flag must agree — silent precedence is a
reproducibility hazard, so conflicts are errors.

Per-system architecture defaults follow the benchmark split: 150-unit
3-layer maps with rank-32 heads for the planar oscillators, 350-unit
maps with rank-128 heads for the chaotic systems.
"""

from __future__ import annotations

import configparser
from pathlib import Path

from .errors import ConfigError

SECTIONS = ("system", "data", "train", "curriculum", "hypernet")

OSCILLATORS = ("duffing", "vanderpol")
CHAOTIC = ("rossler", "lorenz")


def system_defaults(name: str) -> dict:
    if name in CHAOTIC:
        return {"hidden": [350, 350, 350], "rank": 128}
    return {"hidden": [150, 150, 150], "rank": 32}


DEFAULTS = {
    "data": {
        "dt": 0.05,
        "horizon": 50.0,
        "sigma": 0.01,
        "n_train": 100,
        "n_test": 20,
        "regime": "zero",
        "seed": 1,
        "test_seed": 10_000,
    },
    "train": {
        "epochs": 2000,
        "batch": 256,
        "lr": 1e-3,
        "lambda": 0.1,
        "clip": 1.0,
        "collocation": 256,
        "normalize": True,
        "seed": 7,
        "segment_steps": 120,
        "segment_discard": 40,
        "segment_batch": 2,
    },
    "curriculum": {
        "epsilon": 0.01,
        "patience": 10,
        "level_epochs": 500,
    },
    "hypernet": {
        "window": 100,
        "lstm_hidden": 64,
        "tau": 0.01,
        "inj_hidden": 64,
    },
}


# Keys a config file may set that have no entry in DEFAULTS: the system
# name, and the widths and rank whose defaults depend on the system.
SYSTEM_DEPENDENT_KEYS = {
    "system": ("name",),
    "train": ("hidden",),
    "hypernet": ("rank",),
}


def _known_keys(section: str) -> set:
    return set(DEFAULTS.get(section, ())) | set(
        SYSTEM_DEPENDENT_KEYS.get(section, ())
    )


def _parse_value(raw: str):
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
    """Parse a config file into {section: {key: value}}."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as e:
        raise ConfigError(f"bad config file {path}: {e}") from e
    out: dict = {}
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(
                f"unknown config section [{section}]; expected one of {SECTIONS}"
            )
        unknown = sorted(set(parser[section]) - _known_keys(section))
        if unknown:
            raise ConfigError(
                f"unknown key {unknown[0]!r} in config section [{section}]; "
                f"expected one of {sorted(_known_keys(section))}"
            )
        out[section] = {
            key: _parse_value(val) for key, val in parser.items(section)
        }
    return out


def resolve(name: str, flag_value, config_value, default=None):
    """Merge one setting from flag and config; disagreement is an error."""
    if flag_value is not None and config_value is not None:
        if _normalize(flag_value) != _normalize(config_value):
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


def _normalize(v):
    if isinstance(v, (list, tuple)):
        return tuple(_normalize(x) for x in v)
    if isinstance(v, bool):
        return v
    if isinstance(v, (int, float)):
        return float(v)
    return v
