"""Experiment configuration: flat sectioned key = value files with schema
validation and THERMOFORM_-prefixed environment overrides."""

import configparser
import os

from .cylinders import MAX_DEPTH
from .errors import ConfigError
from .maps import FAMILIES

ENV_PREFIX = "THERMOFORM_"

# section -> key -> (parser, default); None default means required
_SCHEMA = {
    "experiment": {
        "family": (str, None),
        "parameter": (float, 0.0),
        "t_values": ("floats", (1.0,)),
        "ladder": ("floats", (0.05, 0.02, 0.01, 0.005)),
        "ladder_direction": (float, 1.0),
        "base_depth": (int, 2),
        "delta": (float, 0.1),
        "n_max": (int, 20),
        "bins": (int, 4096),
        "out_dir": (str, "out"),
        "tau_cap": (int, 8),
        "require_boundary": ("bool", False),
    },
    "tower": {
        "height": (int, 8),
        "max_domains": (int, 100_000),
    },
    "pressure": {
        "bracket_lo": (float, -5.0),
        "bracket_hi": (float, 5.0),
        "tol": (float, 1e-4),
        "grid": (int, 256),
    },
    "gibbs": {
        "weight_depth": (int, 4),
        "split_parts": (int, 32),
    },
    "output": {
        "threads": (int, 1),
    },
}

# key -> default, the flat namespace every command and run_sweep read
DEFAULTS = {key: default for keys in _SCHEMA.values()
            for key, (_, default) in keys.items()}


def _parse_value(kind, raw, where):
    raw = raw.strip()
    try:
        if kind is str:
            return raw
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind == "bool":
            if raw.lower() in ("1", "true", "yes", "on"):
                return True
            if raw.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        if kind == "floats":
            return tuple(float(x) for x in raw.replace(",", " ").split())
    except ValueError as e:
        raise ConfigError(f"{where}: cannot parse '{raw}'") from e
    raise ConfigError(f"{where}: unknown schema kind {kind}")


def load_config(path, env=None) -> dict:
    """Parse and validate a config file; env vars override file values.

    Returns the flat dict of resolved values, every schema key present.
    Unknown sections or keys are errors naming the allowed set; environment
    overrides use THERMOFORM_<KEY> with the flat key name uppercased.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser()
    try:
        cp.read(path)
    except configparser.Error as e:
        raise ConfigError(f"cannot parse {path}: {e}") from e
    values = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(
                f"unknown section [{section}]; allowed: {sorted(_SCHEMA)}"
            )
        for key, raw in cp[section].items():
            if key not in _SCHEMA[section]:
                raise ConfigError(
                    f"unknown key '{key}' in [{section}]; allowed: "
                    f"{sorted(_SCHEMA[section])}"
                )
            kind, _ = _SCHEMA[section][key]
            values[key] = _parse_value(kind, raw, f"[{section}] {key}")
    env = os.environ if env is None else env
    for section, keys in _SCHEMA.items():
        for key, (kind, _) in keys.items():
            var = ENV_PREFIX + key.upper()
            if var in env:
                values[key] = _parse_value(kind, env[var], var)
    return resolve(values)


def resolve(values) -> dict:
    """Merge a flat key -> value mapping onto DEFAULTS and validate it.

    Keys the schema does not define are errors, not ignored.
    """
    unknown = sorted(set(values) - set(DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown keys {unknown}; allowed: {sorted(DEFAULTS)}")
    v = dict(DEFAULTS, **values)
    _validate(v)
    return v


def gibbs_kwargs(v) -> dict:
    """gibbs_state's keyword arguments from resolved config values."""
    return {
        "weight_depth": v["weight_depth"],
        "pressure_tol": v["tol"],
        "bracket": (v["bracket_lo"], v["bracket_hi"]),
    }


def _validate(v):
    if v["family"] is None:
        raise ConfigError("missing required key: [experiment] family")
    if v["family"] not in FAMILIES:
        raise ConfigError(
            f"unknown family '{v['family']}'; registry: {sorted(FAMILIES)}"
        )
    for key in ("delta", "tol"):
        if v[key] <= 0:
            raise ConfigError(f"{key} must be positive")
    for key, least in (("height", 1), ("grid", 2), ("bins", 1),
                       ("split_parts", 1), ("n_max", 1), ("weight_depth", 1),
                       ("max_domains", 1), ("threads", 1)):
        if v[key] < least:
            raise ConfigError(f"{key} must be >= {least}")
    if not 0 <= v["base_depth"] <= MAX_DEPTH:
        raise ConfigError(f"base_depth must lie in 0..{MAX_DEPTH}")
    ladder = v["ladder"]
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigError("ladder offsets must be strictly decreasing")
    if any(not (t == t and abs(t) < 1e6) for t in v["t_values"]):
        raise ConfigError("t_values must be finite")
    if v["bracket_lo"] >= v["bracket_hi"]:
        raise ConfigError("pressure bracket must satisfy lo < hi")
