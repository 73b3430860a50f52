"""Experiment configuration: flat sectioned key = value files with schema
validation and THERMOFORM_-prefixed environment overrides."""

import configparser
from dataclasses import dataclass, field
import os

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
        "estimator": (str, "spectral"),
        "grid": (int, 256),
    },
    "gibbs": {
        "weight_depth": (int, 4),
        "tail_allowance": (float, 0.05),
        "rho_tol": (float, 1e-8),
        "rho_iters": (int, 1000),
        "variation_kmax": (int, 6),
        "split_parts": (int, 32),
    },
    "output": {
        "plot": ("bool", False),
        "threads": (int, 1),
    },
}


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


@dataclass
class ExperimentConfig:
    values: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.values[key]

    def get(self, key, default=None):
        return self.values.get(key, default)

    def sweep_config(self):
        """Flatten into the mapping run_sweep expects."""
        v = self.values
        return {
            "family": v["family"],
            "parameter": v["parameter"],
            "t_values": v["t_values"],
            "ladder": v["ladder"],
            "ladder_direction": v["ladder_direction"],
            "base_depth": v["base_depth"],
            "delta": v["delta"],
            "n_max": v["n_max"],
            "bins": v["bins"],
            "tower_height": v["height"],
            "pressure_grid": v["grid"],
            "split_parts": v["split_parts"],
            "tau_cap": v["tau_cap"],
            "weight_depth": min(v["weight_depth"], 2),
            "variation_kmax": min(v["variation_kmax"], 4),
            "require_boundary": v["require_boundary"],
            "threads": v["threads"],
        }


def load_config(path, env=None) -> ExperimentConfig:
    """Parse and validate a config file; env vars override file values.

    Unknown sections or keys are errors naming the allowed set; enviroment
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
    for section, keys in _SCHEMA.items():
        for key, (kind, default) in keys.items():
            values[key] = default
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
    _validate(values)
    return ExperimentConfig(values)


def _validate(v):
    if v["family"] is None:
        raise ConfigError("missing required key: [experiment] family")
    if v["family"] not in FAMILIES:
        raise ConfigError(
            f"unknown family '{v['family']}'; registry: {sorted(FAMILIES)}"
        )
    for key in ("delta", "tol", "rho_tol", "tail_allowance"):
        if key in v and v[key] is not None and v[key] <= 0:
            raise ConfigError(f"{key} must be positive")
    ladder = v["ladder"]
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigError("ladder offsets must be strictly decreasing")
    if any(not (t == t and abs(t) < 1e6) for t in v["t_values"]):
        raise ConfigError("t_values must be finite")
    if v["bracket_lo"] >= v["bracket_hi"]:
        raise ConfigError("pressure bracket must satisfy lo < hi")
