"""Config files: the defaults table, parsing, environment overrides and
the mapping to gibbs_state's arguments."""

import pytest

import inspect

from thermoform.config import (
    DEFAULTS, _SCHEMA, gibbs_kwargs, load_config, resolve,
)
from thermoform.errors import ConfigError
from thermoform.thermo import SpectralOperator, gibbs_state, project_measure
from thermoform.tower import build_tower


def write(tmp_path, text):
    path = tmp_path / "config.ini"
    path.write_text(text)
    return str(path)


def test_defaults_match_schema(tmp_path):
    want = {}
    for keys in _SCHEMA.values():
        for key, (_, default) in keys.items():
            assert key not in want, f"{key} in two sections"
            want[key] = default
    assert DEFAULTS == want
    assert len(DEFAULTS) == 20
    cfg = load_config(write(tmp_path, "[experiment]\nfamily = cheb\n"), env={})
    assert cfg == dict(DEFAULTS, family="cheb")


def test_env_override_beats_file(tmp_path):
    path = write(tmp_path, "[experiment]\nfamily = tent\nn_max = 12\n")
    assert load_config(path, env={})["n_max"] == 12
    assert load_config(path, env={"THERMOFORM_N_MAX": "7"})["n_max"] == 7


def test_unknown_section_and_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(write(tmp_path, "[experiment]\nfamily = cheb\n[solver]\n"),
                    env={})
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(write(tmp_path, "[experiment]\nfamily = cheb\n"
                                    "[gibbs]\ntail_allowance = 0.05\n"), env={})
    with pytest.raises(ConfigError, match="unknown keys"):
        resolve({"family": "cheb", "n_maxx": 12})


def test_bool_and_float_list_parsing(tmp_path):
    cfg = load_config(write(tmp_path, (
        "[experiment]\nfamily = cheb\nrequire_boundary = yes\n"
        "t_values = 0.5, 1.0 1.25\n")), env={})
    assert cfg["require_boundary"] is True
    assert cfg["t_values"] == (0.5, 1.0, 1.25)
    cfg = load_config(write(tmp_path, "[experiment]\nfamily = cheb\n"
                                      "require_boundary = off\n"), env={})
    assert cfg["require_boundary"] is False
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(write(tmp_path, "[experiment]\nfamily = cheb\n"
                                    "require_boundary = maybe\n"), env={})


def test_gibbs_kwargs_renames():
    kw = gibbs_kwargs(resolve({"family": "cheb", "tol": 1e-6,
                               "bracket_lo": -1.0, "bracket_hi": 2.0}))
    assert kw == {"pressure_tol": 1e-6, "bracket": (-1.0, 2.0)}


def signature_defaults(fn):
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()
            if p.default is not inspect.Parameter.empty}


def test_signature_defaults_match_schema():
    # tests that call these without the config's values run the CLI's settings
    gibbs = signature_defaults(gibbs_state)
    assert {k: gibbs[k] for k in gibbs_kwargs(DEFAULTS)} == gibbs_kwargs(DEFAULTS)
    measure = signature_defaults(project_measure)
    assert (measure["bins"], measure["split_parts"]) == \
        (DEFAULTS["bins"], DEFAULTS["split_parts"])
    assert signature_defaults(build_tower)["max_domains"] == DEFAULTS["max_domains"]
    assert signature_defaults(SpectralOperator)["grid"] == DEFAULTS["grid"]
