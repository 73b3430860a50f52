"""The stability sweep: per-rung error annotation, config keys, and the
process-pool path."""

import math

import pytest

from thermoform import stability
from thermoform.errors import ConfigError, SingularPotentialError

CONFIG = {"family": "tent", "parameter": 1.9, "t_values": (1.0,),
          "ladder": (0.005,), "ladder_direction": -1.0, "base_depth": 2,
          "n_max": 12, "bins": 512, "split_parts": 8, "weight_depth": 1}


def test_rung_assembly_error_keeps_c2(monkeypatch):
    # an operator that cannot be assembled on the rung annotates each row and
    # keeps the rung's C^2 distance, computed before the assembly
    base_scheme = []

    class RungFails(stability.SpectralOperator):
        def __init__(self, scheme, grid=256):
            if base_scheme:
                raise SingularPotentialError("zero derivative on the rung")
            base_scheme.append(scheme)
            super().__init__(scheme, grid)

    monkeypatch.setattr(stability, "SpectralOperator", RungFails)
    report = stability.run_sweep(CONFIG)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.error.startswith("SingularPotentialError")
    assert row.c2 > 0.0 and math.isfinite(row.c2)
    assert math.isnan(row.pressure)


def test_unknown_key_raises():
    with pytest.raises(ConfigError, match="n_maxx"):
        stability.run_sweep(dict(CONFIG, n_maxx=12))


def test_serial_and_pool_rows_identical(tmp_path):
    paths = []
    for threads in (1, 2):
        report = stability.run_sweep(dict(CONFIG, threads=threads))
        paths.append(tmp_path / f"threads{threads}.csv")
        stability.report_to_csv(report, paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()
