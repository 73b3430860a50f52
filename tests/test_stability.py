"""The stability sweep: per-rung error annotation, config keys, and the
process-pool path."""

import math

import pytest

from thermoform import stability
from thermoform.errors import ConfigError, SingularPotentialError
from tests.conftest import SWEEP_CONFIG

CONFIG = {"family": "tent", "parameter": 1.9, "t_values": (1.0,),
          "ladder": (0.005,), "ladder_direction": -1.0, "base_depth": 2,
          "n_max": 12, "bins": 512, "split_parts": 8}


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
    # two tent rungs at t = 0.9 and 1: the pool's workers get the parent's
    # base record, and every rung meets the closed form P(t) = (1-t) log s
    config = dict(SWEEP_CONFIG, ladder=(0.01, 0.005), n_max=12, bins=512)
    paths = []
    for threads in (1, 2):
        report = stability.run_sweep(dict(config, threads=threads))
        paths.append(tmp_path / f"threads{threads}.csv")
        stability.report_to_csv(report, paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert len(report.rows) == 4
    for row in report.rows:
        assert row.error == ""
        # the n_max 12 truncation bias is 5.0e-3 to 5.7e-3
        closed = (1.0 - row.t) * math.log(row.parameter)
        assert row.pressure == pytest.approx(closed, abs=1e-2)
    for off in config["ladder"]:
        rung = {r.t: r for r in report.rows if r.offset == off}
        s = rung[1.0].parameter
        assert rung[0.9].pressure - rung[1.0].pressure == \
            pytest.approx(0.1 * math.log(s), abs=1e-5)
