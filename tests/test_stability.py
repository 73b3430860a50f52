"""The stability sweep: per-rung error annotation, config keys, and the
process-pool path."""

import dataclasses
import math
import weakref

import numpy as np
import pytest

from thermoform import stability
from thermoform.config import gibbs_kwargs, resolve
from thermoform.errors import (
    ConfigError, IncomparableSchemesError, SingularPotentialError,
)
from thermoform.thermo import SpectralOperator, gibbs_state
from tests.conftest import SWEEP_CONFIG, branch_rows

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


def loop_mismatch(base, scheme_b, gs_b, tau_cap):
    """cylinder_mass_mismatch in its dict-and-loop form, over BranchRows."""
    bys_a = {b.itinerary: b for b in branch_rows(base.branches)
             if b.tau <= tau_cap}
    branches_b = branch_rows(scheme_b.branches)
    total = 0.0
    matched_a = set()
    dens_b = np.array([
        float(gs_b.branch_mu[j]) / max(b.width, 1e-300)
        for j, b in enumerate(branches_b)
    ])
    for j, bb in enumerate(branches_b):
        if bb.tau > tau_cap:
            continue
        ba = bys_a.get(bb.itinerary)
        if ba is None:
            total += float(gs_b.branch_mu[j])
            continue
        matched_a.add(bb.itinerary)
        if ba.hi <= bb.lo or bb.hi <= ba.lo:
            sym = ba.width + bb.width
        else:
            sym = abs(ba.lo - bb.lo) + abs(ba.hi - bb.hi)
        total += dens_b[j] * sym
    for itin, ba in bys_a.items():
        if itin in matched_a:
            continue
        for j, bb in enumerate(branches_b):
            lo = max(ba.lo, bb.lo)
            hi = min(ba.hi, bb.hi)
            if hi > lo:
                total += dens_b[j] * (hi - lo)
    return total


def test_cylinder_mass_mismatch_matches_loop():
    # logistic a = 4 against a = 3.99: up to tau 8 each scheme has
    # itineraries the other lacks, so every kind of term is added
    cfg = resolve({"family": "logistic", "parameter": 4.0, "n_max": 16,
                   "t_values": (1.0,), "bins": 512})
    gibbs = gibbs_kwargs(cfg)
    base = stability._base_state(cfg, gibbs, (1.0,))
    _, scheme = stability._pipeline_state("logistic", 3.99, base.itinerary, cfg)
    gs = gibbs_state(SpectralOperator(scheme, cfg["grid"]), 1.0, **gibbs)
    ours, theirs = ({b.itinerary for b in branch_rows(br) if b.tau <= 8}
                    for br in (base.branches, scheme.branches))
    assert ours - theirs and theirs - ours
    got = stability.cylinder_mass_mismatch(base, scheme, gs, 8)
    assert got == loop_mismatch(base, scheme, gs, 8)
    other = dataclasses.replace(base, itinerary=base.itinerary + (0,))
    with pytest.raises(IncomparableSchemesError):
        stability.cylinder_mass_mismatch(other, scheme, gs, 8)


def test_rung_frees_each_gibbs_state(monkeypatch):
    # the base holds its states until it projects them all in one call; a
    # rung drops each t's state before it solves the next t
    refs, alive = [], []
    solve = stability.gibbs_state

    def tracked(op, t, **kw):
        alive.append(sum(r() is not None for r in refs))
        gs = solve(op, t, **kw)
        refs.append(weakref.ref(gs))
        return gs

    monkeypatch.setattr(stability, "gibbs_state", tracked)
    stability.run_sweep(dict(CONFIG, t_values=(0.9, 1.0), threads=1))
    assert len(alive) == 4
    assert alive[2:] == [0, 0]      # the rung's calls
